"""The three workloads: their inputs, their CLI calls and their summaries.

Each workload is a closed loop with one client: the next ``seqot`` command
starts only after the previous one returned. Work comes in rounds; a round's
inputs are generated (untimed) just before it runs, from the workload seed
and the round index, so no two rounds repeat work a cache could reuse.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from seqot.configfile import build_training_setup, parse_config_text
from seqot.sil_rl import Policy, PolicyKind

from exact import exact_markov_reward
from gen import ClusteredVocabulary, paraphrase_corpora, rng_for, train_config


@dataclass
class Call:
    """One ``seqot`` invocation and what the checks need to judge it."""

    op: str
    argv: list
    out: Path
    inputs: dict = field(default_factory=dict)
    wall_s: float = 0.0
    exit_code: int | None = None


class EvalCorpus:
    """Scoring traffic: ``score --corpus``, ``nested`` and ``metrics --order 4``.

    Continuous costs over a clustered table with variable padded sizes: the
    solver runs hundreds of iterations per pair and some pairs reach the
    iteration cap. Every (hypothesis, reference) pair is distinct, within a
    round and across rounds, so a pair-score cache has nothing to reuse.
    """

    name = "eval-corpus"
    score_lines = 16  # 16 x 16 = 256 scored pairs per round
    nested_k = 16
    metrics_lines = 1000

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.vocab = ClusteredVocabulary(rng_for(seed, 0))
        self.table = work / "table.txt"
        self.vocab.write(self.table)

    def setup_code(self) -> str:
        return f"seqot.cli.load_embeddings({str(self.table)!r})"

    def round(self, index: int) -> list[Call]:
        folder = self.work / f"round{index}"
        folder.mkdir()
        rng = rng_for(self.seed, 1, index)
        files = {}
        for part, count in (("score", self.score_lines), ("nested", self.nested_k), ("metrics", self.metrics_lines)):
            hyps, refs = paraphrase_corpora(self.vocab, rng, count)
            files[part] = (folder / f"{part}_hyp.txt", folder / f"{part}_ref.txt")
            self.vocab.write_corpus(files[part][0], hyps)
            self.vocab.write_corpus(files[part][1], refs)
        table = str(self.table)
        k = str(self.nested_k)
        out = {part: folder / f"{part}.json" for part in files}
        return [
            Call("score", ["score", *map(str, files["score"]), "--corpus", "--embeddings", table,
                           "--out", str(out["score"])], out["score"],
                 {"table": self.table, "hyp": files["score"][0], "ref": files["score"][1],
                  "pairs": self.score_lines * self.score_lines}),
            Call("nested", ["nested", *map(str, files["nested"]), "--k", k, "--k-prime", k,
                            "--embeddings", table, "--out", str(out["nested"])], out["nested"]),
            Call("metrics", ["metrics", *map(str, files["metrics"]), "--order", "4",
                             "--out", str(out["metrics"])], out["metrics"]),
        ]

    def summarize(self, rounds: list[list[Call]]) -> tuple[dict, dict]:
        """End-to-end and per-command metrics of the timed rounds."""
        score, nested, metrics = zip(*rounds)
        pairs_per_s = sum(c.inputs["pairs"] for c in score) / sum(c.wall_s for c in score)
        round_wall = sum(c.wall_s for batch in rounds for c in batch) / len(rounds)
        end_to_end = {"items_per_s": (pairs_per_s, "1/s"), "round_wall_s": (round_wall, "s")}
        commands = {
            "score.pairs_per_s": (pairs_per_s, "1/s"),
            "nested.wall_s": (statistics.median(c.wall_s for c in nested), "s"),
            "metrics.wall_s": (statistics.median(c.wall_s for c in metrics), "s"),
            "train.steps_per_s": (0.0, "1/s"),
            "train.final_reward": (0.0, "nats"),
        }
        return end_to_end, commands


class Training:
    """``seqot train`` on the A7 settings: the self-imitation arm or its
    REINFORCE control (imitation weight 0, schedule never firing).

    Both arms train the same env with the same sequence of training seeds.
    The env is pinned to A7 env 0: solver work per update differs about 5x
    between envs (a 2000-step self-imitation arm takes 3.8 s to 20 s across
    envs 0-11), which would drown any change in the throughput figures. The
    workload seed selects the training seeds, which move the cost by a few
    percent.
    """

    env_seed = 0
    steps = 2000

    def __init__(self, work: Path, seed: int, arm: str):
        self.work, self.seed, self.arm = work, seed, arm
        self.name = f"train-{arm}"

    def config_text(self, index: int) -> str:
        training_seed = int(rng_for(self.seed, 2, index).integers(2**31))
        return train_config(self.arm, training_seed, self.env_seed, self.steps)

    def setup_code(self) -> str:
        return (
            "seqot.cli.build_training_setup(seqot.cli.parse_config_text("
            f"{self.config_text(0)!r}))"
        )

    def round(self, index: int) -> list[Call]:
        config = self.work / f"train{index}.cfg"
        config.write_text(self.config_text(index), encoding="utf-8")
        out = self.work / f"train{index}"
        return [Call("train", ["train", str(config), "--out", str(out)], out,
                     {"steps": self.steps, "config": config})]

    def final_reward(self, call: Call) -> float:
        """Exact expected reward of the trained policy, in nats above the
        uniform chain: E_pi[log p_oracle(Y)] + H log V.

        The shift by H log V (the log-likelihood of any sequence under a
        uniform chain) keeps the figure positive; differences between runs
        are exactly those of E_pi[log p_oracle(Y)].
        """
        setup = build_training_setup(parse_config_text(call.inputs["config"].read_text(encoding="utf-8")))
        snapshot = json.loads((call.out / "policy.json").read_text(encoding="utf-8"))
        policy = Policy(PolicyKind(snapshot["kind"]), snapshot["vocab_size"], snapshot["horizon"],
                        snapshot["params"], snapshot["temperature"])
        env = setup.env
        return exact_markov_reward(policy, env.oracle, env.horizon) + env.horizon * math.log(env.vocab_size)

    def summarize(self, rounds: list[list[Call]]) -> tuple[dict, dict]:
        calls = [c for batch in rounds for c in batch]
        steps_per_s = sum(c.inputs["steps"] for c in calls) / sum(c.wall_s for c in calls)
        end_to_end = {
            "items_per_s": (steps_per_s, "1/s"),
            "round_wall_s": (statistics.mean(c.wall_s for c in calls), "s"),
        }
        commands = {
            "score.pairs_per_s": (0.0, "1/s"),
            "nested.wall_s": (0.0, "s"),
            "metrics.wall_s": (0.0, "s"),
            "train.steps_per_s": (steps_per_s, "1/s"),
            # the first training only: its seed is the same on both arms and
            # however many trainings fit in the run
            "train.final_reward": (self.final_reward(calls[0]), "nats"),
        }
        return end_to_end, commands


def make(name: str, work: Path, seed: int):
    if name == "eval-corpus":
        return EvalCorpus(work, seed)
    if name in ("train-wsil", "train-reinforce"):
        return Training(work, seed, name.removeprefix("train-"))
    raise ValueError(f"unknown workload {name!r}")

