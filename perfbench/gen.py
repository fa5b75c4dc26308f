"""Workload inputs, generated from the workload seed outside the timed region.

The program under test only ever sees the files written here. Every
generator takes a ``numpy.random.Generator`` derived from the workload seed
(and a round index where a workload needs fresh inputs per round), so the
same seed always yields byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# eval-corpus table: ~2000 tokens in ~200 synonym clusters, d = 50.
TABLE_TOKENS = 2000
TABLE_CLUSTERS = 200
TABLE_DIM = 50
# Within-cluster spread: synonyms sit at cosine ~0.9 to each other and
# ~0 to other clusters, so transport costs are continuous, not 0/1.
CLUSTER_NOISE = 0.35
ZIPF_EXPONENT = 1.1
MIN_LEN, MAX_LEN = 4, 20
PARAPHRASE_RATE = 0.5  # share of a reference's tokens swapped for a synonym


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


class ClusteredVocabulary:
    """Token names, their vectors, and their synonym clusters."""

    def __init__(self, rng: np.random.Generator):
        centers = rng.standard_normal((TABLE_CLUSTERS, TABLE_DIM))
        self.cluster = np.arange(TABLE_TOKENS) % TABLE_CLUSTERS
        self.vectors = centers[self.cluster] + CLUSTER_NOISE * rng.standard_normal((TABLE_TOKENS, TABLE_DIM))
        self.names = [f"w{i}" for i in range(TABLE_TOKENS)]
        # Zipf frequencies over a seed-dependent rank order of the tokens.
        ranks = rng.permutation(TABLE_TOKENS) + 1
        weights = 1.0 / ranks.astype(float) ** ZIPF_EXPONENT
        self.freq = weights / weights.sum()

    def write(self, path: Path) -> None:
        lines = [f"{TABLE_TOKENS} {TABLE_DIM}"]
        lines += [name + " " + " ".join(f"{x:.6f}" for x in vec) for name, vec in zip(self.names, self.vectors)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def sentences(self, rng: np.random.Generator, count: int) -> list[list[int]]:
        # Lengths are spread evenly over [MIN_LEN, MAX_LEN] and shuffled rather
        # than drawn: solver work grows with the square of the padded length,
        # so drawn lengths would make a run's work depend on the seed.
        span = MAX_LEN - MIN_LEN + 1
        lengths = rng.permutation(MIN_LEN + (np.arange(count) * span) // count)
        return [rng.choice(TABLE_TOKENS, size=int(n), p=self.freq).tolist() for n in lengths]

    def paraphrase(self, rng: np.random.Generator, sentence: list[int]) -> list[int]:
        out = []
        for tok in sentence:
            if rng.random() < PARAPHRASE_RATE:
                members = np.flatnonzero(self.cluster == self.cluster[tok])
                tok = int(rng.choice(members))
            out.append(tok)
        return out

    def write_corpus(self, path: Path, sentences: list[list[int]]) -> None:
        text = "\n".join(" ".join(self.names[t] for t in s) for s in sentences)
        path.write_text(text + "\n", encoding="utf-8")


def paraphrase_corpora(vocab: ClusteredVocabulary, rng: np.random.Generator, count: int):
    """``count`` reference sentences and, in shuffled order, a paraphrase of each."""
    refs = vocab.sentences(rng, count)
    hyps = [vocab.paraphrase(rng, refs[i]) for i in rng.permutation(count)]
    return hyps, refs


# The A7 self-imitation arm (ROADMAP item 1), pinned here rather than read
# from DEFAULT_EXPERIMENT_CONFIG so that retuning that default cannot shift
# the workload.
A7_TRAIN_CONFIG = """\
steps = {steps}
seed = {seed}
env = markov
env_seed = {env_seed}
vocab_size = 8
horizon = 8
oracle_concentration = 0.3
reference_count = 16
policy = tabular
variant = wsil_i
lambda_sil = {lambda_sil}
k = 5
k_prime = 5
learning_rate = 0.02
sil_initial = {sil_initial}
sil_final = {sil_final}
sil_ramp_steps = {sil_ramp_steps}
baseline = constant
buffer_capacity = 16
buffer_criterion = reward
pretrain = true
"""


def train_config(arm: str, seed: int, env_seed: int, steps: int = 2000) -> str:
    """A7 config text for the ``wsil`` arm or its ``reinforce`` control."""
    if arm == "wsil":
        return A7_TRAIN_CONFIG.format(steps=steps, seed=seed, env_seed=env_seed, lambda_sil=3.0,
                                      sil_initial=0.1, sil_final=1.0, sil_ramp_steps=500)
    if arm == "reinforce":
        return A7_TRAIN_CONFIG.format(steps=steps, seed=seed, env_seed=env_seed, lambda_sil=0.0,
                                      sil_initial=0.0, sil_final=0.0, sil_ramp_steps=0)
    raise ValueError(f"unknown training arm {arm!r}")
