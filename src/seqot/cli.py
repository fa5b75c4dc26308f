"""Command-line surface: pair scoring, set-vs-set distance, n-gram metrics,
metric comparison tables, and reproducible toy training runs.

All commands emit machine-readable JSON (human-readable tables behind
``--table``), embed a run manifest in every artifact (see
:func:`build_manifest`), and use the exit-code convention 0 = success,
2 = usage/input error, 1 = internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .configfile import ConfigError, build_training_setup, parse_config_text
from .embeddings import EmbeddingError, OovPolicy, load_embeddings, read_input
from .nested import NestedSolveError, OuterNotConvergedError, best_matches, nested_wasserstein, score_matrices
from .seq_match import score_pair
from .sil_rl.train import DivergedError, file_log_record, train
from .text_metrics import (
    BLEU_ORDERS,
    BleuReport,
    EmptyCorpusError,
    TooFewSentencesError,
    corpus_bleu,
    naive_semantic_score,
    subsample,
)


class UsageError(ValueError):
    """Bad input the user can fix; reported with exit code 2."""


_INPUT_ERRORS = (UsageError, ConfigError, DivergedError, EmbeddingError, EmptyCorpusError, TooFewSentencesError,
                 OuterNotConvergedError, OSError)


class Corpus(list):
    """A corpus file's sentences; ``lines[i]`` is the file line sentence
    ``i`` came from, counted as :func:`seqot.embeddings.read_input` counts."""

    def __init__(self, sentences: list[list[str]], lines: list[int]):
        super().__init__(sentences)
        self.lines = lines


def read_corpus(path, lowercase: bool = False) -> Corpus:
    """One sentence per line, split into tokens as a table row is split into
    fields (see :func:`seqot.embeddings.read_input`); blank lines skipped."""
    # one decode per line, of its tokens joined at single spaces (no token holds one)
    texts = [b" ".join(line.split()).decode() for line in read_input(path).splitlines()]
    sentences = [(text.lower() if lowercase else text).split(" ") for text in texts if text]
    if not sentences:
        raise UsageError(f"{path}: no sentences found")
    return Corpus(sentences, [number for number, text in enumerate(texts, start=1) if text])


def _load_table(args) -> "EmbeddingTable":
    policy = OovPolicy.HASH_FALLBACK if args.oov == "hash" else OovPolicy.STRICT
    return load_embeddings(args.embeddings, policy)


def build_manifest(command: str, config: dict, inputs: list, seed: int | None) -> dict:
    """Enough resolved state to reproduce an output byte for byte: command,
    resolved configuration, sha256 of each input file's bytes as
    :func:`read_input` reads them, seed and tool version. Nothing
    time-dependent goes in, so identical invocations give identical bytes."""
    return {
        "command": command,
        "config": config,
        "inputs": {str(p): hashlib.sha256(read_input(p)).hexdigest() for p in inputs},
        "seed": seed,
        "version": __version__,
    }


def _emit(args, config: dict, inputs: list, body: dict, table_rows: list) -> None:
    """Write a scoring command's JSON, its manifest first, or with
    ``--table`` its rows as CSV with ``\\n`` line ends."""
    if args.table:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(table_rows)
        rendered = buffer.getvalue()
    else:
        payload = {"manifest": build_manifest(args.command, config, inputs, args.seed), **body}
        rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


def _resolved_common(args, extra: dict) -> dict:
    return {"oov": args.oov, "lowercase": bool(args.lowercase), **extra}


def cmd_score(args) -> int:
    table = _load_table(args)
    hyps = read_corpus(args.hyp_file, args.lowercase)
    refs = read_corpus(args.ref_file, args.lowercase)

    if args.corpus:
        pairs = [
            {"index": index, "w_distance": distance, "w_reward": reward}
            for index, (_, distance, reward) in enumerate(best_matches(table, hyps, refs))
        ]
    else:
        if len(hyps) != len(refs):
            paired = min(len(hyps), len(refs))
            path, longer = (args.hyp_file, hyps) if len(hyps) > paired else (args.ref_file, refs)
            raise UsageError(
                f"pairwise mode needs equal line counts, got {len(hyps)} hypotheses"
                f" and {len(refs)} references (first unpaired: {path} line {longer.lines[paired]})"
            )
        pairs = []
        for index, (hyp, ref) in enumerate(zip(hyps, refs)):
            scored = score_pair(table, hyp, ref)
            pairs.append({"index": index, "w_distance": scored.distance, "w_reward": scored.reward})

    body = {
        "pairs": pairs,
        "mean_distance": float(np.mean([p["w_distance"] for p in pairs])),
        "mean_reward": float(np.mean([p["w_reward"] for p in pairs])),
    }
    fields = ["index", "w_distance", "w_reward"]
    _emit(args, _resolved_common(args, {"mode": "corpus" if args.corpus else "pairwise"}),
          [args.embeddings, args.hyp_file, args.ref_file], body, [fields, *([p[f] for f in fields] for p in pairs)])
    return 0


def cmd_nested(args) -> int:
    table = _load_table(args)
    corpus_a = read_corpus(args.corpus_a, args.lowercase)
    corpus_b = read_corpus(args.corpus_b, args.lowercase)
    set_a, idx_a = subsample(corpus_a, args.k, np.random.default_rng([args.seed, 0]))
    set_b, idx_b = subsample(corpus_b, args.k_prime, np.random.default_rng([args.seed, 1]))

    result = nested_wasserstein(table, set_a, set_b)
    rows, cols = result.seq_cost_matrix.shape
    body = {
        "w_nc": result.distance,
        "outer_plan": {
            "rows": rows,
            "cols": cols,
            "converged": result.outer_plan.converged,
            "iterations_used": result.outer_plan.iterations_used,
            "values": result.outer_plan.values.tolist(),
        },
        "per_hyp_reward": result.per_hyp_reward.tolist(),
        "subsample_a": idx_a,
        "subsample_b": idx_b,
    }
    rows = [["w_nc", result.distance], *([f"r_ns[{i}]", r] for i, r in enumerate(body["per_hyp_reward"]))]
    _emit(args, _resolved_common(args, {"k": args.k, "k_prime": args.k_prime}),
          [args.embeddings, args.corpus_a, args.corpus_b], body, rows)
    return 0


def cmd_metrics(args) -> int:
    hyps = read_corpus(args.hyp_file, args.lowercase)
    refs = read_corpus(args.ref_file, args.lowercase)
    report = asdict(BleuReport.compute(hyps, refs, args.order, seed=args.seed))
    _emit(args, {"order": args.order, "lowercase": bool(args.lowercase)}, [args.hyp_file, args.ref_file],
          report, list(report.items()))
    return 0


def cmd_compare(args) -> int:
    table = _load_table(args)
    refs = read_corpus(args.ref_file, args.lowercase)
    if len(refs) > 1:
        raise UsageError(
            f"compare takes one reference sentence, got {len(refs)} (second: {args.ref_file} line {refs.lines[1]})"
        )
    ref = refs[0]
    candidates = []
    for path in args.candidate_files:
        candidates.extend(read_corpus(path, args.lowercase))

    _, rewards = score_matrices(table, candidates, [ref])
    rows = []
    for index, candidate in enumerate(candidates):
        rows.append(
            {
                "index": index,
                "text": " ".join(candidate),
                "bleu": corpus_bleu([candidate], [ref], args.order),
                "naive": naive_semantic_score(table, candidate, ref),
                "w_reward": float(rewards[index, 0]),
            }
        )

    fields = ["index", "bleu", "naive", "w_reward", "text"]
    _emit(args, _resolved_common(args, {"order": args.order}), [args.embeddings, args.ref_file, *args.candidate_files],
          {"reference": " ".join(ref), "candidates": rows}, [fields, *([row[f] for f in fields] for row in rows)])
    return 0


def cmd_train(args) -> int:
    setup = build_training_setup(parse_config_text(read_input(args.config).decode()))

    result = train(setup.env, setup.policy, setup.sil, setup.steps)

    out_dir = Path(args.out or "train_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest("train", setup.resolved, [args.config], setup.sil.seed)

    log_lines = [json.dumps({"manifest": manifest})]
    log_lines += [json.dumps(file_log_record(r)) for r in result.records]
    (out_dir / "train_log.jsonl").write_text("\n".join(log_lines) + "\n", encoding="utf-8")

    policy_snapshot = {
        "manifest": manifest,
        "kind": setup.policy.kind.value,
        "vocab_size": setup.policy.vocab_size,
        "horizon": setup.policy.horizon,
        "temperature": setup.policy.temperature,
        "params": result.policy.params.tolist(),
    }
    (out_dir / "policy.json").write_text(json.dumps(policy_snapshot, indent=2) + "\n", encoding="utf-8")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    summary = {
        "manifest": manifest,
        "out_dir": str(out_dir),
        "rl_steps": result.rl_steps,
        "sil_steps": result.sil_steps,
        "final_mean_reward": result.final_mean_reward(),
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqot",
        description="Transport-based sequence scoring, n-gram metrics, and toy self-imitation training.",
    )
    parser.add_argument("--version", action="version", version=f"seqot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, embeddings: bool = True):
        if embeddings:
            p.add_argument("--embeddings", required=True, help="embedding table (text format)")
            p.add_argument("--oov", choices=["strict", "hash"], default="strict")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lowercase", action="store_true")
        p.add_argument("--table", action="store_true", help="human-readable CSV output")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    p = sub.add_parser("score", help="pairwise or corpus-mode transport distance/reward")
    p.add_argument("hyp_file")
    p.add_argument("ref_file")
    p.add_argument("--corpus", action="store_true", help="score each hypothesis against the whole reference file")
    add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("nested", help="set-vs-set nested transport distance")
    p.add_argument("corpus_a")
    p.add_argument("corpus_b")
    p.add_argument("--k", type=int, default=5, help="hypothesis set size (fixed-seed subsample if larger)")
    p.add_argument("--k-prime", type=int, default=5, help="reference set size")
    add_common(p)
    p.set_defaults(func=cmd_nested)

    p = sub.add_parser("metrics", help="test-BLEU / self-BLEU / blended report")
    p.add_argument("hyp_file")
    p.add_argument("ref_file")
    p.add_argument("--order", type=int, default=2, choices=BLEU_ORDERS)
    add_common(p, embeddings=False)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare", help="rank candidate sentences under BLEU / naive / transport reward")
    p.add_argument("ref_file")
    p.add_argument("candidate_files", nargs="+")
    p.add_argument("--order", type=int, default=2, choices=BLEU_ORDERS)
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="run a training config end to end")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory (default: train_out)")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, least in (("--seed", 0), ("--k", 1), ("--k-prime", 1)):
            value = getattr(args, flag[2:].replace("-", "_"), least)  # a command without the flag passes
            if value < least:
                raise UsageError(f"{flag} must be >= {least}, got {value}")
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - never die without a message
        # A pair that failed on bad input (an unknown token, say) is that
        # input error, tagged with the pair.
        if isinstance(exc, NestedSolveError) and isinstance(exc.__cause__, _INPUT_ERRORS):
            print(f"error: {exc}: {exc.__cause__}", file=sys.stderr)
            return 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
