"""Command-line surface: pair scoring, set-vs-set distance, n-gram metrics,
metric comparison tables, and reproducible toy training runs.

All commands emit machine-readable JSON (human-readable tables behind
``--table``), embed a :mod:`seqot.manifest` in every artifact, and use the
exit-code convention 0 = success, 2 = usage/input error, 1 = internal
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .configfile import ConfigError, build_training_setup, parse_config_text
from .embeddings import EmbeddingError, OovPolicy, load_embeddings, read_input
from .manifest import build_manifest
from .nested import NestedSolveError, best_matches, nested_wasserstein, score_matrices
from .ot_core import IpotConfig
from .seq_match import score_pair
from .sil_rl.train import DivergedError, file_log_record, train
from .text_metrics import (
    BleuReport,
    EmptyCorpusError,
    TooFewSentencesError,
    corpus_bleu,
    naive_semantic_score,
)


class UsageError(ValueError):
    """Bad input the user can fix; reported with exit code 2."""


_INPUT_ERRORS = (UsageError, ConfigError, DivergedError, EmbeddingError, EmptyCorpusError, TooFewSentencesError,
                 OSError)


def read_corpus(path, lowercase: bool = False) -> list[list[str]]:
    """One sentence per line, split into tokens as a table row is split into
    fields (see :func:`seqot.embeddings.read_input`); blank lines skipped."""
    # one decode per line, of its tokens joined at single spaces (no token holds one)
    lines = (b" ".join(line.split()).decode() for line in read_input(path).splitlines())
    sentences = [(text.lower() if lowercase else text).split(" ") for text in lines if text]
    if not sentences:
        raise UsageError(f"{path}: no sentences found")
    return sentences


def _load_table(args) -> "EmbeddingTable":
    policy = OovPolicy.HASH_FALLBACK if args.oov == "hash" else OovPolicy.STRICT
    return load_embeddings(args.embeddings, policy)


def _ot_config(args) -> IpotConfig:
    try:
        return IpotConfig(gamma=args.gamma, outer_iters=args.outer_iters)
    except ValueError as exc:  # it names the argument at fault first; report the flag
        name = str(exc).split(" ", 1)[0]
        raise UsageError(str(exc).replace(name, "--" + name.replace("_", "-"), 1)) from exc


def _emit(args, payload: dict, table_text: str | None = None) -> None:
    if getattr(args, "table", False) and table_text is not None:
        rendered = table_text
    else:
        rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


def _resolved_common(args, extra: dict) -> dict:
    resolved = {
        "gamma": args.gamma,
        "outer_iters": args.outer_iters,
        "oov": args.oov,
        "lowercase": bool(args.lowercase),
    }
    resolved.update(extra)
    return resolved


def cmd_score(args) -> int:
    table = _load_table(args)
    config = _ot_config(args)
    hyps = read_corpus(args.hyp_file, args.lowercase)
    refs = read_corpus(args.ref_file, args.lowercase)

    if args.corpus:
        pairs = [
            {"index": index, "w_distance": distance, "w_reward": reward}
            for index, (_, distance, reward) in enumerate(best_matches(table, hyps, refs, config))
        ]
    else:
        if len(hyps) != len(refs):
            raise UsageError(
                f"pairwise mode needs equal line counts, got {len(hyps)} hypotheses"
                f" and {len(refs)} references (line {min(len(hyps), len(refs)) + 1})"
            )
        pairs = []
        for index, (hyp, ref) in enumerate(zip(hyps, refs)):
            scored = score_pair(table, hyp, ref, config)
            pairs.append({"index": index, "w_distance": scored.distance, "w_reward": scored.reward})

    manifest = build_manifest(
        "score",
        _resolved_common(args, {"mode": "corpus" if args.corpus else "pairwise"}),
        [args.embeddings, args.hyp_file, args.ref_file],
        seed=args.seed,
    )
    payload = {
        "manifest": manifest,
        "pairs": pairs,
        "mean_distance": float(np.mean([p["w_distance"] for p in pairs])),
        "mean_reward": float(np.mean([p["w_reward"] for p in pairs])),
    }
    lines = ["index,w_distance,w_reward"]
    lines += [f"{p['index']},{p['w_distance']!r},{p['w_reward']!r}" for p in pairs]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _subsample(sentences: list, cap: int, seed: int, stream: int) -> tuple[list, list[int]]:
    if len(sentences) <= cap:
        return sentences, list(range(len(sentences)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    keep = sorted(int(i) for i in rng.choice(len(sentences), size=cap, replace=False))
    return [sentences[i] for i in keep], keep


def cmd_nested(args) -> int:
    for flag, value in (("--k", args.k), ("--k-prime", args.k_prime)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    table = _load_table(args)
    config = _ot_config(args)
    corpus_a = read_corpus(args.corpus_a, args.lowercase)
    corpus_b = read_corpus(args.corpus_b, args.lowercase)
    set_a, idx_a = _subsample(corpus_a, args.k, args.seed, 0)
    set_b, idx_b = _subsample(corpus_b, args.k_prime, args.seed, 1)

    result = nested_wasserstein(table, set_a, set_b, config)
    manifest = build_manifest(
        "nested",
        _resolved_common(args, {"k": args.k, "k_prime": args.k_prime}),
        [args.embeddings, args.corpus_a, args.corpus_b],
        seed=args.seed,
    )
    payload = {
        "manifest": manifest,
        "w_nc": result.distance,
        "outer_plan": {
            "rows": result.k,
            "cols": result.k_prime,
            "converged": result.outer_plan.converged,
            "iterations_used": result.outer_plan.iterations_used,
            "values": result.outer_plan.values.tolist(),
        },
        "per_hyp_reward": result.per_hyp_reward.tolist(),
        "subsample_a": idx_a,
        "subsample_b": idx_b,
    }
    lines = [f"w_nc,{result.distance!r}"]
    lines += [f"r_ns[{i}],{r!r}" for i, r in enumerate(result.per_hyp_reward)]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_metrics(args) -> int:
    hyps = read_corpus(args.hyp_file, args.lowercase)
    refs = read_corpus(args.ref_file, args.lowercase)
    report = BleuReport.compute(hyps, refs, args.order, seed=args.seed)
    manifest = build_manifest(
        "metrics",
        {"order": args.order, "lowercase": bool(args.lowercase)},
        [args.hyp_file, args.ref_file],
        seed=args.seed,
    )
    payload = {"manifest": manifest, **report.to_dict()}
    lines = [f"{k},{v!r}" for k, v in report.to_dict().items()]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_compare(args) -> int:
    table = _load_table(args)
    config = _ot_config(args)
    ref = read_corpus(args.ref_file, args.lowercase)[0]
    candidates = []
    for path in args.candidate_files:
        candidates.extend(read_corpus(path, args.lowercase))

    _, rewards = score_matrices(table, candidates, [ref], config)
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

    manifest = build_manifest(
        "compare",
        _resolved_common(args, {"order": args.order}),
        [args.embeddings, args.ref_file, *args.candidate_files],
        seed=args.seed,
    )
    payload = {"manifest": manifest, "reference": " ".join(ref), "candidates": rows}
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=["index", "bleu", "naive", "w_reward", "text"])
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in writer.fieldnames})
    _emit(args, payload, buffer.getvalue())
    return 0


def cmd_train(args) -> int:
    setup = build_training_setup(parse_config_text(read_input(args.config).decode()))

    result = train(setup.env, setup.policy, setup.sil, setup.steps)

    out_dir = Path(args.out or "train_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest("train", setup.resolved, [args.config], seed=setup.sil.seed)

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
            p.add_argument("--gamma", type=float, default=IpotConfig.gamma)
            p.add_argument("--outer-iters", type=int, default=IpotConfig.outer_iters)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lowercase", action="store_true")
        p.add_argument("--json", dest="table", action="store_false", default=False,
                       help="machine-readable JSON output (default)")
        p.add_argument("--table", dest="table", action="store_true", help="human-readable CSV output")
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
    p.add_argument("--order", type=int, default=2, choices=[2, 3, 4, 5])
    add_common(p, embeddings=False)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare", help="rank candidate sentences under BLEU / naive / transport reward")
    p.add_argument("ref_file")
    p.add_argument("candidate_files", nargs="+")
    p.add_argument("--order", type=int, default=2, choices=[2, 3, 4, 5])
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
