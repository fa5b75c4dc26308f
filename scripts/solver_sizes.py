#!/usr/bin/env python3
"""Time the two transport solvers by matrix size and print JSON.

For each size ``n`` it builds eight uniform [0, 2) cost matrices of
``n x n`` from fixed seeds, solves each with ``assignment_solve`` and with
``ipot_solve``, and reports the best of ``--repeats`` passes in microseconds
per solve. Since ``ipot_solve`` stops at its step cap or its stop rule,
each size also reports the mean IPOT step count and how many of the eight
IPOT solves converged.

For each size ``n`` it also times ``best_matches`` on ``n`` hypotheses
against ``n`` references, the paraphrase corpora of ``perfbench/gen.py``
at seed 0, each pass on a fresh table, so with an empty pair-score memo.
That row reports how many cost matrices were built and how many pairs
were solved. It imports ``seqot`` from this checkout's ``src/``:

    python3 scripts/solver_sizes.py --sizes 4,8,16,30,60,120 --repeats 5
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from seqot import seq_match  # noqa: E402
from seqot.embeddings import EmbeddingTable  # noqa: E402
from seqot.nested import best_matches  # noqa: E402
from seqot.ot_core import assignment_solve, ipot_solve  # noqa: E402

SOLVERS = {"assignment_solve": assignment_solve, "ipot_solve": ipot_solve}
MATRICES = 8


def best_us_per_solve(solve, costs: list[np.ndarray], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for cost in costs:
            solve(cost)
        best = min(best, time.perf_counter() - started)
    return round(best / len(costs) * 1e6, 1)


def paraphrase_sets(n: int):
    """A fresh-table maker and ``n`` hypotheses and references, the
    ``eval-corpus`` generator's at seed 0."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    vocab = gen.ClusteredVocabulary(gen.rng_for(0, 0))
    entries = dict(zip(vocab.names, vocab.vectors))
    hyps, refs = gen.paraphrase_corpora(vocab, gen.rng_for(0, 1, n), n)
    words = [[[vocab.names[t] for t in s] for s in seqs] for seqs in (hyps, refs)]
    return lambda: EmbeddingTable(dim=gen.TABLE_DIM, entries=entries), *words


def best_matches_row(n: int, repeats: int) -> dict:
    fresh_table, hyps, refs = paraphrase_sets(n)
    built = []
    build = seq_match.build_cost_matrix
    seq_match.build_cost_matrix = lambda *args: built.append(args) or build(*args)
    try:
        table = fresh_table()
        best_matches(table, hyps, refs)
    finally:
        seq_match.build_cost_matrix = build
    best = float("inf")
    for _ in range(repeats):
        table = fresh_table()
        started = time.perf_counter()
        best_matches(table, hyps, refs)
        best = min(best, time.perf_counter() - started)
    return {"n": n, "matrices_built": len(built), "pairs_solved": len(table.pair_scores),
            "best_matches_us": round(best * 1e6, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", default="4,8,16,30,60,120", help="comma-separated matrix sizes")
    parser.add_argument("--repeats", type=int, default=5, help="passes per size; the fastest is reported")
    args = parser.parse_args(argv)
    sizes = [int(size) for size in args.sizes.split(",")]
    rows = []
    for n in sizes:
        costs = [np.random.default_rng([n, k]).uniform(0, 2, (n, n)) for k in range(MATRICES)]
        plans = [ipot_solve(cost) for cost in costs]
        rows.append({"n": n, **{f"{name}_us": best_us_per_solve(solve, costs, args.repeats)
                                for name, solve in SOLVERS.items()},
                     "ipot_steps_mean": sum(plan.iterations_used for plan in plans) / MATRICES,
                     "ipot_converged": sum(plan.converged for plan in plans)})
    matches = [best_matches_row(n, args.repeats) for n in sizes]
    print(json.dumps({"repeats": args.repeats, "matrices": MATRICES, "sizes": rows, "best_matches": matches},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
