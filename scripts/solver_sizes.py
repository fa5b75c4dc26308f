#!/usr/bin/env python3
"""Time the two transport solvers by matrix size and print JSON.

For each size ``n`` it builds eight uniform [0, 2) cost matrices of
``n x n`` from fixed seeds, solves each with ``assignment_solve`` and with
``ipot_solve``, and reports the best of ``--repeats`` passes in microseconds
per solve. Since ``ipot_solve`` stops at its step cap or its stop rule,
each size also reports the mean IPOT step count and how many of the eight
IPOT solves converged. It imports ``seqot`` from this checkout's ``src/``:

    python3 scripts/solver_sizes.py --sizes 4,8,16,30,60,120 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", default="4,8,16,30,60,120", help="comma-separated matrix sizes")
    parser.add_argument("--repeats", type=int, default=5, help="passes per size; the fastest is reported")
    args = parser.parse_args(argv)
    rows = []
    for n in (int(size) for size in args.sizes.split(",")):
        costs = [np.random.default_rng([n, k]).uniform(0, 2, (n, n)) for k in range(MATRICES)]
        plans = [ipot_solve(cost) for cost in costs]
        rows.append({"n": n, **{f"{name}_us": best_us_per_solve(solve, costs, args.repeats)
                                for name, solve in SOLVERS.items()},
                     "ipot_steps_mean": sum(plan.iterations_used for plan in plans) / MATRICES,
                     "ipot_converged": sum(plan.converged for plan in plans)})
    print(json.dumps({"repeats": args.repeats, "matrices": MATRICES, "sizes": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
