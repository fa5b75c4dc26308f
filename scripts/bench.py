#!/usr/bin/env python3
"""Paired parent/change benchmark runs, written to ``BENCH_<pr>.json``.

Usage, from the root of the repository:

    python3 scripts/bench.py --parent HEAD --pr 10 --seeds 30-39 \\
        --change "what the change does" --claim train-wsil:items_per_s --trace-seed 4

The parent side is a fresh ``git archive`` of ``--parent``. The change side
is a copy of the working tree's files that git tracks or would track, so a
change can be measured before it is committed. For each workload and seed
the script runs ``perfbench/run.py --trace 0`` once on each side, parent
first on even seeds, and keeps the end-to-end metrics ``BENCHMARK.json``
lists, for every workload it lists and at the run length it sets
(``run_seconds``). Each side's median and quartiles, the pairs the change
won (ties count for neither) and every run go to the output file. With
``--trace-seed`` it also runs two traced rounds per side and workload, in
the order parent, change, change, parent, and keeps both readings of every
per-layer metric.

A claimed metric is met when the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the parent's
interquartile range. Every other metric gets a ``bound_check`` against its
``bound`` in ``BENCHMARK.json``: ``ok``, ``worse`` or ``unresolved`` (see
:func:`bound_check`), with a warning on stderr unless it is ``ok``. Runs
take about ``run_seconds`` plus a few seconds each, one at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGITS = 4
# Traced rounds, one at a time: each side runs once early and once late.
TRACE_ORDER = ("parent", "change", "change", "parent")


def parse_seeds(spec: str) -> list[int]:
    """``"30-39"`` or ``"1,4,7"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def checkout_parent(rev: str, dest: Path) -> None:
    """Extract ``rev``'s committed files into ``dest``."""
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode != 0:
        raise SystemExit(f"bench: git archive {rev} failed")


def copy_change(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files into ``dest``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, listed):
        source = ROOT / os.fsdecode(name)
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process; returns its result object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(argv[1:])} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles, rounded."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, DIGITS), "q1": round(q1, DIGITS), "q3": round(q3, DIGITS)}


def summarize(better: str, runs: list[dict]) -> dict:
    """Per-side spread, pairs won by the change and the median ratio."""
    sign = 1.0 if better == "higher" else -1.0
    parent = spread([r["parent"] for r in runs])
    change = spread([r["change"] for r in runs])
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "change_better_pairs": sum(sign * (r["change"] - r["parent"]) > 0 for r in runs),
        "pairs": len(runs),
        "median_ratio": round(change["median"] / parent["median"], DIGITS) if parent["median"] else None,
        "runs": runs,
    }


def claim_met(summary: dict) -> bool:
    """At least nine tenths of the pairs won, and the medians apart in the
    better direction by more than the parent's interquartile range."""
    sign = 1.0 if summary["better"] == "higher" else -1.0
    gap = sign * (summary["change"]["median"] - summary["parent"]["median"])
    iqr = summary["parent"]["q3"] - summary["parent"]["q1"]
    return summary["change_better_pairs"] >= math.ceil(0.9 * summary["pairs"]) and gap > iqr


def bound_check(summary: dict, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound``, a fraction of the parent's median. Otherwise
    ``unresolved`` when either side's interquartile range is wider than
    ``bound`` of its median, unless every change run is better than every
    parent run; else ``ok``."""
    sign = 1.0 if summary["better"] == "higher" else -1.0
    parent, change = summary["parent"], summary["change"]
    if sign * (parent["median"] - change["median"]) > bound * abs(parent["median"]):
        return "worse"
    wide = any(side["q3"] - side["q1"] > bound * abs(side["median"]) for side in (parent, change))
    runs = summary["runs"]
    if wide and min(sign * r["change"] for r in runs) <= max(sign * r["parent"] for r in runs):
        return "unresolved"
    return "ok"


def check_bounds(report: dict, bounds: dict) -> None:
    """Record :func:`bound_check` on every metric the change does not claim,
    and warn on stderr about each one that is not ``ok``."""
    claimed = report["claimed"] or {}
    for workload, result in report["workloads"].items():
        for metric, summary in result["metrics"].items():
            if (workload, metric) == (claimed.get("workload"), claimed.get("metric")):
                continue
            summary["bound_check"] = verdict = bound_check(summary, bounds[metric])
            if verdict != "ok":
                print(f"bench: warning: {workload} {metric} is {verdict} against its bound {bounds[metric]:g}: "
                      f"parent median {summary['parent']['median']:g}, change {summary['change']['median']:g}",
                      file=sys.stderr)


def bench_workload(sides: dict, workload: str, seeds: list[int], seconds: float, metrics: dict) -> dict:
    runs = {name: [] for name in metrics}
    failed = {side: 0 for side in sides}
    attempted = {side: 0 for side in sides}
    correct = True
    for seed in seeds:
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            results[side] = run_once(sides[side], workload, seed, seconds, 0)
            print(f"bench: {workload} seed {seed} {side}: "
                  f"items_per_s {results[side]['metrics']['items_per_s']['value']:.1f}", file=sys.stderr)
        for side, result in results.items():
            failed[side] += result["failed"]
            attempted[side] += result["attempted"]
            correct = correct and result["correct"]
        for name in metrics:
            runs[name].append({"seed": seed, "first": order[0],
                               **{side: round(results[side]["metrics"][name]["value"], DIGITS) for side in sides}})
    return {
        "seeds": seeds,
        "all_correct": correct,
        "failed": failed,
        "attempted": attempted,
        "metrics": {name: summarize(better, runs[name]) for name, better in metrics.items()},
    }


def trace_workload(sides: dict, workload: str, seed: int) -> dict:
    """Per-layer metrics of four traced rounds, run in ``TRACE_ORDER`` so
    that a drift in host speed weighs on both sides alike: for each metric,
    each side's two readings in run order."""
    readings = {side: [] for side in sides}
    for side in TRACE_ORDER:
        readings[side].append(run_once(sides[side], workload, seed, 1, 1)["metrics"])
    return {name: {side: [run[name]["value"] for run in runs] for side, runs in readings.items()}
            for name in readings["parent"][0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pr", required=True, help="writes BENCH_<pr>.json at the repository root")
    parser.add_argument("--seeds", required=True, help="workload seeds, e.g. 30-39")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--trace-seed", type=int, default=None, help="also trace one round per side")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    seeds = parse_seeds(args.seeds)
    parent_rev = git("rev-parse", "--short", args.parent).decode().strip()

    import numpy

    report = {
        "change": args.change,
        "parent": parent_rev,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "protocol": (
            f"{len(seeds)} parent/change pairs per workload, seeds {args.seeds}, alternating which side "
            "runs first (parent first on even seeds); parent from a fresh git archive checkout, change "
            f"from a copy of its tracked files; {len(os.sched_getaffinity(0))} usable CPUs, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}"
        ),
        "claimed": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="seqot-bench-") as scratch:
        sides = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        checkout_parent(args.parent, sides["parent"])
        copy_change(sides["change"])
        for workload in workloads:
            report["workloads"][workload] = bench_workload(sides, workload, seeds, seconds, metrics)
        if args.trace_seed is not None:
            traced = {"command": f"python3 perfbench/run.py --workload W --seed {args.trace_seed} "
                                 "--seconds 1 --trace 1"}
            for workload in workloads:
                traced[workload] = trace_workload(sides, workload, args.trace_seed)
            traced["readings_are"] = ("{parent: [first, second], change: [first, second]}; "
                                      f"runs went {', '.join(TRACE_ORDER)}")
            report["traced_round_0"] = traced

    if args.claim:
        workload, _, metric = args.claim.partition(":")
        summary = report["workloads"][workload]["metrics"][metric]
        report["claimed"] = {"workload": workload, "metric": metric, "met": claim_met(summary)}
    check_bounds(report, bounds)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"bench: wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
