#!/usr/bin/env python3
"""seqot benchmark: three closed-loop workloads over the public CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload eval-corpus --seed 0 --seconds 30 --trace 0

The benchmark imports ``seqot`` from the checkout's ``src/``, generates the
workload's inputs from ``--seed`` (untimed), then calls ``seqot.cli.main``
in-process in a closed loop until ``--seconds`` of command time have passed.
After the timed region it records peak memory, checks every output, and
with ``--trace 1`` repeats the last round under the tracer for the
per-layer metrics. It prints a report, a provenance line and, last, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. An operation is
one CLI call; it fails if it exits non-zero or any check on its output fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5
# Guards the loop when every call fails at once and time never accrues.
MAX_ROUNDS = 500
# One client on a shared machine: keep BLAS single-threaded unless the caller
# chose otherwise. The program's matrices are at most a few dozen wide.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("eval-corpus", "train-wsil", "train-reinforce")


def import_program():
    """Import ``seqot.cli`` from this checkout, never from anywhere else."""
    if not (SRC / "seqot" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import seqot.cli

    if Path(seqot.__file__).resolve().parent != SRC / "seqot":
        raise SystemExit(f"perfbench: imported seqot from {seqot.__file__}, not from {SRC}")
    return seqot.cli


def setup_seconds(setup_code: str) -> list[float]:
    """Wall time from process start until ``import seqot.cli`` returned and
    the workload's setup ran, once per fresh process."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import seqot.cli; {setup_code}; "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready\n":
            raise SystemExit(f"perfbench: setup process failed with exit code {proc.returncode}")
    return times


def run_call(cli, call) -> None:
    """Run one CLI call, timing it; its stdout (the train summary) is discarded."""
    sink = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            call.exit_code = cli.main(call.argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        call.exit_code = exc.code
    call.wall_s = time.perf_counter() - started


def timed_loop(cli, workload, seconds: float) -> list[list]:
    """Run rounds until their calls add up to ``seconds``; returns the rounds."""
    rounds = []
    spent = 0.0
    for index in range(MAX_ROUNDS):
        batch = workload.round(index)  # input generation is outside the timing
        for call in batch:
            run_call(cli, call)
            spent += call.wall_s
        rounds.append(batch)
        if spent >= seconds:
            break
    return rounds


def check_calls(calls) -> int:
    """Run the output checks; returns the number of failed calls."""
    from checks import Checker

    checker = Checker(SRC / "seqot" / "schemas")
    failed = 0
    for call in calls:
        errors = [f"exit code {call.exit_code}"] if call.exit_code != 0 else getattr(checker, call.op)(call)
        if errors:
            failed += 1
            for message in errors[:5]:
                print(f"perfbench: {call.op} {' '.join(call.argv[1:3])}: {message}", file=sys.stderr)
    return failed


def traced_pass(cli, batch) -> tuple[dict, dict]:
    """Repeat a timed round under the tracer; returns per-layer metrics.

    The tracing overhead is the traced wall time minus the round's untraced
    wall time. Callers pass the last round, which ran just before, so both
    see the same inputs and, as near as can be, the same machine.
    """
    from tracer import Tracer

    untraced = sum(c.wall_s for c in batch)
    with Tracer() as tracer:
        started = time.perf_counter()
        for call in batch:
            run_call(cli, call)
        traced = time.perf_counter() - started
    if any(c.exit_code != 0 for c in batch):
        raise SystemExit("perfbench: a call failed under the tracer")
    metrics, samples = tracer.metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics, samples


def provenance(workload: str, seed: int, samples: dict) -> dict:
    import numpy

    blas = None
    with contextlib.suppress(Exception):  # the layout of show_config varies between numpy versions
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    commit = None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        if top and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    cli = import_program()
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.make(args.workload, work, args.seed)
    setup = setup_seconds(workload.setup_code())

    rounds = timed_loop(cli, workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    calls = [call for batch in rounds for call in batch]
    failed = check_calls(calls)
    end_to_end, commands = workload.summarize(rounds)
    end_to_end = {"setup_s": (statistics.median(setup), "s"), **end_to_end,
                  "peak_rss_mb": (peak_rss_mb, "MB")}
    samples = {"setup_s": len(setup), "rounds": len(rounds), "calls": len(calls)}

    per_layer = {}
    if args.trace:
        per_layer, trace_samples = traced_pass(cli, rounds[-1])
        per_layer.update(commands)
        samples.update(trace_samples)

    error_rate = failed / len(calls)
    for name, (value, unit) in {**end_to_end, **commands, **per_layer}.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(f"{'error_rate':36s} {error_rate:>16.6g} failed/attempted ({failed}/{len(calls)})")
    print(json.dumps({"provenance": provenance(args.workload, args.seed, samples)}))
    reported = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
