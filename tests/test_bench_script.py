"""The pair summary of ``scripts/bench.py``: quartiles, pairs won, the
claim rule (nine tenths of the pairs, and a median gap past the parent's
interquartile range), the bound check of unclaimed metrics and the order of
the traced rounds."""

import importlib.util
import json
from pathlib import Path


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = load_script("bench")


def pairs(parent, change):
    return [{"seed": i, "first": "parent" if i % 2 == 0 else "change", "parent": p, "change": c}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_seed_ranges_and_lists():
    assert bench.parse_seeds("30-32,7") == [30, 31, 32, 7]
    assert bench.parse_seeds("4") == [4]


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    runs = pairs([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 4.0, 3.0])
    higher = bench.summarize("higher", runs)
    assert higher["change_better_pairs"] == 2
    assert bench.summarize("lower", runs)["change_better_pairs"] == 1
    assert higher["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert higher["change"]["median"] == 2.5 and higher["median_ratio"] == 1.0
    assert higher["pairs"] == 4 and higher["runs"] == runs


def test_claim_needs_nine_tenths_and_a_gap_past_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]  # IQR 4.5
    assert bench.claim_met(bench.summarize("higher", pairs(parent, [p + 20 for p in parent])))
    eight = [p + 20 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    assert not bench.claim_met(bench.summarize("higher", pairs(parent, eight)))
    assert not bench.claim_met(bench.summarize("higher", pairs(parent, [p + 1 for p in parent])))
    assert bench.claim_met(bench.summarize("lower", pairs(parent, [p - 20 for p in parent])))


def test_traced_rounds_run_parent_change_change_parent(monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, seed, seconds, trace))
        return {"metrics": {"ot_core.solves": {"value": len(calls)}, "trace.overhead_s": {"value": -len(calls)}}}

    monkeypatch.setattr(bench, "run_once", fake_run)
    traced = bench.trace_workload({"parent": "P", "change": "C"}, "eval-corpus", 4)
    assert calls == [(side, "eval-corpus", 4, 1, 1) for side in ("P", "C", "C", "P")]
    assert traced == {
        "ot_core.solves": {"parent": [1, 4], "change": [2, 3]},
        "trace.overhead_s": {"parent": [-1, -4], "change": [-2, -3]},
    }


def test_bound_check_reads_worse_past_the_bound_in_either_direction():
    # a train-wsil setup_s that went 0.172 -> 0.229 s: +33% against a 25% bound
    assert bench.bound_check(bench.summarize("lower", pairs([0.172] * 10, [0.229] * 10)), 0.25) == "worse"
    parent = [0.170 + 0.001 * i for i in range(10)]
    assert bench.bound_check(bench.summarize("lower", pairs(parent, [p * 1.2 for p in parent])), 0.25) == "ok"
    assert bench.bound_check(bench.summarize("higher", pairs(parent, [p * 0.7 for p in parent])), 0.25) == "worse"
    assert bench.bound_check(bench.summarize("higher", pairs(parent, [p * 1.5 for p in parent])), 0.25) == "ok"


def test_bound_check_reads_unresolved_when_the_spread_is_wider_than_the_bound():
    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]  # IQR 2 around a median of 2
    assert bench.bound_check(bench.summarize("lower", pairs(wide, wide)), 0.25) == "unresolved"
    assert bench.bound_check(bench.summarize("lower", pairs([2.0] * 10, wide)), 0.25) == "unresolved"
    # unless every change run reads better than every parent run
    assert bench.bound_check(bench.summarize("lower", pairs(wide, [w / 10 for w in wide])), 0.25) == "ok"


def test_unclaimed_metrics_get_a_bound_check_and_a_warning(capsys):
    parent = [1.0 + 0.01 * i for i in range(10)]
    report = {
        "claimed": {"workload": "eval-corpus", "metric": "round_wall_s", "met": True},
        "workloads": {
            "eval-corpus": {"metrics": {
                "round_wall_s": bench.summarize("lower", pairs(parent, [p / 3 for p in parent])),
                "setup_s": bench.summarize("lower", pairs(parent, [p * 1.4 for p in parent])),
            }},
            "train-wsil": {"metrics": {"setup_s": bench.summarize("lower", pairs(parent, parent))}},
        },
    }
    bench.check_bounds(report, {"round_wall_s": 0.25, "setup_s": 0.25})
    metrics = report["workloads"]["eval-corpus"]["metrics"]
    assert "bound_check" not in metrics["round_wall_s"]
    assert metrics["setup_s"]["bound_check"] == "worse"
    assert report["workloads"]["train-wsil"]["metrics"]["setup_s"]["bound_check"] == "ok"
    assert capsys.readouterr().err.splitlines() == [
        "bench: warning: eval-corpus setup_s is worse against its bound 0.25: parent median 1.045, change 1.463"
    ]


def test_solver_sizes_prints_a_time_per_solver_and_size(capsys):
    assert load_script("solver_sizes").main(["--sizes", "2,4", "--repeats", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in report["sizes"]] == [2, 4]
    for row in report["sizes"]:
        assert row["assignment_solve_us"] > 0 and row["ipot_solve_us"] > 0
        assert row["ipot_steps_mean"] >= 1 and row["ipot_converged"] == 8
