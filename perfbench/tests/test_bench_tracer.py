"""Each traced layer records work on the workload meant to exercise it, and
the output checks catch a wrong answer.

The workloads run at reduced sizes so the whole module takes seconds.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = run.import_program()


def small(name, tmp_path, seed=3):
    workload = workloads.make(name, tmp_path, seed)
    if name == "eval-corpus":
        workload.score_lines, workload.nested_k, workload.metrics_lines = 4, 3, 12
    else:
        workload.steps = 150  # the A7 ramp already schedules a few imitation steps
    return workload


def traced_metrics(workload):
    batch = workload.round(0)
    with Tracer() as tracer:
        for call in batch:
            run.run_call(cli, call)
            assert call.exit_code == 0
    return tracer.metrics()[0], batch


def value(metrics, name):
    return metrics[name][0]


SHARED = ("cli.self_s", "layer.cli.self_s")
EVAL = (
    "ot_core.solves", "ot_core.self_s", "ot_core.cell_iters", "embeddings.load_s",
    "embeddings.cost_matrix.calls", "seq_match.score_pair.calls", "seq_match.self_s",
    "nested.calls", "nested.inner_s", "nested.outer_s",
    "text_metrics.corpus_bleu_s", "text_metrics.self_bleu_s",
)
TRAIN = (
    "policy.sample_s", "policy.grad_log_prob.calls", "policy.grad_log_prob_s",
    "gradients.reinforce_s", "buffer.update_s", "envs.reward_s",
    "train.rl_step_ms.p50", "layer.train.self_s",
)
WSIL = (
    "ot_core.solves", "seq_match.score_pair.calls", "nested.calls", "gradients.wsil_i_s",
    "gradients.sil_gate_open_frac", "buffer.sample_s", "train.sil_step_ms.p50",
)


@pytest.mark.parametrize(
    "name, busy, idle",
    [
        ("eval-corpus", SHARED + EVAL, ("policy.grad_log_prob.calls", "train.rl_step_ms.p50")),
        ("train-wsil", SHARED + TRAIN + WSIL, ("embeddings.load_s", "text_metrics.self_bleu_s")),
        ("train-reinforce", SHARED + TRAIN, ("ot_core.solves", "nested.calls", "gradients.wsil_i_s")),
    ],
)
def test_layers_record_their_workload(name, busy, idle, tmp_path):
    metrics, _ = traced_metrics(small(name, tmp_path))
    assert value(metrics, "trace.missing_bindings") == 0
    assert [m for m in busy if not value(metrics, m) > 0] == []
    assert [m for m in idle if value(metrics, m) != 0] == []


def test_tracer_restores_the_program(tmp_path):
    import seqot.nested
    import seqot.sil_rl.policy

    before = (seqot.nested.ipot_solve, seqot.sil_rl.policy.Policy.grad_log_prob)
    traced_metrics(small("train-reinforce", tmp_path))
    assert (seqot.nested.ipot_solve, seqot.sil_rl.policy.Policy.grad_log_prob) == before


def test_checks_pass_then_catch_a_wrong_distance(tmp_path):
    _, batch = traced_metrics(small("eval-corpus", tmp_path))
    checker = Checker(BENCH.parent / "src" / "seqot" / "schemas")
    assert [getattr(checker, c.op)(c) for c in batch] == [[], [], []]

    score = batch[0]
    payload = json.loads(score.out.read_text())
    payload["pairs"][0]["w_distance"] += 0.01
    payload["pairs"][0]["w_reward"] -= 0.01
    score.out.write_text(json.dumps(payload))
    assert len(checker.score(score)) == 1


def test_checks_catch_a_short_train_log(tmp_path):
    _, (call,) = traced_metrics(small("train-reinforce", tmp_path))
    checker = Checker(BENCH.parent / "src" / "seqot" / "schemas")
    assert checker.train(call) == []
    log = call.out / "train_log.jsonl"
    log.write_text("\n".join(log.read_text().splitlines()[:-1]) + "\n")
    assert checker.train(call) != []
