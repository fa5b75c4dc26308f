"""End-to-end acceptance suite.

Each test exercises one criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s`` or on failure). The
criteria A1..A9 cover: solver-vs-oracle equivalence, plan feasibility,
reward identities, the metric-disagreement fixture, gradient exactness,
self-imitation mechanics, the paired training benefit, metric golden
values, and byte-level determinism of the CLI.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from seqot import (
    corpus_bleu,
    exact_ot_oracle,
    f1_bleu,
    ipot_solve,
    load_embeddings,
    marginal_violation,
    naive_semantic_score,
    nested_wasserstein,
    score_pair,
    self_bleu,
)
from seqot.cli import main as cli_main
from seqot.sil_rl import (
    ZERO_SCHEDULE,
    BufferEntry,
    Policy,
    Schedule,
    SilConfig,
    ToyEnv,
    basis_embedding_table,
    exact_policy_gradient,
    paired_comparison,
    reinforce_grad,
    sample_trajectories,
    train,
    wsil_d_grad,
    wsil_i_grad,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def a1_instances():
    """The shared A1/A2 instance set: 100 random cost matrices per size."""
    rng = np.random.default_rng(20260810)
    instances = []
    for n in range(2, 7):
        for _ in range(100):
            instances.append(rng.uniform(0.0, 2.0, size=(n, n)))
    return instances


@pytest.fixture(scope="module")
def a1_solutions(a1_instances):
    started = time.perf_counter()
    plans = [ipot_solve(cost) for cost in a1_instances]
    elapsed = time.perf_counter() - started
    return plans, elapsed


def test_a1_oracle_equivalence(a1_instances, a1_solutions):
    plans, elapsed = a1_solutions
    worst = 0.0
    for cost, plan in zip(a1_instances, plans):
        oracle_cost, _ = exact_ot_oracle(cost)
        worst = max(worst, abs(plan.cost - oracle_cost))
    ok = worst <= 1e-3 and elapsed < 10.0
    report("A1 oracle equivalence", ok, f"worst |cost error| = {worst:.2e} (<= 1e-3), solver time {elapsed:.2f}s (< 10s)")


def test_a2_feasibility(a1_solutions):
    plans, _ = a1_solutions
    worst = max(marginal_violation(plan) for plan in plans)
    report("A2 feasibility", worst < 1e-5, f"worst marginal violation = {worst:.2e} (< 1e-5)")


def test_a3_reward_identities(toy_table):
    rng = np.random.default_rng(17)
    vocab = toy_table.tokens()
    worst_identity = 0.0
    worst_consistency = 0.0
    for _ in range(50):
        seq = [vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(1, 21)))]
        scored = score_pair(toy_table, seq, seq)
        worst_identity = max(worst_identity, abs(scored.reward - 1.0))
        worst_consistency = max(worst_consistency, abs(scored.reward + scored.distance - 1.0))

    worst_degeneracy = 0.0
    for _ in range(20):
        hyp = [vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(1, 9)))]
        ref = [vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(1, 9)))]
        nested = nested_wasserstein(toy_table, [hyp], [ref])
        distance = score_pair(toy_table, hyp, ref).distance
        worst_degeneracy = max(worst_degeneracy, abs(nested.distance - distance))

    ok = worst_identity <= 1e-3 and worst_consistency <= 1e-9 and worst_degeneracy <= 1e-6
    report(
        "A3 reward identities",
        ok,
        f"identity err {worst_identity:.2e} (<=1e-3), reward+distance err {worst_consistency:.2e} (<=1e-9), "
        f"single-pair degeneracy {worst_degeneracy:.2e} (<=1e-6)",
    )


def test_a4_metric_disagreement(toy_table):
    reference = (FIXTURES / "synonym_triple" / "reference.txt").read_text().split()
    lines = (FIXTURES / "synonym_triple" / "candidates.txt").read_text().splitlines()
    ngram_candidate, synonym_candidate = lines[0].split(), lines[1].split()

    # fixture geometry: synonym pairs above 0.9 cosine, unrelated words near-orthogonal
    from seqot import cosine_cost

    synonym_cos = 1.0 - cosine_cost(toy_table.vector("kid"), toy_table.vector("child"))
    unrelated_cos = 1.0 - cosine_cost(toy_table.vector("bike"), toy_table.vector("cow"))
    cross_cos = 1.0 - cosine_cost(toy_table.vector("kid"), toy_table.vector("bicycle"))

    bleu_ngram = corpus_bleu([ngram_candidate], [reference], 2)
    bleu_synonym = corpus_bleu([synonym_candidate], [reference], 2)
    naive_ngram = naive_semantic_score(toy_table, ngram_candidate, reference)
    naive_synonym = naive_semantic_score(toy_table, synonym_candidate, reference)
    reward_ngram = score_pair(toy_table, ngram_candidate, reference).reward
    reward_synonym = score_pair(toy_table, synonym_candidate, reference).reward

    ok = (
        synonym_cos > 0.9
        and abs(unrelated_cos) < 0.05
        and abs(cross_cos) < 0.2
        and bleu_ngram >= bleu_synonym
        and bleu_synonym == 0.0
        and naive_ngram > naive_synonym
        and reward_synonym > reward_ngram
    )
    report(
        "A4 metric disagreement",
        ok,
        f"BLEU-2 {bleu_ngram:.3f} >= {bleu_synonym:.3f} (= 0), naive {naive_ngram:.3f} > {naive_synonym:.3f}, "
        f"w_reward {reward_synonym:.3f} > {reward_ngram:.3f} (synonym cos {synonym_cos:.3f})",
    )


def test_a5_gradient_exactness():
    started = time.perf_counter()
    env = ToyEnv.markov(2, 2, seed=5)
    rng = np.random.default_rng(99)
    policy = Policy.tabular(2, 2)
    policy.params = rng.standard_normal(policy.params.shape) * 0.5

    exact = exact_policy_gradient(policy, env, baseline=0.0)
    draws = 100_000
    trajs = sample_trajectories(policy, env, draws, 123)
    samples = np.stack([t.reward * policy.grad_log_prob(t.tokens) for t in trajs])
    mc_mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(draws)
    mc_ok = bool(np.all(np.abs(mc_mean - exact) <= 3 * stderr + 1e-12))

    tokens = (1, 0)
    grad = policy.grad_log_prob(tokens)
    step = 1e-6
    worst_rel = 0.0
    scale = max(1.0, float(np.abs(grad).max()))
    for i in range(len(grad)):
        up, down = policy.copy(), policy.copy()
        up.params[i] += step
        down.params[i] -= step
        numeric = (up.log_prob(tokens) - down.log_prob(tokens)) / (2 * step)
        worst_rel = max(worst_rel, abs(grad[i] - numeric) / scale)
    elapsed = time.perf_counter() - started

    ok = mc_ok and worst_rel < 1e-5 and elapsed < 30.0
    report(
        "A5 gradient exactness",
        ok,
        f"MC-vs-enumeration within 3 SE: {mc_ok}, finite-diff max rel err {worst_rel:.2e} (<1e-5), "
        f"runtime {elapsed:.1f}s (<30s)",
    )


def test_a6_wsil_mechanics():
    # (i) zero imitation weight leaves the parameter trajectory identical
    env = ToyEnv.markov(4, 3, seed=21)
    base = dict(seed=77, k=3, k_prime=2, learning_rate=0.05, pretrain=False)
    lam0 = SilConfig(lambda_sil=0.0, schedule=Schedule(0.5, 1.0, 6), **base)
    plain = SilConfig(lambda_sil=0.0, schedule=ZERO_SCHEDULE, **base)
    seen_a, seen_b = [], []
    train(env, Policy.tabular(4, 3), lam0, 20, on_step=lambda s, k, p: seen_a.append(p.params.copy()))
    train(env, Policy.tabular(4, 3), plain, 20, on_step=lambda s, k, p: seen_b.append(p.params.copy()))
    identical = all(np.array_equal(a, b) for a, b in zip(seen_a, seen_b))

    # (ii) gate soundness on 50 randomized cases
    table = basis_embedding_table(3)
    gate_sound = True
    for case in range(50):
        case_env = ToyEnv.markov(3, 2, seed=case)
        case_rng = np.random.default_rng(1000 + case)
        policy = Policy.tabular(3, 2)
        policy.params = case_rng.standard_normal(policy.params.shape) * 0.3
        trajs = sample_trajectories(policy, case_env, 3, case)
        weakest = min(t.reward for t in trajs)
        sample = [
            BufferEntry(None, tuple(case_rng.integers(0, 3, 2)), weakest - float(case_rng.uniform(0.01, 4.0)), 0)
            for _ in range(3)
        ]
        config = SilConfig(lambda_sil=float(case_rng.uniform(0.1, 3.0)))
        combined = wsil_i_grad(trajs, sample, policy, table, config, baseline=0.1)
        if not np.array_equal(combined, reinforce_grad(trajs, policy, baseline=0.1)):
            gate_sound = False
            break

    # (iii) direct-update clamp on a hand-constructed two-entry batch
    policy = Policy.tabular(3, 2)
    refs = [(0, 1), (1, 2)]
    high, low = (0, 1), (2, 2)
    sample = [BufferEntry(None, high, 9.0, 0), BufferEntry(None, low, 1.0, 0)]
    lam = 0.8
    grad = wsil_d_grad(sample, refs, policy, table, SilConfig(lambda_sil=lam))
    nested = nested_wasserstein(table, [[str(t) for t in high], [str(t) for t in low]],
                                [[str(t) for t in r] for r in refs])
    scores = nested.per_hyp_reward
    expected = lam * (scores[0] - scores.mean()) * policy.grad_log_prob(high)
    clamp_ok = bool(np.allclose(grad, expected, atol=1e-12)) and scores[0] > scores[1]
    single = wsil_d_grad(sample[:1], refs, policy, table, SilConfig(lambda_sil=lam))
    clamp_ok = clamp_ok and bool(np.array_equal(single, np.zeros_like(policy.params)))

    ok = identical and gate_sound and clamp_ok
    report(
        "A6 WSIL mechanics",
        ok,
        f"lambda=0 trajectory identity: {identical}, gate soundness (50 cases): {gate_sound}, "
        f"direct-update clamp: {clamp_ok}",
    )


def test_a7_training_benefit():
    started = time.perf_counter()
    summary = paired_comparison(vocab_size=8, horizon=8, steps=2000, seeds=range(10))
    elapsed = time.perf_counter() - started
    ok = summary["wins"] >= 8 and elapsed < 600.0
    margins = [round(p["margin"], 3) for p in summary["pairs"]]
    report(
        "A7 training benefit",
        ok,
        f"self-imitation >= REINFORCE in {summary['wins']}/10 pairs (need >= 8), "
        f"margins {margins}, runtime {elapsed:.0f}s (< 600s)",
    )


def test_a8_metric_golden_values():
    corpus = [s.split() for s in ("a b c", "d e f", "g h i j")]
    identical = corpus_bleu(corpus, corpus, 2)
    f1_mid = f1_bleu(0.5, 0.5)
    hyps = [s.split() for s in ("the cat sat", "a dog barked loudly")]
    refs = [s.split() for s in ("the cat sat on the mat", "a dog barked")]
    golden = json.loads((Path(__file__).parent / "golden" / "bleu_fixture.json").read_text())
    fixture_err = abs(corpus_bleu(hyps, refs, 2) - golden["test_bleu"])
    all_same = self_bleu([["x", "y", "z"]] * 5, 2)

    ok = identical == 1.0 and f1_mid == 0.5 and fixture_err <= 1e-9 and all_same == 1.0
    report(
        "A8 metric golden values",
        ok,
        f"identical-corpora BLEU {identical} (= 1.0), f1(0.5, 0.5) = {f1_mid}, "
        f"golden fixture err {fixture_err:.1e} (<= 1e-9), all-identical self-BLEU {all_same} (= 1.0)",
    )


def test_a9_determinism(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "steps = 10\nseed = 9\nenv = markov\nvocab_size = 4\nhorizon = 3\n"
        "k = 3\nk_prime = 2\nlambda_sil = 0.5\nsil_initial = 0.5\nsil_final = 1.0\n"
        "sil_ramp_steps = 4\npretrain = true\n"
    )
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", str(config), "--out", str(dir_a)]) == 0
    assert cli_main(["train", str(config), "--out", str(dir_b)]) == 0
    capsys.readouterr()
    logs_identical = (dir_a / "train_log.jsonl").read_bytes() == (dir_b / "train_log.jsonl").read_bytes()
    policy_identical = (dir_a / "policy.json").read_bytes() == (dir_b / "policy.json").read_bytes()

    emb = str(FIXTURES / "toy_embeddings.txt")
    triple = FIXTURES / "synonym_triple"
    hyp = tmp_path / "h.txt"
    hyp.write_text("young kid rides one bike down main road\nyouthful child cycles\n")
    outputs = []
    for _ in range(2):
        for argv in (
            ["score", str(hyp), str(hyp), "--embeddings", emb, "--seed", "3"],
            ["nested", str(hyp), str(hyp), "--embeddings", emb, "--seed", "3"],
            ["metrics", str(hyp), str(hyp), "--order", "2", "--seed", "3"],
            ["compare", str(triple / "reference.txt"), str(triple / "candidates.txt"),
             "--embeddings", emb, "--seed", "3"],
        ):
            assert cli_main(argv) == 0
            outputs.append(capsys.readouterr().out)
    cli_stable = outputs[:4] == outputs[4:]

    ok = logs_identical and policy_identical and cli_stable
    report(
        "A9 determinism",
        ok,
        f"train logs byte-identical: {logs_identical}, policy byte-identical: {policy_identical}, "
        f"CLI outputs stable: {cli_stable}",
    )
