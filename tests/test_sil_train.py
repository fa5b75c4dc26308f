import importlib
from fractions import Fraction

import numpy as np
import pytest

from seqot.sil_rl import (
    ZERO_SCHEDULE,
    BaselineMode,
    BufferCriterion,
    BufferEntry,
    Policy,
    PolicyKind,
    ReplayBuffer,
    Schedule,
    SilConfig,
    SilVariant,
    ToyEnv,
    enumerate_sequences,
    pretrain_mle,
    schedule_kinds,
    schedule_ratio,
    train,
    wsil_i_grad,
)

# the package re-exports the function ``train`` under the submodule's name
train_module = importlib.import_module("seqot.sil_rl.train")
file_log_record = train_module.file_log_record


@pytest.fixture
def env():
    return ToyEnv.markov(4, 3, seed=7)


def capture_params():
    seen = []

    def hook(step, kind, policy):
        seen.append(policy.params.copy())

    return seen, hook


class TestSchedule:
    def test_one_in_ten_pattern(self):
        kinds = schedule_kinds(Schedule(0.1, 0.1, 0), 22)
        assert kinds[:11] == ["rl"] * 10 + ["sil"]
        assert kinds[11:22] == ["rl"] * 10 + ["sil"]

    def test_alternating_at_ratio_one(self):
        kinds = schedule_kinds(Schedule(1.0, 1.0, 0), 6)
        assert kinds == ["rl", "sil"] * 3

    def test_ramp_is_exact_fraction_walk(self):
        schedule = Schedule(0.1, 1.0, 40)
        kinds = schedule_kinds(schedule, 200)
        # independent reimplementation of the credit walk
        credit = Fraction(0)
        expected = []
        for i in range(200):
            if credit >= 1:
                expected.append("sil")
                credit -= 1
            else:
                expected.append("rl")
                initial, final = Fraction("0.1"), Fraction("1.0")
                ratio = initial + (final - initial) * Fraction(min(i, 40), 40)
                credit += ratio
        assert kinds == expected

    def test_zero_schedule_never_fires(self):
        assert schedule_kinds(ZERO_SCHEDULE, 50) == ["rl"] * 50

    def test_ratio_endpoints(self):
        schedule = Schedule(0.2, 0.8, 10)
        assert schedule_ratio(schedule, 0) == Fraction("0.2")
        assert schedule_ratio(schedule, 10) == Fraction("0.8")
        assert schedule_ratio(schedule, 99) == Fraction("0.8")

    def test_realized_counts_match_in_training(self, env):
        config = SilConfig(seed=3, k=3, k_prime=2, schedule=Schedule(0.5, 1.0, 6), pretrain=False)
        result = train(env, Policy.tabular(4, 3), config, 24)
        kinds = schedule_kinds(config.schedule, 24)
        assert [r["kind"] for r in result.records] == kinds
        assert result.sil_steps == kinds.count("sil")
        assert result.rl_steps == kinds.count("rl")


class TestPretrain:
    def test_tabular_fit_matches_reference_frequencies(self):
        env = ToyEnv.markov(3, 2, seed=1, reference_count=64)
        policy = pretrain_mle(Policy.tabular(3, 2), env, smoothing=1e-9)
        refs = env.references[None]
        first = [r[0] for r in refs]
        probs = policy.step_probs_batch(0, np.array([policy.start_index]))[0]
        for token in range(3):
            assert probs[token] == pytest.approx(first.count(token) / len(first), abs=1e-6)

    def test_linear_fit_produces_markov_logits(self):
        env = ToyEnv.markov(3, 2, seed=2, reference_count=32)
        policy = pretrain_mle(Policy.linear(3, 2), env, smoothing=1.0)
        assert policy.kind is PolicyKind.LINEAR
        # position block untouched: step probabilities are position-independent
        assert np.allclose(policy.step_probs_batch(0, np.array([0])), policy.step_probs_batch(1, np.array([0])))

    def test_requires_references(self):
        env = ToyEnv.markov(3, 2, seed=3, reference_count=0)
        with pytest.raises(ValueError):
            pretrain_mle(Policy.tabular(3, 2), env)


class TestTrainLoop:
    def test_lambda_zero_equals_reinforce_parameter_trajectory(self, env):
        base = dict(seed=11, k=3, k_prime=2, learning_rate=0.05, pretrain=False)
        lam0 = SilConfig(lambda_sil=0.0, schedule=Schedule(0.5, 1.0, 4), **base)
        plain = SilConfig(lambda_sil=0.0, schedule=ZERO_SCHEDULE, **base)

        seen_a, hook_a = capture_params()
        seen_b, hook_b = capture_params()
        train(env, Policy.tabular(4, 3), lam0, 20, on_step=hook_a)
        train(env, Policy.tabular(4, 3), plain, 20, on_step=hook_b)
        for step, (a, b) in enumerate(zip(seen_a, seen_b)):
            assert np.array_equal(a, b), f"diverged at step {step}"

    def test_same_seed_same_logs(self, env):
        config = SilConfig(seed=5, k=3, k_prime=2, schedule=Schedule(0.5, 1.0, 4), pretrain=False)
        first = train(env, Policy.tabular(4, 3), config, 15)
        second = train(env, Policy.tabular(4, 3), config, 15)
        strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in recs]
        assert strip(first.records) == strip(second.records)
        assert np.array_equal(first.policy.params, second.policy.params)

    def test_different_seed_differs(self, env):
        config_a = SilConfig(seed=5, k=3, pretrain=False, schedule=ZERO_SCHEDULE)
        config_b = SilConfig(seed=6, k=3, pretrain=False, schedule=ZERO_SCHEDULE)
        a = train(env, Policy.tabular(4, 3), config_a, 10)
        b = train(env, Policy.tabular(4, 3), config_b, 10)
        assert not np.array_equal(a.policy.params, b.policy.params)

    def test_record_fields(self, env):
        config = SilConfig(seed=1, k=2, pretrain=False, schedule=ZERO_SCHEDULE)
        result = train(env, Policy.tabular(4, 3), config, 3)
        record = result.records[0]
        for field in ("step", "kind", "mean_reward", "baseline", "buffer_min",
                      "buffer_max", "buffer_size", "grad_norm", "wall_time_ms"):
            assert field in record

    def test_wsil_d_runs_and_touches_buffer_sequences(self, env):
        config = SilConfig(
            seed=2, k=3, k_prime=3, variant=SilVariant.WSIL_D,
            schedule=Schedule(1.0, 1.0, 0), lambda_sil=1.0, pretrain=False,
        )
        result = train(env, Policy.tabular(4, 3), config, 10)
        assert result.sil_steps == 5

    def test_greedy_baseline_mode(self, env):
        config = SilConfig(seed=3, k=2, baseline_mode=BaselineMode.GREEDY,
                           pretrain=False, schedule=ZERO_SCHEDULE)
        result = train(env, Policy.tabular(4, 3), config, 5)
        assert all(np.isfinite(r["baseline"]) for r in result.records)

    def test_conditional_training_smoke(self):
        env = ToyEnv.overlap(4, 3, seed=9, conditions=2, reference_count=3)
        config = SilConfig(seed=4, k=3, k_prime=2, schedule=Schedule(0.5, 0.5, 0),
                           pretrain=False, baseline_mode=BaselineMode.GREEDY)
        result = train(env, Policy.tabular(4, 3), config, 12)
        assert result.sil_steps > 0
        conditions = {r["kind"] for r in result.records}
        assert conditions == {"rl", "sil"}

    def test_steps_validated(self, env):
        with pytest.raises(ValueError):
            train(env, Policy.tabular(4, 3), SilConfig(), 0)

    def test_divergence_stops_at_its_step(self, env):
        config = SilConfig(lambda_sil=1e300, schedule=Schedule(1.0, 1.0, 0), pretrain=False)
        seen = []
        with pytest.raises(train_module.DivergedError) as err:
            train(env, Policy.tabular(4, 3), config, 10, on_step=lambda s, k, p: seen.append(s))
        assert err.value.step == len(seen)
        assert "learning_rate" in str(err.value) and "lambda_sil" in str(err.value)


class TestEliteReplay:
    """A self-imitation step of the indirect variant also replays the
    sampled buffer entries whose environment reward beats the baseline."""

    @pytest.fixture
    def hand_built(self, env, monkeypatch):
        """Buffer sample fixed to the env's best and worst sequences; every
        sampled batch is recorded."""
        seqs = enumerate_sequences(env)
        rewards = [env.reward(seq) for seq in seqs]
        high, low = seqs[int(np.argmax(rewards))], seqs[int(np.argmin(rewards))]
        sample = [BufferEntry(None, high, env.reward(high), 0), BufferEntry(None, low, env.reward(low), 0)]
        monkeypatch.setattr(ReplayBuffer, "sample", lambda self, count, rng, condition=None: list(sample))
        batches = []
        original = train_module.sample_trajectories

        def recording(*args, **kwargs):
            batches.append(original(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(train_module, "sample_trajectories", recording)
        return sample, batches

    def test_step_adds_positive_part_replay(self, env, hand_built):
        sample, batches = hand_built
        lam, lr = 1.5, 0.05
        config = SilConfig(seed=4, k=3, k_prime=2, lambda_sil=lam, learning_rate=lr,
                           schedule=Schedule(1.0, 1.0, 0), pretrain=False)
        seen, hook = capture_params()
        result = train(env, Policy.tabular(4, 3), config, 2, on_step=hook)
        assert [r["kind"] for r in result.records] == ["rl", "sil"]

        before = Policy.tabular(4, 3)
        before.params = seen[0]
        baseline = result.records[1]["baseline"]
        high, low = sample
        assert high.reward > baseline > low.reward
        indirect = wsil_i_grad(batches[1], sample, before, env.table, config, baseline)
        replay = lam * (high.reward - baseline) * before.grad_log_prob(high.tokens) / len(sample)
        assert np.allclose(seen[1] - seen[0], lr * (indirect + replay), rtol=0.0, atol=1e-12)
        assert not np.allclose(seen[1] - seen[0], lr * indirect, rtol=0.0, atol=1e-6)

    def test_lambda_zero_still_follows_reinforce(self, env, hand_built):
        base = dict(seed=4, k=3, k_prime=2, lambda_sil=0.0, pretrain=False)
        seen_a, hook_a = capture_params()
        seen_b, hook_b = capture_params()
        train(env, Policy.tabular(4, 3), SilConfig(schedule=Schedule(1.0, 1.0, 0), **base), 12, on_step=hook_a)
        train(env, Policy.tabular(4, 3), SilConfig(schedule=ZERO_SCHEDULE, **base), 12, on_step=hook_b)
        for step, (a, b) in enumerate(zip(seen_a, seen_b)):
            assert np.array_equal(a, b), f"diverged at step {step}"


class TestPairScoreMemo:
    """Training solves each (hypothesis, reference) pair at most once per
    environment, through the environment table's pair-score memo."""

    def test_warm_memo_gives_the_fresh_run(self, count_solves):
        solves = count_solves("seqot.nested")
        config = SilConfig(seed=2, k=3, k_prime=3, lambda_sil=1.0,
                           schedule=Schedule(0.5, 1.0, 10), pretrain=False)
        shared = ToyEnv.markov(4, 4, seed=7)
        cold = train(shared, Policy.tabular(4, 4), config, 40)
        solved_cold = len(solves)
        assert solved_cold > 0 and cold.sil_steps > 0
        warm = train(shared, Policy.tabular(4, 4), config, 40)
        assert len(solves) == solved_cold  # every pair came from the memo
        fresh = train(ToyEnv.markov(4, 4, seed=7), Policy.tabular(4, 4), config, 40)
        assert len(solves) == 2 * solved_cold
        for run in (warm, fresh):
            assert [file_log_record(r) for r in run.records] == [file_log_record(r) for r in cold.records]
            assert np.array_equal(run.policy.params, cold.policy.params)

    def test_transport_buffer_criterion_reuses_the_reward_solves(self, count_solves):
        solves = count_solves("seqot.nested")
        counts = {}
        for criterion in (BufferCriterion.REWARD, BufferCriterion.REFERENCE_REWARD):
            del solves[:]
            config = SilConfig(lambda_sil=0.0, schedule=ZERO_SCHEDULE, buffer_criterion=criterion)
            train(ToyEnv.overlap(4, 4, reference_count=4), Policy.tabular(4, 4), config, 200)
            counts[criterion] = len(solves)
        assert 0 < counts[BufferCriterion.REFERENCE_REWARD] <= counts[BufferCriterion.REWARD]
