import dataclasses

import numpy as np
import pytest

from seqot.sil_rl import (
    BufferEntry,
    Policy,
    SilConfig,
    SilVariant,
    ToyEnv,
    basis_embedding_table,
    enumerate_sequences,
    exact_expected_reward,
    exact_policy_gradient,
    reinforce_grad,
    sample_trajectories,
    wsil_d_grad,
    wsil_i_grad,
)


def buffer_entries(*rows):
    return [BufferEntry(condition=None, tokens=tuple(t), reward=r, insert_step=0) for t, r in rows]


class TestReinforce:
    def test_zero_when_rewards_equal_baseline(self):
        env = ToyEnv.markov(2, 1, seed=0)
        policy = Policy.tabular(2, 1)
        trajs = sample_trajectories(policy, env, 5, 3)
        fixed = trajs[0]
        same_reward = [dataclasses.replace(t, reward=1.25) for t in trajs]
        grad = reinforce_grad(same_reward, policy, baseline=1.25)
        assert np.array_equal(grad, np.zeros_like(policy.params))

    def test_monte_carlo_matches_enumeration(self):
        env = ToyEnv.markov(2, 1, seed=1)
        rng = np.random.default_rng(4)
        policy = Policy.tabular(2, 1)
        policy.params = rng.standard_normal(policy.params.shape)
        exact = exact_policy_gradient(policy, env, baseline=0.0)

        draws = 100_000
        trajs = sample_trajectories(policy, env, draws, 5)
        samples = np.stack([t.reward * policy.grad_log_prob(t.tokens) for t in trajs])
        mc = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mc - exact) <= 3 * stderr + 1e-12)

    def test_baseline_invariance_under_enumeration(self):
        env = ToyEnv.markov(3, 2, seed=2)
        rng = np.random.default_rng(8)
        policy = Policy.tabular(3, 2)
        policy.params = rng.standard_normal(policy.params.shape)
        no_baseline = exact_policy_gradient(policy, env, baseline=0.0)
        with_baseline = exact_policy_gradient(policy, env, baseline=17.3)
        assert np.allclose(no_baseline, with_baseline, atol=1e-10)

    def test_enumeration_cap(self):
        env = ToyEnv.markov(8, 8, seed=0)
        with pytest.raises(ValueError):
            enumerate_sequences(env)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            reinforce_grad([], Policy.tabular(2, 1), 0.0)


@pytest.mark.parametrize("oracle", [exact_expected_reward, exact_policy_gradient])
class TestEnumerationRejectsAMismatchedEnv:
    @pytest.mark.parametrize("policy_vocab, env_vocab", [(4, 3), (3, 4)])
    def test_vocab_mismatch(self, oracle, policy_vocab, env_vocab):
        env = ToyEnv.markov(env_vocab, 2, seed=0, reference_count=0)
        message = f"env vocab size {env_vocab} differs from the policy vocab size {policy_vocab}"
        with pytest.raises(ValueError, match=message):
            oracle(Policy.tabular(policy_vocab, 2), env)

    def test_env_past_the_policy_horizon(self, oracle):
        with pytest.raises(ValueError, match="env horizon 3 exceeds the policy horizon 2"):
            oracle(Policy.linear(3, 2), ToyEnv.markov(3, 3, seed=0, reference_count=0))


class TestWsilIndirect:
    def make_parts(self, seed=0, vocab=3, horizon=2, k=4):
        env = ToyEnv.markov(vocab, horizon, seed=seed)
        rng = np.random.default_rng(seed)
        policy = Policy.tabular(vocab, horizon)
        policy.params = rng.standard_normal(policy.params.shape) * 0.3
        trajs = sample_trajectories(policy, env, k, seed + 10)
        table = basis_embedding_table(vocab)
        return env, policy, trajs, table

    def test_lambda_zero_bitwise_equals_reinforce(self):
        env, policy, trajs, table = self.make_parts()
        sample = buffer_entries(((0, 1), 99.0))
        config = SilConfig(lambda_sil=0.0)
        combined = wsil_i_grad(trajs, sample, policy, table, config, baseline=0.4)
        plain = reinforce_grad(trajs, policy, baseline=0.4)
        assert np.array_equal(combined, plain)

    def test_gate_closed_when_buffer_never_outranks(self):
        env, policy, trajs, table = self.make_parts(seed=1)
        weakest = min(t.reward for t in trajs)
        sample = buffer_entries(((0, 1), weakest - 1.0), ((1, 1), weakest - 2.0))
        config = SilConfig(lambda_sil=0.5)
        combined = wsil_i_grad(trajs, sample, policy, table, config, baseline=0.0)
        plain = reinforce_grad(trajs, policy, baseline=0.0)
        assert np.array_equal(combined, plain)

    def test_gate_soundness_randomized(self):
        for seed in range(50):
            env, policy, trajs, table = self.make_parts(seed=seed, k=3)
            weakest = min(t.reward for t in trajs)
            rng = np.random.default_rng(1000 + seed)
            sample = buffer_entries(
                *(
                    (tuple(rng.integers(0, 3, 2)), weakest - float(rng.uniform(0.01, 5)))
                    for _ in range(3)
                )
            )
            config = SilConfig(lambda_sil=float(rng.uniform(0.1, 2.0)))
            combined = wsil_i_grad(trajs, sample, policy, table, config, baseline=0.0)
            plain = reinforce_grad(trajs, policy, baseline=0.0)
            assert np.array_equal(combined, plain)

    def test_single_buffer_entry_hand_check(self):
        """K trajectories vs one buffer entry: outer plan is 1/K per row, so
        trajectory k's imitation coefficient is lambda * (1/K) * r_s(k, b)
        (gated); the batch mean then contributes coefficient/K per term."""
        env, policy, trajs, table = self.make_parts(seed=3, k=2)
        best = max(t.reward for t in trajs)
        entry_tokens = (1, 2)
        sample = buffer_entries((entry_tokens, best + 1.0))  # gate open for all
        lam = 0.7
        config = SilConfig(lambda_sil=lam)
        combined = wsil_i_grad(trajs, sample, policy, table, config, baseline=0.2)
        plain = reinforce_grad(trajs, policy, baseline=0.2)

        from seqot import score_pair

        k = len(trajs)
        expected_sil = np.zeros_like(policy.params)
        for traj in trajs:
            pair = score_pair(table, [str(t) for t in traj.tokens], [str(t) for t in entry_tokens]).reward
            expected_sil += lam * (1.0 / k) * pair * policy.grad_log_prob(traj.tokens)
        expected_sil /= k
        assert np.allclose(combined - plain, expected_sil, atol=1e-4)

    def test_now_variant_uses_uniform_weights(self):
        env, policy, trajs, table = self.make_parts(seed=5, k=2)
        best = max(t.reward for t in trajs)
        sample = buffer_entries(((0, 1), best + 1.0), ((2, 2), best + 2.0))
        config = SilConfig(lambda_sil=0.5, variant=SilVariant.SIL_I_NOW)
        combined = wsil_i_grad(trajs, sample, policy, table, config, baseline=0.0)
        plain = reinforce_grad(trajs, policy, baseline=0.0)

        from seqot import naive_semantic_score

        k, k_prime = len(trajs), len(sample)
        expected_sil = np.zeros_like(policy.params)
        for traj in trajs:
            coef = sum(
                naive_semantic_score(table, [str(t) for t in traj.tokens], [str(t) for t in e.tokens])
                / (k * k_prime)
                for e in sample
            )
            expected_sil += 0.5 * coef * policy.grad_log_prob(traj.tokens)
        expected_sil /= k
        assert np.allclose(combined - plain, expected_sil, atol=1e-9)

    def test_either_now_variant_selects_the_mean_embedding_matcher(self):
        env, policy, trajs, table = self.make_parts(seed=5, k=2)
        best = max(t.reward for t in trajs)
        sample = buffer_entries(((0, 1), best + 1.0), ((2, 2), best + 2.0))
        grads = [
            wsil_i_grad(trajs, sample, policy, table, SilConfig(lambda_sil=0.5, variant=variant), baseline=0.0)
            for variant in (SilVariant.SIL_I_NOW, SilVariant.SIL_D_NOW)
        ]
        assert np.array_equal(*grads)

    def test_empty_buffer_sample_rejected(self):
        env, policy, trajs, table = self.make_parts()
        with pytest.raises(ValueError):
            wsil_i_grad(trajs, [], policy, table, SilConfig(), baseline=0.0)


class TestWsilDirect:
    def setup_parts(self, vocab=3, horizon=2):
        policy = Policy.tabular(vocab, horizon)
        rng = np.random.default_rng(11)
        policy.params = rng.standard_normal(policy.params.shape) * 0.2
        table = basis_embedding_table(vocab)
        refs = [(0, 1), (1, 2)]
        return policy, table, refs

    def test_equal_scores_give_zero_vector(self):
        policy, table, refs = self.setup_parts()
        sample = buffer_entries(((0, 1), 5.0), ((0, 1), 4.0))  # identical tokens -> same score
        grad = wsil_d_grad(sample, refs, policy, table, SilConfig(lambda_sil=0.5))
        assert np.array_equal(grad, np.zeros_like(policy.params))

    def test_single_entry_is_zero_by_mean_baseline(self):
        policy, table, refs = self.setup_parts()
        sample = buffer_entries(((2, 0), 5.0))
        grad = wsil_d_grad(sample, refs, policy, table, SilConfig(lambda_sil=0.5))
        assert np.array_equal(grad, np.zeros_like(policy.params))

    def test_two_entry_clamp_arithmetic(self):
        """Scores {s1, s2} with s1 > s2: baseline is the mean, the low entry
        clamps to zero, and the high entry carries lambda * (s1 - mean)."""
        policy, table, refs = self.setup_parts()
        high = (0, 1)  # matches refs[0] exactly -> highest transport score
        low = (2, 2)
        sample = buffer_entries((high, 9.0), (low, 1.0))
        lam = 0.8
        grad = wsil_d_grad(sample, refs, policy, table, SilConfig(lambda_sil=lam))

        from seqot import nested_wasserstein

        nested = nested_wasserstein(
            table,
            [[str(t) for t in high], [str(t) for t in low]],
            [[str(t) for t in r] for r in refs],
        )
        scores = nested.per_hyp_reward
        assert scores[0] > scores[1]
        advantage = scores[0] - scores.mean()
        expected = lam * advantage * policy.grad_log_prob(high)
        assert np.allclose(grad, expected, atol=1e-12)

    def test_hand_constructed_point_eight_point_two(self):
        # advantage of the 0.8 entry over mean(0.8, 0.2) is 0.3; the other clamps
        scores = np.array([0.8, 0.2])
        advantages = np.maximum(scores - scores.mean(), 0.0)
        assert advantages[0] == pytest.approx(0.3)
        assert advantages[1] == 0.0

    def test_lambda_zero_returns_zero_vector(self):
        policy, table, refs = self.setup_parts()
        sample = buffer_entries(((0, 1), 5.0), ((1, 1), 4.0))
        grad = wsil_d_grad(sample, refs, policy, table, SilConfig(lambda_sil=0.0))
        assert np.array_equal(grad, np.zeros_like(policy.params))

    def test_validation(self):
        policy, table, refs = self.setup_parts()
        with pytest.raises(ValueError):
            wsil_d_grad([], refs, policy, table, SilConfig())
        with pytest.raises(ValueError):
            wsil_d_grad(buffer_entries(((0, 1), 1.0)), [], policy, table, SilConfig())

    def test_now_variant_matches_naive_scores(self):
        policy, table, refs = self.setup_parts()
        sample = buffer_entries(((0, 1), 5.0), ((2, 2), 1.0))
        config = SilConfig(lambda_sil=1.0, variant=SilVariant.SIL_D_NOW)
        grad = wsil_d_grad(sample, refs, policy, table, config)

        from seqot import naive_semantic_score

        scores = np.array(
            [
                np.mean(
                    [
                        naive_semantic_score(table, [str(t) for t in e.tokens], [str(t) for t in r])
                        for r in refs
                    ]
                )
                for e in sample
            ]
        ) / len(sample)  # each row carries the uniform coupling's mass 1/K
        advantages = np.maximum(scores - scores.mean(), 0.0)
        expected = sum(
            adv * policy.grad_log_prob(e.tokens) for e, adv in zip(sample, advantages) if adv > 0
        )
        assert np.allclose(grad, expected, atol=1e-12)

    def test_now_variant_scores_on_the_transport_scale(self):
        """Both direct variants score a row by its coupling-weighted sum. The
        ablation's uniform coupling 1/(K K') makes that the row mean over K,
        so with K = 3 its gradient is a third of the one the plain row mean
        gives (0.4124), and of the same order as the transport variant's."""
        table = basis_embedding_table(3)
        sample = buffer_entries(((0, 1), 1.0), ((1, 2), 1.0), ((2, 2), 1.0))
        refs = [(0, 1), (1, 1)]

        def norm(variant):
            config = SilConfig(lambda_sil=1.0, variant=variant)
            return np.linalg.norm(wsil_d_grad(sample, refs, Policy.tabular(3, 2), table, config))

        assert norm(SilVariant.SIL_D_NOW) == pytest.approx(0.4124 / 3, abs=1e-4)
        assert norm(SilVariant.WSIL_D) == pytest.approx(0.1925, abs=1e-4)
