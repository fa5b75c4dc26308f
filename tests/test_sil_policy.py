import numpy as np
import pytest

from seqot.sil_rl import (
    MarkovOracle,
    Policy,
    PolicyKind,
    ToyEnv,
    greedy_decode,
    sample_trajectories,
)


@pytest.fixture
def small_env():
    return ToyEnv.markov(3, 2, seed=0)


class TestPolicyBasics:
    def test_zero_init_is_uniform(self):
        policy = Policy.tabular(4, 3)
        assert np.allclose(policy.step_probs_batch(0, np.array([policy.start_index]))[0], np.full(4, 0.25))

    def test_linear_params_shape(self):
        policy = Policy.linear(4, 3)
        assert policy.params.shape == (4 * (3 + 4 + 1),)

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            Policy(PolicyKind.TABULAR, 2, 1, np.array([np.inf] + [0.0] * 5))

    def test_step_logprobs_nonpositive(self, small_env):
        rng = np.random.default_rng(1)
        policy = Policy.tabular(3, 2)
        policy.params = rng.standard_normal(policy.params.shape)
        for traj in sample_trajectories(policy, small_env, 20, 2):
            assert np.all(traj.step_logprobs <= 0.0)
            assert traj.reward == pytest.approx(small_env.oracle.logprob(traj.tokens))

    def test_temperature_sharpens(self):
        sharp = Policy.tabular(3, 1, temperature=0.1)
        soft = Policy.tabular(3, 1, temperature=10.0)
        logits = np.array([1.0, 0.0, -1.0])
        sharp.params = np.tile(logits, 4).ravel()
        soft.params = sharp.params.copy()
        start = np.array([sharp.start_index])
        assert sharp.step_probs_batch(0, start)[0, 0] > soft.step_probs_batch(0, start)[0, 0]


class TestGradLogProb:
    @pytest.mark.parametrize("kind", [PolicyKind.TABULAR, PolicyKind.LINEAR])
    @pytest.mark.parametrize("temperature", [1.0, 0.7])
    def test_matches_central_finite_differences(self, kind, temperature):
        rng = np.random.default_rng(42)
        make = Policy.tabular if kind is PolicyKind.TABULAR else Policy.linear
        policy = make(3, 2, temperature=temperature)
        policy.params = rng.standard_normal(policy.params.shape)
        tokens = (2, 0)
        grad = policy.grad_log_prob(tokens)
        step = 1e-6
        scale = max(1.0, np.abs(grad).max())
        for i in range(len(grad)):
            up = policy.copy()
            up.params[i] += step
            down = policy.copy()
            down.params[i] -= step
            numeric = (up.log_prob(tokens) - down.log_prob(tokens)) / (2 * step)
            assert abs(grad[i] - numeric) / scale < 1e-5

    def test_log_prob_consistency(self):
        rng = np.random.default_rng(3)
        policy = Policy.linear(3, 4)
        policy.params = rng.standard_normal(policy.params.shape)
        tokens = (1, 2, 0, 1)
        assert policy.log_prob(tokens) == pytest.approx(policy.step_logprobs(tokens).sum())


class TestBatchedGradLogProb:
    # Rows 0 and 2 are equal and rows 0 and 1 share their first two
    # (position, previous token) contexts; within rows, previous tokens
    # repeat (1 at t=1..3 in row 0, 2 at t=1 and t=3 in row 3), which is where
    # the linear kind's previous-token columns accumulate.
    TOKENS = np.array([[1, 1, 1, 0], [1, 1, 0, 2], [1, 1, 1, 0], [2, 0, 2, 0]])
    WEIGHTS = np.array([0.5, -1.25, 2.0, 0.0])

    @staticmethod
    def _policy(kind):
        make = Policy.tabular if kind is PolicyKind.TABULAR else Policy.linear
        policy = make(3, 4, temperature=0.8)
        policy.params = np.random.default_rng(7).standard_normal(policy.params.shape)
        return policy

    @pytest.mark.parametrize("kind", [PolicyKind.TABULAR, PolicyKind.LINEAR])
    def test_batch_is_weighted_sum_of_single_sequences(self, kind):
        policy = self._policy(kind)
        expected = np.zeros_like(policy.params)
        for row, weight in zip(self.TOKENS, self.WEIGHTS):
            expected += weight * policy.grad_log_prob(row)
        batched = policy.grad_log_prob(self.TOKENS, self.WEIGHTS)
        if kind is PolicyKind.TABULAR:
            assert np.array_equal(batched, expected)
        else:
            np.testing.assert_allclose(batched, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [PolicyKind.TABULAR, PolicyKind.LINEAR])
    def test_batch_matches_central_finite_differences(self, kind):
        policy = self._policy(kind)
        grad = policy.grad_log_prob(self.TOKENS, self.WEIGHTS)
        step = 1e-6
        for i in range(len(grad)):
            up = policy.copy()
            up.params[i] += step
            down = policy.copy()
            down.params[i] -= step
            numeric = self.WEIGHTS @ (up.log_prob(self.TOKENS) - down.log_prob(self.TOKENS)) / (2 * step)
            assert abs(grad[i] - numeric) < 1e-6

    @pytest.mark.parametrize("kind", [PolicyKind.TABULAR, PolicyKind.LINEAR])
    def test_batched_log_prob_matches_rows(self, kind):
        policy = self._policy(kind)
        batched = policy.log_prob(self.TOKENS)
        assert batched.shape == (len(self.TOKENS),)
        rows = [policy.log_prob(tuple(row)) for row in self.TOKENS]
        np.testing.assert_allclose(batched, rows, rtol=0.0, atol=1e-12)
        chained = []
        for row in self.TOKENS:
            prev, total = policy.start_index, 0.0
            for t, tok in enumerate(row):
                total += np.log(policy.step_probs_batch(t, np.array([prev]))[0, tok])
                prev = tok
            chained.append(total)
        np.testing.assert_allclose(batched, chained, rtol=0.0, atol=1e-12)

    def test_weight_count_validated(self):
        policy = self._policy(PolicyKind.TABULAR)
        with pytest.raises(ValueError):
            policy.grad_log_prob(self.TOKENS, np.ones(3))


class TestSampling:
    def test_near_deterministic_policy_matches_greedy(self, small_env):
        policy = Policy.tabular(3, 2)
        table = policy.params.reshape(2, 4, 3)
        table[:, :, 1] = 30.0  # logit 30 vs 0: other tokens ~ e^-30
        greedy = greedy_decode(policy, small_env)
        for traj in sample_trajectories(policy, small_env, 100, 0):
            assert traj.tokens == greedy.tokens == (1, 1)

    def test_uniform_frequencies_within_binomial_bound(self):
        env = ToyEnv.markov(2, 2, seed=1)
        policy = Policy.tabular(2, 2)
        draws = 100_000
        trajs = sample_trajectories(policy, env, draws, 7)
        counts = {}
        for traj in trajs:
            counts[traj.tokens] = counts.get(traj.tokens, 0) + 1
        sigma = np.sqrt(0.25 * 0.75 / draws)
        for seq in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert counts[seq] / draws == pytest.approx(0.25, abs=3 * sigma)

    def test_fixed_seed_reproducible(self, small_env):
        policy = Policy.tabular(3, 2)
        first = sample_trajectories(policy, small_env, 10, 123)
        second = sample_trajectories(policy, small_env, 10, 123)
        assert [t.tokens for t in first] == [t.tokens for t in second]
        assert [t.reward for t in first] == [t.reward for t in second]

    def test_count_validated(self, small_env):
        with pytest.raises(ValueError):
            sample_trajectories(Policy.tabular(3, 2), small_env, 0, 1)


class TestGreedy:
    def test_tie_break_lowest_token_id(self, small_env):
        policy = Policy.tabular(3, 2)  # all logits tied
        assert greedy_decode(policy, small_env).tokens == (0, 0)

    def test_exact_ties_on_subset(self, small_env):
        policy = Policy.tabular(3, 2)
        table = policy.params.reshape(2, 4, 3)
        table[:, :, 1] = 5.0
        table[:, :, 2] = 5.0  # tokens 1 and 2 tied above token 0
        assert greedy_decode(policy, small_env).tokens == (1, 1)

    def test_matches_mode_of_peaked_policy(self, small_env):
        rng = np.random.default_rng(5)
        policy = Policy.tabular(3, 2)
        policy.params = rng.standard_normal(policy.params.shape) * 20.0
        greedy = greedy_decode(policy, small_env)
        counts = {}
        for traj in sample_trajectories(policy, small_env, 500, 11):
            counts[traj.tokens] = counts.get(traj.tokens, 0) + 1
        assert max(counts, key=counts.get) == greedy.tokens


class TestMarkovOracle:
    def test_rows_sum_to_one(self):
        oracle = MarkovOracle.random(5, seed=3)
        assert np.abs(oracle.transition.sum(axis=1) - 1.0).max() <= 1e-12
        assert abs(oracle.initial.sum() - 1.0) <= 1e-12

    def test_logprob_matches_direct_product(self):
        oracle = MarkovOracle.random(4, seed=9)
        seq = (2, 1, 3)
        direct = np.log(oracle.initial[2]) + np.log(oracle.transition[2, 1]) + np.log(oracle.transition[1, 3])
        assert oracle.logprob(seq) == pytest.approx(direct)

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            MarkovOracle(initial=np.array([0.5, 0.4]), transition=np.eye(2))
