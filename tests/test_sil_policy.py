import numpy as np
import pytest

from seqot.sil_rl import (
    MarkovOracle,
    Policy,
    PolicyKind,
    ToyEnv,
    Trajectory,
    greedy_decode,
    sample_trajectories,
)
from seqot.sil_rl.experiments import final_policy_reward

DECODERS = pytest.mark.parametrize(
    "decode", [lambda p, e: sample_trajectories(p, e, 2, 0), greedy_decode, final_policy_reward],
    ids=["sample", "greedy", "exact_reward"],
)


def per_step_sample(policy, env, count, rng):
    """The sampler before the one-table version: a ``step_probs_batch``
    softmax and a cumulative sum at every step. The table sampler must draw
    the same trajectories from the same generator state."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    condition = None
    if env.conditional:
        ids = env.condition_ids()
        condition = ids[int(gen.integers(0, len(ids)))]
    tokens = np.empty((count, env.horizon), dtype=int)
    prev = np.full(count, policy.start_index)
    for t in range(env.horizon):
        probs = policy.step_probs_batch(t, prev)
        draws = gen.random(count)
        cdf = probs.cumsum(axis=1)
        chosen = (cdf > draws[:, None]).argmax(axis=1)
        chosen[cdf[:, -1] <= draws] = env.vocab_size - 1
        tokens[:, t] = chosen
        prev = chosen
    seqs = [tuple(int(x) for x in row) for row in tokens]
    return [Trajectory(condition, seq, env.reward(seq, condition)) for seq in seqs]


def per_step_greedy(policy, env, condition=None):
    tokens = []
    prev = np.array([policy.start_index])
    for t in range(env.horizon):
        tok = int(np.argmax(policy.step_probs_batch(t, prev)[0]))
        tokens.append(tok)
        prev = np.array([tok])
    return Trajectory(condition, tuple(tokens), env.reward(tokens, condition))


def random_policy(kind, vocab_size, horizon, temperature=1.0, seed=5):
    policy = Policy.uniform(vocab_size, horizon, temperature, kind)
    policy.params = 3.0 * np.random.default_rng(seed).standard_normal(policy.params.shape)
    return policy


def top_draw_first() -> np.random.Generator:
    """A generator whose first ``random()`` is 1 - 2**-53, the largest draw:
    SFC64 outputs a + b + counter, here 2**64 - 1."""
    bits = np.random.SFC64()
    state = bits.state
    state["state"]["state"] = np.array([2**64 - 1, 0, 0, 0], dtype=np.uint64)
    bits.state = state
    return np.random.Generator(bits)


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

    def test_sampled_reward_is_oracle_logprob(self, small_env):
        rng = np.random.default_rng(1)
        policy = Policy.tabular(3, 2)
        policy.params = rng.standard_normal(policy.params.shape)
        for traj in sample_trajectories(policy, small_env, 20, 2):
            assert traj.reward == pytest.approx(small_env.oracle.logprob(traj.tokens))

    def test_temperature_sharpens(self):
        sharp = Policy.tabular(3, 1, temperature=0.1)
        soft = Policy.tabular(3, 1, temperature=10.0)
        logits = np.array([1.0, 0.0, -1.0])
        sharp.params = np.tile(logits, 4).ravel()
        soft.params = sharp.params.copy()
        start = np.array([sharp.start_index])
        assert sharp.step_probs_batch(0, start)[0, 0] > soft.step_probs_batch(0, start)[0, 0]

    def test_logit_rows_keep_the_stored_layout(self):
        """Tabular rows are the (H, V+1, V) table in order; linear rows are
        the columns of the (V, H+V+1) weight matrix, so snapshots load as
        before. Both are views: writes reach ``params``."""
        v, h = 3, 2
        for policy, stored in (
            (Policy.tabular(v, h), lambda p: p.reshape(h * (v + 1), v)),
            (Policy.linear(v, h), lambda p: p.reshape(v, h + v + 1).T),
        ):
            policy.params = np.arange(policy.params.size, dtype=float)
            rows = policy.logit_rows(policy.params)
            assert np.array_equal(rows, stored(policy.params))
            rows[1, 2] = -1.0
            assert stored(policy.params)[1, 2] == -1.0

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_step_sums_the_feature_rows(self, kind):
        policy = Policy.uniform(3, 2, kind=kind)
        policy.params = np.random.default_rng(3).standard_normal(policy.params.shape)
        rows = policy.logit_rows(policy.params)
        for t in range(2):
            for prev in range(4):
                named = policy.feature_rows(t, prev)
                assert len(named) == (1 if kind is PolicyKind.TABULAR else 2)
                logits = rows[list(named)].sum(axis=0)
                expected = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
                assert np.allclose(policy.step_probs_batch(t, np.array([prev]))[0], expected, atol=1e-15)

    @pytest.mark.parametrize("kind", list(PolicyKind))
    @pytest.mark.parametrize("method", ["log_prob", "step_logprobs", "grad_log_prob"])
    def test_sequences_past_the_horizon_rejected(self, kind, method):
        policy = Policy.tabular(3, 2) if kind is PolicyKind.TABULAR else Policy.linear(3, 2)
        score = getattr(policy, method)
        for tokens in ((0, 1, 2), [(0, 1, 2), (2, 1, 0)]):
            with pytest.raises(ValueError, match="horizon 2"):
                score(tokens)
        assert np.all(np.isfinite(score((0, 1))))


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

    @pytest.mark.parametrize("kind", list(PolicyKind))
    @pytest.mark.parametrize("temperature", [1.0, 0.35])
    @pytest.mark.parametrize("conditional", [False, True], ids=["markov", "conditional"])
    @pytest.mark.parametrize("count", [1, 7])
    def test_matches_the_per_step_sampler(self, kind, temperature, conditional, count):
        env = ToyEnv.overlap(4, 3, seed=2, conditions=3) if conditional else ToyEnv.markov(4, 3, seed=2)
        policy = random_policy(kind, 4, 3, temperature)
        for seed in range(6):
            got = sample_trajectories(policy, env, count, seed)
            assert got == per_step_sample(policy, env, count, seed)
        assert {t.condition is None for t in got} == {not conditional}

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_env_shorter_than_the_policy_matches(self, kind):
        env = ToyEnv.markov(4, 2, seed=1)
        policy = random_policy(kind, 4, 5)
        assert sample_trajectories(policy, env, 7, 3) == per_step_sample(policy, env, 7, 3)
        assert greedy_decode(policy, env) == per_step_greedy(policy, env)

    def test_cdf_rounding_below_one_takes_the_last_token(self):
        """Ten uniform probabilities of 0.1 sum to 1 - 2**-53, so the largest
        draw passes every CDF entry and the fix-up picks the last token."""
        env = ToyEnv.markov(10, 2, seed=0)
        policy = Policy.tabular(10, 2)
        assert np.cumsum(policy.step_probs_batch(0, np.array([10]))[0])[-1] < 1.0
        assert top_draw_first().random() == 1.0 - 2.0**-53
        got = sample_trajectories(policy, env, 3, top_draw_first())
        assert got == per_step_sample(policy, env, 3, top_draw_first())
        assert got[0].tokens[0] == 9

    @pytest.mark.parametrize("kind", list(PolicyKind))
    @DECODERS
    def test_env_past_the_policy_horizon_rejected(self, kind, decode):
        policy = Policy.uniform(3, 2, kind=kind)
        with pytest.raises(ValueError, match="env horizon 3 exceeds the policy horizon 2"):
            decode(policy, ToyEnv.markov(3, 3, seed=0))

    @pytest.mark.parametrize("kind", list(PolicyKind))
    @pytest.mark.parametrize("policy_vocab, env_vocab", [(3, 4), (4, 3)])
    @DECODERS
    def test_vocab_mismatch_rejected(self, kind, policy_vocab, env_vocab, decode):
        policy = Policy.uniform(policy_vocab, 2, kind=kind)
        message = f"env vocab size {env_vocab} differs from the policy vocab size {policy_vocab}"
        with pytest.raises(ValueError, match=message):
            decode(policy, ToyEnv.markov(env_vocab, 2, seed=0))


class TestGreedy:
    @pytest.mark.parametrize("kind", list(PolicyKind))
    @pytest.mark.parametrize("temperature", [1.0, 0.35])
    def test_matches_the_per_step_decode(self, kind, temperature):
        env = ToyEnv.overlap(4, 3, seed=2, conditions=3)
        for seed in range(6):
            policy = random_policy(kind, 4, 3, temperature, seed)
            assert greedy_decode(policy, env, 1) == per_step_greedy(policy, env, 1)

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


def test_negative_conditions_rejected():
    with pytest.raises(ValueError, match="conditions must be >= 0"):
        ToyEnv.overlap(4, 3, conditions=-2)
