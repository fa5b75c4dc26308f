import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqot.sil_rl import (
    BufferCriterion,
    BufferEntry,
    Policy,
    ReplayBuffer,
    ToyEnv,
    buffer_update,
    sample_trajectories,
)


def entry(tokens, reward, condition=None, step=0):
    return BufferEntry(condition=condition, tokens=tuple(tokens), reward=reward, insert_step=step)


class TestReplayBuffer:
    def test_fills_until_capacity(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(3):
            assert buffer.add(entry([i], reward=float(i)))
        assert len(buffer) == 3

    def test_rejects_below_minimum_when_full(self):
        buffer = ReplayBuffer(capacity=2)
        buffer.add(entry([1], 1.0))
        buffer.add(entry([2], 2.0))
        assert not buffer.add(entry([0], 0.5))
        assert buffer.min_reward() == 1.0

    def test_evicts_minimum_and_keeps_size(self):
        buffer = ReplayBuffer(capacity=5)
        for i in range(5):
            buffer.add(entry([i], float(i)))
        assert buffer.add(entry([9], 9.0))
        assert len(buffer) == 5
        assert buffer.min_reward() == 1.0
        assert buffer.max_reward() == 9.0

    def test_equal_score_does_not_displace(self):
        buffer = ReplayBuffer(capacity=1)
        buffer.add(entry([1], 1.0))
        assert not buffer.add(entry([2], 1.0))

    def test_dedupe_keeps_higher_score(self):
        buffer = ReplayBuffer(capacity=4)
        buffer.add(entry([1, 2], 1.0, step=0))
        assert not buffer.add(entry([1, 2], 0.5, step=1))
        assert buffer.add(entry([1, 2], 2.0, step=2))
        assert len(buffer) == 1
        assert buffer.max_reward() == 2.0

    def test_per_condition_capacity(self):
        buffer = ReplayBuffer(capacity=2)
        for cond in (0, 1):
            for i in range(4):
                buffer.add(entry([i], float(i), condition=cond))
        assert len(buffer.entries(0)) == 2 and len(buffer.entries(1)) == 2
        assert buffer.min_reward(0) == 2.0

    def test_sample_uniform_and_deterministic(self):
        buffer = ReplayBuffer(capacity=8)
        for i in range(8):
            buffer.add(entry([i], float(i)))
        first = buffer.sample(3, np.random.default_rng(5))
        second = buffer.sample(3, np.random.default_rng(5))
        assert [e.tokens for e in first] == [e.tokens for e in second]
        assert len({e.tokens for e in first}) == 3

    def test_sample_draws_the_same_from_a_seed_and_its_generator(self):
        buffer = ReplayBuffer(capacity=8)
        for i in range(8):
            buffer.add(entry([i], float(i)))
        for seed in range(20):
            assert buffer.sample(3, seed) == buffer.sample(3, np.random.default_rng(seed))

    def test_sample_smaller_pool(self):
        buffer = ReplayBuffer(capacity=8)
        buffer.add(entry([1], 1.0))
        assert len(buffer.sample(5, np.random.default_rng(0))) == 1

    def test_sample_empty_condition_raises(self):
        buffer = ReplayBuffer(capacity=2)
        with pytest.raises(ValueError):
            buffer.sample(1, np.random.default_rng(0), condition=3)

    def test_min_monotone_under_reward_criterion(self):
        env = ToyEnv.markov(4, 3, seed=2)
        policy = Policy.tabular(4, 3)
        buffer = ReplayBuffer(capacity=4)
        rng = np.random.default_rng(0)
        previous_min = -np.inf
        for step in range(30):
            trajs = sample_trajectories(policy, env, 5, rng)
            buffer_update(buffer, trajs, BufferCriterion.REWARD, env, step=step)
            if len(buffer.entries()) == buffer.capacity:
                current = buffer.min_reward()
                assert current >= previous_min
                previous_min = current


def model_add(pools, capacity, new):
    """The documented rules on a plain list per condition in arrival order."""
    pool = pools.setdefault(new.condition, [])
    same = [i for i, e in enumerate(pool) if e.tokens == new.tokens]
    if same:
        if new.reward <= pool[same[0]].reward:
            return False
        del pool[same[0]]
    elif len(pool) == capacity:
        oldest_lowest = min(range(len(pool)), key=lambda i: (pool[i].reward, pool[i].insert_step))
        if new.reward <= pool[oldest_lowest].reward:
            return False
        del pool[oldest_lowest]
    pool.append(new)
    return True


def model_entries(pool):
    """Best score first, then the earlier step, then the earlier arrival."""
    return sorted(pool, key=lambda e: (-e.reward, e.insert_step))


# Two tokens over three symbols force dedupe hits; four rewards force ties.
ADDS = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1]),
        st.lists(st.integers(0, 2), min_size=1, max_size=2),
        st.sampled_from([0.0, 0.5, 1.0, 1.5]),
        st.booleans(),
    ),
    max_size=40,
)


class TestBufferModel:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 6), adds=ADDS)
    def test_matches_list_model(self, capacity, adds):
        buffer = ReplayBuffer(capacity)
        pools = {}
        step = 0
        for condition, tokens, reward, next_step in adds:
            step += next_step
            new = entry(tokens, reward, condition, step)
            assert buffer.add(new) == model_add(pools, capacity, new)
            assert len(buffer) == sum(len(pool) for pool in pools.values())
            for cond in (None, 0, 1):
                expected = model_entries(pools.get(cond, []))
                assert buffer.entries(cond) == expected
                if expected:
                    assert buffer.min_reward(cond) == expected[-1].reward
                    assert buffer.max_reward(cond) == expected[0].reward

    def test_exact_ties_sample_in_arrival_order(self):
        # The wsil_i Markov config stores these two at step 105 with equal rewards.
        tied = -9.100107695688681
        low, high = entry([0] * 8, -12.0, step=100), entry([1] * 8, -8.0, step=100)
        first = entry([4, 4, 0, 4, 3, 4, 3, 4], tied, step=105)
        second = entry([4, 0, 4, 3, 4, 3, 4, 4], tied, step=105)
        buffer = ReplayBuffer(capacity=64)
        for new in (low, high, first, second):
            assert buffer.add(new)
        expected = [high, first, second, low]
        assert buffer.entries() == expected
        picks = np.random.default_rng(3).choice(4, size=4, replace=False)
        assert buffer.sample(4, np.random.default_rng(3)) == [expected[i] for i in picks]


class TestBufferUpdate:
    def test_empty_buffer_inserts_all(self):
        env = ToyEnv.markov(3, 2, seed=1)
        trajs = sample_trajectories(Policy.tabular(3, 2), env, 4, 0)
        buffer = buffer_update(ReplayBuffer(capacity=16), trajs, BufferCriterion.REWARD, env)
        assert len(buffer) == len({t.tokens for t in trajs})

    def test_full_buffer_unchanged_by_low_scores(self):
        buffer = ReplayBuffer(capacity=2)
        buffer.add(entry([7], 100.0))
        buffer.add(entry([8], 99.0))
        env = ToyEnv.markov(3, 2, seed=1)  # log-probs are far below 99
        trajs = sample_trajectories(Policy.tabular(3, 2), env, 6, 0)
        before = [(e.tokens, e.reward) for e in buffer.entries()]
        buffer_update(buffer, trajs, BufferCriterion.REWARD, env)
        assert [(e.tokens, e.reward) for e in buffer.entries()] == before

    def test_conditional_capacity_five(self):
        env = ToyEnv.overlap(4, 3, seed=0, conditions=2, reference_count=3)
        policy = Policy.tabular(4, 3)
        buffer = ReplayBuffer(capacity=5)
        rng = np.random.default_rng(1)
        for step in range(40):
            trajs = sample_trajectories(policy, env, 5, rng)
            buffer_update(buffer, trajs, BufferCriterion.REWARD, env, step=step)
        for cond in env.condition_ids():
            assert len(buffer.entries(cond)) <= 5

    def test_f1_criterion_prefers_reference_like_but_novel(self):
        env = ToyEnv.overlap(4, 3, seed=3, reference_count=2)
        ref = env.references_for(None)[0]

        class Fake:
            def __init__(self, tokens):
                self.tokens = tuple(tokens)
                self.condition = None
                self.reward = 0.0

        buffer = ReplayBuffer(capacity=8)
        buffer_update(buffer, [Fake(ref)], BufferCriterion.F1_BLEU, env)
        first_score = buffer.max_reward()
        assert first_score > 0.0
        # the same sequence again now scores lower: redundant with the buffer
        buffer2 = buffer_update(ReplayBuffer(capacity=8), [Fake(ref), Fake(ref)], BufferCriterion.F1_BLEU, env)
        scores = sorted(e.reward for e in buffer2.entries())
        assert len(scores) == 1  # dedupe keeps the higher (first) score

    def test_reference_reward_criterion_scores_by_reference_match(self):
        env = ToyEnv.overlap(4, 3, seed=4, reference_count=2)
        ref = env.references_for(None)[0]

        class Fake:
            def __init__(self, tokens):
                self.tokens = tuple(tokens)
                self.condition = None
                self.reward = 0.0

        buffer = ReplayBuffer(capacity=8)
        exact = Fake(ref)
        off = Fake(tuple((t + 1) % 4 for t in ref))
        buffer_update(buffer, [exact, off], BufferCriterion.REFERENCE_REWARD, env)
        ranked = buffer.entries()
        assert ranked[0].tokens == exact.tokens
