import numpy as np
import pytest

from seqot import exact_ot_oracle, nested_reward, nested_wasserstein, score_pair
from seqot.nested import EmptySetError, NestedSolveError
from seqot.sil_rl import basis_embedding_table


def random_sets(table, seed, k, k_prime, max_len=5):
    rng = np.random.default_rng(seed)
    vocab = table.tokens()

    def one_set(count):
        return [
            [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, max_len + 1))]
            for _ in range(count)
        ]

    return one_set(k), one_set(k_prime)


class TestExamples:
    def test_single_pair_degenerates_to_sequence_distance(self, toy_table):
        hyp = "young kid rides one bike".split()
        ref = "youthful child cycles single bicycle along".split()
        result = nested_wasserstein(toy_table, [hyp], [ref])
        distance = score_pair(toy_table, hyp, ref).distance
        assert result.distance == pytest.approx(distance, abs=1e-6)

    def test_identical_sets_zero_distance(self, ortho_table):
        group = [["a", "b"], ["c"], ["d", "a"]]
        result = nested_wasserstein(ortho_table, group, group)
        assert result.distance == pytest.approx(0.0, abs=1e-3)

    def test_orthogonal_two_by_two(self, ortho_table):
        # inner distances {aa:0, ac:1, ba:1, bc:1}: outer optimum matches
        # a<->a free and is forced to pay 1 for b<->c, half mass each
        result = nested_wasserstein(ortho_table, [["a"], ["b"]], [["a"], ["c"]])
        assert result.distance == pytest.approx(0.5, abs=2e-3)
        assert result.per_hyp_reward[0] == pytest.approx(0.5, abs=2e-3)
        assert result.per_hyp_reward[1] == pytest.approx(0.0, abs=2e-3)

    def test_identical_sets_share_diagonal_reward(self, ortho_table):
        group = [["a", "b"], ["c", "d"]]
        result = nested_wasserstein(ortho_table, group, group)
        # diagonal outer plan with mass 1/K and reward ~1 per matched pair
        for i in range(2):
            assert nested_reward(result, i) == pytest.approx(0.5, abs=2e-3)

    def test_nested_reward_accessor_and_normalization(self, ortho_table):
        result = nested_wasserstein(ortho_table, [["a"], ["b"]], [["a"], ["c"]])
        assert nested_reward(result, 0) == pytest.approx(result.per_hyp_reward[0])
        assert nested_reward(result, 0, normalized=True) == pytest.approx(
            2 * result.per_hyp_reward[0]
        )
        with pytest.raises(IndexError):
            nested_reward(result, 2)

    def test_empty_sets_rejected(self, ortho_table):
        with pytest.raises(EmptySetError):
            nested_wasserstein(ortho_table, [], [["a"]])
        with pytest.raises(EmptySetError):
            nested_wasserstein(ortho_table, [["a"]], [])
        with pytest.raises(ValueError):
            nested_wasserstein(ortho_table, [["a"], []], [["a"]])

    def test_inner_errors_tagged_with_pair(self, ortho_table):
        with pytest.raises(NestedSolveError) as err:
            nested_wasserstein(ortho_table, [["a"], ["zzz"]], [["a"]])
        assert (err.value.i, err.value.j) == (1, 0)
        assert err.value.stage == "inner"


class TestInvariants:
    def test_degeneracy_on_random_single_pairs(self, toy_table):
        table = toy_table
        for seed in range(10):
            (hyp,), (ref,) = random_sets(table, seed, 1, 1)
            result = nested_wasserstein(table, [hyp], [ref])
            distance = score_pair(table, hyp, ref).distance
            assert abs(result.distance - distance) <= 1e-6

    def test_outer_matches_oracle(self):
        table = basis_embedding_table(6)
        for seed, k in ((0, 2), (1, 3), (2, 4), (3, 5)):
            set_a, set_b = random_sets(table, seed, k, k)
            result = nested_wasserstein(table, set_a, set_b)
            oracle_cost, _ = exact_ot_oracle(result.seq_cost_matrix)
            assert result.distance == pytest.approx(oracle_cost, abs=1e-3)

    def test_symmetry(self):
        table = basis_embedding_table(6)
        set_a, set_b = random_sets(table, 17, 3, 4)
        ab = nested_wasserstein(table, set_a, set_b).distance
        ba = nested_wasserstein(table, set_b, set_a).distance
        assert ab == pytest.approx(ba, abs=2e-3)

    def test_zero_self_distance(self):
        table = basis_embedding_table(6)
        set_a, _ = random_sets(table, 23, 4, 1)
        assert nested_wasserstein(table, set_a, set_a).distance <= 2e-3

    def test_reward_row_mass_bound(self):
        table = basis_embedding_table(6)
        for seed in range(6):
            set_a, set_b = random_sets(table, 100 + seed, 3, 4)
            result = nested_wasserstein(table, set_a, set_b)
            bound = 1.0 / len(set_a) + 1e-6
            assert np.all(np.abs(result.per_hyp_reward) <= bound)

    def test_result_internal_consistency(self):
        table = basis_embedding_table(5)
        set_a, set_b = random_sets(table, 55, 3, 3)
        result = nested_wasserstein(table, set_a, set_b)
        recomputed = float((result.outer_plan.values * result.seq_cost_matrix).sum())
        assert result.distance == pytest.approx(recomputed, abs=1e-12)
        per_hyp = (result.outer_plan.values * result.seq_reward_matrix).sum(axis=1)
        assert np.allclose(result.per_hyp_reward, per_hyp, atol=1e-12)
