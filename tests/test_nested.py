import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqot import (
    IpotConfig,
    OovPolicy,
    exact_ot_oracle,
    load_embeddings,
    nested,
    nested_wasserstein,
    score_pair,
)
from seqot.embeddings import EmbeddingTable, build_cost_matrix
from seqot.nested import EmptySetError, NestedSolveError, OuterNotConvergedError, best_matches, score_matrices
from seqot.ot_core import GAMMA, ipot_solve
from seqot.seq_match import reward_bound
from seqot.sil_rl import basis_embedding_table

from conftest import FIXTURES


def bag(seq) -> tuple:
    """A sequence's memo key: its tokens in sorted order."""
    return tuple(sorted(seq))


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
            assert result.per_hyp_reward[i] == pytest.approx(0.5, abs=2e-3)

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

    def test_an_unconverged_outer_plan_raises(self, monkeypatch):
        table = basis_embedding_table(5)
        set_a, set_b = random_sets(table, 55, 3, 3)
        monkeypatch.setattr(nested, "ipot_solve", lambda cost: ipot_solve(cost, IpotConfig(outer_iters=1)))
        with pytest.raises(OuterNotConvergedError, match="^outer solve of the 3x3 problem did not converge "
                                                         "within 1 steps$"):
            nested_wasserstein(table, set_a, set_b)
        monkeypatch.undo()
        assert nested_wasserstein(table, set_a, set_b).outer_plan.converged

    def test_result_internal_consistency(self):
        table = basis_embedding_table(5)
        set_a, set_b = random_sets(table, 55, 3, 3)
        result = nested_wasserstein(table, set_a, set_b)
        recomputed = float((result.outer_plan.values * result.seq_cost_matrix).sum())
        assert result.distance == pytest.approx(recomputed, abs=1e-12)
        per_hyp = (result.outer_plan.values * result.seq_reward_matrix).sum(axis=1)
        assert np.allclose(result.per_hyp_reward, per_hyp, atol=1e-12)


@pytest.fixture
def count_inner_solves(count_solves):
    return count_solves("seqot.nested")


class TestScoreMatrices:
    def test_grid_matches_score_pair_solving_each_distinct_pair_once(self, fixtures_dir, count_inner_solves):
        table = load_embeddings(fixtures_dir / "toy_embeddings.txt")
        hyps = [["young", "kid", "rides"], ["one", "bike"], ["cow"], ["one", "bike"]]
        refs = [["youthful", "child", "cycles"], ["single", "bicycle"], ["main", "road", "down"], ["cow"]]
        distances, rewards = score_matrices(table, hyps, refs)
        assert distances.shape == rewards.shape == (4, 4)
        distinct = [(bag(hyp), bag(ref)) for hyp in hyps[:3] for ref in refs]
        assert count_inner_solves == distinct
        for i, hyp in enumerate(hyps):
            for j, ref in enumerate(refs):
                scored = score_pair(table, hyp, ref)
                assert distances[i, j] == scored.distance
                assert rewards[i, j] == scored.reward


class TestPairScoreMemo:
    """The table memoizes inner pair scores across calls."""

    @staticmethod
    def fresh_table(fixtures_dir, oov=OovPolicy.STRICT):
        return load_embeddings(fixtures_dir / "toy_embeddings.txt", oov)

    def test_second_call_solves_only_new_pairs(self, fixtures_dir, count_inner_solves):
        table = self.fresh_table(fixtures_dir)
        set_a, set_b = random_sets(table, 3, 4, 3)
        nested_wasserstein(table, set_a, set_b)
        assert len(count_inner_solves) == len(set(count_inner_solves)) == 12
        new_hyp = ["young", "kid"]
        overlapping = set_a[1:] + [new_hyp]
        del count_inner_solves[:]

        warm = nested_wasserstein(table, overlapping, set_b)
        assert count_inner_solves == [(bag(new_hyp), bag(ref)) for ref in set_b]
        cold = nested_wasserstein(self.fresh_table(fixtures_dir), overlapping, set_b)
        assert np.array_equal(warm.seq_cost_matrix, cold.seq_cost_matrix)
        assert np.array_equal(warm.seq_reward_matrix, cold.seq_reward_matrix)
        assert np.array_equal(warm.outer_plan.values, cold.outer_plan.values)
        assert warm.distance == cold.distance

    def test_configs_share_one_memo(self, fixtures_dir, count_inner_solves):
        # inner solves are exact and take no config, so a second call reuses every pair
        table = self.fresh_table(fixtures_dir)
        set_a, set_b = random_sets(table, 4, 2, 2)
        first = nested_wasserstein(table, set_a, set_b)
        second = nested_wasserstein(table, set_a, set_b)
        assert len(count_inner_solves) == 4
        assert np.array_equal(first.seq_cost_matrix, second.seq_cost_matrix)
        assert np.array_equal(first.seq_reward_matrix, second.seq_reward_matrix)

    def test_token_boundaries_are_part_of_the_key(self, fixtures_dir, count_inner_solves):
        table = self.fresh_table(fixtures_dir, OovPolicy.HASH_FALLBACK)
        pairs = [(["a b"], ["c"]), (["a", "b"], ["c"]), (["a"], ["b", "c"]), (["a"], ["b c"])]
        results = [nested_wasserstein(table, [hyp], [ref]) for hyp, ref in pairs]
        assert len(count_inner_solves) == 4
        distances = [r.seq_cost_matrix[0, 0] for r in results]
        expected = [score_pair(table, hyp, ref).distance for hyp, ref in pairs]
        assert distances == expected
        assert len(set(distances)) == 4


def continuous_table(seed: int, size: int = 40, dim: int = 3) -> EmbeddingTable:
    """Random directions in few dimensions: costs spread over all of [0, 2]."""
    rows = np.random.default_rng(seed).standard_normal((size, dim))
    return EmbeddingTable(dim=dim, entries={f"t{i}": row for i, row in enumerate(rows)})


def bound(table, hyp, ref):
    return reward_bound(build_cost_matrix(table, hyp, ref))


BOUND_TABLES = {"continuous": continuous_table(0), "basis": basis_embedding_table(12)}


class TestRewardBound:
    """``reward_bound`` caps the reward of every pair :func:`score_pair`
    solves, padded or not."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(BOUND_TABLES)),
        st.sampled_from(["random", "identical", "permutation", "subset"]),
        st.integers(1, 30),
        st.integers(1, 30),
        st.floats(0.0, 3.0),
        st.sampled_from([1, 2, 5, 20, 1000]),
        st.integers(0, 2**32 - 1),
    )
    def test_reward_never_exceeds_the_bound(self, kind, shape, hyp_len, ref_len, log_stretch, outer_iters, seed):
        table = BOUND_TABLES[kind]
        rng = np.random.default_rng(seed)
        vocab = table.tokens()
        ref = [vocab[t] for t in rng.integers(0, len(vocab), ref_len)]
        hyp = {
            "random": lambda: [vocab[t] for t in rng.integers(0, len(vocab), hyp_len)],
            "identical": lambda: list(ref),
            "permutation": lambda: [ref[t] for t in rng.permutation(ref_len)],
            "subset": lambda: [ref[t] for t in sorted(rng.choice(ref_len, min(hyp_len, ref_len), replace=False))],
        }[shape]()
        cost = build_cost_matrix(table, hyp, ref).values
        # stretched costs: the kernel of a weight 10**-log_stretch, in [0.001, 1]
        plan = ipot_solve(GAMMA * 10.0**log_stretch * cost, IpotConfig(outer_iters=outer_iters))
        size = cost.shape[0]
        eps = sys.float_info.epsilon
        # ipot_solve's column-mass invariant: no negative entry, no column past 1/L
        assert plan.values.min() >= 0.0
        assert plan.values.sum(axis=0).max() <= (1.0 + (2 * size + 8) * eps) / size
        reward = score_pair(table, hyp, ref).reward
        assert reward <= bound(table, hyp, ref)
        # the rounding the margin covers is at most 2L u = L eps
        gain = np.maximum(1.0 - cost.min(axis=0), 0.0).sum() / size
        assert reward <= gain + size * eps

    def test_an_identical_pair_reads_exactly_one_under_the_bound(self):
        # the bound before its margin is exactly 1.0, and so is the exact
        # reward: the assignment picks only zero-cost cells
        table = BOUND_TABLES["basis"]
        seq = ["4", "0", "3", "1", "4"]
        scored = score_pair(table, seq, seq)
        assert (scored.reward, scored.distance) == (1.0, 0.0)
        assert bound(table, seq, seq) == 1.0 + 9**2 * sys.float_info.epsilon

    def test_pads_do_not_raise_the_bound(self, ortho_table):
        # "a" matches one of the three reference columns; the pads match none
        assert bound(ortho_table, ["a"], ["b", "a", "c"]) == pytest.approx(1 / 3, abs=1e-12)
        assert bound(ortho_table, ["a"], ["b", "c", "d"]) == pytest.approx(0.0, abs=1e-12)


def argmax_matches(table, hyps, refs):
    """The full grid's argmax per row, as ``(j, distance, reward)`` with the
    floats as exact bits."""
    distances, rewards = score_matrices(table, hyps, refs)
    return [
        (int(j), distances[i, j].hex(), rewards[i, j].hex())
        for i, j in enumerate(np.argmax(rewards, axis=1))
    ]


def as_bits(matches):
    return [(j, distance.hex(), reward.hex()) for j, distance, reward in matches]


class TestBestMatches:
    """``best_matches`` picks the argmax of the full grid, bit for bit,
    while solving only the pairs whose bound can still win."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [
        lambda seed: load_embeddings(FIXTURES / "toy_embeddings.txt"),
        continuous_table,
        lambda seed: basis_embedding_table(6),
    ], ids=["toy", "continuous", "basis"])
    def test_equals_the_full_grid_argmax(self, make, seed):
        hyps, refs = random_sets(make(seed), seed, 5, 7, max_len=8)
        refs[3] = list(refs[1])  # a duplicate reference line
        hyps.append(list(refs[5]))  # a hypothesis with an exact match
        table = make(seed)
        assert as_bits(best_matches(table, hyps, refs)) == argmax_matches(make(seed), hyps, refs)
        # warm: every pair now answered from the memo the grid shares
        assert as_bits(best_matches(table, hyps, refs)) == argmax_matches(table, hyps, refs)

    def test_duplicate_references_lowest_index_wins(self, ortho_table, count_inner_solves):
        hyps = [["a", "b"], ["c"]]
        refs = [["d"], ["b", "a"], ["c", "d"], ["a", "b"], ["b", "a"], ["c"], ["c"]]
        matches = best_matches(ortho_table, hyps, refs)
        assert as_bits(matches) == argmax_matches(ortho_table, hyps, refs)
        assert [j for j, _, _ in matches] == [1, 5]

    def test_empty_reference_set_rejected(self, ortho_table):
        with pytest.raises(EmptySetError):
            best_matches(ortho_table, [["a"]], [])

    def test_exact_tie_keeps_the_lower_index_visited_second(self, ortho_table, count_inner_solves):
        # both rewards are exactly 0.0; the longer reference's margin gives
        # it the higher bound, so it is solved first and then loses the tie
        refs = [["b"], ["b", "c"]]
        assert bound(ortho_table, ["a"], refs[1]) > bound(ortho_table, ["a"], refs[0])
        matches = best_matches(ortho_table, [["a"]], refs)
        assert count_inner_solves == [(("a",), ("b", "c")), (("a",), ("b",))]
        assert matches[0][0] == 0 and matches[0][2] == 0.0
        assert as_bits(matches) == argmax_matches(ortho_table, [["a"]], refs)

    def test_nothing_pruned_when_every_bound_reaches_the_best(self, ortho_table, count_inner_solves):
        # every reference token is in the hypothesis: every bound is
        # 1 + margin, which the best reward, 1.0, does not reach. The bags
        # differ, since permutations of one bag share one memo entry.
        hyps = [["a", "b", "c", "d"]]
        refs = [["b", "a", "d", "c"], ["a", "a", "b", "c"], ["d", "d", "c", "b"], ["c", "c", "a", "b"]]
        matches = best_matches(ortho_table, hyps, refs)
        assert len(count_inner_solves) == len(refs)
        assert as_bits(matches) == argmax_matches(ortho_table, hyps, refs)

    def test_repeated_hypotheses_are_served_from_the_memo(self, fixtures_dir, count_inner_solves):
        table = load_embeddings(fixtures_dir / "toy_embeddings.txt")
        hyp = "young kid rides one bike".split()
        refs = ["youthful child cycles single bicycle".split(), ["cow", "road"], ["main", "road", "down"]]
        first = best_matches(table, [hyp], refs)
        solved = list(count_inner_solves)
        assert solved == [(bag(hyp), bag(refs[0]))]
        again = best_matches(table, [hyp, list(hyp), hyp], refs)
        assert count_inner_solves == solved
        assert as_bits(again) == as_bits(first) * 3

    def test_shares_the_memo_with_score_matrices(self, fixtures_dir, count_inner_solves):
        table = load_embeddings(fixtures_dir / "toy_embeddings.txt")
        hyps, refs = random_sets(table, 11, 3, 4)
        score_matrices(table, hyps, refs)
        del count_inner_solves[:]
        best_matches(table, hyps, refs)
        assert count_inner_solves == []

    @pytest.mark.parametrize("hyps, refs, pair", [
        ([["a"], ["c", "zebra"]], [["a"], ["b"], ["c"]], (1, 0)),
        ([["a"], ["b"]], [["a"], ["b"], ["c", "zebra"]], (0, 2)),
        # sorted, 'aardvark' comes first; the line's first bad token is named
        ([["a"], ["c", "zebra", "aardvark"]], [["a"], ["b"], ["c"]], (1, 0)),
        ([["a"], ["b"]], [["a"], ["b"], ["c", "zebra", "aardvark"]], (0, 2)),
    ], ids=["hypothesis", "reference", "hypothesis-unsorted", "reference-unsorted"])
    def test_unknown_token_fails_at_the_full_grid_pair(self, ortho_table, hyps, refs, pair):
        for score in (score_matrices, best_matches):
            with pytest.raises(NestedSolveError) as err:
                score(ortho_table, hyps, refs)
            assert (err.value.i, err.value.j) == pair
            assert str(err.value.__cause__) == "unknown token 'zebra' (strict OOV policy)"


BAG_TABLES = {
    "toy": lambda: load_embeddings(FIXTURES / "toy_embeddings.txt"),
    "basis": lambda: basis_embedding_table(6),
}


def shuffled(seqs, rng):
    return [[seq[t] for t in rng.permutation(len(seq))] for seq in seqs]


def pair_bits(table, hyp, ref):
    scored = score_pair(table, hyp, ref)
    return scored.distance.hex(), scored.reward.hex()


def grid_bits(table, hyps, refs):
    distances, rewards = score_matrices(table, hyps, refs)
    return [x.hex() for x in distances.ravel()], [x.hex() for x in rewards.ravel()]


class TestTokenBags:
    """A pair's score is a function of its two token bags, bit for bit,
    whatever order its tokens come in and whichever order was scored first."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(BAG_TABLES)), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_permuting_either_side_keeps_every_bit(self, kind, k, k_prime, seed):
        make = BAG_TABLES[kind]
        hyps, refs = random_sets(make(), seed, k, k_prime, max_len=8)
        rng = np.random.default_rng(seed)
        for other_hyps, other_refs in [(shuffled(hyps, rng), refs), (hyps, shuffled(refs, rng))]:
            for hyp, ref, other_hyp, other_ref in zip(hyps, refs, other_hyps, other_refs):
                table = make()
                assert pair_bits(table, other_hyp, other_ref) == pair_bits(table, hyp, ref)
            assert grid_bits(make(), other_hyps, other_refs) == grid_bits(make(), hyps, refs)
            assert as_bits(best_matches(make(), other_hyps, other_refs)) == as_bits(best_matches(make(), hyps, refs))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(BAG_TABLES)), st.integers(0, 2**32 - 1))
    def test_a_permutation_scored_first_changes_no_bit(self, count_inner_solves, kind, seed):
        make = BAG_TABLES[kind]
        hyps, refs = random_sets(make(), seed, 1, 1, max_len=8)
        rng = np.random.default_rng(seed)
        other_hyps, other_refs = shuffled(hyps, rng), shuffled(refs, rng)
        fresh_grid, fresh_best = grid_bits(make(), hyps, refs), as_bits(best_matches(make(), hyps, refs))
        for score in (grid_bits, lambda *args: as_bits(best_matches(*args))):
            table = make()
            del count_inner_solves[:]
            score(table, other_hyps, other_refs)
            assert count_inner_solves == [(bag(hyps[0]), bag(refs[0]))]
            assert grid_bits(table, hyps, refs) == fresh_grid
            assert as_bits(best_matches(table, hyps, refs)) == fresh_best
            assert len(count_inner_solves) == 1
