import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqot import score_pair


def random_sequences(table, seed, count=20, max_len=8):
    rng = np.random.default_rng(seed)
    vocab = table.tokens()
    out = []
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        out.append([vocab[i] for i in rng.integers(0, len(vocab), length)])
    return out


class TestExamples:
    def test_identical_sequences(self, ortho_table):
        distance = score_pair(ortho_table, ["a", "b"], ["a", "b"]).distance
        assert distance == pytest.approx(0.0, abs=1e-3)

    def test_order_invariance_pairwise(self, ortho_table):
        distance = score_pair(ortho_table, ["a", "b"], ["b", "a"]).distance
        assert distance == pytest.approx(0.0, abs=1e-3)

    def test_single_orthogonal_pair(self, ortho_table):
        distance = score_pair(ortho_table, ["a"], ["b"]).distance
        assert distance == pytest.approx(1.0, abs=1e-3)

    def test_reward_identity(self, ortho_table):
        assert score_pair(ortho_table, ["a", "b"], ["a", "b"]).reward == pytest.approx(1.0, abs=1e-3)

    def test_reward_orthogonal(self, ortho_table):
        assert score_pair(ortho_table, ["a"], ["b"]).reward == pytest.approx(0.0, abs=1e-3)

    def test_synonym_vs_ngram_ordering(self, toy_table):
        ref = "young kid rides one bike down main road".split()
        ngram_candidate = "young kid rides one cow down main road".split()
        synonym_candidate = "youthful child cycles single bicycle along primary street".split()
        assert score_pair(toy_table, synonym_candidate, ref).reward > score_pair(
            toy_table, ngram_candidate, ref
        ).reward


class TestInvariants:
    def test_identity_reward_random_sequences(self, toy_table):
        for seq in random_sequences(toy_table, seed=11, count=20, max_len=12):
            assert score_pair(toy_table, seq, seq).reward == pytest.approx(1.0, abs=1e-3)

    def test_symmetry(self, toy_table):
        seqs = random_sequences(toy_table, seed=12, count=12)
        for hyp, ref in zip(seqs[::2], seqs[1::2]):
            ab = score_pair(toy_table, hyp, ref).distance
            ba = score_pair(toy_table, ref, hyp).distance
            assert ab == pytest.approx(ba, abs=2e-3)

    def test_order_invariance_random(self, toy_table):
        rng = np.random.default_rng(13)
        for hyp, ref in zip(*[iter(random_sequences(toy_table, seed=14, count=12))] * 2):
            base = score_pair(toy_table, hyp, ref).distance
            shuffled = list(hyp)
            rng.shuffle(shuffled)
            permuted = score_pair(toy_table, shuffled, ref).distance
            assert permuted == pytest.approx(base, abs=1e-3)

    def test_reward_plus_distance_is_total_mass(self, toy_table):
        for hyp, ref in zip(*[iter(random_sequences(toy_table, seed=15, count=16))] * 2):
            scored = score_pair(toy_table, hyp, ref)
            assert scored.reward + scored.distance == pytest.approx(1.0, abs=1e-9)

    def test_bounds(self, toy_table):
        for hyp, ref in zip(*[iter(random_sequences(toy_table, seed=16, count=20))] * 2):
            scored = score_pair(toy_table, hyp, ref)
            assert -1.0 <= scored.reward <= 1.0
            assert 0.0 <= scored.distance <= 2.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7))
    def test_padded_pairs_still_consistent(self, seed, len_hyp, len_ref):
        from seqot.sil_rl import basis_embedding_table

        table = basis_embedding_table(5)
        rng = np.random.default_rng(seed)
        hyp = [str(i) for i in rng.integers(0, 5, len_hyp)]
        ref = [str(i) for i in rng.integers(0, 5, len_ref)]
        scored = score_pair(table, hyp, ref)
        assert scored.reward + scored.distance == pytest.approx(1.0, abs=1e-9)
