import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqot.embeddings import DegenerateVectorError, EmbeddingTable
from seqot.text_metrics import (
    BLEU_ORDERS,
    SELF_BLEU_CAP,
    BleuReport,
    EmptyCorpusError,
    TooFewSentencesError,
    _bleu,
    _closest_ref_len,
    corpus_bleu,
    f1_bleu,
    naive_semantic_score,
    self_bleu,
)

GOLDEN = Path(__file__).parent / "golden" / "bleu_fixture.json"

# hand-counted two-sentence fixture (the golden file freezes these numbers):
#   hyps: "the cat sat" / "a dog barked loudly"
#   refs: "the cat sat on the mat" / "a dog barked"
# 1-grams: matched 3+3=6 of 3+4=7; 2-grams: matched 2+2=4 of 2+3=5
# brevity: c=7, r=3+3=6 -> BP=1; BLEU-2 = sqrt(6/7 * 4/5)
HYPS = [s.split() for s in ("the cat sat", "a dog barked loudly")]
REFS = [s.split() for s in ("the cat sat on the mat", "a dog barked")]
HAND_BLEU2 = math.sqrt((6 / 7) * (4 / 5))


class TestCorpusBleu:
    def test_identical_corpora_exactly_one(self):
        corpus = [s.split() for s in ("a b c", "d e f g", "x y")]
        assert corpus_bleu(corpus, corpus, 2) == 1.0

    def test_zero_ngram_overlap_is_zero(self):
        assert corpus_bleu([["q", "r", "s"]], REFS, 2) == 0.0

    def test_hand_counted_fixture(self):
        assert corpus_bleu(HYPS, REFS, 2) == pytest.approx(HAND_BLEU2, abs=1e-12)

    def test_golden_file(self):
        golden = json.loads(GOLDEN.read_text())
        report = BleuReport.compute(HYPS, REFS, order=2)
        for key in ("test_bleu", "self_bleu", "f1_bleu"):
            assert getattr(report, key) == pytest.approx(golden[key], abs=1e-9)
        assert report.order == golden["order"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            corpus_bleu([], REFS, 2)
        with pytest.raises(EmptyCorpusError):
            corpus_bleu(HYPS, [], 2)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            corpus_bleu(HYPS, REFS, 1)
        with pytest.raises(ValueError):
            corpus_bleu(HYPS, REFS, 6)

    def test_order_invariance(self):
        assert corpus_bleu(HYPS[::-1], REFS, 2) == corpus_bleu(HYPS, REFS, 2)
        assert corpus_bleu(HYPS, REFS[::-1], 2) == corpus_bleu(HYPS, REFS, 2)

    def test_range(self):
        rng_sentences = [["a", "b", "a"], ["b", "b", "c", "a"], ["c"]]
        for order in (2, 3):
            value = corpus_bleu(rng_sentences, REFS + rng_sentences, order)
            assert 0.0 <= value <= 1.0


def brute_force_bleu(hyps, refs, order):
    """Corpus BLEU with each hypothesis's closest reference length found by
    scanning every reference, ties to the shorter."""
    matched, total = [0] * order, [0] * order
    for k in range(1, order + 1):
        limits = Counter()
        for ref in refs:
            limits |= Counter(tuple(ref[i : i + k]) for i in range(len(ref) - k + 1))
        for hyp in hyps:
            counts = Counter(tuple(hyp[i : i + k]) for i in range(len(hyp) - k + 1))
            matched[k - 1] += sum((counts & limits).values())
            total[k - 1] += max(len(hyp) - k + 1, 0)
    ref_len = sum(min((abs(len(r) - len(h)), len(r)) for r in refs)[1] for h in hyps)
    return _bleu(list(zip(matched, total)), sum(map(len, hyps)), ref_len, order)


class TestCorpusBleuBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 5]))
    def test_equals_the_per_hypothesis_scan_with_tied_lengths(self, seed, order):
        # reference lengths 2, 4 and 6 leave hypothesis lengths 3 and 5 tied
        # between two of them; three tokens keep n-gram matches frequent
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c"]
        refs = [list(rng.choice(vocab, rng.choice([2, 4, 6]))) for _ in range(rng.integers(1, 12))]
        hyps = [list(rng.choice(vocab, rng.integers(1, 8))) for _ in range(rng.integers(1, 12))]
        assert corpus_bleu(hyps, refs, order) == brute_force_bleu(hyps, refs, order)

    def test_ties_take_the_shorter_length(self):
        # length 3 sits between references of 2 and 4: r = 2, so no penalty
        hyps = [["a", "b", "c"]]
        refs = [["a", "b"], ["b", "c", "a", "b"]]
        assert corpus_bleu(hyps, refs, 2) == brute_force_bleu(hyps, refs, 2) == math.sqrt(3 / 3 * 2 / 2)

    def test_int_and_tuple_tokens_score_as_their_strings(self):
        # a Sentence is any sequence of hashables; tokens compare by equality
        hyps = [[0, 1, 2, 1], [2, 1, 0]]
        refs = [[0, 1, 2], [1, 0, 1, 2, 2]]
        expected = corpus_bleu([[str(t) for t in s] for s in hyps], [[str(t) for t in s] for s in refs], 2)
        assert 0.0 < expected < 1.0
        assert corpus_bleu(hyps, refs, 2) == brute_force_bleu(hyps, refs, 2) == expected
        as_tuples = [[(t, "x") for t in s] for s in hyps], [[(t, "x") for t in s] for s in refs]
        assert corpus_bleu(*as_tuples, 2) == brute_force_bleu(*as_tuples, 2) == expected


def top_two_self_bleu(hyps, order, cap=SELF_BLEU_CAP, seed=0):
    """Self-BLEU from per-sentence ``Counter``s: each gram's top count, its
    owner and its runner-up give each sentence's leave-one-out limits."""
    sentences = list(hyps)
    if len(sentences) > cap:
        rng = np.random.default_rng(seed)
        sentences = [sentences[i] for i in sorted(rng.choice(len(sentences), size=cap, replace=False))]
    counts = [[Counter(tuple(s[i : i + k]) for i in range(len(s) - k + 1)) for k in range(1, order + 1)]
              for s in sentences]
    top2 = [{} for _ in range(order)]
    for idx, per_order in enumerate(counts):
        for table, grams in zip(top2, per_order):
            for gram, c in grams.items():
                best, owner, second = table.get(gram, (0, -1, 0))
                if c > best:
                    table[gram] = (c, idx, best)
                elif c > second:
                    table[gram] = (best, owner, c)
    lens = Counter(len(s) for s in sentences)
    scores = []
    for idx, (s, per_order) in enumerate(zip(sentences, counts)):
        precisions = []
        for k, (table, grams) in enumerate(zip(top2, per_order)):
            matched = 0
            for gram, c in grams.items():
                best, owner, second = table[gram]
                matched += min(c, second if owner == idx else best)
            precisions.append((matched, max(len(s) - k, 0)))
        ref_len = _closest_ref_len(len(s), [m for m in lens if m != len(s) or lens[m] > 1])
        scores.append(_bleu(precisions, len(s), ref_len, order))
    return float(np.mean(scores))


def zipf_corpus(rng, lines):
    # about 2000 distinct tokens in 1000 lines: many distinct grams to re-rank
    weights = 1 / np.arange(1, 3001)
    return [[f"w{t}" for t in rng.choice(3000, rng.integers(1, 25), p=weights / weights.sum())]
            for _ in range(lines)]


def test_array_counts_equal_both_oracles_on_a_zipf_corpus():
    rng = np.random.default_rng(11)
    hyps, refs = zipf_corpus(rng, 1000), zipf_corpus(rng, 1000)
    assert len({t for s in hyps for t in s}) > 1800
    for order in BLEU_ORDERS:
        assert corpus_bleu(hyps, refs, order) == brute_force_bleu(hyps, refs, order)
        assert self_bleu(hyps, order) == top_two_self_bleu(hyps, order)


class TestSelfBleu:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("abc"), max_size=7), min_size=2, max_size=14),
        st.sampled_from(BLEU_ORDERS),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_counter_top_two_exactly(self, corpus, order, cap, seed):
        # three tokens tie the top count often; empty and short sentences and
        # corpora above the cap (subsampled) are all drawn
        assert self_bleu(corpus, order, cap=cap, seed=seed) == top_two_self_bleu(corpus, order, cap, seed)

    def test_all_identical_is_one(self):
        corpus = [["a", "b", "c"]] * 4
        assert self_bleu(corpus, 2) == 1.0

    def test_disjoint_sentences_zero(self):
        corpus = [["a", "b"], ["c", "d"], ["e", "f"]]
        assert self_bleu(corpus, 2) == 0.0

    def test_hand_counted_mixed_corpus(self):
        # s0="a b c", s1="a b d", s2="x y z w"
        # s0 | {s1, s2}: p1 = 2/3 (a, b), p2 = 1/2 ("a b") -> BP: c=3, closest r=3 -> 1
        # s1 symmetric: same value; s2 shares nothing -> 0
        corpus = [["a", "b", "c"], ["a", "b", "d"], ["x", "y", "z", "w"]]
        per_sentence = math.sqrt((2 / 3) * (1 / 2))
        assert self_bleu(corpus, 2) == pytest.approx((2 * per_sentence + 0.0) / 3, abs=1e-12)

    def test_too_few_sentences(self):
        with pytest.raises(TooFewSentencesError):
            self_bleu([["a", "b"]], 2)

    def test_duplication_monotonicity(self):
        distinct = [["a", "b"], ["c", "d"], ["e", "f"]]
        values = []
        for copies in (2, 4, 8):
            corpus = distinct + [["dup", "licate"]] * copies
            values.append(self_bleu(corpus, 2))
        assert values[0] < values[1] < values[2] < 1.0

    def test_cap_subsample_is_deterministic(self):
        corpus = [[f"w{i}", f"v{i}"] for i in range(30)]
        first = self_bleu(corpus, 2, cap=10, seed=3)
        second = self_bleu(corpus, 2, cap=10, seed=3)
        assert first == second

    @pytest.mark.parametrize("cap", [0, 1])
    def test_cap_below_two_rejected(self, cap):
        corpus = [[f"w{i}", f"v{i}"] for i in range(5)]
        with pytest.raises(ValueError, match=f"cap must be >= 2, got {cap}"):
            self_bleu(corpus, 2, cap=cap)

    def test_matches_naive_leave_one_out(self):
        # the top-2 count structure must agree with the rebuilt-table oracle
        corpus = [["a", "b", "a"], ["a", "b"], ["b", "a", "b"], ["c", "a"]]
        naive = sum(
            corpus_bleu([s], corpus[:i] + corpus[i + 1 :], 2) for i, s in enumerate(corpus)
        ) / len(corpus)
        assert self_bleu(corpus, 2) == pytest.approx(naive, abs=1e-12)


class TestF1:
    def test_symmetric_point(self):
        assert f1_bleu(0.5, 0.5) == 0.5

    def test_extremes(self):
        assert f1_bleu(1.0, 0.0) == 1.0
        assert f1_bleu(0.0, 0.3) == 0.0
        assert f1_bleu(0.0, 1.0) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            f1_bleu(1.5, 0.0)
        with pytest.raises(ValueError):
            f1_bleu(0.5, -0.1)

    @settings(max_examples=60)
    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.001, 0.2),
    )
    def test_monotone_in_quality_and_diversity(self, quality, redundancy, delta):
        base = f1_bleu(quality, redundancy)
        if quality + delta <= 1.0:
            assert f1_bleu(quality + delta, redundancy) > base
        if redundancy + delta <= 1.0:
            assert f1_bleu(quality, redundancy + delta) < base


class TestNaiveScore:
    def test_identical(self, ortho_table):
        assert naive_semantic_score(ortho_table, ["a", "b"], ["a", "b"]) == pytest.approx(1.0)

    def test_single_orthogonal(self, ortho_table):
        assert naive_semantic_score(ortho_table, ["a"], ["b"]) == pytest.approx(0.0)

    def test_zero_mean_embedding_degenerate(self):
        table = EmbeddingTable(dim=2, entries={"a": np.array([1.0, 0.0]), "b": np.array([-1.0, 0.0])})
        with pytest.raises(DegenerateVectorError):
            naive_semantic_score(table, ["a", "b"], ["a"])

    def test_tiny_mean_embedding_scores_its_direction(self):
        table = EmbeddingTable(dim=2, entries={"a": np.array([1e-170, 0.0]), "b": np.array([3.0, 4.0])})
        assert naive_semantic_score(table, ["a"], ["b"]) == pytest.approx(0.6, abs=1e-15)

    def test_synonym_swap_ranks_opposite_to_transport(self, toy_table):
        from seqot import score_pair

        ref = "young kid rides one bike down main road".split()
        ngram_candidate = "young kid rides one cow down main road".split()
        synonym_candidate = "youthful child cycles single bicycle along primary street".split()
        assert naive_semantic_score(toy_table, ngram_candidate, ref) > naive_semantic_score(
            toy_table, synonym_candidate, ref
        )
        assert score_pair(toy_table, ngram_candidate, ref).reward < score_pair(
            toy_table, synonym_candidate, ref
        ).reward
