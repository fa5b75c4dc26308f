"""n-gram reference metrics: corpus BLEU, self-BLEU, their harmonic blend,
and the average-embedding baseline score.

BLEU here is the corpus-level, unsmoothed variant with uniform 1/n weights
and a brevity penalty; in the unconditional-generation convention the whole
reference corpus serves as the reference set for every hypothesis, so a
zero-overlap hypothesis corpus legitimately scores 0.

n-grams are counted as integer codes over numpy arrays. Every count is an
exact integer and the floats come from one scalar formula (:func:`_bleu`),
so the scores equal, bit for bit, those of counting each sentence's n-gram
tuples in a ``Counter`` (the tests hold such counts as oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable, cosine_cost, resolve

Sentence = Sequence[Hashable]

BLEU_ORDERS = (2, 3, 4, 5)
SELF_BLEU_CAP = 1000


class EmptyCorpusError(ValueError):
    def __init__(self, which: str):
        super().__init__(f"{which} corpus is empty")


class TooFewSentencesError(ValueError):
    def __init__(self, got: int):
        super().__init__(f"self-BLEU needs at least 2 sentences, got {got}")


def _check_order(order: int):
    if order not in BLEU_ORDERS:
        raise ValueError(f"BLEU order must be one of {BLEU_ORDERS}, got {order}")


def _gram_counts(sentences: Sequence[Sentence], order: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Per order k = 1..order, the ``(sentence, gram, count)`` triples of the
    k-grams that lie inside one sentence, and the number of distinct grams.

    Tokens map to dense ids through one dict; an order-k code re-ranks the
    pair (order k-1 code, next token id), so equal grams of any sentence get
    equal codes. Every code, id, count and sentence index is below the corpus
    size (tokens plus sentences), so a packed key stays below that size plus
    one, squared: far below 2**63, so no int64 overflows, for any corpus that
    fits in memory.
    """
    flat = list(chain.from_iterable(sentences))
    ids = {token: i for i, token in enumerate(dict.fromkeys(flat))}
    tokens = np.fromiter(map(ids.__getitem__, flat), dtype=np.int64, count=len(flat))
    lens = np.array([len(s) for s in sentences], dtype=np.int64)
    sentence = np.repeat(np.arange(len(lens)), lens)
    room = np.repeat(np.cumsum(lens), lens) - np.arange(len(tokens))  # tokens left in the sentence
    starts, codes, n_codes = np.arange(len(tokens)), tokens, len(ids)
    out = []
    for k in range(1, order + 1):
        if k > 1:
            keep = room[starts] >= k
            starts = starts[keep]
            ranked, codes = np.unique(codes[keep] * len(ids) + tokens[starts + k - 1], return_inverse=True)
            n_codes = len(ranked)
        keys, counts = np.unique(sentence[starts] * n_codes + codes, return_counts=True)
        out.append((keys // n_codes, keys % n_codes, counts, n_codes))
    return out


def subsample(items: Sequence, cap: int, rng) -> tuple[list, list[int]]:
    """``items`` reduced to a uniform sample of ``cap`` of them, in order, if
    there are more, and the kept indices; ``rng`` is a Generator or its seed."""
    if len(items) <= cap:
        return list(items), list(range(len(items)))
    keep = sorted(np.random.default_rng(rng).choice(len(items), size=cap, replace=False).tolist())
    return [items[i] for i in keep], keep


def _closest_ref_len(hyp_len: int, ref_lens: Iterable[int]) -> int:
    # standard "best match length": closest reference length, ties -> shorter
    return min(ref_lens, key=lambda r: (abs(r - hyp_len), r))


def _bleu(precisions: Sequence[tuple[int, int]], hyp_len: int, ref_len: int, order: int) -> float:
    """Unsmoothed BLEU from per-order ``(matched, total)`` n-gram counts:
    brevity penalty times the geometric mean precision; 0 if any count is 0."""
    if hyp_len == 0 or any(m == 0 or t == 0 for m, t in precisions):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in precisions) / order
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision)


def corpus_bleu(hyps: Sequence[Sentence], refs: Sequence[Sentence], order: int) -> float:
    """Corpus BLEU of ``hyps`` with every sentence of ``refs`` as a reference.

    Clipped n-gram precision is pooled over the whole hypothesis corpus per
    order, combined as a geometric mean, and multiplied by the brevity
    penalty. No smoothing: a missing order yields 0.
    """
    if len(hyps) == 0:
        raise EmptyCorpusError("hypothesis")
    if len(refs) == 0:
        raise EmptyCorpusError("reference")
    _check_order(order)

    matched, total = [], []
    for sentence, gram, count, n_grams in _gram_counts([*hyps, *refs], order):
        is_hyp = sentence < len(hyps)
        max_ref = np.zeros(n_grams, dtype=np.int64)
        np.maximum.at(max_ref, gram[~is_hyp], count[~is_hyp])
        matched.append(int(np.minimum(count[is_hyp], max_ref[gram[is_hyp]]).sum()))
        total.append(int(count[is_hyp].sum()))

    hyp_len_sum = 0
    ref_len_sum = 0
    ref_lens = {len(r) for r in refs}
    closest_ref_len = {n: _closest_ref_len(n, ref_lens) for n in {len(h) for h in hyps}}
    for hyp in hyps:
        hyp_len_sum += len(hyp)
        ref_len_sum += closest_ref_len[len(hyp)]

    return _bleu(list(zip(matched, total)), hyp_len_sum, ref_len_sum, order)


def self_bleu(
    hyps: Sequence[Sentence],
    order: int,
    cap: int = SELF_BLEU_CAP,
    seed: int = 0,
) -> float:
    """Mean leave-one-out BLEU: each sentence scored against all the others.

    Corpora larger than ``cap`` (at least 2) are reduced to a fixed-seed
    uniform subsample before the leave-one-out loop.
    """
    if len(hyps) < 2:
        raise TooFewSentencesError(len(hyps))
    _check_order(order)
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    sentences, _ = subsample(hyps, cap, seed)

    # leave-one-out limits: sorted by gram and falling count, each gram's top
    # entry is clipped to the runner-up's count (0 if it has none), and every
    # other entry is within the top count, so it is matched in full
    matched = []
    for sentence, gram, count, _ in _gram_counts(sentences, order):
        by_gram = np.lexsort((-count, gram))
        sentence, gram, count = sentence[by_gram], gram[by_gram], count[by_gram]
        top = np.r_[True, gram[1:] != gram[:-1]]
        runner_up = np.r_[np.where(top[1:], 0, count[1:]), 0]
        per_sentence = np.zeros(len(sentences), dtype=np.int64)
        np.add.at(per_sentence, sentence, np.where(top, runner_up, count))
        matched.append(per_sentence.tolist())

    lens = [len(s) for s in sentences]
    values, sharing = np.unique(lens, return_counts=True)
    # leave-one-out reference length per sentence length: a sentence's own
    # length is a candidate only if another sentence shares it
    loo_ref_len = {
        n: _closest_ref_len(n, [m for m, c in zip(values.tolist(), sharing.tolist()) if m != n or c > 1])
        for n in values.tolist()
    }

    scores = []
    for i, n in enumerate(lens):
        precisions = [(matched[k][i], max(n - k, 0)) for k in range(order)]
        scores.append(_bleu(precisions, n, loo_ref_len[n], order))
    return float(np.mean(scores))


def f1_bleu(test_bleu: float, self_bleu_score: float) -> float:
    """Harmonic mean of quality (BLEU) and diversity (1 - self-BLEU)."""
    for name, value in (("test_bleu", test_bleu), ("self_bleu", self_bleu_score)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    diversity = 1.0 - self_bleu_score
    denominator = test_bleu + diversity
    if denominator <= 0.0:
        return 0.0
    return 2.0 * test_bleu * diversity / denominator


@dataclass(frozen=True)
class BleuReport:
    """The three corpus scores at one n-gram order."""

    order: int
    test_bleu: float
    self_bleu: float
    f1_bleu: float

    @classmethod
    def compute(
        cls,
        hyps: Sequence[Sentence],
        refs: Sequence[Sentence],
        order: int,
        seed: int = 0,
    ) -> "BleuReport":
        test = corpus_bleu(hyps, refs, order)
        self_score = self_bleu(hyps, order, seed=seed)
        return cls(order=order, test_bleu=test, self_bleu=self_score, f1_bleu=f1_bleu(test, self_score))


def naive_semantic_score(
    table: EmbeddingTable,
    hyp: Sequence[str],
    ref: Sequence[str],
) -> float:
    """Cosine similarity of the two sequences' unweighted mean embeddings."""
    if len(hyp) == 0 or len(ref) == 0:
        raise ValueError("both sequences must be nonempty")
    return 1.0 - cosine_cost(resolve(table, hyp).mean(axis=0), resolve(table, ref).mean(axis=0))
