"""n-gram reference metrics: corpus BLEU, self-BLEU, their harmonic blend,
and the average-embedding baseline score.

BLEU here is the corpus-level, unsmoothed variant with uniform 1/n weights
and a brevity penalty; in the unconditional-generation convention the whole
reference corpus serves as the reference set for every hypothesis, so a
zero-overlap hypothesis corpus legitimately scores 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

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


def _ngrams(sentence: Sentence, k: int) -> Counter:
    return Counter(tuple(sentence[i : i + k]) for i in range(len(sentence) - k + 1))


def _closest_ref_len(hyp_len: int, ref_lens: Sequence[int]) -> int:
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

    max_counts: list[dict] = []
    for k in range(1, order + 1):
        table: dict = {}
        for ref in refs:
            for gram, count in _ngrams(ref, k).items():
                if count > table.get(gram, 0):
                    table[gram] = count
        max_counts.append(table)

    matched = [0] * order
    total = [0] * order
    hyp_len_sum = 0
    ref_len_sum = 0
    ref_lens = [len(r) for r in refs]
    for hyp in hyps:
        hyp_len_sum += len(hyp)
        ref_len_sum += _closest_ref_len(len(hyp), ref_lens)
        for k in range(1, order + 1):
            counts = _ngrams(hyp, k)
            table = max_counts[k - 1]
            matched[k - 1] += sum(min(c, table.get(g, 0)) for g, c in counts.items())
            total[k - 1] += max(len(hyp) - k + 1, 0)

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
    sentences = list(hyps)
    if len(sentences) > cap:
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(len(sentences), size=cap, replace=False))
        sentences = [sentences[i] for i in keep]

    # top-2 max counts per gram so each sentence's leave-one-out reference
    # table is O(1) to derive instead of rebuilt from scratch
    per_sentence_counts = [[_ngrams(s, k) for k in range(1, order + 1)] for s in sentences]
    top2: list[dict] = []
    for k in range(order):
        table: dict = {}
        for idx, counts in enumerate(per_sentence_counts):
            for gram, c in counts[k].items():
                best, owner, second = table.get(gram, (0, -1, 0))
                if c > best:
                    table[gram] = (c, idx, best)
                elif c > second:
                    table[gram] = (best, owner, c)
        top2.append(table)

    lens = [len(s) for s in sentences]
    len_counts = Counter(lens)
    # leave-one-out reference length per sentence length: a sentence's own
    # length is a candidate only if another sentence shares it
    loo_ref_len = {
        n: _closest_ref_len(n, [m for m in len_counts if m != n or len_counts[m] > 1]) for n in len_counts
    }

    scores = []
    for i, counts in enumerate(per_sentence_counts):
        precisions = []
        for k in range(order):
            num = 0
            for gram, c in counts[k].items():
                best, owner, second = top2[k][gram]
                limit = second if owner == i else best
                num += min(c, limit)
            precisions.append((num, max(lens[i] - k, 0)))
        scores.append(_bleu(precisions, lens[i], loo_ref_len[lens[i]], order))
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

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "test_bleu": self.test_bleu,
            "self_bleu": self.self_bleu,
            "f1_bleu": self.f1_bleu,
        }


def naive_semantic_score(
    table: EmbeddingTable,
    hyp: Sequence[str],
    ref: Sequence[str],
) -> float:
    """Cosine similarity of the two sequences' unweighted mean embeddings."""
    if len(hyp) == 0 or len(ref) == 0:
        raise ValueError("both sequences must be nonempty")
    return 1.0 - cosine_cost(resolve(table, hyp).mean(axis=0), resolve(table, ref).mean(axis=0))
