"""Sequence-level transport distance and reward over token embeddings.

A sequence is viewed as a uniform discrete distribution placing mass 1/L on
each of its token embeddings (duplicate tokens contribute duplicate atoms).
The distance between two sequences is the optimal-transport cost under the
padded cosine-cost matrix; the reward is ``<T*, 1 - C>`` computed from the
*same* optimal plan. Padding makes the problem L x L with uniform 1/L
marginals, so the optimal plan is an assignment scaled by 1/L (Birkhoff),
solved exactly by :func:`seqot.ot_core.assignment_solve`: the distance is
the mean of the assigned costs, the reward the mean of one minus them, and
reward + distance = 1 up to rounding.

The distance ignores token order: a sequence is the bag of its tokens, as
in the Word Mover's Distance (Kusner et al. 2015), and permuting either
side permutes the cost matrix's rows or columns, which leaves the optimum
as it is. :func:`bag_costs`, the one builder of a pair's cost matrix,
builds it from each side's :func:`token_bag`, its tokens in sorted order,
so :func:`score_pair`'s floats are a function of the two bags, bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import CostMatrix, EmbeddingError, EmbeddingTable, build_cost_matrix
from .ot_core import assign_rows, ipot_solve  # noqa: F401  (perfbench's tracer patches ipot_solve here)


@dataclass(frozen=True)
class PairScore:
    """One solve's worth of results for a (hypothesis, reference) pair."""

    distance: float
    reward: float


def score_pair(table: EmbeddingTable, hyp: Sequence[str], ref: Sequence[str]) -> PairScore:
    """Solve the pair once and derive both distance and reward from the plan.

    The cost matrix comes from :func:`bag_costs`, so a pair gets the same
    bits for every order of its tokens. It goes to the assignment core as
    lists, without :func:`seqot.ot_core.assignment_solve`'s checks: the
    costs are clipped into [0, 2] from finite unit rows, so they are finite
    and ``8 * L * 2`` is too. Each sum is exactly rounded (``math.fsum``),
    so it does not depend on the order of the assigned costs either.
    """
    rows = bag_costs(table, hyp, ref).values.tolist()
    picked = [row[j] for row, j in zip(rows, assign_rows(rows)[0])]
    size = len(rows)
    return PairScore(distance=math.fsum(picked) / size, reward=math.fsum([1.0 - x for x in picked]) / size)


def bag_costs(table: EmbeddingTable, hyp: Sequence[str], ref: Sequence[str]) -> CostMatrix:
    """The pair's cost matrix, built from each side's :func:`token_bag`.

    A bag's sorted order may meet another bad token of a line first, so a
    failed build is redone in the given order, whose error, naming the
    line's first bad token, is the one that propagates.
    """
    try:
        return build_cost_matrix(table, token_bag(hyp), token_bag(ref))
    except EmbeddingError:
        build_cost_matrix(table, hyp, ref)
        raise


def token_bag(seq: Iterable[str]) -> tuple[str, ...]:
    """A sequence's tokens in the one order its cost matrices are built in:
    sorted, so every order of the same tokens gives the same matrix."""
    return tuple(sorted(seq))


def unit_rows(table: EmbeddingTable, seqs: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The cached unit rows of every token of ``seqs``, stacked in order,
    and each sequence's length: the operands of :func:`reward_bounds`.

    A bad token raises the table's error and an empty sequence
    ``ValueError``, as a build of any pair holding it does.
    """
    lengths = [len(seq) for seq in seqs]
    if not all(lengths):
        raise ValueError("both sequences must be nonempty")
    return np.array([table.unit_row(token) for seq in seqs for token in seq]), np.array(lengths)


def reward_bounds(hyp_rows: np.ndarray, ref_rows: np.ndarray, ref_lengths: np.ndarray) -> np.ndarray:
    """Upper bounds on the reward :func:`score_pair` gives one hypothesis
    against each of a list of references, from one product of unit rows
    (:func:`unit_rows`), without building or solving a pair.

    The exact plan puts mass exactly 1/L on one cell of each column of the
    pair's padded L x L matrix C, L = max(n, m), so ``<T, 1 - C>`` is at
    most ``(1/L) sum_j max(0, 1 - min_i C_ij)``: the relaxed Word Mover's
    Distance prune of Kusner et al. (ICML 2015). Pad cells cost exactly
    1.0, so pad rows and pad columns never raise it, and the sum runs over
    the reference's own m columns. Each column's least cost is read from
    the product ``hyp_rows @ ref_rows.T`` as ``clip(1 - max_i u_i.v_j, 0,
    2)``, which is ``min_i clip(1 - u_i.v_j, 0, 2)`` bit for bit, since
    rounding is monotone.

    The margin has two terms, with u = eps/2. The first, ``(L + 4)^2 *
    eps``, covers rounding against the pair's own matrix C: each rounded
    term ``1 - C`` of the reward is at most the rounded term ``1 - min_i
    C_ij`` of its column, since rounding is monotone; the two sums of L
    terms in [-1, 1] each lose at most (L - 1)Lu, which their division by L
    scales to (L - 1)u; and the two divisions add u each. Together that is
    at most 2Lu, far under the first term.

    The second, ``8 * d * eps``, covers the difference between the product's
    cells C' and C. Both dot the same cached unit rows, whose norms are
    within (d + 4)u of 1, but in a different summation order, so each dot is
    within ``gamma_d |u||v|``, gamma_d = du / (1 - du), of the exact one
    (Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 3.1),
    and the two within about 2du = d eps of each other. ``1 - x`` adds at
    most eps to each side, and clipping is 1-Lipschitz. A cell of two equal
    tokens is exactly 0 in C and ``clip(1 - u.u)`` in C', within about
    (2d + 4)u of 0 by the same two bounds. So every cell differs by at most
    delta = (d + 2) eps and a little. A column's least cost moves by at
    most delta, its rounded gain by at most delta + eps, and the m gains,
    summed and divided by L >= m, by at most delta + eps: about (d + 3)
    eps, under the second term for every d >= 1.
    """
    closest = (hyp_rows @ ref_rows.T).max(axis=0)
    gains = np.maximum(1.0 - np.clip(1.0 - closest, 0.0, 2.0), 0.0)
    sizes = np.maximum(ref_lengths, len(hyp_rows))
    starts = np.cumsum(ref_lengths) - ref_lengths
    margins = ((sizes + 4.0) ** 2 + 8.0 * hyp_rows.shape[1]) * sys.float_info.epsilon
    return np.add.reduceat(gains, starts) / sizes + margins
