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
    bits for every order of its tokens.
    """
    return score_costs(bag_costs(table, hyp, ref))


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


def score_costs(costs: CostMatrix) -> PairScore:
    """:func:`score_pair` from the pair's already built cost matrix.

    The matrix goes to the assignment core as lists, without
    :func:`seqot.ot_core.assignment_solve`'s checks: the costs are clipped
    into [0, 2] from finite unit rows, so they are finite and ``8 * L * 2``
    is too. Each sum is exactly rounded (``math.fsum``), so it does not
    depend on the order of the assigned costs either.
    """
    rows = costs.values.tolist()
    picked = [row[j] for row, j in zip(rows, assign_rows(rows)[0])]
    size = len(rows)
    return PairScore(distance=math.fsum(picked) / size, reward=math.fsum([1.0 - x for x in picked]) / size)


def reward_bound(costs: CostMatrix) -> float:
    """An upper bound on the reward :func:`score_costs` gives ``costs``,
    without solving.

    The exact plan puts mass exactly 1/L on one cell of each column, so
    ``<T, 1 - C>`` is at most ``(1/L) sum_j max(0, 1 - min_i C_ij)``. Pad
    cells cost exactly 1.0 and so never raise it.

    The margin ``(L + 4)^2 * eps`` covers rounding, with C in [0, 2] and
    u = eps/2. Each rounded term ``1 - C`` of the reward is at most the
    rounded term ``1 - min_i C_ij`` of its column, since rounding is
    monotone; the two sums of L terms in [-1, 1] each lose at most
    (L - 1)Lu, which their division by L scales to (L - 1)u; and the two
    divisions add u each. Together that is at most 2Lu, far under the
    margin.
    """
    size = costs.values.shape[0]
    gain = np.maximum(1.0 - costs.values.min(axis=0), 0.0).sum() / size
    return float(gain) + (size + 4) ** 2 * sys.float_info.epsilon
