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
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import CostMatrix, EmbeddingTable, build_cost_matrix
from .ot_core import assignment_solve, ipot_solve  # noqa: F401  (perfbench's tracer patches ipot_solve here)


@dataclass(frozen=True)
class PairScore:
    """One solve's worth of results for a (hypothesis, reference) pair."""

    distance: float
    reward: float


def score_pair(table: EmbeddingTable, hyp: Sequence[str], ref: Sequence[str]) -> PairScore:
    """Solve the pair once and derive both distance and reward from the plan."""
    return score_costs(build_cost_matrix(table, hyp, ref))


def score_costs(costs: CostMatrix) -> PairScore:
    """:func:`score_pair` from the pair's already built cost matrix."""
    values = costs.values
    size = values.shape[0]
    picked = values[np.arange(size), assignment_solve(values)[0]]
    return PairScore(distance=float(picked.sum() / size), reward=float((1.0 - picked).sum() / size))


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
