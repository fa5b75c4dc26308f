"""Sequence-level transport distance and reward over token embeddings.

A sequence is viewed as a uniform discrete distribution placing mass 1/L on
each of its token embeddings (duplicate tokens contribute duplicate atoms).
The distance between two sequences is the optimal-transport cost under the
padded cosine-cost matrix; the reward is ``<T*, 1 - C>`` computed from the
*same* optimal plan, so reward + distance = 1 up to the plan's total mass.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import CostMatrix, EmbeddingTable, build_cost_matrix
from .ot_core import DEFAULT_IPOT, IpotConfig, ipot_solve


@dataclass(frozen=True)
class PairScore:
    """One solve's worth of results for a (hypothesis, reference) pair."""

    distance: float
    reward: float


def score_pair(
    table: EmbeddingTable,
    hyp: Sequence[str],
    ref: Sequence[str],
    config: IpotConfig = DEFAULT_IPOT,
) -> PairScore:
    """Solve the pair once and derive both distance and reward from the plan."""
    return score_costs(build_cost_matrix(table, hyp, ref), config)


def score_costs(costs: CostMatrix, config: IpotConfig = DEFAULT_IPOT) -> PairScore:
    """:func:`score_pair` from the pair's already built cost matrix."""
    plan = ipot_solve(costs.values, config)
    reward = float((plan.values * (1.0 - costs.values)).sum())
    return PairScore(distance=plan.cost, reward=reward)


def reward_bound(costs: CostMatrix) -> float:
    """An upper bound on the reward :func:`score_costs` gives ``costs``
    under every solver config: no solve.

    Each column of a plan :func:`ipot_solve` returns carries mass at most
    1/L, so ``<T, 1 - C>`` is at most ``(1/L) sum_j max(0, 1 - min_i C_ij)``.
    Pad cells cost exactly 1.0 and so never raise it.

    The margin ``(L + 4)^2 * eps`` covers rounding, with C in [0, 2] and
    u = eps/2: a column's mass exceeds 1/L by at most a factor 1 + (L + 4)u
    (its dot product and three roundings); the reward's L^2 products and
    their sum add at most (L^2 + 2)u to a plan of mass about 1; and the
    bound's own L subtractions, sum and division lose at most (L + 2)u.
    Together that is (L^2 + 2L + 8)u, under half the margin.
    """
    size = costs.values.shape[0]
    gain = np.maximum(1.0 - costs.values.min(axis=0), 0.0).sum() / size
    return float(gain) + (size + 4) ** 2 * sys.float_info.epsilon
