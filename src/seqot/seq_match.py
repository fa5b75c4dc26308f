"""Sequence-level transport distance and reward over token embeddings.

A sequence is viewed as a uniform discrete distribution placing mass 1/L on
each of its token embeddings (duplicate tokens contribute duplicate atoms).
The distance between two sequences is the optimal-transport cost under the
padded cosine-cost matrix; the reward is ``<T*, 1 - C>`` computed from the
*same* optimal plan, so reward + distance = 1 up to the plan's total mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .embeddings import EmbeddingTable, build_cost_matrix
from .ot_core import DEFAULT_IPOT, IpotConfig, TransportPlan, ipot_solve


@dataclass(frozen=True)
class PairScore:
    """One solve's worth of results for a (hypothesis, reference) pair."""

    distance: float
    reward: float
    plan: TransportPlan


def score_pair(
    table: EmbeddingTable,
    hyp: Sequence[str],
    ref: Sequence[str],
    config: IpotConfig = DEFAULT_IPOT,
) -> PairScore:
    """Solve the pair once and derive both distance and reward from the plan."""
    cm = build_cost_matrix(table, hyp, ref)
    plan = ipot_solve(cm.values, config)
    reward = float((plan.values * (1.0 - cm.values)).sum())
    return PairScore(distance=plan.cost, reward=reward, plan=plan)

