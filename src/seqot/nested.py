"""Set-level transport where the ground cost is itself a sequence distance.

Two sets of sequences are matched by an outer transport problem whose cost
matrix holds the pairwise sequence-level distances. The inner solves are
memoized on token content per table and solver config (see
``EmbeddingTable.pair_score``): a pair solved by an earlier call, or by an
environment's reward on the same table, is not solved again. The outer plan
also defines a per-hypothesis reward: each hypothesis inherits the
plan-weighted sum of its pairwise rewards, so the raw values scale with the
1/K row mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .ot_core import DEFAULT_IPOT, IpotConfig, TransportPlan, ipot_solve
from .seq_match import score_pair


class EmptySetError(ValueError):
    def __init__(self, which: str):
        super().__init__(f"sequence set {which!r} is empty")


class NestedSolveError(Exception):
    """Inner or outer solve failure, tagged with the offending pair."""

    def __init__(self, stage: str, i: int | None = None, j: int | None = None):
        where = f" for pair ({i}, {j})" if stage == "inner" else ""
        super().__init__(f"{stage} solve failed{where}")
        self.stage = stage
        self.i = i
        self.j = j


@dataclass(frozen=True)
class NestedResult:
    """All artifacts of one set-vs-set solve.

    ``distance`` is the outer transport cost over ``seq_cost_matrix``;
    ``per_hyp_reward[i]`` is ``sum_j outer_plan[i, j] * seq_reward_matrix[i, j]``.
    """

    seq_cost_matrix: np.ndarray
    seq_reward_matrix: np.ndarray
    outer_plan: TransportPlan
    distance: float
    per_hyp_reward: np.ndarray

    @property
    def k(self) -> int:
        return self.seq_cost_matrix.shape[0]

    @property
    def k_prime(self) -> int:
        return self.seq_cost_matrix.shape[1]


def nested_wasserstein(
    table: EmbeddingTable,
    set_a: Sequence[Sequence[str]],
    set_b: Sequence[Sequence[str]],
    config: IpotConfig = DEFAULT_IPOT,
) -> NestedResult:
    """Solve all K*K' inner pairs, then one outer solve over their distances.

    With K = K' = 1 this degenerates to the plain sequence distance of the
    single pair.
    """
    if len(set_a) == 0:
        raise EmptySetError("A")
    if len(set_b) == 0:
        raise EmptySetError("B")
    for name, group in (("A", set_a), ("B", set_b)):
        if any(len(seq) == 0 for seq in group):
            raise ValueError(f"set {name} contains an empty sequence")

    k, k_prime = len(set_a), len(set_b)
    costs = np.empty((k, k_prime))
    rewards = np.empty((k, k_prime))
    for i, seq_a in enumerate(set_a):
        for j, seq_b in enumerate(set_b):
            try:
                costs[i, j], rewards[i, j] = table.pair_score(seq_a, seq_b, config, score_pair)
            except Exception as exc:
                raise NestedSolveError("inner", i, j) from exc

    try:
        outer = ipot_solve(costs, config)
    except Exception as exc:
        raise NestedSolveError("outer") from exc

    per_hyp = (outer.values * rewards).sum(axis=1)
    return NestedResult(
        seq_cost_matrix=costs,
        seq_reward_matrix=rewards,
        outer_plan=outer,
        distance=float(outer.cost),
        per_hyp_reward=per_hyp,
    )


def nested_reward(result: NestedResult, i: int, normalized: bool = False) -> float:
    """Per-hypothesis reward ``i``; ``normalized`` multiplies away the 1/K row mass."""
    if not 0 <= i < result.k:
        raise IndexError(f"hypothesis index {i} out of range for K={result.k}")
    value = float(result.per_hyp_reward[i])
    return value * result.k if normalized else value
