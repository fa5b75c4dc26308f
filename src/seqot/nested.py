"""Sequences scored against a reference set, and set-level transport where
the ground cost is itself a sequence distance.

:func:`score_matrices` is the one place a set of sequences is scored
against a reference set: it fills the K x K' matrices of pairwise sequence
distances and rewards, solving each (hypothesis, reference) pair at most
once per table and solver config through the table's ``pair_scores`` memo.
A pair solved by an earlier call, or by an environment's reward on the same
table, is not solved again. :func:`best_matches` finds each hypothesis's
best reference through the same memo, but solves only the pairs whose
reward bound can still win; its output is the same as solving every pair
and taking the argmax. Two sets of sequences are matched by an outer
transport problem over the distance matrix. The outer plan also defines a
per-hypothesis reward: each hypothesis inherits the plan-weighted sum of its
pairwise rewards, so the raw values scale with the 1/K row mass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import seq_match
from .embeddings import EmbeddingTable
from .ot_core import DEFAULT_IPOT, IpotConfig, TransportPlan, ipot_solve
from .seq_match import reward_bound, score_costs, score_pair


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


@dataclass(frozen=True, eq=False)
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


def score_matrices(
    table: EmbeddingTable,
    hyps: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
    config: IpotConfig = DEFAULT_IPOT,
) -> tuple[np.ndarray, np.ndarray]:
    """``(distances, rewards)``, each ``len(hyps) x len(refs)``: the sequence
    distance and reward of every (hypothesis, reference) pair.

    Each pair is solved at most once per table and solver config: on a miss
    ``score_pair`` runs and its two floats are kept in
    ``table.pair_scores``. The key is the flat tuple
    ``(len(hyp), *hyp, *ref)``: the length fixes where ``hyp`` ends, so no
    two distinct pairs share a key. A failed pair raises
    :class:`NestedSolveError` ``("inner", i, j)`` chained from the cause.
    """
    memo = table.pair_scores.setdefault(config, {})
    ref_keys = _keys(refs)
    distances = np.empty((len(hyps), len(refs)))
    rewards = np.empty((len(hyps), len(refs)))
    for i, hyp in enumerate(hyps):
        hyp_key = (len(hyp), *map(sys.intern, hyp))
        for j, ref in enumerate(refs):
            hit = _lookup(memo, hyp_key + ref_keys[j], i, j, score_pair, table, hyp, ref, config)
            distances[i, j], rewards[i, j] = hit.real, hit.imag
    return distances, rewards


def best_matches(
    table: EmbeddingTable,
    hyps: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
    config: IpotConfig = DEFAULT_IPOT,
) -> list[tuple[int, float, float]]:
    """``(j, distance, reward)`` of each hypothesis's best reference: the
    index ``np.argmax(score_matrices(...)[1], axis=1)`` picks, the lowest
    on an exact tie, and that pair's two floats, bit for bit.

    Only the pairs whose :func:`reward_bound` can still win are solved.
    Per hypothesis, every pair's cost matrix is built and bounded first, and
    the matrices are kept for that row only; the references are then looked
    up in the pair-score memo in descending bound order, ties by index, and
    a miss is solved from its kept matrix, until the next bound is strictly
    below the best reward found. When the best reference is well separated
    from the rest, as a paraphrase is, that is one solve per hypothesis;
    when every bound reaches the best reward, every pair is solved.
    """
    if len(refs) == 0:
        raise EmptySetError("refs")
    memo = table.pair_scores.setdefault(config, {})
    ref_keys = _keys(refs)
    best = []
    for i, hyp in enumerate(hyps):
        hyp_key = (len(hyp), *map(sys.intern, hyp))
        costs = []
        for j, ref in enumerate(refs):
            try:
                # seq_match's binding, the one score_pair builds through
                costs.append(seq_match.build_cost_matrix(table, hyp, ref))
            except Exception as exc:
                raise NestedSolveError("inner", i, j) from exc
        bounds = np.array([reward_bound(cm) for cm in costs])
        top = (-1, math.nan, -math.inf)
        for j in np.argsort(-bounds, kind="stable").tolist():
            # Leaving a pair unsolved hides no error: the loop above built
            # every cost matrix in row-major order, so a bad token fails at
            # the (i, j) a full grid would report, and the costs are finite
            # and in [0, 2], on which ipot_solve cannot raise.
            if bounds[j] < top[2]:
                break
            hit = _lookup(memo, hyp_key + ref_keys[j], i, j, score_costs, costs[j], config)
            if hit.imag > top[2] or (hit.imag == top[2] and j < top[0]):
                top = (j, hit.real, hit.imag)
        best.append(top)
    return best


def _keys(refs: Sequence[Sequence[str]]) -> list[tuple]:
    # Memory per entry matters (a training run stores thousands): the tokens
    # are interned so keys share one string per token rather than holding
    # each caller's fresh copies.
    return [tuple(map(sys.intern, ref)) for ref in refs]


def _lookup(memo: dict, key: tuple, i: int, j: int, solve, *args) -> complex:
    """The memo entry for ``key``, filled on a miss from ``solve(*args)``.
    One complex holds both floats exactly, in a third of the space of a
    2-tuple."""
    hit = memo.get(key)
    if hit is None:
        try:
            scored = solve(*args)
        except Exception as exc:
            raise NestedSolveError("inner", i, j) from exc
        hit = memo[key] = complex(scored.distance, scored.reward)
    return hit


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

    costs, rewards = score_matrices(table, set_a, set_b, config)

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
