"""Sequences scored against a reference set, and set-level transport where
the ground cost is itself a sequence distance.

:func:`score_matrices` is the one place a set of sequences is scored
against a reference set: it fills the K x K' matrices of pairwise sequence
distances and rewards, solving each (hypothesis, reference) pair at most
once per table through the table's ``pair_scores`` memo. Each pair's
solve is exact (:mod:`seqot.seq_match`), so it takes no solver config, and
its score ignores token order, so the memo is keyed by token bags: each
sequence's interned tokens in sorted order
(:func:`seqot.seq_match.token_bag`), the order every miss is built in. A
pair solved by an earlier call, in any token order, or by an environment's
reward on the same table, is not solved again.
:func:`best_matches` finds each hypothesis's best reference through the
same memo, but solves only the pairs whose reward bound can still win; its
output is the same as solving every pair and taking the argmax. Two sets
of sequences are matched by an outer transport problem over the distance
matrix, solved by :func:`ipot_solve` until its stop rule fires. The
outer plan also defines a per-hypothesis reward: each hypothesis inherits
the plan-weighted sum of its pairwise rewards, so the raw values scale with
the 1/K row mass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingError, EmbeddingTable
from .ot_core import TransportPlan, ipot_solve
from .seq_match import bag_costs, reward_bounds, score_pair, token_bag, unit_rows


class EmptySetError(ValueError):
    def __init__(self, which: str):
        super().__init__(f"sequence set {which!r} is empty")


class NestedSolveError(Exception):
    """An inner pair's solve failure, tagged with the offending pair."""

    def __init__(self, i: int, j: int):
        super().__init__(f"inner solve failed for pair ({i}, {j})")
        self.i = i
        self.j = j


class OuterNotConvergedError(ValueError):
    """The outer solve stopped unconverged: at :func:`ipot_solve`'s
    default step cap, or at a fixed point its stop rule cannot reach."""

    def __init__(self, steps: int, shape: tuple[int, int]):
        super().__init__(f"outer solve of the {shape[0]}x{shape[1]} problem did not converge within {steps} steps")


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


def score_matrices(
    table: EmbeddingTable,
    hyps: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
) -> tuple[np.ndarray, np.ndarray]:
    """``(distances, rewards)``, each ``len(hyps) x len(refs)``: the sequence
    distance and reward of every (hypothesis, reference) pair.

    Each pair of token bags is solved at most once per table: on a miss
    ``score_pair`` runs on the caller's tokens and its two floats are kept
    in ``table.pair_scores``, keyed by the pair ``(hyp_bag, ref_bag)`` of
    sorted token tuples. A failed pair raises :class:`NestedSolveError`
    ``(i, j)`` chained from the cause.
    """
    memo = table.pair_scores
    hyp_keys, ref_keys = _keys(hyps), _keys(refs)
    distances = np.empty((len(hyps), len(refs)))
    rewards = np.empty((len(hyps), len(refs)))
    for i, hyp in enumerate(hyps):
        for j, ref in enumerate(refs):
            try:
                hit = _lookup(memo, (hyp_keys[i], ref_keys[j]), table, hyp, ref)
            except Exception as exc:
                raise NestedSolveError(i, j) from exc
            distances[i, j], rewards[i, j] = hit.real, hit.imag
    return distances, rewards


def best_matches(
    table: EmbeddingTable,
    hyps: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
) -> list[tuple[int, float, float]]:
    """``(j, distance, reward)`` of each hypothesis's best reference: the
    index ``np.argmax(score_matrices(...)[1], axis=1)`` picks, the lowest
    on an exact tie, and that pair's two floats, bit for bit.

    Only the pairs whose bound (:func:`seqot.seq_match.reward_bounds`) can
    still win are solved. Per hypothesis, one product of its unit rows
    against the references' stacked unit rows, gathered once, gives all its
    bounds, so memory holds one L_h x sum(L_r) product at a time. The
    references are then looked up in the pair-score memo in descending
    bound order, ties by index, and a miss is built and solved, until the
    next bound is strictly below the best reward found: one build and one
    solve per hypothesis when its best reference is well separated, as a
    paraphrase is, and every pair when every bound reaches the best reward.

    A hypothesis whose unit rows, or the references', cannot be gathered (a
    bad token or an empty sequence) has its pairs built in row-major order,
    so the first failed build raises :class:`NestedSolveError` ``(i, j)``
    at the pair the full grid reports.
    """
    if len(refs) == 0:
        raise EmptySetError("refs")
    memo = table.pair_scores
    hyp_keys, ref_keys = _keys(hyps), _keys(refs)
    ref_rows = None
    best = []
    for i, hyp in enumerate(hyps):
        try:
            if ref_rows is None:
                ref_rows = unit_rows(table, refs)
            bounds = reward_bounds(unit_rows(table, [hyp])[0], *ref_rows)
        except (EmbeddingError, ValueError):
            for j, ref in enumerate(refs):
                try:
                    bag_costs(table, hyp, ref)
                except Exception as exc:
                    raise NestedSolveError(i, j) from exc
            raise
        top = (-1, math.nan, -math.inf)
        for j in np.argsort(-bounds, kind="stable").tolist():
            if bounds[j] < top[2]:
                break
            # Every token has a unit row and no sequence is empty, so the
            # build cannot fail, and the exact solve of costs in [0, 2]
            # cannot raise.
            hit = _lookup(memo, (hyp_keys[i], ref_keys[j]), table, hyp, refs[j])
            if hit.imag > top[2] or (hit.imag == top[2] and j < top[0]):
                top = (j, hit.real, hit.imag)
        best.append(top)
    return best


def _keys(seqs: Sequence[Sequence[str]]) -> list[tuple]:
    # Memory per entry matters (a training run stores thousands): the tokens
    # are interned so keys share one string per token rather than holding
    # each caller's fresh copies, and a call's entries share one tuple per
    # sequence.
    return [token_bag(map(sys.intern, seq)) for seq in seqs]


def _lookup(memo: dict, key: tuple, table: EmbeddingTable, hyp: Sequence[str], ref: Sequence[str]) -> complex:
    """The memo entry for ``key``, filled on a miss from ``score_pair(table,
    hyp, ref)``. One complex holds both floats exactly, in a third of the
    space of a 2-tuple."""
    hit = memo.get(key)
    if hit is None:
        scored = score_pair(table, hyp, ref)
        hit = memo[key] = complex(scored.distance, scored.reward)
    return hit


def nested_wasserstein(
    table: EmbeddingTable,
    set_a: Sequence[Sequence[str]],
    set_b: Sequence[Sequence[str]],
) -> NestedResult:
    """Solve all K*K' inner pairs, then one outer solve over their distances,
    run until its stop rule fires.

    The solver runs in its one configuration, at the fixed weight
    ``GAMMA``: every weight leads to the same maximum-entropy optimal plan
    and sets only the step count. Most outer solves stop within tens of
    steps, but some take thousands: on uniform [0, 2] costs, up to 5180 at
    5x4 and 7519 at 160x159, and 17226 on one of A1's 5x5 instances. A
    solve that stops unconverged, at the default step cap of 100000 or at a
    fixed point, raises :class:`OuterNotConvergedError`.

    With K = K' = 1 this degenerates to the plain sequence distance of the
    single pair. Once both sets are checked nonempty the outer costs are
    finite and at least 1 x 1, so only an inner pair or the cap can fail.
    """
    if len(set_a) == 0:
        raise EmptySetError("A")
    if len(set_b) == 0:
        raise EmptySetError("B")
    for name, group in (("A", set_a), ("B", set_b)):
        if any(len(seq) == 0 for seq in group):
            raise ValueError(f"set {name} contains an empty sequence")

    costs, rewards = score_matrices(table, set_a, set_b)
    outer = ipot_solve(costs)
    if not outer.converged:
        raise OuterNotConvergedError(outer.iterations_used, costs.shape)
    per_hyp = (outer.values * rewards).sum(axis=1)
    return NestedResult(
        seq_cost_matrix=costs,
        seq_reward_matrix=rewards,
        outer_plan=outer,
        distance=float(outer.cost),
        per_hyp_reward=per_hyp,
    )
