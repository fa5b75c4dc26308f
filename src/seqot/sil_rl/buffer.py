"""Prioritized replay of high-reward sequences.

Each condition keeps one list of entries in a fully specified order: score
descending, then ``insert_step`` ascending, then arrival ascending. Once a
condition is full, a newcomer must beat the lowest score; it then evicts
the first entry of the lowest-score tail, the oldest of the lowest scores.
A pool holds each token sequence at most once: re-inserting an existing
(condition, tokens) pair keeps whichever copy scores higher, and a
replacement arrives when it replaces.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..text_metrics import corpus_bleu, f1_bleu

if TYPE_CHECKING:
    from .envs import ToyEnv
    from .policy import Trajectory


class BufferCriterion(str, Enum):
    REWARD = "reward"
    F1_BLEU = "f1_bleu"
    REFERENCE_REWARD = "reference_reward"


@dataclass(frozen=True)
class BufferEntry:
    """A stored sequence with the score that prioritizes it.

    ``reward`` holds the buffer criterion's score; under the plain reward
    criterion that is the environment reward itself.
    """

    condition: int | None
    tokens: tuple[int, ...]
    reward: float
    insert_step: int


def _order(entry: BufferEntry) -> tuple[float, int]:
    return (-entry.reward, entry.insert_step)


class ReplayBuffer:
    """Bounded, per-condition, score-prioritized store of sequences.

    Each condition's pool is a list kept in ``entries`` order; ``insort``
    places a newcomer after every entry with an equal order key, which is
    what makes arrival the last tie-break. Capacities are small, so the
    dedupe lookup is a linear scan.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._pools: dict[int | None, list[BufferEntry]] = {}

    def __len__(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    def entries(self, condition: int | None = None) -> list[BufferEntry]:
        """Entries for one condition: best score first, then earlier step, then earlier arrival."""
        return list(self._pools.get(condition, ()))

    def min_reward(self, condition: int | None = None) -> float:
        return self._pool(condition)[-1].reward

    def max_reward(self, condition: int | None = None) -> float:
        return self._pool(condition)[0].reward

    def _pool(self, condition: int | None) -> list[BufferEntry]:
        pool = self._pools.get(condition)
        if not pool:
            raise ValueError(f"buffer has no entries for condition {condition!r}")
        return pool

    def add(self, entry: BufferEntry) -> bool:
        """Insert if there is room or the score beats the current minimum."""
        pool = self._pools.setdefault(entry.condition, [])
        same = [i for i, e in enumerate(pool) if e.tokens == entry.tokens]
        if same:
            if entry.reward <= pool[same[0]].reward:
                return False
            del pool[same[0]]
        elif len(pool) >= self.capacity:
            lowest = pool[-1].reward
            if entry.reward <= lowest:
                return False
            del pool[bisect_left(pool, -lowest, key=lambda e: -e.reward)]
        insort(pool, entry, key=_order)
        return True

    def sample(
        self,
        count: int,
        rng: np.random.Generator | int,
        condition: int | None = None,
    ) -> list[BufferEntry]:
        """Uniform sample without replacement of up to ``count`` entries."""
        gen = np.random.default_rng(rng)
        pool = self._pool(condition)
        take = min(count, len(pool))
        picks = gen.choice(len(pool), size=take, replace=False)
        return [pool[int(i)] for i in picks]


def buffer_update(
    buffer: ReplayBuffer,
    trajs: Sequence["Trajectory"],
    criterion: BufferCriterion,
    env: "ToyEnv",
    bleu_order: int = 2,
    step: int = 0,
) -> ReplayBuffer:
    """Score each trajectory by ``criterion`` and offer it to the buffer.

    The BLEU-blend criterion scores quality against the environment's
    references and redundancy against what the buffer already holds; the
    transport criterion scores the mean pairwise reward against the
    references.
    """
    for traj in trajs:
        if criterion is BufferCriterion.REWARD:
            score = traj.reward
        elif criterion is BufferCriterion.F1_BLEU:
            score = _f1_bleu_score(buffer, traj, env, bleu_order)
        elif criterion is BufferCriterion.REFERENCE_REWARD:
            score = env.reference_reward(traj.tokens, traj.condition)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown criterion {criterion!r}")
        buffer.add(
            BufferEntry(
                condition=traj.condition,
                tokens=traj.tokens,
                reward=float(score),
                insert_step=step,
            )
        )
    return buffer


def _f1_bleu_score(buffer: ReplayBuffer, traj, env: "ToyEnv", order: int) -> float:
    refs = env.references_for(traj.condition)
    if not refs:
        raise ValueError("F1-BLEU criterion needs environment references")
    quality = corpus_bleu([traj.tokens], refs, order)
    held = [e.tokens for e in buffer.entries(traj.condition)]
    redundancy = corpus_bleu([traj.tokens], held, order) if held else 0.0
    return f1_bleu(quality, redundancy)

