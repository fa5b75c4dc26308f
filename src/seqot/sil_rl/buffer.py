"""Prioritized replay of high-reward sequences.

Entries live in per-condition min-heaps keyed by their score, so the worst
entry is evicted first once a condition reaches capacity; equal scores
evict the older entry. With deduplication on, re-inserting an existing
(condition, tokens) pair keeps whichever copy scores higher.
"""

from __future__ import annotations

import heapq
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
    NESTED_REWARD = "nested_reward"


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


class ReplayBuffer:
    """Bounded, per-condition, score-prioritized store of sequences.

    Uses lazy deletion: replaced or evicted heap items are dropped when
    they surface, so insertion and eviction stay O(log capacity).
    """

    def __init__(self, capacity: int, dedupe: bool = True):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dedupe = dedupe
        self._heaps: dict[int | None, list] = {}
        self._live: set[int] = set()
        self._by_key: dict[tuple, tuple[int, BufferEntry]] = {}
        self._counts: dict[int | None, int] = {}
        self._uid = 0

    def __len__(self) -> int:
        return len(self._live)

    def size(self, condition: int | None = None) -> int:
        return self._counts.get(condition, 0)

    def conditions(self) -> list:
        return sorted(
            (c for c, n in self._counts.items() if n > 0),
            key=lambda c: (c is not None, c),
        )

    def entries(self, condition: int | None = None) -> list[BufferEntry]:
        """Live entries for one condition, best score first (older wins ties)."""
        heap = self._heaps.get(condition, [])
        live = [item[3] for item in heap if item[2] in self._live]
        return sorted(live, key=lambda e: (-e.reward, e.insert_step))

    def min_reward(self, condition: int | None = None) -> float:
        pool = self.entries(condition)
        if not pool:
            raise ValueError("buffer is empty")
        return pool[-1].reward

    def max_reward(self, condition: int | None = None) -> float:
        pool = self.entries(condition)
        if not pool:
            raise ValueError("buffer is empty")
        return pool[0].reward

    def _prune(self, heap: list):
        while heap and heap[0][2] not in self._live:
            heapq.heappop(heap)

    def _push(self, heap: list, entry: BufferEntry) -> int:
        self._uid += 1
        heapq.heappush(heap, (entry.reward, entry.insert_step, self._uid, entry))
        self._live.add(self._uid)
        return self._uid

    def add(self, entry: BufferEntry) -> bool:
        """Insert if there is room or the score beats the current minimum."""
        cond = entry.condition
        key = (cond, entry.tokens)
        heap = self._heaps.setdefault(cond, [])

        if self.dedupe and key in self._by_key:
            old_uid, old_entry = self._by_key[key]
            if entry.reward <= old_entry.reward:
                return False
            self._live.discard(old_uid)
            uid = self._push(heap, entry)
            self._by_key[key] = (uid, entry)
            self._prune(heap)
            return True

        self._prune(heap)
        if self._counts.get(cond, 0) >= self.capacity:
            if heap and entry.reward <= heap[0][0]:
                return False
            _, _, evicted_uid, evicted = heapq.heappop(heap)
            self._live.discard(evicted_uid)
            self._by_key.pop((evicted.condition, evicted.tokens), None)
            self._counts[cond] -= 1
            self._prune(heap)

        uid = self._push(heap, entry)
        if self.dedupe:
            self._by_key[key] = (uid, entry)
        self._counts[cond] = self._counts.get(cond, 0) + 1
        return True

    def sample(
        self,
        count: int,
        rng: np.random.Generator | int,
        condition: int | None = None,
    ) -> list[BufferEntry]:
        """Uniform sample without replacement of up to ``count`` entries."""
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        pool = self.entries(condition)
        if not pool:
            raise ValueError(f"buffer has no entries for condition {condition!r}")
        take = min(count, len(pool))
        picks = gen.choice(len(pool), size=take, replace=False)
        return [pool[int(i)] for i in picks]


def buffer_update(
    buffer: ReplayBuffer,
    trajs: Sequence["Trajectory"],
    criterion: BufferCriterion,
    env: "ToyEnv | None" = None,
    bleu_order: int = 2,
    step: int = 0,
) -> ReplayBuffer:
    """Score each trajectory by ``criterion`` and offer it to the buffer.

    The BLEU-blend criterion scores quality against the environment's
    references and redundancy against what the buffer already holds; the
    transport criterion scores the mean pairwise reward against the
    references. Both need ``env``.
    """
    for traj in trajs:
        if criterion is BufferCriterion.REWARD:
            score = traj.reward
        elif criterion is BufferCriterion.F1_BLEU:
            score = _f1_bleu_score(buffer, traj, env, bleu_order)
        elif criterion is BufferCriterion.NESTED_REWARD:
            score = _require_env(env).reference_reward(traj.tokens, traj.condition)
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


def _require_env(env: "ToyEnv | None") -> "ToyEnv":
    if env is None:
        raise ValueError("this criterion needs the environment (references)")
    return env


def _f1_bleu_score(buffer: ReplayBuffer, traj, env, order: int) -> float:
    env = _require_env(env)
    refs = env.references_for(traj.condition)
    if not refs:
        raise ValueError("F1-BLEU criterion needs environment references")
    quality = corpus_bleu([traj.tokens], refs, order)
    held = [e.tokens for e in buffer.entries(traj.condition)]
    redundancy = corpus_bleu([traj.tokens], held, order) if held else 0.0
    return f1_bleu(quality, redundancy)

