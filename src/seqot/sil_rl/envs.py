"""Toy sequence-generation environments with enumerable reward oracles.

Tokens are integers ``0..V-1`` and every episode has a fixed horizon, so
state transitions are deterministic and the reward arrives only once the
whole sequence exists. Three reward families are provided: the log
probability of the sequence under a known first-order Markov chain, the
transport reward against a fixed reference set, and the conditional variant
where a condition id selects among several reference sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from ..embeddings import EmbeddingTable, OovPolicy
from ..nested import score_matrices
from ..seq_match import score_pair  # noqa: F401  (perfbench's tracer patches this binding)


class RewardKind(str, Enum):
    """The env kind, and the ``env`` value of a training config file."""

    MARKOV = "markov"
    OVERLAP = "overlap"
    CONDITIONAL = "conditional"


def basis_embedding_table(vocab_size: int) -> EmbeddingTable:
    """Orthonormal table mapping token ``i`` (as a string) to basis vector e_i.

    Under this table the transport reward between two sequences is the
    optimally matched fraction of their token multisets.
    """
    eye = np.eye(vocab_size)
    return EmbeddingTable(
        dim=vocab_size,
        entries={str(i): eye[i] for i in range(vocab_size)},
        oov_policy=OovPolicy.STRICT,
    )


@dataclass(frozen=True, eq=False)
class MarkovOracle:
    """Known first-order chain assigning an exact log probability to sequences."""

    initial: np.ndarray
    transition: np.ndarray

    def __post_init__(self):
        if abs(self.initial.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1")
        if np.abs(self.transition.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")

    @classmethod
    def random(cls, vocab_size: int, seed: int, concentration: float = 0.3) -> "MarkovOracle":
        """Dirichlet-sampled chain; small concentration gives peaked rows."""
        if not 0 < concentration < math.inf:
            raise ValueError("concentration must be finite and positive")
        rng = np.random.default_rng(seed)
        alpha = np.full(vocab_size, concentration)
        initial = rng.dirichlet(alpha)
        transition = rng.dirichlet(alpha, size=vocab_size)
        if not ((initial > 0).all() and (transition > 0).all()):
            # a zero entry makes a sequence through it score log 0 = -inf
            raise ValueError(f"concentration {concentration} is too small: the oracle drawn at seed {seed} "
                             "has a zero probability, which would score a sequence -inf")
        # exact row normalization so the 1e-12 invariant holds
        initial = initial / initial.sum()
        transition = transition / transition.sum(axis=1, keepdims=True)
        return cls(initial=initial, transition=transition)

    def logprob(self, tokens: Sequence[int]) -> float:
        total = float(np.log(self.initial[tokens[0]]))
        for prev, cur in zip(tokens, tokens[1:]):
            total += float(np.log(self.transition[prev, cur]))
        return total

    def sample(self, horizon: int, count: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
        out = []
        for _ in range(count):
            seq = [int(rng.choice(len(self.initial), p=self.initial))]
            for _ in range(horizon - 1):
                seq.append(int(rng.choice(len(self.initial), p=self.transition[seq[-1]])))
            out.append(tuple(seq))
        return out


@dataclass(eq=False)
class ToyEnv:
    """Fixed-horizon token environment with a terminal scalar reward.

    ``references`` maps a condition id (``None`` for unconditional modes)
    to the reference sequences used for overlap rewards, buffer criteria,
    likelihood pretraining, and the direct self-imitation update. Rewards
    are memoized per token sequence, so repeated sampling of the same
    sequence is cheap.
    """

    vocab_size: int
    horizon: int
    reward_fn: RewardKind
    seed: int = 0
    oracle: MarkovOracle | None = None
    references: dict[int | None, list[tuple[int, ...]]] = field(default_factory=dict)
    table: EmbeddingTable | None = None
    _reward_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.reward_fn is RewardKind.MARKOV and self.oracle is None:
            raise ValueError("markov reward needs a MarkovOracle")
        if self.reward_fn in (RewardKind.OVERLAP, RewardKind.CONDITIONAL) and not self.references:
            raise ValueError("overlap rewards need reference sequences")
        if self.table is None:
            self.table = basis_embedding_table(self.vocab_size)

    @property
    def conditional(self) -> bool:
        return self.reward_fn is RewardKind.CONDITIONAL

    def condition_ids(self) -> list[int | None]:
        if not self.conditional:
            return [None]
        return sorted(k for k in self.references if k is not None)

    def references_for(self, condition: int | None) -> list[tuple[int, ...]]:
        return self.references.get(condition if self.conditional else None, [])

    def reward(self, tokens: Sequence[int], condition: int | None = None) -> float:
        key = (condition if self.conditional else None, tuple(tokens))
        value = self._reward_cache.get(key)
        if value is None:
            cond, seq = key
            if self.reward_fn is RewardKind.MARKOV:
                value = self.oracle.logprob(seq)
            else:
                value = self.reference_reward(seq, cond)
            self._reward_cache[key] = value
        return value

    def reference_reward(self, tokens: Sequence[int], condition: int | None = None) -> float:
        """Mean transport reward of ``tokens`` against the condition's
        references: the overlap rewards and the buffer's transport criterion.
        It is the row mean of :func:`seqot.nested.score_matrices`, so the two
        share their solves through the table's pair-score memo."""
        refs = self.references_for(condition)
        if not refs:
            raise ValueError(f"no references for condition {condition!r}")
        ref_words = [[str(t) for t in ref] for ref in refs]
        _, rewards = score_matrices(self.table, [[str(t) for t in tokens]], ref_words)
        return float(np.mean(rewards[0]))

    @classmethod
    def markov(
        cls,
        vocab_size: int,
        horizon: int,
        seed: int = 0,
        concentration: float = 0.3,
        reference_count: int = 16,
    ) -> "ToyEnv":
        """Markov-chain log-likelihood environment with an oracle-sampled
        reference corpus (used for pretraining and direct self-imitation)."""
        if seed < 0:
            raise ValueError("seed must be >= 0")
        if reference_count < 0:
            raise ValueError("reference_count must be >= 0")
        oracle = MarkovOracle.random(vocab_size, seed, concentration)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        refs = oracle.sample(horizon, reference_count, rng) if reference_count else []
        return cls(
            vocab_size=vocab_size,
            horizon=horizon,
            reward_fn=RewardKind.MARKOV,
            seed=seed,
            oracle=oracle,
            references={None: refs},
        )

    @classmethod
    def overlap(
        cls,
        vocab_size: int,
        horizon: int,
        seed: int = 0,
        reference_count: int = 8,
        conditions: int = 0,
    ) -> "ToyEnv":
        """Transport-reward environment; ``conditions > 0`` selects the
        conditional variant with one reference set per condition id."""
        if seed < 0:
            raise ValueError("seed must be >= 0")
        if reference_count < 1:
            raise ValueError("reference_count must be >= 1 for transport rewards")
        if conditions < 0:
            raise ValueError("conditions must be >= 0")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        kind = RewardKind.CONDITIONAL if conditions > 0 else RewardKind.OVERLAP
        groups = range(conditions) if conditions > 0 else [None]
        references = {
            g: [tuple(rng.integers(0, vocab_size, horizon).tolist()) for _ in range(reference_count)]
            for g in groups
        }
        return cls(
            vocab_size=vocab_size,
            horizon=horizon,
            reward_fn=kind,
            seed=seed,
            references=references,
        )
