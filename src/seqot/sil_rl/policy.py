"""Autoregressive softmax policies over toy token environments.

Both policy classes condition each step on (position, previous token); the
tabular kind keeps one logit row per (position, previous) pair while the
linear kind adds a position column and a previous-token column of a weight
matrix, which ties parameters across contexts. Every computation goes
through one batched step, ``step_probs_batch``, with a single sequence as
the K=1 case. The one gradient primitive is the weighted score-function
sum ``grad_log_prob(tokens[K, H], w) = sum_k w_k grad log pi(y_k)`` in
closed form; every policy-gradient update is that sum with its own weights,
and the closed form keeps finite-difference and enumeration oracles cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .envs import ToyEnv


class PolicyKind(str, Enum):
    TABULAR = "tabular"
    LINEAR = "linear"


@dataclass
class Policy:
    """Flat-parameter softmax policy; ``params`` must stay finite."""

    kind: PolicyKind
    vocab_size: int
    horizon: int
    params: np.ndarray
    temperature: float = 1.0

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        expected = self.num_params(self.kind, self.vocab_size, self.horizon)
        if self.params.shape != (expected,):
            raise ValueError(f"params must have shape ({expected},), got {self.params.shape}")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("policy logits must be finite")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    # previous-token index used at position 0
    @property
    def start_index(self) -> int:
        return self.vocab_size

    @staticmethod
    def num_params(kind: PolicyKind, vocab_size: int, horizon: int) -> int:
        if kind is PolicyKind.TABULAR:
            return horizon * (vocab_size + 1) * vocab_size
        return vocab_size * (horizon + vocab_size + 1)

    @classmethod
    def tabular(cls, vocab_size: int, horizon: int, temperature: float = 1.0) -> "Policy":
        size = cls.num_params(PolicyKind.TABULAR, vocab_size, horizon)
        return cls(PolicyKind.TABULAR, vocab_size, horizon, np.zeros(size), temperature)

    @classmethod
    def linear(cls, vocab_size: int, horizon: int, temperature: float = 1.0) -> "Policy":
        size = cls.num_params(PolicyKind.LINEAR, vocab_size, horizon)
        return cls(PolicyKind.LINEAR, vocab_size, horizon, np.zeros(size), temperature)

    def copy(self) -> "Policy":
        return Policy(self.kind, self.vocab_size, self.horizon, self.params.copy(), self.temperature)

    def _table(self) -> np.ndarray:
        return self.params.reshape(self.horizon, self.vocab_size + 1, self.vocab_size)

    def _weights(self) -> np.ndarray:
        return self.params.reshape(self.vocab_size, self.horizon + self.vocab_size + 1)

    def step_probs_batch(self, position: int | np.ndarray, prev: int | np.ndarray) -> np.ndarray:
        """Next-token distributions, one row per (position, previous token)
        context; ``position`` and ``prev`` are int arrays (or ints) that
        broadcast against each other."""
        if self.kind is PolicyKind.TABULAR:
            logits = self._table()[position, prev]
        else:
            by_column = self._weights().T
            logits = by_column[position] + by_column[self.horizon + prev]
        return _softmax(logits / self.temperature)

    def _contexts(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions (H,) and previous tokens (K, H) of every step of a batch."""
        start = np.full((len(batch), 1), self.start_index)
        return np.arange(batch.shape[1]), np.hstack([start, batch])[:, :-1]

    def step_logprobs(self, tokens) -> np.ndarray:
        """Per-step log pi(y_t | position, previous token), shaped like ``tokens``."""
        batch = _as_batch(tokens)
        probs = self.step_probs_batch(*self._contexts(batch))
        out = np.log(np.take_along_axis(probs, batch[..., None], axis=-1)[..., 0])
        return out if np.ndim(tokens) == 2 else out[0]

    def log_prob(self, tokens):
        """log pi of one sequence (a float) or of each row of a (K, H) batch."""
        total = self.step_logprobs(tokens).sum(axis=-1)
        return total if np.ndim(tokens) == 2 else float(total)

    def grad_log_prob(self, tokens, weights=None) -> np.ndarray:
        """Weighted score-function sum ``sum_k w_k grad log pi(tokens[k])``.

        ``tokens`` is one sequence (the K=1 case) or a (K, H) batch and
        ``weights`` defaults to all ones. One ``step_probs_batch`` call
        covers every step of the batch, and one ``np.add.at`` scatter per
        touched parameter block builds each sequence's gradient in its own
        row. The weighted rows are then summed from zero in batch order, so
        a batch gives bit for bit the in-order sum of its rows' K=1
        gradients.
        """
        batch = _as_batch(tokens)
        k = len(batch)
        v, tabular = self.vocab_size, self.kind is PolicyKind.TABULAR
        w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (k,):
            raise ValueError(f"need one weight per sequence ({k}), got shape {w.shape}")
        positions, prev = self._contexts(batch)
        seq = np.arange(k)[:, None]
        # d log softmax(z / T)[y] / dz = (onehot(y) - probs) / T
        score = -self.step_probs_batch(positions, prev) / self.temperature
        score[seq, positions, batch] += 1.0 / self.temperature
        # The parameter rows a step touches: tabular row (t, prev) of the
        # (H * (V+1), V) table; linear columns t and H + prev of the
        # (V, H+V+1) weight matrix, stored transposed.
        if tabular:
            touched = [positions * (v + 1) + prev]
            per_seq = np.zeros((k, self.horizon * (v + 1), v))
        else:
            touched = [positions, self.horizon + prev]
            per_seq = np.zeros((k, self.horizon + v + 1, v))
        for rows in touched:
            np.add.at(per_seq, (seq, rows), score)
        total = np.add.reduce(w[:, None, None] * per_seq, axis=0, initial=0.0)
        return total.ravel() if tabular else total.T.ravel()


def _as_batch(tokens) -> np.ndarray:
    """One sequence or a (K, H) batch of them as a 2-D int array."""
    return np.atleast_2d(np.asarray(tokens, dtype=int))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class Trajectory:
    """One sampled episode: tokens, their step log-probs, and the final reward."""

    condition: int | None
    tokens: tuple[int, ...]
    step_logprobs: np.ndarray
    reward: float


def sample_trajectories(
    policy: Policy,
    env: ToyEnv,
    count: int,
    rng: np.random.Generator | int,
) -> list[Trajectory]:
    """Draw ``count`` i.i.d. trajectories; deterministic given the seed.

    In conditional environments one condition id is drawn per call and
    shared by the whole batch (matching the per-condition batching of the
    training loop).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    condition = None
    if env.conditional:
        ids = env.condition_ids()
        condition = ids[int(gen.integers(0, len(ids)))]

    tokens = np.empty((count, env.horizon), dtype=int)
    logprobs = np.empty((count, env.horizon))
    prev = np.full(count, policy.start_index)
    for t in range(env.horizon):
        probs = policy.step_probs_batch(t, prev)
        draws = gen.random(count)
        cdf = probs.cumsum(axis=1)
        chosen = (cdf > draws[:, None]).argmax(axis=1)
        chosen[cdf[:, -1] <= draws] = env.vocab_size - 1  # cdf[-1] may round below 1
        logprobs[:, t] = np.log(probs[np.arange(count), chosen])
        tokens[:, t] = chosen
        prev = chosen

    out = []
    for i in range(count):
        seq = tuple(int(x) for x in tokens[i])
        out.append(
            Trajectory(
                condition=condition,
                tokens=seq,
                step_logprobs=logprobs[i].copy(),
                reward=env.reward(seq, condition),
            )
        )
    return out


def greedy_decode(policy: Policy, env: ToyEnv, condition: int | None = None) -> Trajectory:
    """Argmax decode; exact logit ties resolve to the lowest token id."""
    tokens = []
    logprobs = np.empty(env.horizon)
    prev = np.array([policy.start_index])
    for t in range(env.horizon):
        probs = policy.step_probs_batch(t, prev)[0]
        tok = int(np.argmax(probs))
        logprobs[t] = np.log(probs[tok])
        tokens.append(tok)
        prev = np.array([tok])
    return Trajectory(
        condition=condition,
        tokens=tuple(tokens),
        step_logprobs=logprobs,
        reward=env.reward(tokens, condition),
    )

