"""Autoregressive softmax policies over toy token environments.

Both policy kinds view their parameters as a matrix of logit rows and
condition each step on (position, previous token): the tabular kind keeps
one row per context, the linear kind sums a position row and a
previous-token row, which ties parameters across contexts. Every
computation goes through one batched step, ``step_probs_batch``, with a
single sequence as the K=1 case. The one gradient primitive is the
weighted score-function sum ``grad_log_prob(tokens[K, H], w) = sum_k w_k
grad log pi(y_k)`` in closed form; every policy-gradient update is that
sum with its own weights, and the closed form keeps finite-difference and
enumeration oracles cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .envs import ToyEnv


class PolicyKind(str, Enum):
    TABULAR = "tabular"
    LINEAR = "linear"


@dataclass(eq=False)
class Policy:
    """Flat-parameter softmax policy; ``params`` must stay finite. Only
    ``num_params``, ``logit_rows`` and ``feature_rows`` read ``kind``."""

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
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be finite and positive")

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
    def uniform(cls, vocab_size: int, horizon: int, temperature: float = 1.0,
                kind: PolicyKind = PolicyKind.TABULAR) -> "Policy":
        """All-zero logits: the uniform policy of ``kind``."""
        size = cls.num_params(kind, vocab_size, horizon)
        return cls(kind, vocab_size, horizon, np.zeros(size), temperature)

    @classmethod
    def tabular(cls, vocab_size: int, horizon: int, temperature: float = 1.0) -> "Policy":
        return cls.uniform(vocab_size, horizon, temperature)

    @classmethod
    def linear(cls, vocab_size: int, horizon: int, temperature: float = 1.0) -> "Policy":
        return cls.uniform(vocab_size, horizon, temperature, PolicyKind.LINEAR)

    def copy(self) -> "Policy":
        return Policy(self.kind, self.vocab_size, self.horizon, self.params.copy(), self.temperature)

    def logit_rows(self, flat: np.ndarray) -> np.ndarray:
        """``flat`` (shaped like ``params``) viewed as (rows, V) logit rows:
        H * (V+1) rows in order (tabular), or the H + V + 1 columns of a
        (V, H+V+1) weight matrix (linear)."""
        if self.kind is PolicyKind.TABULAR:
            return flat.reshape(-1, self.vocab_size)
        return flat.reshape(self.vocab_size, -1).T

    def feature_rows(self, position, prev) -> tuple:
        """Index arrays (or ints) of the logit rows a context sums: row
        ``t * (V+1) + prev`` (tabular), or rows ``t`` and ``H + prev`` (linear)."""
        if self.kind is PolicyKind.TABULAR:
            return (position * (self.vocab_size + 1) + prev,)
        return position, self.horizon + prev

    def step_probs_batch(self, position: int | np.ndarray, prev: int | np.ndarray) -> np.ndarray:
        """Next-token distributions, one row per (position, previous token)
        context; ``position`` and ``prev`` are int arrays (or ints) that
        broadcast against each other."""
        rows = self.logit_rows(self.params)
        first, *rest = self.feature_rows(position, prev)
        logits = rows[first]
        for index in rest:
            logits = logits + rows[index]
        return _softmax(logits / self.temperature)

    def _contexts(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions (H,) and previous tokens (K, H) of every step of a batch."""
        if batch.shape[1] > self.horizon:
            # past the horizon a linear position row would be a previous-token
            # row, and a tabular row index would run off the logit rows
            raise ValueError(
                f"sequence length {batch.shape[1]} exceeds the policy horizon {self.horizon}"
            )
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
        feature row builds each sequence's logit-row gradient in its own
        slice. The weighted slices are then summed from zero in batch order
        and written back through ``logit_rows``, so a batch gives bit for
        bit the in-order sum of its rows' K=1 gradients.
        """
        batch = _as_batch(tokens)
        k = len(batch)
        w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (k,):
            raise ValueError(f"need one weight per sequence ({k}), got shape {w.shape}")
        positions, prev = self._contexts(batch)
        seq = np.arange(k)[:, None]
        # d log softmax(z / T)[y] / dz = (onehot(y) - probs) / T
        score = -self.step_probs_batch(positions, prev) / self.temperature
        score[seq, positions, batch] += 1.0 / self.temperature
        grad = np.empty_like(self.params)
        rows = self.logit_rows(grad)
        per_seq = np.zeros((k, *rows.shape))
        for index in self.feature_rows(positions, prev):
            np.add.at(per_seq, (seq, index), score)
        np.add.reduce(w[:, None, None] * per_seq, axis=0, initial=0.0, out=rows)
        return grad


def _as_batch(tokens) -> np.ndarray:
    """One sequence or a (K, H) batch of them as a 2-D int array."""
    return np.atleast_2d(np.asarray(tokens, dtype=int))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class Trajectory:
    """One sampled episode: its condition, tokens and final reward."""

    condition: int | None
    tokens: tuple[int, ...]
    reward: float


def _check_env(policy: Policy, env: ToyEnv) -> None:
    """Raise ``ValueError`` unless ``policy`` covers ``env``'s sequences: the
    same vocab size, and a horizon at least as long."""
    if env.horizon > policy.horizon:
        raise ValueError(f"env horizon {env.horizon} exceeds the policy horizon {policy.horizon}")
    if env.vocab_size != policy.vocab_size:
        raise ValueError(f"env vocab size {env.vocab_size} differs from the policy vocab size {policy.vocab_size}")


def _step_table(policy: Policy, env: ToyEnv) -> np.ndarray:
    """Next-token distributions of every (position, previous token) context
    over ``env``'s horizon, shaped (H, V+1, V), from one ``step_probs_batch``
    call; row ``[t, prev]`` equals ``step_probs_batch(t, prev)`` bit for bit."""
    _check_env(policy, env)
    return policy.step_probs_batch(np.arange(env.horizon)[:, None], np.arange(policy.vocab_size + 1))


def sample_trajectories(
    policy: Policy,
    env: ToyEnv,
    count: int,
    rng: np.random.Generator | int,
) -> list[Trajectory]:
    """Draw ``count`` i.i.d. trajectories; deterministic given the seed.

    In conditional environments one condition id is drawn per call and
    shared by the whole batch (matching the per-condition batching of the
    training loop). Each step looks its rows up in one CDF table built per
    call, which costs H * (V+1) * V floats.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    cdf = _step_table(policy, env).cumsum(axis=-1)
    # the sum may round below 1, so a draw past every entry takes the last token
    cdf[..., -1] = np.inf
    gen = np.random.default_rng(rng)
    condition = None
    if env.conditional:
        ids = env.condition_ids()
        condition = ids[int(gen.integers(0, len(ids)))]

    # one call draws the same stream as one gen.random(count) per step
    draws = gen.random((env.horizon, count, 1))
    steps = []
    prev = policy.start_index
    for t in range(env.horizon):
        prev = (cdf[t, prev] > draws[t]).argmax(axis=1)
        steps.append(prev.tolist())
    return [Trajectory(condition, seq, env.reward(seq, condition)) for seq in zip(*steps)]


def greedy_decode(policy: Policy, env: ToyEnv, condition: int | None = None) -> Trajectory:
    """Argmax decode; exact logit ties resolve to the lowest token id."""
    probs = _step_table(policy, env)
    tokens = []
    prev = policy.start_index
    for t in range(env.horizon):
        prev = int(probs[t, prev].argmax())
        tokens.append(prev)
    return Trajectory(
        condition=condition,
        tokens=tuple(tokens),
        reward=env.reward(tokens, condition),
    )
