"""Policy-gradient estimators: plain baseline REINFORCE plus the indirect
and direct self-imitation updates.

Every estimator here is one weighted score-function sum
``sum_k w_k grad log pi(y_k)``, a single ``Policy.grad_log_prob`` call over
a token batch; only the sequences and their weights differ:

- REINFORCE: the current samples, weights ``(r_k - baseline) / K``;
- indirect self-imitation: the current samples, weights ``lambda *
  sum_j w_kj * s_kj * I[score(b_j) > r_k] / K`` from the gated,
  plan-weighted similarity to buffered high-reward sequences, added to the
  REINFORCE term;
- elite replay, which the training loop adds to the indirect update: the
  buffered sequences, weights ``lambda * (r(b_j) - baseline)_+ / K'``;
- direct self-imitation: the buffered sequences, weights ``lambda *
  (score_j - mean score)_+``;
- the exact enumeration oracle: every sequence, weights
  ``pi(Y) (r(Y) - baseline)``.

All gradients point in the ascent direction. Ablation variants replace the
transport machinery with uniform weights over mean-embedding similarities.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ..embeddings import EmbeddingTable
from ..nested import nested_wasserstein
from ..text_metrics import naive_semantic_score
from .buffer import BufferEntry
from .config import SilConfig, SilVariant
from .envs import ToyEnv
from .policy import Policy, Trajectory


def _tokens(items) -> list[tuple[int, ...]]:
    return [item.tokens for item in items]


def reinforce_grad(trajs: Sequence[Trajectory], policy: Policy, baseline: float) -> np.ndarray:
    """Mean of ``(reward - baseline) * grad log pi`` over the batch."""
    if not trajs:
        raise ValueError("need at least one trajectory")
    advantages = np.array([traj.reward for traj in trajs]) - baseline
    return policy.grad_log_prob(_tokens(trajs), advantages) / len(trajs)


def _match(
    hyps: Sequence[Sequence[int]],
    refs: Sequence[Sequence[int]],
    table: EmbeddingTable,
    config: SilConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Outer coupling weights and pairwise similarities (K x K') of two
    token-sequence sets: the nested transport solve, or for either ``_now``
    ablation uniform weights over mean-embedding similarities."""
    hyp_words = [[str(t) for t in h] for h in hyps]
    ref_words = [[str(t) for t in r] for r in refs]
    if config.variant in (SilVariant.SIL_I_NOW, SilVariant.SIL_D_NOW):
        weights = np.full((len(hyps), len(refs)), 1.0 / (len(hyps) * len(refs)))
        rewards = np.array([[naive_semantic_score(table, h, r) for r in ref_words] for h in hyp_words])
        return weights, rewards
    result = nested_wasserstein(table, hyp_words, ref_words, config.ot)
    return result.outer_plan.values, result.seq_reward_matrix


def wsil_i_grad(
    trajs: Sequence[Trajectory],
    buffer_sample: Sequence[BufferEntry],
    policy: Policy,
    table: EmbeddingTable,
    config: SilConfig,
    baseline: float,
) -> np.ndarray:
    """Combined RL + indirect self-imitation ascent gradient.

    Trajectory k's total coefficient is ``(r_k - baseline) + lambda *
    sum_j w_kj * s_kj * I[score(b_j) > r_k]`` where ``w`` is the outer
    coupling, ``s`` the pairwise similarity, and the indicator gates each
    buffer partner independently, so only higher-scoring history is
    imitated. The batch mean of coefficient-weighted score gradients is
    returned; with ``lambda_sil == 0`` (or every gate closed) the result is
    bitwise identical to :func:`reinforce_grad`.
    """
    if not buffer_sample:
        raise ValueError("buffer sample must be nonempty (skip the SIL step instead)")
    rl = reinforce_grad(trajs, policy, baseline)
    if config.lambda_sil == 0.0:
        return rl

    gate = np.array(
        [[entry.reward > traj.reward for entry in buffer_sample] for traj in trajs]
    )
    if not gate.any():
        return rl

    weights, rewards = _match(_tokens(trajs), _tokens(buffer_sample), table, config)
    coef = config.lambda_sil * (weights * rewards * gate).sum(axis=1)
    return rl + policy.grad_log_prob(_tokens(trajs), coef) / len(trajs)


def elite_replay_grad(
    buffer_sample: Sequence[BufferEntry],
    policy: Policy,
    env: ToyEnv,
    config: SilConfig,
    baseline: float,
    condition: int | None = None,
) -> np.ndarray:
    """Replay of buffered elites that accompanies the indirect update.

    Returns ``lambda / K' * sum_j (r(b_j) - baseline)_+ * grad log pi(b_j)``
    over the ``K'`` sampled entries, where ``r`` is the environment reward
    (not the buffer criterion's score) and ``baseline`` is the one the RL
    term uses: SIL's positive-part advantage (Oh et al. 2018). The
    indirect term alone only reweights the current samples, so it never
    raises an elite's own probability; this term does. It is exactly zero
    with ``lambda_sil == 0`` or when no entry beats the baseline.
    """
    if not buffer_sample:
        raise ValueError("buffer sample must be nonempty (skip the SIL step instead)")
    if config.lambda_sil == 0.0:
        return np.zeros_like(policy.params)
    rewards = np.array([env.reward(entry.tokens, condition) for entry in buffer_sample])
    advantages = np.maximum(rewards - baseline, 0.0)
    grad = policy.grad_log_prob(_tokens(buffer_sample), advantages)
    return config.lambda_sil * grad / len(buffer_sample)


def wsil_d_grad(
    buffer_sample: Sequence[BufferEntry],
    refs: Sequence[Sequence[int]],
    policy: Policy,
    table: EmbeddingTable,
    config: SilConfig,
) -> np.ndarray:
    """Direct self-imitation ascent gradient on buffered sequences.

    Each buffer sequence is scored against the reference set (plan-weighted
    pairwise rewards, or mean-embedding similarity for the ablation), the
    batch mean of those scores serves as the baseline, and only positive
    advantages contribute: ``lambda * sum_j (score_j - mean)_+ *
    grad log pi(b_j)``. With a single entry the advantage is exactly zero,
    so the direct update needs at least two buffer samples to act.
    """
    if not buffer_sample:
        raise ValueError("buffer sample must be nonempty (skip the SIL step instead)")
    if not refs:
        raise ValueError("direct self-imitation needs a nonempty reference set")
    if config.lambda_sil == 0.0:
        return np.zeros_like(policy.params)

    weights, rewards = _match(_tokens(buffer_sample), refs, table, config)
    if config.variant is SilVariant.SIL_D_NOW:
        scores = rewards.mean(axis=1)
    else:
        scores = (weights * rewards).sum(axis=1)

    advantages = np.maximum(scores - scores.mean(), 0.0)
    return config.lambda_sil * policy.grad_log_prob(_tokens(buffer_sample), advantages)


def enumerate_sequences(env: ToyEnv) -> list[tuple[int, ...]]:
    """All V^T token sequences of the environment (capped at 4096)."""
    total = env.vocab_size**env.horizon
    if total > 4096:
        raise ValueError(f"enumeration of {total} sequences exceeds the 4096 cap")
    return [tuple(seq) for seq in itertools.product(range(env.vocab_size), repeat=env.horizon)]


def _enumeration(policy: Policy, env: ToyEnv, condition: int | None):
    """Every sequence, its probability under ``policy`` and its reward."""
    seqs = enumerate_sequences(env)
    probs = np.exp(policy.log_prob(seqs))
    rewards = np.array([env.reward(seq, condition) for seq in seqs])
    return seqs, probs, rewards


def exact_policy_gradient(
    policy: Policy,
    env: ToyEnv,
    baseline: float = 0.0,
    condition: int | None = None,
) -> np.ndarray:
    """Exact ascent gradient by full enumeration (testing oracle).

    Computes ``sum_Y pi(Y) (r(Y) - baseline) grad log pi(Y)`` over every
    sequence the environment admits.
    """
    seqs, probs, rewards = _enumeration(policy, env, condition)
    return policy.grad_log_prob(seqs, probs * (rewards - baseline))


def exact_expected_reward(policy: Policy, env: ToyEnv, condition: int | None = None) -> float:
    """Exact E[r(Y)] by full enumeration (testing oracle)."""
    _, probs, rewards = _enumeration(policy, env, condition)
    return float(probs @ rewards)
