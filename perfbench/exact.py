"""Exact expected oracle log-likelihood of a policy on a Markov-chain env."""

from __future__ import annotations

import numpy as np


def exact_markov_reward(policy, oracle, horizon: int) -> float:
    """E_pi[log p_oracle(Y)] by a forward pass, in O(H * V^2).

    The reward of a sequence is a sum of per-step oracle log-probabilities,
    so its expectation only needs the marginal of the previous token at each
    position, which the pass carries forward. Uses ``step_probs_batch``, so
    it serves both policy kinds.
    """
    vocab = len(oracle.initial)
    first = policy.step_probs_batch(0, np.array([policy.start_index]))[0]
    total = float(first @ np.log(oracle.initial))
    marginal = first
    log_transition = np.log(oracle.transition)
    every_prev = np.arange(vocab)
    for t in range(1, horizon):
        probs = policy.step_probs_batch(t, every_prev)  # row = previous token
        total += float(marginal @ (probs * log_transition).sum(axis=1))
        marginal = marginal @ probs
    return total
