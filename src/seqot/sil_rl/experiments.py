"""Paired-seed comparison of self-imitation against plain REINFORCE.

Both arms of a pair share the environment (same reward landscape), the same
seed, and every hyperparameter except the self-imitation machinery, so the
per-seed reward difference isolates the contribution of the replay-driven
update. Final policies are compared on their exact expected reward, so a
margin carries no evaluation noise however small it is. The summary counts
how many pairs the self-imitation arm wins or ties (a one-sided sign-test
statistic: >= 8 of 10 corresponds to p < 0.1 under the null).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import Schedule, SilConfig, SilVariant, ZERO_SCHEDULE
from .envs import RewardKind, ToyEnv
from .policy import Policy, _step_table, sample_trajectories  # noqa: F401  (perfbench's tracer patches this binding)
from .train import train

# Tuned so the imitation terms are commensurate with the advantage scale of
# the log-likelihood rewards: each self-imitation step tilts the current
# samples toward better buffered elites and replays the elites that beat the
# baseline, while small steps, a small elite buffer and a likelihood-fitted
# start keep it from locking a bad mode.
DEFAULT_EXPERIMENT_CONFIG = SilConfig(
    variant=SilVariant.WSIL_I,
    lambda_sil=3.0,
    learning_rate=0.02,
    schedule=Schedule(0.1, 1.0, 500),
    pretrain=True,
    buffer_capacity=16,
)


def final_policy_reward(policy: Policy, env: ToyEnv) -> float:
    """Exact E_pi[log p_oracle(Y)] of a policy on a Markov-chain env.

    The reward is a sum of per-step oracle log-probabilities, so its
    expectation needs only the marginal of the previous token at each
    position, which a forward pass carries along in O(H * V^2). It reads
    the step table sampling uses, with its checks, for both policy kinds.
    """
    if env.reward_fn is not RewardKind.ORACLE_LOGPROB:
        raise ValueError("exact scoring needs a Markov-chain (oracle_logprob) environment")
    table = _step_table(policy, env)
    marginal = table[0, policy.start_index]
    total = float(marginal @ np.log(env.oracle.initial))
    log_transition = np.log(env.oracle.transition)
    for probs in table[1:, : env.vocab_size]:  # row = previous token
        total += float(marginal @ (probs * log_transition).sum(axis=1))
        marginal = marginal @ probs
    return total


def paired_comparison(
    vocab_size: int = 8,
    horizon: int = 8,
    steps: int = 2000,
    seeds=range(10),
    base_config: SilConfig | None = None,
    concentration: float = 0.3,
) -> dict:
    """Train (self-imitation, REINFORCE) pairs and tally per-seed outcomes.

    The REINFORCE arm is the same configuration with the imitation weight
    zeroed and the schedule never firing; ties count for the self-imitation
    arm (the >= comparison).
    """
    if base_config is None:
        base_config = DEFAULT_EXPERIMENT_CONFIG
    pairs = []
    wins = 0
    for seed in seeds:
        env = ToyEnv.markov(vocab_size, horizon, seed=seed, concentration=concentration)
        sil_config = replace(base_config, seed=seed)
        rl_config = replace(base_config, seed=seed, lambda_sil=0.0, schedule=ZERO_SCHEDULE)

        sil_run = train(env, Policy.tabular(vocab_size, horizon), sil_config, steps)
        rl_run = train(env, Policy.tabular(vocab_size, horizon), rl_config, steps)

        sil_final = final_policy_reward(sil_run.policy, env)
        rl_final = final_policy_reward(rl_run.policy, env)
        wins += int(sil_final >= rl_final)
        pairs.append(
            {
                "seed": int(seed),
                "self_imitation_final": sil_final,
                "reinforce_final": rl_final,
                "margin": sil_final - rl_final,
            }
        )
    return {
        "vocab_size": vocab_size,
        "horizon": horizon,
        "steps": steps,
        "pairs": pairs,
        "wins": wins,
        "total": len(pairs),
    }
