"""The alternating RL / self-imitation training loop.

Every loop iteration samples a fresh batch, refreshes the replay buffer,
and then applies exactly one gradient update: either plain baseline
REINFORCE or the configured self-imitation update, chosen by an exact
rational credit schedule (one SIL update per 1/ratio RL updates, ramping as
configured). A self-imitation step of an indirect variant applies the RL
term plus the gated, plan-weighted imitation term of ``wsil_i_grad`` on the
current samples, plus the replay of the sampled buffer entries whose
environment reward beats the baseline (``elite_replay_grad``); a direct
variant applies ``wsil_d_grad`` alone. All randomness flows from the config
seed through separate trajectory/buffer streams, so runs are
bit-reproducible and a zero imitation weight leaves the parameter
trajectory identical to plain REINFORCE.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .buffer import ReplayBuffer, buffer_update
from .config import BaselineMode, Schedule, SilConfig, SilVariant
from .envs import ToyEnv
from .gradients import elite_replay_grad, reinforce_grad, wsil_d_grad, wsil_i_grad
from .policy import Policy, PolicyKind, greedy_decode, sample_trajectories


class DivergedError(ValueError):
    """A step's gradient norm or updated policy parameters are not finite."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step} (non-finite update); "
                         "lower learning_rate or lambda_sil")
        self.step = step


@dataclass
class TrainResult:
    policy: Policy
    records: list[dict]
    rl_steps: int
    sil_steps: int

    def final_mean_reward(self, tail: int = 100) -> float:
        tail_records = self.records[-tail:]
        return float(np.mean([r["mean_reward"] for r in tail_records]))


def schedule_ratio(schedule: Schedule, iteration: int) -> Fraction:
    """Exact SIL-per-RL ratio at a loop iteration (linear ramp)."""
    initial = Fraction(str(schedule.initial))
    final = Fraction(str(schedule.final))
    if schedule.ramp_steps == 0:
        return final
    progress = Fraction(min(iteration, schedule.ramp_steps), schedule.ramp_steps)
    return initial + (final - initial) * progress


def schedule_kinds(schedule: Schedule, steps: int) -> list[str]:
    """The exact rl/sil decision sequence the trainer will realize."""
    kinds = []
    credit = Fraction(0)
    for i in range(steps):
        if credit >= 1:
            kinds.append("sil")
            credit -= 1
        else:
            kinds.append("rl")
            credit += schedule_ratio(schedule, i)
    return kinds


def pretrain_mle(policy: Policy, env: ToyEnv, smoothing: float = 1.0) -> Policy:
    """Fit the policy to the environment's reference corpus by count
    normalization (additively smoothed); logits become log-frequencies.

    Each reference token is counted in the last logit row its context
    sums: the tabular kind fits every (position, previous-token) context;
    the linear kind gets the pooled first-order fit in its previous-token
    rows, and its position rows stay zero.
    """
    refs = [ref for cond in env.references.values() for ref in cond]
    if not refs:
        raise ValueError("pretraining needs a nonempty reference corpus")
    params = np.empty_like(policy.params)
    rows = policy.logit_rows(params)
    counts = np.full(rows.shape, smoothing)
    for ref in refs:
        prev = policy.start_index
        for t, tok in enumerate(ref[:env.horizon]):
            counts[policy.feature_rows(t, prev)[-1], tok] += 1.0
            prev = tok
    rows[...] = policy.temperature * np.log(counts / counts.sum(axis=1, keepdims=True))
    if policy.kind is PolicyKind.LINEAR:
        rows[:policy.horizon] = 0.0
    return Policy(policy.kind, policy.vocab_size, policy.horizon, params, policy.temperature)


def train(env: ToyEnv, policy: Policy, config: SilConfig, steps: int, on_step=None) -> TrainResult:
    """Run ``steps`` loop iterations and return the final policy plus logs.

    Each record carries (step, kind, mean reward, baseline, buffer
    min/max/size, gradient norm, wall time). Wall time is the only
    non-deterministic field; persisted logs drop it (see the CLI).
    ``on_step(step, kind, policy)``, if given, observes the policy right
    after each update. A step whose gradient norm or updated parameters are
    not finite raises ``DivergedError`` naming the step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    root = np.random.SeedSequence(config.seed)
    traj_stream, buffer_stream = [np.random.default_rng(s) for s in root.spawn(2)]

    policy = policy.copy()
    if config.pretrain:
        policy = pretrain_mle(policy, env, config.pretrain_smoothing)

    buffer = ReplayBuffer(config.buffer_capacity or (5 if env.conditional else 64), config.buffer_dedupe)
    kinds = schedule_kinds(config.schedule, steps)
    running_baseline = 0.0
    records: list[dict] = []
    rl_steps = sil_steps = 0

    for step, kind in enumerate(kinds):
        started = time.perf_counter()
        trajs = sample_trajectories(policy, env, config.k, traj_stream)
        condition = trajs[0].condition
        rewards = np.array([t.reward for t in trajs])
        if step == 0 and config.baseline_mode is BaselineMode.CONSTANT:
            running_baseline = float(rewards.mean())
        baseline = running_baseline
        if config.baseline_mode is BaselineMode.GREEDY:
            baseline = greedy_decode(policy, env, condition).reward

        buffer_update(buffer, trajs, config.buffer_criterion, env,
                      bleu_order=config.bleu_order, step=step)

        if kind == "sil":
            sample = buffer.sample(config.k_prime, buffer_stream, condition)
            if config.variant in (SilVariant.WSIL_I, SilVariant.SIL_I_NOW):
                grad = wsil_i_grad(trajs, sample, policy, env.table, config, baseline)
                grad = grad + elite_replay_grad(sample, policy, env, config, baseline, condition)
            else:
                refs = env.references_for(condition)
                grad = wsil_d_grad(sample, refs, policy, env.table, config)
            sil_steps += 1
        else:
            grad = reinforce_grad(trajs, policy, baseline)
            rl_steps += 1

        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            grad_norm = float(np.linalg.norm(grad))
            params = policy.params + config.learning_rate * grad
        if not (math.isfinite(grad_norm) and np.isfinite(params).all()):
            raise DivergedError(step)
        policy.params = params
        decay = config.baseline_decay
        running_baseline = decay * running_baseline + (1.0 - decay) * float(rewards.mean())
        if on_step is not None:
            on_step(step, kind, policy)

        records.append(
            {
                "step": step,
                "kind": kind,
                "mean_reward": float(rewards.mean()),
                "baseline": float(baseline),
                "buffer_min": buffer.min_reward(condition),
                "buffer_max": buffer.max_reward(condition),
                "buffer_size": len(buffer),
                "grad_norm": grad_norm,
                "wall_time_ms": (time.perf_counter() - started) * 1000.0,
            }
        )

    return TrainResult(policy=policy, records=records,
                       rl_steps=rl_steps, sil_steps=sil_steps)


def file_log_record(record: dict) -> dict:
    """Log record as persisted: wall time stripped so reruns are byte-identical."""
    return {k: v for k, v in record.items() if k != "wall_time_ms"}
