"""Desk-scale sequence-generation RL with prioritized high-reward replay."""

from .buffer import BufferCriterion, BufferEntry, ReplayBuffer, buffer_update
from .config import ZERO_SCHEDULE, BaselineMode, Schedule, SilConfig, SilVariant
from .envs import MarkovOracle, RewardKind, ToyEnv, basis_embedding_table
from .experiments import paired_comparison
from .gradients import (
    enumerate_sequences,
    exact_expected_reward,
    exact_policy_gradient,
    reinforce_grad,
    wsil_d_grad,
    wsil_i_grad,
)
from .policy import Policy, PolicyKind, Trajectory, greedy_decode, sample_trajectories
from .train import TrainResult, file_log_record, pretrain_mle, schedule_kinds, schedule_ratio, train

__all__ = [
    "ZERO_SCHEDULE",
    "BaselineMode",
    "BufferCriterion",
    "BufferEntry",
    "MarkovOracle",
    "Policy",
    "PolicyKind",
    "ReplayBuffer",
    "RewardKind",
    "Schedule",
    "SilConfig",
    "SilVariant",
    "ToyEnv",
    "TrainResult",
    "Trajectory",
    "basis_embedding_table",
    "buffer_update",
    "enumerate_sequences",
    "exact_expected_reward",
    "exact_policy_gradient",
    "file_log_record",
    "greedy_decode",
    "paired_comparison",
    "pretrain_mle",
    "reinforce_grad",
    "sample_trajectories",
    "schedule_kinds",
    "schedule_ratio",
    "train",
    "wsil_d_grad",
    "wsil_i_grad",
]
