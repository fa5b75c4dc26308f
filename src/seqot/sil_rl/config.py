"""Configuration dataclasses for the self-imitation training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from ..text_metrics import BLEU_ORDERS
from .buffer import BufferCriterion


class SilVariant(str, Enum):
    # indirect: buffer shapes an extra reward on current samples
    WSIL_I = "wsil_i"
    # direct: buffer sequences replayed as pseudo-samples with clamped advantages
    WSIL_D = "wsil_d"
    # ablations that swap the transport machinery for mean-embedding matching
    SIL_I_NOW = "sil_i_now"
    SIL_D_NOW = "sil_d_now"


class BaselineMode(str, Enum):
    CONSTANT = "constant"  # running mean of sampled rewards
    GREEDY = "greedy"  # reward of the greedy-decoded sequence


@dataclass(frozen=True)
class Schedule:
    """Self-imitation frequency as a ratio of SIL updates per RL update.

    The ratio ramps linearly from ``initial`` to ``final`` over
    ``ramp_steps`` loop iterations (``ramp_steps == 0`` applies ``final``
    immediately). The trainer walks the schedule with exact rational
    arithmetic, so the realized update mix is reproducible with no float
    drift.
    """

    initial: float = 0.1
    final: float = 1.0
    ramp_steps: int = 1000

    def __post_init__(self):
        if not 0 <= self.initial < math.inf:
            raise ValueError("initial must be finite and >= 0")
        if not 0 <= self.final < math.inf:
            raise ValueError("final must be finite and >= 0")
        if self.ramp_steps < 0:
            raise ValueError("ramp_steps must be >= 0")


ZERO_SCHEDULE = Schedule(0.0, 0.0, 0)


@dataclass(frozen=True)
class SilConfig:
    """Everything one training run needs beyond the env and the policy."""

    lambda_sil: float = 0.1
    k: int = 5
    k_prime: int = 5
    schedule: Schedule = field(default_factory=Schedule)
    baseline_mode: BaselineMode = BaselineMode.CONSTANT
    variant: SilVariant = SilVariant.WSIL_I
    learning_rate: float = 0.05
    seed: int = 0
    baseline_decay: float = 0.9
    buffer_capacity: int | None = None  # default: 64 unconditional, 5 per condition
    buffer_criterion: BufferCriterion = BufferCriterion.REWARD
    buffer_dedupe: bool = True
    pretrain: bool = True
    pretrain_smoothing: float = 1.0
    bleu_order: int = 2

    def __post_init__(self):
        if not 0 <= self.lambda_sil < math.inf:
            raise ValueError("lambda_sil must be finite and >= 0")
        if self.k < 1 or self.k_prime < 1:
            raise ValueError("k and k_prime must be >= 1")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must lie in [0, 1)")
        if not 0 < self.pretrain_smoothing < math.inf:
            raise ValueError("pretrain_smoothing must be finite and positive")
        if self.bleu_order not in BLEU_ORDERS:
            raise ValueError(f"bleu_order must be one of {BLEU_ORDERS}, got {self.bleu_order}")
