"""``key = value`` run configuration files and their translation into a
training setup (environment, policy, self-imitation config, step count).

Lines are ``key = value`` with ``#`` comments; keys are case-insensitive.
Errors always name the offending key (and line), because the CLI surfaces
them verbatim with exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ot_core import IpotConfig
from .sil_rl.buffer import BufferCriterion
from .sil_rl.config import BaselineMode, Schedule, SilConfig, SilVariant
from .sil_rl.envs import ToyEnv
from .sil_rl.policy import Policy, PolicyKind


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending key."""


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


_ENV_KINDS = ("markov", "overlap", "conditional")

# Keys that configure one environment kind and mean nothing to the others.
_ENV_ONLY_KEYS = {"conditions": "conditional", "oracle_concentration": "markov"}

_KEYS = {
    "steps": int,
    "seed": int,
    "env": str,
    "vocab_size": int,
    "horizon": int,
    "env_seed": int,
    "oracle_concentration": float,
    "reference_count": int,
    "conditions": int,
    "policy": str,
    "temperature": float,
    "variant": str,
    "lambda_sil": float,
    "k": int,
    "k_prime": int,
    "learning_rate": float,
    "sil_initial": float,
    "sil_final": float,
    "sil_ramp_steps": int,
    "baseline": str,
    "baseline_decay": float,
    "buffer_capacity": int,
    "buffer_criterion": str,
    "buffer_dedupe": bool,
    "pretrain": bool,
    "pretrain_smoothing": float,
    "bleu_order": int,
    "gamma": float,
    "outer_iters": int,
    "inner_sinkhorn_iters": int,
    "feasibility_tol": float,
}

_REQUIRED = ("steps", "vocab_size", "horizon")


def _convert(key: str, raw: str):
    kind = _KEYS[key]
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {raw!r}") from None


def _enum(key: str, raw: str, enum_cls):
    try:
        return enum_cls(raw.lower())
    except ValueError:
        options = sorted(e.value for e in enum_cls)
        raise ConfigError(f"key {key!r}: expected one of {options}, got {raw!r}") from None


@dataclass(frozen=True)
class TrainingSetup:
    env: ToyEnv
    policy: Policy
    sil: SilConfig
    steps: int
    resolved: dict


def build_training_setup(raw_values: dict[str, str]) -> TrainingSetup:
    """Validate, default, and materialize a parsed config."""
    for key in raw_values:
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
    for key in _REQUIRED:
        if key not in raw_values:
            raise ConfigError(f"missing required key {key!r}")
    values = {k: _convert(k, v) for k, v in raw_values.items()}

    def get(key, default):
        return values.get(key, default)

    seed = get("seed", 0)
    steps = values["steps"]
    if steps < 1:
        raise ConfigError("key 'steps': must be >= 1")

    env_name = get("env", "markov").lower()
    if env_name not in _ENV_KINDS:
        raise ConfigError(f"key 'env': expected one of {sorted(_ENV_KINDS)}, got {env_name!r}")
    for key, owner in _ENV_ONLY_KEYS.items():
        if key in values and env_name != owner:
            raise ConfigError(f"key {key!r}: applies only to env = {owner}, got env = {env_name}")
    conditions = get("conditions", 4) if env_name == "conditional" else 0
    if env_name == "conditional" and conditions < 1:
        raise ConfigError(f"key 'conditions': env = conditional needs at least 1, got {conditions}")
    env_seed = get("env_seed", seed)
    policy_kind = _enum("policy", get("policy", "tabular"), PolicyKind)
    # The constructors own their range checks; their ValueErrors name the key.
    try:
        ot = IpotConfig(
            gamma=get("gamma", IpotConfig.gamma),
            outer_iters=get("outer_iters", IpotConfig.outer_iters),
            inner_sinkhorn_iters=get("inner_sinkhorn_iters", IpotConfig.inner_sinkhorn_iters),
            feasibility_tol=get("feasibility_tol", IpotConfig.feasibility_tol),
        )
        if env_name == "markov":
            env = ToyEnv.markov(
                values["vocab_size"],
                values["horizon"],
                seed=env_seed,
                concentration=get("oracle_concentration", 0.3),
                reference_count=get("reference_count", 16),
                ot_config=ot,
            )
        else:
            env = ToyEnv.overlap(
                values["vocab_size"],
                values["horizon"],
                seed=env_seed,
                reference_count=get("reference_count", 8),
                conditions=conditions,
                ot_config=ot,
            )
        make_policy = Policy.tabular if policy_kind is PolicyKind.TABULAR else Policy.linear
        policy = make_policy(env.vocab_size, env.horizon, get("temperature", 1.0))
        sil = SilConfig(
            lambda_sil=get("lambda_sil", 0.1),
            k=get("k", 5),
            k_prime=get("k_prime", 5),
            schedule=Schedule(
                initial=get("sil_initial", 0.1),
                final=get("sil_final", 1.0),
                ramp_steps=get("sil_ramp_steps", max(steps // 2, 1)),
            ),
            baseline_mode=_enum("baseline", get("baseline", "constant"), BaselineMode),
            variant=_enum("variant", get("variant", "wsil_i"), SilVariant),
            learning_rate=get("learning_rate", 0.05),
            seed=seed,
            baseline_decay=get("baseline_decay", 0.9),
            buffer_capacity=values.get("buffer_capacity"),
            buffer_criterion=_enum("buffer_criterion", get("buffer_criterion", "reward"), BufferCriterion),
            buffer_dedupe=get("buffer_dedupe", True),
            pretrain=get("pretrain", True),
            pretrain_smoothing=get("pretrain_smoothing", 1.0),
            bleu_order=get("bleu_order", 2),
            ot=ot,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if sil.pretrain and not any(env.references.values()):
        raise ConfigError("key 'reference_count': pretrain = true needs at least 1 reference, got 0")

    resolved = dict(sorted(values.items()))
    resolved.setdefault("env", env_name)
    resolved.setdefault("seed", seed)
    return TrainingSetup(env=env, policy=policy, sil=sil, steps=steps, resolved=resolved)
