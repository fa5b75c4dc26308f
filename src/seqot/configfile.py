"""``key = value`` run configuration files and their translation into a
training setup (environment, policy, self-imitation config, step count).

Lines are ``key = value`` with ``#`` comments; keys are case-insensitive.
``_KEYS`` gives each key its type and the constructor argument it fills;
only the keys a file sets are passed on, so the constructors own every
default but the five of the file format (see ``build_training_setup``).
Errors always name the offending key (and line), because the CLI surfaces
them verbatim with exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .sil_rl.buffer import BufferCriterion
from .sil_rl.config import BaselineMode, Schedule, SilConfig, SilVariant
from .sil_rl.envs import RewardKind, ToyEnv
from .sil_rl.policy import Policy, PolicyKind


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending key."""


def parse_config_text(text: str) -> dict[str, str]:
    """Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, as in every input file."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
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


# key -> (type, "target.argument" it fills). The "setup" arguments belong to
# the file format; "env" is the ToyEnv constructor, "policy" Policy.uniform,
# "sil" SilConfig and "schedule" its Schedule.
_KEYS = {
    "steps": (int, "setup.steps"),
    "seed": (int, "sil.seed"),
    "env": (RewardKind, "setup.env"),
    "vocab_size": (int, "env.vocab_size"),
    "horizon": (int, "env.horizon"),
    "env_seed": (int, "env.seed"),
    "oracle_concentration": (float, "env.concentration"),
    "reference_count": (int, "env.reference_count"),
    "conditions": (int, "env.conditions"),
    "policy": (PolicyKind, "policy.kind"),
    "temperature": (float, "policy.temperature"),
    "variant": (SilVariant, "sil.variant"),
    "lambda_sil": (float, "sil.lambda_sil"),
    "k": (int, "sil.k"),
    "k_prime": (int, "sil.k_prime"),
    "learning_rate": (float, "sil.learning_rate"),
    "sil_initial": (float, "schedule.initial"),
    "sil_final": (float, "schedule.final"),
    "sil_ramp_steps": (int, "schedule.ramp_steps"),
    "baseline": (BaselineMode, "sil.baseline_mode"),
    "buffer_capacity": (int, "sil.buffer_capacity"),
    "buffer_criterion": (BufferCriterion, "sil.buffer_criterion"),
    "pretrain": (bool, "sil.pretrain"),
    "bleu_order": (int, "sil.bleu_order"),
}
_KEY_OF = {dest: key for key, (_, dest) in _KEYS.items()}

# key -> (setting, value): the key does something only when that setting
# (as set, or as defaulted by its owner) has that value.
_APPLIES_ONLY = {
    "conditions": ("env", RewardKind.CONDITIONAL),
    "oracle_concentration": ("env", RewardKind.MARKOV),
    "bleu_order": ("buffer_criterion", BufferCriterion.F1_BLEU),
}

# key -> the values under which training reads the environment's reference
# set, so an environment without references cannot run them.
_READS_REFERENCES = {
    "pretrain": (True,),
    "variant": (SilVariant.WSIL_D, SilVariant.SIL_D_NOW),
    "buffer_criterion": (BufferCriterion.F1_BLEU, BufferCriterion.REFERENCE_REWARD),
}


def _convert(key: str, raw: str):
    kind = _KEYS[key][0]
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on", "false", "no", "0", "off"):
            return lowered in ("true", "yes", "1", "on")
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    is_enum = issubclass(kind, Enum)
    try:
        return kind(raw.lower() if is_enum else raw)
    except ValueError:
        expected = f"one of {sorted(e.value for e in kind)}" if is_enum else kind.__name__
        raise ConfigError(f"key {key!r}: expected {expected}, got {raw!r}") from None


def _show(value) -> str:
    return value.value if isinstance(value, Enum) else str(value).lower()


def _make(target: str, constructor, args: dict, **fixed):
    """``constructor(**fixed, **args[target])``. Constructors name the
    argument at fault first in their ValueErrors; the ConfigError names its
    key instead."""
    try:
        return constructor(**fixed, **args[target])
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(str(exc).replace(name, _KEY_OF.get(f"{target}.{name}", name), 1)) from exc


@dataclass(frozen=True)
class TrainingSetup:
    env: ToyEnv
    policy: Policy
    sil: SilConfig
    steps: int
    resolved: dict


def build_training_setup(raw_values: dict[str, str]) -> TrainingSetup:
    """Validate a parsed config and build what it describes. The file format
    owns five defaults: ``env = markov``, ``seed = 0``, ``env_seed = seed``,
    ``sil_ramp_steps = max(steps // 2, 1)`` and ``conditions = 4`` under
    ``env = conditional``. A key its other settings make inert is an error,
    and so is a setting that reads the reference set of an environment that
    has none."""
    for key in raw_values:
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
    for key in ("steps", "vocab_size", "horizon"):
        if key not in raw_values:
            raise ConfigError(f"missing required key {key!r}")
    values = {k: _convert(k, v) for k, v in raw_values.items()}
    steps = values["steps"]
    if steps < 1:
        raise ConfigError("key 'steps': must be >= 1")

    resolved = dict(sorted(values.items()))
    resolved.setdefault("env", RewardKind.MARKOV)
    resolved.setdefault("seed", 0)
    args: dict[str, dict] = {target: {} for target in ("setup", "env", "policy", "sil", "schedule")}
    for key, value in resolved.items():
        target, _, name = _KEYS[key][1].partition(".")
        args[target][name] = value
    env_kind = resolved["env"]
    args["env"].setdefault("seed", resolved["seed"])
    args["schedule"].setdefault("ramp_steps", max(steps // 2, 1))
    if env_kind is RewardKind.CONDITIONAL and args["env"].setdefault("conditions", 4) < 1:
        raise ConfigError(f"key 'conditions': env = conditional needs at least 1, got {args['env']['conditions']}")

    sil = _make("sil", SilConfig, args, schedule=_make("schedule", Schedule, args))
    settings = {"setup": args["setup"], "sil": vars(sil)}
    for key, (setting, needed) in _APPLIES_ONLY.items():
        target, _, name = _KEYS[setting][1].partition(".")
        if key in values and settings[target][name] != needed:
            raise ConfigError(f"key {key!r}: applies only to {setting} = {_show(needed)}, "
                              f"got {setting} = {_show(settings[target][name])}")
    env = _make("env", ToyEnv.markov if env_kind is RewardKind.MARKOV else ToyEnv.overlap, args)
    policy = _make("policy", Policy.uniform, args, vocab_size=env.vocab_size, horizon=env.horizon)
    for key, readers in _READS_REFERENCES.items():
        value = settings["sil"][_KEYS[key][1].partition(".")[2]]
        if value in readers and not any(env.references.values()):
            raise ConfigError(f"key 'reference_count': {key} = {_show(value)} needs at least 1 reference, got 0")
    return TrainingSetup(env=env, policy=policy, sil=sil, steps=steps, resolved=resolved)
