"""The benchmark's forward-pass reward against the enumeration oracle."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from exact import exact_markov_reward  # noqa: E402
from seqot.sil_rl import Policy, ToyEnv, exact_expected_reward  # noqa: E402


@pytest.mark.parametrize("kind", ["tabular", "linear"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_enumeration(kind, seed):
    env = ToyEnv.markov(vocab_size=3, horizon=4, seed=seed, concentration=0.5)
    policy = getattr(Policy, kind)(3, 4, temperature=0.7)
    policy.params = np.random.default_rng(seed).normal(0.0, 2.0, policy.params.shape)
    exact = exact_markov_reward(policy, env.oracle, env.horizon)
    assert exact == pytest.approx(exact_expected_reward(policy, env), abs=1e-9)
