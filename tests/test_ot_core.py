from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqot.embeddings import build_cost_matrix
from seqot.ot_core import (
    EPSILON_FLOOR,
    IpotConfig,
    NonFiniteCostError,
    OracleTooLargeError,
    TransportPlan,
    exact_ot_oracle,
    ipot_solve,
    marginal_violation,
)
from seqot.sil_rl import basis_embedding_table


class TestIpotExamples:
    def test_swap_cost_matrix(self):
        plan = ipot_solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert plan.cost == pytest.approx(0.0, abs=1e-3)
        assert np.allclose(plan.values, np.diag([0.5, 0.5]), atol=1e-3)

    def test_column_forced_half_mass(self):
        plan = ipot_solve(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert plan.cost == pytest.approx(0.5, abs=1e-3)

    def test_all_zero_cost_is_exactly_zero(self):
        plan = ipot_solve(np.zeros((3, 3)))
        assert plan.cost == 0.0
        assert marginal_violation(plan) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteCostError):
            ipot_solve(np.array([[0.0, np.nan], [1.0, 0.0]]))
        with pytest.raises(NonFiniteCostError):
            ipot_solve(np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_negative_costs_match_assignment(self):
        optimize = pytest.importorskip("scipy.optimize")
        cost = -200 * np.random.default_rng(5).uniform(0, 2, (5, 5))
        plan = ipot_solve(cost)
        rows, cols = optimize.linear_sum_assignment(cost)
        assert plan.converged
        assert plan.cost == pytest.approx(cost[rows, cols].mean(), abs=1e-6)

    def test_rectangular_marginals(self):
        rng = np.random.default_rng(0)
        plan = ipot_solve(rng.uniform(0, 2, (3, 5)))
        assert plan.values.sum(axis=1) == pytest.approx(np.full(3, 1 / 3), abs=1e-6)
        assert plan.values.sum(axis=0) == pytest.approx(np.full(5, 1 / 5), abs=1e-6)
        assert marginal_violation(plan) < 1e-5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IpotConfig(gamma=0.0)
        with pytest.raises(ValueError):
            IpotConfig(outer_iters=0)
        with pytest.raises(ValueError):
            IpotConfig(inner_sinkhorn_iters=0)
        with pytest.raises(ValueError):
            IpotConfig(gamma=np.inf)
        with pytest.raises(ValueError):
            IpotConfig(feasibility_tol=np.inf)


class TestOracle:
    def test_zero_diagonal(self):
        cost, plan = exact_ot_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert cost == 0.0
        assert np.array_equal(plan.values, np.diag([0.5, 0.5]))

    def test_anti_diagonal(self):
        cost, plan = exact_ot_oracle(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert cost == 0.0
        assert np.array_equal(plan.values, [[0.0, 0.5], [0.5, 0.0]])

    def test_random_4x4_matches_solver(self):
        rng = np.random.default_rng(42)
        cost_matrix = rng.uniform(0, 1, (4, 4))
        oracle_cost, _ = exact_ot_oracle(cost_matrix)
        assert ipot_solve(cost_matrix).cost == pytest.approx(oracle_cost, abs=1e-3)

    def test_too_large(self):
        with pytest.raises(OracleTooLargeError):
            exact_ot_oracle(np.zeros((9, 9)))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            exact_ot_oracle(np.zeros((2, 3)))


class TestMarginalViolation:
    def test_exact_feasible_plan(self):
        _, plan = exact_ot_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert marginal_violation(plan) == 0.0

    def test_all_zero_plan(self):
        plan = TransportPlan(values=np.zeros((2, 2)), cost=0.0, converged=False, iterations_used=0)
        assert marginal_violation(plan) == 2.0

    def test_solver_plan_small_violation(self):
        rng = np.random.default_rng(5)
        plan = ipot_solve(rng.uniform(0, 2, (5, 5)))
        assert marginal_violation(plan) < 1e-5


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_oracle_equivalence(self, n, seed):
        cost_matrix = np.random.default_rng(seed).uniform(0, 2, (n, n))
        oracle_cost, _ = exact_ot_oracle(cost_matrix)
        assert abs(ipot_solve(cost_matrix).cost - oracle_cost) <= 1e-3

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_cost_lower_bound(self, n, seed):
        cost_matrix = np.random.default_rng(seed).uniform(0, 2, (n, n))
        oracle_cost, _ = exact_ot_oracle(cost_matrix)
        assert ipot_solve(cost_matrix).cost >= oracle_cost - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    def test_scale_equivariance(self, n, seed, alpha):
        cost_matrix = np.random.default_rng(seed).uniform(0, 2, (n, n))
        base = ipot_solve(cost_matrix)
        config = IpotConfig(gamma=IpotConfig.gamma * alpha)
        scaled = ipot_solve(alpha * cost_matrix, config)
        assert scaled.cost == pytest.approx(alpha * base.cost, rel=1e-6, abs=1e-12)
        # identical kernel => identical iterates => identical support
        assert np.array_equal(scaled.values > 1e-9, base.values > 1e-9)

    def test_feasibility_reached_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            plan = ipot_solve(rng.uniform(0, 2, (n, n)))
            assert marginal_violation(plan) <= 1e-5
            assert plan.converged

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "transient feasibility rises are intrinsic to the proximal iteration: "
            "while the plan's support reorganizes, a single inner scaling sweep "
            "leaves the rows unbalanced, so the violation trace is not "
            "monotone beyond the first iteration (it is only guaranteed to decay "
            "to tolerance; see test_feasibility_reached_on_random_instances)"
        ),
    )
    def test_monotone_feasibility_literal(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            trace = []
            every_iteration_ipot(rng.uniform(0, 2, (n, n)), IpotConfig(outer_iters=200), trace=trace)
            violations = [v for _, v, _ in trace]
            assert all(b <= a + 1e-9 for a, b in zip(violations[1:], violations[2:]))

    def test_trace_reaches_tolerance_and_formats(self):
        trace = []
        plan = every_iteration_ipot(np.array([[0.0, 1.0], [1.0, 0.0]]), trace=trace)
        assert trace[-1][0] == plan.iterations_used
        assert trace[-1][1] <= 1e-6


def every_iteration_ipot(cost, config=IpotConfig(), trace=None):
    """The solver loop as it was before the stationarity-first stop test:
    the marginal violation is evaluated on every outer iteration."""
    c = np.asarray(cost, dtype=float)
    n, m = c.shape
    sigma = np.full(m, 1.0 / m)
    plan = np.ones((n, m))
    kernel = np.exp((c.min(initial=0.0) - c) / config.gamma)
    violation = np.inf
    used = 0
    for it in range(1, config.outer_iters + 1):
        q = kernel * plan
        for _ in range(config.inner_sinkhorn_iters):
            delta = 1.0 / np.maximum(n * (q @ sigma), EPSILON_FLOOR)
            sigma = 1.0 / np.maximum(m * (q.T @ delta), EPSILON_FLOOR)
        new_plan = delta[:, None] * q * sigma[None, :]
        violation = marginal_violation(new_plan)
        step = float(np.abs(new_plan - plan).max())
        used = it
        if trace is not None:
            trace.append((it, violation, float((new_plan * c).sum())))
        plan = new_plan
        if violation <= config.feasibility_tol and step <= config.feasibility_tol:
            break
    return TransportPlan(
        values=plan,
        cost=float((plan * c).sum()),
        converged=violation <= config.feasibility_tol,
        iterations_used=used,
    )


def basis_table_costs(count, length=8, vocab=8, seed=0):
    """0/1 costs of random token sequences under the toy envs' basis table."""
    table = basis_embedding_table(vocab)
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, vocab, (count, 2, length)).astype(str).tolist()
    return [build_cost_matrix(table, hyp, ref).values for hyp, ref in pairs]


def continuous_costs():
    rng = np.random.default_rng(11)
    out = []
    for size in range(5, 21):
        a, b = rng.standard_normal((2, size, 6))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        out.append(np.clip(1.0 - a @ b.T, 0.0, 2.0))
    return out


def full_step_passes(cost, config):
    """Outer iterations on which the in-place loop runs its full
    ``max|T_new - T|`` pass, replayed from the oracle's iterates: the pass
    is skipped while the witness (the last full pass's argmax, element 0
    before the first) moves by more than ``feasibility_tol``."""
    plans = [np.ones(np.shape(cost))]
    for cap in range(1, every_iteration_ipot(cost, config).iterations_used + 1):
        plans.append(every_iteration_ipot(cost, replace(config, outer_iters=cap)).values)
    witness, passes = 0, []
    for it in range(1, len(plans)):
        if abs(plans[it].flat[witness] - plans[it - 1].flat[witness]) <= config.feasibility_tol:
            passes.append(it)
            witness = np.abs(plans[it] - plans[it - 1]).argmax()
    return passes


class TestStopTestMatchesEveryIterationCheck:
    """Checking feasibility only once the iterates are stationary, and
    stationarity in full only once the witness element has settled, leaves
    the solver's output bit for bit as it was with both checks in full on
    every step."""

    CONVERGING = (
        [(c, IpotConfig()) for c in basis_table_costs(25)]
        + [(c, IpotConfig()) for c in continuous_costs()]
        + [(np.random.default_rng(0).uniform(0, 2, (3, 5)), IpotConfig())]
    )
    CAPPED = [
        # stationary but stuck infeasible at the cap
        (np.random.default_rng(7).uniform(0, 2, (6, 6)), IpotConfig(gamma=0.01)),
        # the kernel underflows and the plan loses mass
        (200 * np.random.default_rng(5).uniform(0, 2, (5, 5)), IpotConfig()),
        # still moving at the cap: feasibility is checked only after the loop
        (np.random.default_rng(3).uniform(0, 2, (4, 4)), IpotConfig(outer_iters=5)),
    ]
    # costs far below zero, whose unshifted kernel would overflow
    NEGATIVE = (-200 * np.random.default_rng(5).uniform(0, 2, (5, 5)), IpotConfig())
    # element 0 settles on step 7 while element 11 still moves, and
    # element 11 settles on step 16 while element 4 still moves
    WITNESS_SETTLES_FIRST = (np.random.default_rng(0).uniform(0, 2, (4, 4)), IpotConfig())
    EDGES = [
        NEGATIVE,
        (np.random.default_rng(1).uniform(0, 2, (1, 1)), IpotConfig()),
        (np.random.default_rng(1).uniform(0, 2, (1, 9)), IpotConfig()),
        (np.random.default_rng(1).uniform(0, 2, (9, 1)), IpotConfig()),
        (np.random.default_rng(2).uniform(0, 2, (6, 6)), IpotConfig(feasibility_tol=1e-12)),
        WITNESS_SETTLES_FIRST,
    ]
    CASES = CONVERGING + CAPPED + EDGES

    @staticmethod
    def assert_same(new, old):
        assert np.array_equal(new.values, old.values, equal_nan=True)
        assert np.array_equal(new.cost, old.cost, equal_nan=True)
        assert (new.converged, new.iterations_used) == (old.converged, old.iterations_used)

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_same_plan_cost_and_stop(self, index):
        cost, config = self.CASES[index]
        with np.errstate(all="ignore"):
            self.assert_same(ipot_solve(cost, config), every_iteration_ipot(cost, config))

    def test_cases_cover_both_outcomes(self):
        assert all(ipot_solve(cost, config).converged for cost, config in self.CONVERGING)
        for cost, config in self.CAPPED:
            plan = ipot_solve(cost, config)
            assert (plan.converged, plan.iterations_used) == (False, config.outer_iters)

    def test_edge_cases_reach_their_edges(self):
        negative = ipot_solve(*self.NEGATIVE)
        assert negative.converged and np.isfinite(negative.values).all()
        assert full_step_passes(*self.WITNESS_SETTLES_FIRST) == [7, 16, 17]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 24),
        st.integers(1, 24),
        st.floats(0.01, 100.0),
        st.floats(0.01, 1.0),
        st.integers(1, 3),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
    )
    def test_same_output_property(self, n, m, scale, gamma, inner, cap, seed):
        cost = scale * np.random.default_rng(seed).uniform(0, 1, (n, m))
        config = IpotConfig(gamma=gamma, inner_sinkhorn_iters=inner, outer_iters=cap)
        with np.errstate(all="ignore"):
            self.assert_same(ipot_solve(cost, config), every_iteration_ipot(cost, config))

    def test_plans_are_fresh_and_cost_untouched(self):
        cost = continuous_costs()[3]
        before = cost.copy()
        first, second = ipot_solve(cost), ipot_solve(cost)
        assert not np.shares_memory(first.values, second.values)
        assert not np.shares_memory(first.values, cost)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(cost, before)
