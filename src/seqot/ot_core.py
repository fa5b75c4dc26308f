"""Discrete optimal transport with uniform marginals.

The solver runs proximal-point iterations: each outer step multiplies the
current plan into an entropic kernel and re-balances it with inner Sinkhorn
sweeps, which drives the plan to the unregularized optimum. A brute-force
permutation oracle is provided for testing square instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class NonFiniteCostError(ValueError):
    def __init__(self):
        super().__init__("cost matrix contains NaN or Inf entries")


class OracleTooLargeError(ValueError):
    def __init__(self, n: int):
        super().__init__(f"exact oracle enumerates n! permutations; n={n} exceeds the cap of 8")
        self.n = n


@dataclass(frozen=True)
class IpotConfig:
    """Proximal-solver knobs.

    ``gamma`` is the proximal weight (1/gamma is the generalized step
    size); smaller values sharpen the kernel and converge in fewer outer
    steps on bounded costs. One inner Sinkhorn sweep per outer step is the
    conventional choice. The solver stops early once the plan is feasible
    within ``feasibility_tol`` *and* stationary between consecutive outer
    steps; all divisions clamp denominators at ``epsilon_floor``.
    """

    gamma: float = 0.25
    outer_iters: int = 1000
    inner_sinkhorn_iters: int = 1
    feasibility_tol: float = 1e-6
    epsilon_floor: float = 1e-300

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if self.inner_sinkhorn_iters < 1:
            raise ValueError("inner_sinkhorn_iters must be >= 1")
        if not self.feasibility_tol > 0:
            raise ValueError("feasibility_tol must be positive")
        if not self.epsilon_floor > 0:
            raise ValueError("epsilon_floor must be positive")


DEFAULT_IPOT = IpotConfig()


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling with uniform marginals and its transport cost.

    Rows carry mass ``1/n`` and columns ``1/m`` (within the solver's
    feasibility tolerance); ``cost`` is the Frobenius product of ``values``
    with the cost matrix it was solved against. ``converged`` records
    whether the returned plan met the feasibility tolerance (early stop or
    not); ``iterations_used`` distinguishes an early stop from exhausting
    ``outer_iters``.
    """

    values: np.ndarray
    row_marginal: float
    col_marginal: float
    cost: float
    converged: bool
    iterations_used: int

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())


def marginal_violation(plan: TransportPlan | np.ndarray) -> float:
    """L1 sum of row- and column-marginal deviations of ``plan``; a bare
    ``n x m`` coupling is measured against the uniform ``1/n`` and ``1/m``."""
    if isinstance(plan, TransportPlan):
        values, row, col = plan.values, plan.row_marginal, plan.col_marginal
    else:
        values, row, col = plan, 1.0 / plan.shape[0], 1.0 / plan.shape[1]
    rows = np.abs(values.sum(axis=1) - row).sum()
    cols = np.abs(values.sum(axis=0) - col).sum()
    return float(rows + cols)


def ipot_solve(
    cost: np.ndarray,
    config: IpotConfig = DEFAULT_IPOT,
    trace: list | None = None,
) -> TransportPlan:
    """Solve uniform-marginal OT on ``cost`` by proximal-point iteration.

    Each outer step forms ``Q = exp(-C/gamma) * T`` and re-balances it with
    ``inner_sinkhorn_iters`` row/column scalings; the rebalanced plan
    becomes the next proximal center. If ``trace`` is a list, one
    ``(iteration, marginal_violation, cost)`` tuple is appended per outer
    step.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValueError(f"cost must be a nonempty 2-D matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NonFiniteCostError()

    n, m = c.shape
    row_marginal = 1.0 / n
    col_marginal = 1.0 / m
    floor = config.epsilon_floor

    sigma = np.full(m, col_marginal)
    plan = np.ones((n, m))
    kernel = np.exp(-c / config.gamma)

    violation = np.inf
    used = 0
    for it in range(1, config.outer_iters + 1):
        q = kernel * plan
        for _ in range(config.inner_sinkhorn_iters):
            delta = 1.0 / np.maximum(n * (q @ sigma), floor)
            sigma = 1.0 / np.maximum(m * (q.T @ delta), floor)
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
        row_marginal=row_marginal,
        col_marginal=col_marginal,
        cost=float((plan * c).sum()),
        converged=violation <= config.feasibility_tol,
        iterations_used=used,
    )


def trace_lines(trace: list) -> list[str]:
    """Render a solver trace as ``iter,violation,cost`` lines."""
    return [f"{it},{violation!r},{cost!r}" for it, violation, cost in trace]


def exact_ot_oracle(cost: np.ndarray) -> tuple[float, TransportPlan]:
    """Exact uniform-marginal OT on a square matrix by permutation search.

    Valid because a square OT polytope with uniform marginals attains its
    optimum at a vertex, and those vertices are the n! permutation matrices
    scaled by 1/n. Capped at n <= 8.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"oracle requires a square matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NonFiniteCostError()
    n = c.shape[0]
    if n > 8:
        raise OracleTooLargeError(n)

    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(c[i, perm[i]] for i in range(n))
        if total < best_cost:
            best_cost = total
            best_perm = perm

    values = np.zeros((n, n))
    for i, j in enumerate(best_perm):
        values[i, j] = 1.0 / n
    best = best_cost / n
    plan = TransportPlan(
        values=values,
        row_marginal=1.0 / n,
        col_marginal=1.0 / n,
        cost=float(best),
        converged=True,
        iterations_used=0,
    )
    return float(best), plan
