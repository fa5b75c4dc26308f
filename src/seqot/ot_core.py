"""Discrete optimal transport with uniform marginals.

The solver runs proximal-point iterations: each outer step multiplies the
current plan into an entropic kernel and re-balances it with one Sinkhorn
sweep, which drives the plan to the unregularized optimum. A brute-force
permutation oracle is provided for testing square instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class NonFiniteCostError(ValueError):
    def __init__(self):
        super().__init__("cost matrix contains NaN or Inf entries")


class OracleTooLargeError(ValueError):
    def __init__(self, n: int):
        super().__init__(f"exact oracle enumerates n! permutations; n={n} exceeds the cap of 8")
        self.n = n


#: Every division in the solver clamps its denominator at this floor.
EPSILON_FLOOR = 1e-300
#: The solver stops once the plan is within this of both uniform marginals
#: (L1) and moves by at most this between consecutive outer steps.
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class IpotConfig:
    """Proximal-solver knobs.

    ``gamma`` is the proximal weight (1/gamma is the generalized step
    size). Smaller values sharpen the kernel, which does not by itself
    mean fewer outer steps: on continuous cosine costs, 0.05 took about
    half the steps of the default, but 0.02 took more than 0.05 and left
    some solves unconverged at the cap. ``outer_iters`` caps the steps.
    """

    gamma: float = 0.25
    outer_iters: int = 1000

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.outer_iters < 1:
            raise ValueError(f"outer_iters must be >= 1, got {self.outer_iters}")


DEFAULT_IPOT = IpotConfig()


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative coupling with uniform marginals and its transport cost.

    The ``n`` rows of ``values`` carry mass ``1/n`` and its ``m`` columns
    ``1/m`` (within ``FEASIBILITY_TOL``); ``cost`` is the
    Frobenius product of ``values`` with the cost matrix it was solved
    against. ``converged`` records whether the returned plan met the
    feasibility tolerance (early stop or not); ``iterations_used``
    distinguishes an early stop from exhausting ``outer_iters``.
    """

    values: np.ndarray
    cost: float
    converged: bool
    iterations_used: int


def marginal_violation(plan: TransportPlan | np.ndarray) -> float:
    """L1 sum of the deviations of an ``n x m`` coupling (a plan or a bare
    array) from the uniform row marginal ``1/n`` and column marginal ``1/m``."""
    values = plan.values if isinstance(plan, TransportPlan) else plan
    n, m = values.shape
    total = np.add.reduce
    rows = total(np.abs(total(values, 1) - 1.0 / n))
    cols = total(np.abs(total(values, 0) - 1.0 / m))
    return float(rows + cols)


def ipot_solve(cost: np.ndarray, config: IpotConfig = DEFAULT_IPOT) -> TransportPlan:
    """Solve uniform-marginal OT on ``cost`` by proximal-point iteration.

    Each outer step forms ``Q = exp(-C/gamma) * T`` and re-balances it with
    one row scaling and one column scaling (Algorithm 1 of Xie et al. 2018,
    arXiv 1802.04307); the rebalanced plan becomes the next proximal center.

    The loop runs in place: each solve allocates its work arrays once,
    every step writes into them, and the current and next plan swap
    buffers. On the small problems this library solves, the loop's time is
    per-call overhead rather than arithmetic; the arithmetic is unchanged.

    The stop test reads the stationarity step ``max|T_new - T|`` before the
    marginal violation, which is evaluated only on iterations whose step is
    within ``FEASIBILITY_TOL``, and once after the loop if the last
    iteration skipped it. The full step pass is skipped while one witness
    element (the argmax of the last full pass, element 0 before the first)
    still moves by more than ``FEASIBILITY_TOL``, since the maximum then
    does too. The stop rule, the plan and ``converged`` are the same as
    evaluating both tests in full on every iteration.

    Column-mass invariant, converged or not: every returned plan is
    nonnegative, and each of its columns sums to at most ``1/m`` up to
    rounding, since the last operation is the column scaling ``sigma_j =
    1/max(m * sum_i q_ij delta_i, floor)``; the floor can only lower a
    column's mass. :func:`seqot.seq_match.reward_bound` prunes pairs
    unsolved on this invariant, so a change to the loop must keep it.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValueError(f"cost must be a nonempty 2-D matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NonFiniteCostError()

    n, m = c.shape
    row_count, col_count = np.array(float(n)), np.array(float(m))
    floor = np.array(EPSILON_FLOOR)
    tol = FEASIBILITY_TOL

    # Shifting negative costs up to 0 scales the kernel by a constant,
    # which the Sinkhorn scalings absorb, and keeps exp() from overflowing.
    kernel = np.exp((c.min(initial=0.0) - c) / config.gamma)
    plan = np.ones((n, m))
    new_plan = np.empty((n, m))
    q = np.empty((n, m))
    q_t = q.T
    diff = np.empty((n, m))
    delta = np.empty(n)
    delta_col = delta[:, None]
    sigma = np.full(m, 1.0 / m)

    witness = 0
    violation = None
    for it in range(1, config.outer_iters + 1):
        np.multiply(kernel, plan, out=q)
        q.dot(sigma, out=delta)
        np.multiply(row_count, delta, out=delta)
        np.maximum(delta, floor, out=delta)
        np.reciprocal(delta, out=delta)
        q_t.dot(delta, out=sigma)
        np.multiply(col_count, sigma, out=sigma)
        np.maximum(sigma, floor, out=sigma)
        np.reciprocal(sigma, out=sigma)
        np.multiply(delta_col, q, out=new_plan)
        np.multiply(new_plan, sigma, out=new_plan)
        if abs(new_plan.item(witness) - plan.item(witness)) > tol:
            stationary = False
        else:
            np.subtract(new_plan, plan, out=diff)
            np.abs(diff, out=diff)
            witness = diff.argmax()
            stationary = diff.item(witness) <= tol
        violation = marginal_violation(new_plan) if stationary else None
        plan, new_plan = new_plan, plan
        if stationary and violation <= tol:
            break
    if violation is None:
        violation = marginal_violation(plan)

    return TransportPlan(
        values=plan,
        cost=float(np.multiply(plan, c, out=diff).sum()),
        converged=violation <= tol,
        iterations_used=it,
    )


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
    plan = TransportPlan(values=values, cost=float(best), converged=True, iterations_used=0)
    return float(best), plan
