"""Discrete optimal transport with uniform marginals.

The general solver runs proximal-point iterations: each outer step
multiplies the current plan into an entropic kernel and re-balances it with
one Sinkhorn sweep, which drives the plan to the unregularized optimum.
Square problems are solved exactly by :func:`assignment_solve`: with
uniform marginals their optimum is a permutation scaled by 1/n. It runs on
Python floats: at sentence widths a numpy call costs more than its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonFiniteCostError(ValueError):
    def __init__(self):
        super().__init__("cost matrix contains NaN or Inf entries")


#: Every division in the solver clamps its denominator at this floor.
EPSILON_FLOOR = 1e-300
#: The solver stops once the plan is within this of both uniform marginals
#: (L1) and moves by at most this between consecutive outer steps.
FEASIBILITY_TOL = 1e-6
#: The proximal weight (1/GAMMA is the generalized step size). A weight
#: gamma on costs ``c`` gives the kernel this one gives on ``GAMMA / gamma * c``.
GAMMA = 0.25


@dataclass(frozen=True)
class IpotConfig:
    """The proximal solver's one setting: ``outer_iters``, its step cap.

    The default is a guard against a solve that never stops, about 6x the
    most steps measured, 17226 (a 5x5 instance of acceptance test A1).
    A library caller may set a lower cap; a plan stopped by it is returned
    with ``converged`` False.
    """

    outer_iters: int = 100_000

    def __post_init__(self):
        if self.outer_iters < 1:
            raise ValueError(f"outer_iters must be >= 1, got {self.outer_iters}")


DEFAULT_IPOT = IpotConfig()


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative coupling with uniform marginals and its transport cost.

    The ``n`` rows of ``values`` carry mass ``1/n`` and its ``m`` columns
    ``1/m`` (within ``FEASIBILITY_TOL``); ``cost`` is the
    Frobenius product of ``values`` with the cost matrix it was solved
    against. ``converged`` records whether the stop rule fired: the last
    step moved no entry by more than ``FEASIBILITY_TOL`` and the plan met
    both marginals within it. A plan stopped by ``outer_iters`` is not
    converged, however close to feasible it is.
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

    Each outer step forms ``Q = exp(-C/GAMMA) * T`` and re-balances it with
    one row scaling and one column scaling (Algorithm 1 of Xie et al. 2018,
    arXiv 1802.04307); the rebalanced plan becomes the next proximal center.
    The loop ends when its stop rule fires or after ``config.outer_iters``
    steps, whichever comes first.

    The loop runs in place: each solve allocates its work arrays once,
    every step writes into them, and the current and next plan swap
    buffers. On the small problems this library solves, the loop's time is
    per-call overhead rather than arithmetic; the arithmetic is unchanged.

    The stop test reads the stationarity step ``max|T_new - T|`` before the
    marginal violation, which is evaluated only on iterations whose step is
    within ``FEASIBILITY_TOL``. The full step pass is skipped while one witness
    element (the argmax of the last full pass, element 0 before the first)
    still moves by more than ``FEASIBILITY_TOL``, since the maximum then
    does too. The stop rule, the plan and ``converged`` are the same as
    evaluating both tests in full on every iteration.

    Column-mass invariant, converged or not: every returned plan is
    nonnegative, and each of its columns sums to at most ``1/m`` up to
    rounding, since the last operation is the column scaling ``sigma_j =
    1/max(m * sum_i q_ij delta_i, floor)``; the floor can only lower a
    column's mass.
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
    # The exponent still overflows to -inf where (c - min) / GAMMA passes
    # the largest float. exp(-inf) = 0 is the entry a finite exponent that
    # large would underflow to anyway, so the plan and its cost stay right.
    with np.errstate(over="ignore"):
        kernel = np.exp((c.min(initial=0.0) - c) / GAMMA)
    plan = np.ones((n, m))
    new_plan = np.empty((n, m))
    q = np.empty((n, m))
    q_t = q.T
    diff = np.empty((n, m))
    delta = np.empty(n)
    delta_col = delta[:, None]
    sigma = np.full(m, 1.0 / m)

    witness = 0
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
        plan, new_plan = new_plan, plan
        converged = stationary and marginal_violation(plan) <= tol
        if converged:
            break

    return TransportPlan(
        values=plan,
        cost=float(np.multiply(plan, c, out=diff).sum()),
        converged=converged,
        iterations_used=it,
    )


def assignment_solve(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum-cost assignment on a square matrix: ``(cols, u, v)``.

    Row ``i`` is assigned column ``cols[i]``. The duals certify the
    optimum: ``u[i] + v[j] <= C[i, j]`` on every cell, with equality on the
    assigned cells, so ``sum(u) + sum(v)`` equals the assignment's cost.

    Row reduction sets ``u`` to the row minima and ``v`` to 0. A greedy
    pass then gives each row, in order, the first free column of zero
    reduced cost ``C[i, j] - u[i] - v[j]``. Each row still free is matched
    by a shortest augmenting path over the reduced costs (Dijkstra; Jonker
    & Volgenant 1987), after which the duals move so that every reduced
    cost stays nonnegative and the assigned ones stay zero. Among the
    nearest columns the first is taken, unless a free one ties with it:
    then the first free one is, which ends the search.

    Costs raise ``ValueError`` unless ``8 * n * M`` is finite, where M is
    the largest cost in size; this keeps every path length and dual finite.
    With S = max - min, at most 2M: before each search ``u`` lies in
    [min, max] and ``v`` in [-S, 0], since a column still free has ``v = 0``
    and no reduced cost is negative. A search's path lengths are at most S
    once scanned (the direct step from its row to a free column costs at
    most S) and 3S before; each term of a relaxation is at most M + S in
    size; and the dual moves leave ``u <= max + S`` and ``v >= -2S``. So
    every value is at most M + 3S <= 7M in size, and the assignment's cost
    and the duals' sums at most n times that; the eighth M is room for
    rounding. A bound on ``n * S`` alone is not enough: on costs near the
    float limit, ``low - u[i]`` can overflow.

    It runs on Python floats, since at sentence widths a numpy call per
    Dijkstra step costs more than its arithmetic. On uniform costs (one
    core, 2-vCPU x86 host) a numpy form of the same steps took 3.5x as
    long at n = 4, 3.1x at 8 and 2.3x at 16; the two are even at about
    n = 75, above which this form is slower (0.66x at n = 120).
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise ValueError(f"assignment needs a nonempty square matrix, got shape {c.shape}")
    size = float(np.abs(c).max())
    if not math.isfinite(size):
        raise NonFiniteCostError()
    n = len(c)
    if not math.isfinite(8 * n * size):
        raise ValueError(f"assignment costs up to {size!r} in size are too large to solve in floats at n = {n}")
    return tuple(map(np.array, assign_rows(c.tolist())))


def assign_rows(c: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    """:func:`assignment_solve` on a square list of rows of floats, as lists,
    with none of its checks: the caller vouches that the costs are finite
    and that ``8 * n * M`` is too."""
    n = len(c)
    u = [min(row) for row in c]
    v = [0.0] * n
    col_of = [-1] * n
    row_of = [-1] * n
    for i, row in enumerate(c):
        for j, x in enumerate(row):
            if x == u[i] and row_of[j] < 0:
                col_of[i] = j
                row_of[j] = i
                break
    free_cols = [j for j in range(n) if row_of[j] < 0]

    for start in [i for i in range(n) if col_of[i] < 0]:
        dist = [math.inf] * n  # path length to each column, in reduced costs
        pred = [start] * n  # the row each column is reached from
        todo = list(range(n))  # the unscanned columns, in index order
        scanned = []
        i, low = start, 0.0
        while True:
            row, base = c[i], low - u[i]
            for j in todo:
                reach = row[j] - v[j] + base
                if reach < dist[j]:
                    dist[j] = reach
                    pred[j] = i
            j = min(todo, key=dist.__getitem__)
            low = dist[j]
            if row_of[j] >= 0:
                for k in free_cols:
                    if dist[k] == low:
                        j = k
                        break
            todo.remove(j)
            scanned.append(j)
            i = row_of[j]
            if i < 0:
                break
        u[start] += low
        for k in scanned:
            v[k] -= low - dist[k]
        for k in scanned[:-1]:  # the columns held by a row
            u[row_of[k]] += low - dist[k]
        free_cols.remove(j)
        while True:  # flip the path's edges, from the free column back to start
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of, u, v


def exact_ot_oracle(cost: np.ndarray) -> tuple[float, TransportPlan]:
    """Exact uniform-marginal OT on a square matrix: its optimal cost and plan.

    A square OT polytope with uniform marginals attains its optimum at a
    vertex, and those vertices are the n! permutation matrices scaled by
    1/n (Birkhoff), so the optimum is the :func:`assignment_solve` one.
    """
    c = np.asarray(cost, dtype=float)
    cols = assignment_solve(c)[0]
    n = len(cols)
    rows = np.arange(n)
    values = np.zeros((n, n))
    values[rows, cols] = 1.0 / n
    best = float(c[rows, cols].sum() / n)
    return best, TransportPlan(values=values, cost=best, converged=True, iterations_used=0)
