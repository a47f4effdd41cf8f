"""Bounds on stabilizing growth investment and the quadratic allocation
problem over sectors.

Upper bounds: arithmetic (tolerated deterioration), internal funding from the
repression dividend, and the safe-corridor margin.  Lower bounds: static
requirement, shock buffer, and demographic compensation.  The operational
envelope takes the most conservative of each side.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import EconState, RegimeParams, _require_finite
from .errors import DomainError

__all__ = [
    "InvestmentInputs",
    "AllocationProblem",
    "InvestmentBounds",
    "compute_bounds",
    "cumulative_upper_bound",
    "allocate",
]


@dataclass(frozen=True)
class InvestmentInputs:
    """Everything needed for the per-period bound map.

    mu         : aggregate efficiency (growth gain per unit of investment)
    lam        : dividend reinvestment share in (0, 1]
    m          : safety margin inside the corridor (fraction/yr, >= 0)
    delta_bar  : tolerated debt deterioration (fraction of GDP/yr)
    delta_demo : demographic drag range [lo, hi] as fractions/yr
    shock_size : spread deterioration the buffer must absorb (default 1 pp)
    """

    state: EconState
    regime: RegimeParams
    mu: float = 0.05
    lam: float = 0.5
    m: float = 0.0
    delta_bar: float = 0.0
    delta_demo: Tuple[float, float] = (0.005, 0.008)
    shock_size: float = 0.01

    def __post_init__(self):
        for name in ("mu", "lam", "m", "delta_bar", "shock_size"):
            _require_finite(name, getattr(self, name))
        for bound in self.delta_demo:
            _require_finite("delta_demo", bound)
        if self.mu <= 0:
            raise DomainError(f"mu must be > 0, got {self.mu}")
        if not (0 < self.lam <= 1):
            raise DomainError(f"lam must lie in (0, 1], got {self.lam}")
        if self.m < 0:
            raise DomainError(f"m must be >= 0, got {self.m}")
        lo, hi = self.delta_demo
        if lo > hi:
            raise DomainError("delta_demo range must satisfy lo <= hi")


@dataclass(frozen=True)
class AllocationProblem:
    """Quadratic sector-allocation problem.

    Objective: base_surplus + sum_j mu_j*x_j + sum_{j<k} gamma_jk*x_j*x_k,
    maximized over x >= 0 with sum(x) <= budget.  gamma_jk is supplied
    upper-triangular and treated symmetrically in evaluation.  Coefficients
    are stored as Python floats; `objective` also takes a [J, N] array.
    """

    mu_j: Tuple[float, ...]
    gamma_jk: Tuple[Tuple[float, ...], ...] = field(default=None)
    budget: float = 0.01
    base_surplus: float = 0.0

    def __post_init__(self):
        if len(self.mu_j) < 1:
            raise DomainError("need at least one sector")
        if self.budget < 0:
            raise DomainError(f"budget must be >= 0, got {self.budget}")
        J = len(self.mu_j)
        gamma = ((0.0,) * J,) * J if self.gamma_jk is None else self.gamma_jk
        if len(gamma) != J or any(len(row) != J for row in gamma):
            raise DomainError("gamma_jk must be a JxJ array")
        object.__setattr__(self, "mu_j", tuple(float(m) for m in self.mu_j))
        object.__setattr__(self, "gamma_jk", tuple(tuple(float(g) for g in row) for row in gamma))
        for j in range(J):
            _require_finite(f"mu_j[{j}]", self.mu_j[j])
            for k in range(J):
                _require_finite(f"gamma_jk[{j}][{k}]", self.gamma_jk[j][k])
        _require_finite("budget", self.budget)
        _require_finite("base_surplus", self.base_surplus)

    @property
    def n_sectors(self) -> int:
        return len(self.mu_j)

    def objective(self, x: Sequence[float]) -> float:
        J = self.n_sectors
        val = self.base_surplus
        for j in range(J):
            val += self.mu_j[j] * x[j]
        for j in range(J):
            for k in range(j + 1, J):
                val += self.gamma_jk[j][k] * x[j] * x[k]
        return val


@dataclass(frozen=True)
class InvestmentBounds:
    """Per-period bound map; x_max_rd is None when the dividend is inactive
    (epsilon <= 0), reported as absent rather than zero."""

    x_max_arith: float
    x_max_rd: Optional[float]
    x_max_safe: float
    x_max_operational: float
    x_min_static: float
    x_min_shock: float
    x_min_demo_lo: float
    x_min_demo_hi: float
    x_min_operational: float
    feasible: bool


def compute_bounds(inp: InvestmentInputs) -> InvestmentBounds:
    """Evaluate all upper and lower bounds at one operating point.

    The operational upper bound is the minimum of the three uppers (the
    dividend bound drops out when inactive); the operational lower bound is
    the maximum of the static, shock, and high-end demographic requirements.
    """
    st, rg = inp.state, inp.regime
    spread = st.r_n - st.g_n
    burden = st.d - st.s
    corridor = rg.epsilon + rg.g_star + rg.pass_through() - st.pi

    x_max_arith = inp.delta_bar - spread * st.b_prev - st.d
    x_max_rd = inp.lam * rg.epsilon * st.b_prev if rg.epsilon > 0 else None
    x_max_safe = corridor * st.b_prev - burden - inp.m

    uppers = [x_max_arith, x_max_safe]
    if x_max_rd is not None:
        uppers.append(x_max_rd)
    x_max_op = min(uppers)

    x_min_static = max(
        0.0, (st.pi + burden / st.b_prev - (corridor + st.pi) + inp.m) / inp.mu
    )
    x_min_shock = inp.shock_size / inp.mu
    demo_lo = inp.delta_demo[0] / inp.mu
    demo_hi = inp.delta_demo[1] / inp.mu
    x_min_op = max(x_min_static, x_min_shock, demo_hi)

    return InvestmentBounds(
        x_max_arith=x_max_arith,
        x_max_rd=x_max_rd,
        x_max_safe=x_max_safe,
        x_max_operational=x_max_op,
        x_min_static=x_min_static,
        x_min_shock=x_min_shock,
        x_min_demo_lo=demo_lo,
        x_min_demo_hi=demo_hi,
        x_min_operational=x_min_op,
        feasible=x_min_op <= x_max_op,
    )


def cumulative_upper_bound(
    per_period_bounds: Sequence[InvestmentBounds], T_star: float
) -> float:
    """Cumulative envelope over the residual window: sum over the first
    floor(T_star) periods of the per-period operational maximum, floored at
    zero each period (T_star >= 0; +inf sums every period).  An inactive
    dividend bound does not constrain."""
    if len(per_period_bounds) == 0:
        raise DomainError("per-period bound list is empty")
    if not T_star >= 0.0:  # NaN fails too
        raise DomainError(f"T_star must be >= 0, got {T_star!r}")
    periods = len(per_period_bounds) if T_star == math.inf else int(math.floor(T_star))
    if len(per_period_bounds) < periods:
        raise DomainError(
            f"need >= floor(T_star)={periods} periods, got {len(per_period_bounds)}"
        )
    total = 0.0
    for bnd in per_period_bounds[:periods]:
        rd = bnd.x_max_rd if bnd.x_max_rd is not None else math.inf
        total += max(0.0, min(bnd.x_max_arith, rd, bnd.x_max_safe))
    return total


def _project_capped_simplex(x: List[float], budget: float) -> List[float]:
    """Euclidean projection onto {x >= 0, sum(x) <= budget} on Python floats:
    the sort algorithm of Duchi et al. (ICML 2008) in numpy's IEEE operations
    and order (numpy sums up to 7 terms sequentially; `sum` compensates from
    Python 3.12 on)."""
    y = [v if v > 0.0 else 0.0 for v in x]
    if reduce(operator.add, y) <= budget:
        return y
    # the last i with u_i - (css_i - budget)/i > 0 sets theta; i = 1 (which
    # qualifies in exact arithmetic if budget > 0) stands in when none does
    u = sorted(x, reverse=True)
    theta = u[0] - budget
    for i, c in enumerate(accumulate(u), 1):
        if u[i - 1] - (c - budget) / i > 0:
            theta = (c - budget) / i
    return [v - theta if v - theta > 0.0 else 0.0 for v in x]


def _ascent(problem: AllocationProblem, start: List[float], iters: int = 2000) -> List[float]:
    """Projected gradient ascent with backtracking from one start point; the
    gradient stays a BLAS matvec, whose rounding no Python-float sum matches.
    A trial point that projects back onto x ends the ascent: on a convex set
    P(x + s*g) = x for one s > 0 implies it for every s > 0."""
    mu = np.array(problem.mu_j)
    G = np.triu(np.array(problem.gamma_jk), 1)
    G = G + G.T
    x = _project_capped_simplex(start, problem.budget)
    obj = problem.objective(x)
    step = max(problem.budget, 1e-6)
    for _ in range(iters):
        grad = (mu + G @ np.array(x)).tolist()
        moved = False
        s = step
        for _ in range(40):
            cand = _project_capped_simplex([a + s * b for a, b in zip(x, grad)], problem.budget)
            if cand == x:
                break
            cand_obj = problem.objective(cand)
            if cand_obj > obj + 1e-15:
                x, obj, moved = cand, cand_obj, True
                break
            s *= 0.5
        if not moved:
            break
    return x


def allocate(problem: AllocationProblem, grid_resolution: int = 40) -> dict:
    """Solve the allocation problem.

    For J <= 3 the exhaustive simplex grid is the authority: every point of
    the grid with grid_resolution + 1 levels per sector and sum(x) <=
    budget is evaluated, in `itertools.product` order, as one array.  A
    point replaces the incumbent only if it improves the objective by more
    than 1e-15, so ties resolve to the earliest point in that order (the
    lexicographically smallest).  For J > 3 this is `allocate_ascent`.
    """
    J = problem.n_sectors
    if problem.budget == 0.0:
        x0 = [0.0] * J
        return {"allocation": x0, "objective": problem.objective(x0)}
    if J > 3:
        return allocate_ascent(problem)
    if grid_resolution < 10:
        raise DomainError("grid_resolution must be >= 10 for J <= 3")

    levels = np.linspace(0.0, problem.budget, grid_resolution + 1)
    total = levels.reshape((-1,) + (1,) * (J - 1))
    for j in range(1, J):
        total = total + levels.reshape((-1,) + (1,) * (J - 1 - j))
    # np.nonzero walks the grid in C order, which is the product order
    x = levels[np.array(np.nonzero(~(total > problem.budget + 1e-15)))]
    val = problem.objective(x)  # x[j] is row j: one value per point
    # Walk the chain of strict improvements (> incumbent + 1e-15).  Every point
    # before the incumbent is at most incumbent + 1e-15, so the first later
    # point above the threshold is the first index where the running maximum
    # passes it.
    running_max = np.maximum.accumulate(val)
    best = 0
    while True:
        nxt = int(np.searchsorted(running_max, val[best] + 1e-15, side="right"))
        if nxt == len(val):
            break
        best = nxt
    return {"allocation": list(x[:, best]), "objective": val[best]}


def allocate_ascent(problem: AllocationProblem) -> dict:
    """Multi-start projected-ascent solution (the J > 3 path of `allocate`):
    from zero, the equal split and each vertex, keep the best end point."""
    J = problem.n_sectors
    starts = [[0.0] * J, [problem.budget / J] * J]
    for j in range(J):
        e = [0.0] * J
        e[j] = problem.budget
        starts.append(e)
    best_x, best_obj = None, -math.inf
    for s in starts:
        x = _ascent(problem, s)
        val = problem.objective(x)
        if val > best_obj:
            best_x, best_obj = x, val
    return {"allocation": best_x, "objective": np.float64(best_obj)}  # as the grid returns
