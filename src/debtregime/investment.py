"""Bounds on stabilizing growth investment and the quadratic allocation
problem over sectors.

Upper bounds: arithmetic (tolerated deterioration), internal funding from the
repression dividend, and the safe-corridor margin.  Lower bounds: static
requirement, shock buffer, and demographic compensation.  The operational
envelope takes the most conservative of each side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import List, Optional, Sequence, Tuple

from .core import EconState, RegimeParams, _require_finite, _require_integer
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
    upper-triangular: a nonzero entry on or below the diagonal raises
    DomainError, since the objective would not read it.  Coefficients are
    stored as Python floats; `objective` also takes a [J, N] array.
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
                if k <= j and self.gamma_jk[j][k] != 0.0:
                    raise DomainError(f"gamma_jk[{j}][{k}] = {self.gamma_jk[j][k]} is on or "
                                      "below the diagonal; gamma_jk must be upper-triangular")
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
    floor(T_star) periods of each period's `x_max_operational`, floored at
    zero (T_star >= 0; +inf sums every period)."""
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
        total += max(0.0, bnd.x_max_operational)
    return total


def _solve(a: List[List[float]], b: List[float]) -> Optional[List[float]]:
    """Solve a x = b by Gaussian elimination on Python floats, pivoting on the
    first row of largest |entry| and summing left to right; None when a pivot
    is zero."""
    n = len(b)
    m = [row + [v] for row, v in zip(a, b)]
    for c in range(n):
        p, big = c, abs(m[c][c])
        for r in range(c + 1, n):
            if abs(m[r][c]) > big:
                p, big = r, abs(m[r][c])
        if big == 0.0:
            return None
        m[c], m[p] = m[p], m[c]
        piv, tail = m[c][c], m[c][c + 1:]
        for r in range(c + 1, n):
            f = m[r][c] / piv
            m[r][c + 1:] = [u - f * w for u, w in zip(m[r][c + 1:], tail)]
    x = [0.0] * n
    for c in range(n - 1, -1, -1):
        v = m[c][n]
        for k in range(c + 1, n):
            v -= m[c][k] * x[k]
        x[c] = v / m[c][c]
    return x


def _overflow(problem: AllocationProblem) -> DomainError:
    return DomainError(f"the allocation objective is not finite at budget {problem.budget}")


def allocate(problem: AllocationProblem, grid_resolution: int = 40) -> dict:
    """Solve the allocation problem.

    For J <= 3 the exhaustive simplex grid is the authority: every point of
    the grid with grid_resolution + 1 levels per sector whose sum, added
    left to right, is not above budget + 1e-15 is evaluated, in
    `itertools.product` order, as one array.  The leading sums (all
    coordinates but the last) are formed once; float addition is monotone,
    so each leading cell keeps a prefix of the last coordinate's levels,
    whose length `searchsorted` finds and the exact sum test settles.  A
    point replaces the incumbent only if it improves the objective by more
    than 1e-15, so ties resolve to the earliest point in that order (the
    lexicographically smallest).  For J > 3 this is `allocate_ascent`, the
    exact face enumeration (at most 12 sectors).  An objective that is not
    finite at an evaluated point raises `DomainError`.
    """
    _require_integer("grid_resolution", grid_resolution)
    J = problem.n_sectors
    if problem.budget == 0.0:
        x0 = [0.0] * J
        return {"allocation": x0, "objective": problem.objective(x0)}
    if J > 3:
        return allocate_ascent(problem)
    if grid_resolution < 10:
        raise DomainError("grid_resolution must be >= 10 for J <= 3")

    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # overflow: rejected below
        n_lev = grid_resolution + 1
        levels = np.linspace(0.0, problem.budget, n_lev)
        thr = problem.budget + 1e-15
        # the leading cells in product order: their coordinates, and their sums
        # added left to right as in sum(x)
        lead_x = [np.repeat(np.tile(levels, n_lev ** j), n_lev ** (J - 2 - j))
                  for j in range(J - 1)]
        lead = sum(lead_x[1:], lead_x[0]) if J > 1 else np.zeros(1)
        # a point is kept where ~(lead + level > thr): a prefix of the levels
        # per cell, of length `count`
        count = np.searchsorted(levels, thr - lead, side="right")
        while True:  # settle each count against the sum test itself
            up = count < n_lev
            up[up] = ~(lead[up] + levels[count[up]] > thr)
            down = count > 0
            down[down] = lead[down] + levels[count[down] - 1] > thr
            if not (up.any() or down.any()):
                break
            count += up
            count -= down
        n = int(count.sum())
        x = np.empty((J, n))
        for j in range(J - 1):
            x[j] = np.repeat(lead_x[j], count)
        start = np.cumsum(count) - count  # first point of each leading cell
        x[J - 1] = levels[np.arange(n) - np.repeat(start, count)]
        val = problem.objective(x)  # x[j] is row j: one value per point
    if not np.isfinite(val).all():
        raise _overflow(problem)
    # Walk the chain of strict improvements (> incumbent + 1e-15).  Every point
    # before the incumbent is at most incumbent + 1e-15, so the next one is
    # the first point above the threshold, where the running maximum rises:
    # a record.  One pass over the records in order picks the same chain.
    running_max = np.maximum.accumulate(val)
    records = (np.flatnonzero(val[1:] > running_max[:-1]) + 1).tolist()
    best, best_val = 0, float(val[0])
    for i, v in zip(records, val[records].tolist()):
        if v > best_val + 1e-15:
            best, best_val = i, v
    return {"allocation": list(x[:, best]), "objective": val[best]}


def allocate_ascent(problem: AllocationProblem) -> dict:
    """Exact solution by face enumeration (the J > 3 path of `allocate`).

    From the incumbent x = 0, the supports S are walked by size, then in
    `itertools.combinations` order; each solves the budget-tight system
    [[H_SS, -1], [1, 0]] [x_S; lam] = [-mu_S; budget], H the symmetric
    gamma.  A solution with every x_S >= 0 replaces the incumbent only if it
    improves the objective by more than 1e-15, so ties go to the first face
    in the walk.  There are 2^J - 1 systems, so J is capped at 12, and an
    objective that is not finite at a solution raises `DomainError`.
    """
    import numpy as np

    J, g, budget = problem.n_sectors, problem.gamma_jk, problem.budget
    if J > 12:
        raise DomainError(f"allocate_ascent solves at most 12 sectors, got {J}")
    sym = [[g[min(j, k)][max(j, k)] for k in range(J)] for j in range(J)]
    neg_mu = [-m for m in problem.mu_j]
    best_x = [0.0] * J
    best = problem.objective(best_x)
    for S in chain.from_iterable(combinations(range(J), n) for n in range(1, J + 1)):
        H = [[sym[j][k] for k in S] + [-1.0] for j in S]
        sol = _solve(H + [[1.0] * len(S) + [0.0]], [neg_mu[j] for j in S] + [budget])
        if sol is None or not all(v >= 0.0 for v in sol[:-1]):  # sol[-1] is lam
            continue
        at = dict(zip(S, sol))
        x = [at.get(j, 0.0) for j in range(J)]
        val = problem.objective(x)
        if not math.isfinite(val):
            raise _overflow(problem)
        if val > best + 1e-15:
            best_x, best = x, val
    return {"allocation": best_x, "objective": np.float64(best)}  # as the grid returns
