"""Two-layer domestic bond demand and the complementarity pricing of the
sovereign premium, plus the hard-core law of motion, feedback-gain
diagnostics, forward simulation, and the stationary-point scan.

The premium rho solves 0 <= rho  _|_  demand(rho) - phi_req >= 0:
either zero-premium demand covers the requirement (rho = 0), or rho rises
until the contestable margin fills the gap, or no premium can (hard
de-captivation).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .core import EconState, _require_finite, _require_integer
from .errors import ConfigError, DomainError, ScopeError

__all__ = [
    "MarginDistribution",
    "TwoLayerParams",
    "PremiumSolution",
    "ThetaLaw",
    "demand_at",
    "demand_derivative",
    "solve_premium",
    "solve_premium_bisection",
    "comparative_statics",
    "pe_sensitivities",
    "theta_step",
    "gamma_theta",
    "feedback_gain",
    "monotone_path",
    "perturbation_response",
    "fixed_point_scan",
    "phi_req_affine",
    "zero_premium_boundary_theta",
]

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class MarginDistribution:
    """Captivity-benefit distribution G on [0, c_bar] within the contestable
    margin.  Either uniform or a piecewise-linear CDF through user knots;
    knots must start at c = 0 (an atom 0 <= G(0) < 1 there is allowed: the
    share of the margin with no captivity benefit at all), end at
    (c_bar, 1), and be strictly increasing in both coordinates.  A first
    knot c0 within 1e-15 above 0 extends the atom: G = G(c0) on [0, c0).
    The knots are checked on construction; `validate(c_bar)` checks that the
    last one lies within 1e-12 of c_bar.
    """

    kind: str = "uniform"
    knots: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        # the knots are checked once, here; every margin sets the same
        # attributes in the same order (None on uniform margins), so both
        # kinds share one attribute layout and uniform lookups stay as fast
        cs = None
        if self.kind != "uniform":
            if self.kind != "table":
                raise ConfigError(f"unknown margin distribution kind {self.kind!r}")
            if not self.knots or len(self.knots) < 2:
                raise ConfigError("table CDF needs at least two knots")
            for c, g in self.knots:
                _require_finite("table CDF knot position", c)
                _require_finite("table CDF knot value", g)
            cs = tuple(k[0] for k in self.knots)
            gs = [k[1] for k in self.knots]
            if abs(cs[0]) > 1e-15 or not (0.0 <= gs[0] < 1.0):
                raise ConfigError("table CDF must start at c=0 with 0 <= G(0) < 1")
            if abs(gs[-1] - 1.0) > 1e-12:
                raise ConfigError("table CDF must end at (c_bar, 1)")
            if any(c1 <= c0 for c0, c1 in zip(cs, cs[1:])):
                raise ConfigError("table CDF knot positions must be strictly increasing")
            if any(g1 <= g0 for g0, g1 in zip(gs, gs[1:])):
                raise ConfigError("table CDF values must be strictly increasing")
        object.__setattr__(self, "_cs", cs)  # knot positions, for `bisect`

    def validate(self, c_bar: float) -> None:
        """The one check that needs c_bar: a table's last knot lies within
        1e-12 of it (the knots themselves are checked on construction)."""
        if self._cs is not None and abs(self._cs[-1] - c_bar) > 1e-12:
            raise ConfigError("table CDF must end at (c_bar, 1)")

    def cdf(self, c: float, c_bar: float) -> float:
        if c < 0.0:
            return 0.0
        if c >= c_bar:
            return 1.0
        if self.kind == "uniform":
            return c / c_bar
        cs = self._cs
        i = bisect_left(cs, c)  # the first knot at or above c
        if i == len(cs):
            return 1.0  # between the last knot and c_bar
        if i == 0:
            if c != cs[0]:  # the atom below an offset first knot (NaN: 1.0)
                return self.knots[0][1] if c < cs[0] else 1.0
            i = 1
        (c0, g0), (c1, g1) = self.knots[i - 1], self.knots[i]
        return g0 + (c - c0) / (c1 - c0) * (g1 - g0)

    def cdf_array(self, c: np.ndarray, c_bar: float) -> np.ndarray:
        """`cdf` element by element on an array: the same clamps, the atom
        below the first knot and, on table margins, the same interpolation
        formula on the first knot segment [c0, c1] holding c (not
        `np.interp`, which rounds differently)."""
        import numpy as np

        c = np.asarray(c, dtype=float)
        if self.kind == "uniform":
            return np.clip(c, 0.0, c_bar) / c_bar
        cs = np.array(self._cs)
        gs = np.array([k[1] for k in self.knots])
        n_seg = len(cs) - 1
        seg = np.searchsorted(cs[1:], c)  # first segment with c <= c1
        covered = seg < n_seg
        seg = np.minimum(seg, n_seg - 1)
        dc, dg = cs[1:] - cs[:-1], gs[1:] - gs[:-1]  # segment widths
        inner = np.where(covered, gs[seg] + (c - cs[seg]) / dc[seg] * dg[seg], 1.0)
        inner = np.where(c < cs[0], gs[0], inner)
        return np.where(c < 0.0, 0.0, np.where(c >= c_bar, 1.0, inner))

    def density(self, c: float, c_bar: float) -> float:
        if c < 0.0 or c > c_bar:
            return 0.0
        if self.kind == "uniform":
            return 1.0 / c_bar
        cs = self._cs
        i = bisect_left(cs, c)  # the first knot at or above c, as in `cdf`
        if i == len(cs) or (i == 0 and c != cs[0]):
            return 0.0  # G is flat below the first knot (the atom) and past the last (NaN: 0.0)
        i = max(i, 1)
        (c0, g0), (c1, g1) = self.knots[i - 1], self.knots[i]
        return (g1 - g0) / (c1 - c0)


@dataclass(frozen=True)
class TwoLayerParams:
    """State of the two-layer demand system.

    theta   : hard captive core share in [0, 1]
    psi     : control-rights index in (0, 1]
    z       : outside-option spread (fraction/yr, > 0)
    c_bar   : maximum margin captivity (fraction/yr, > 0)
    phi_req : required domestic absorption share in [0, 1]
    dist    : captivity distribution on the contestable margin
    """

    theta: float = 0.65
    psi: float = 0.97
    z: float = 0.02
    c_bar: float = 0.06
    phi_req: float = 0.85
    dist: MarginDistribution = field(default_factory=MarginDistribution)

    def __post_init__(self):
        for name in ("theta", "psi", "z", "c_bar", "phi_req"):
            _require_finite(name, getattr(self, name))
        if not (0.0 <= self.theta <= 1.0):
            raise DomainError(f"theta must lie in [0, 1], got {self.theta}")
        if not (0.0 < self.psi <= 1.0):
            raise DomainError(f"psi must lie in (0, 1], got {self.psi}")
        if self.z <= 0:
            raise DomainError(f"z must be > 0, got {self.z}")
        if self.c_bar <= 0:
            raise DomainError(f"c_bar must be > 0, got {self.c_bar}")
        if not (0.0 <= self.phi_req <= 1.0):
            raise DomainError(f"phi_req must lie in [0, 1], got {self.phi_req}")
        self.dist.validate(self.c_bar)

    def with_theta(self, theta: float) -> "TwoLayerParams":
        return TwoLayerParams(
            theta=theta, psi=self.psi, z=self.z, c_bar=self.c_bar,
            phi_req=self.phi_req, dist=self.dist,
        )


@dataclass(frozen=True)
class PremiumSolution:
    """Outcome of the complementarity problem.

    case: 'a_interior' (slack demand, rho = 0), 'b_boundary' (knife edge,
    rho = 0), 'c_stress' (rho in (0, z] clears the market), or
    'd_hard_failure' (no premium restores absorption; rho is None).
    """

    case: str
    rho: Optional[float]
    phi_d_at_zero: float
    phi_d_max: float
    slack: float


@dataclass(frozen=True)
class ThetaLaw:
    """Law of motion for the hard captive core.

    theta' = theta - kappa_theta + gamma_theta(eps), clamped to [0, 1].
    The maintenance response is capped-linear: gamma = g0*min(eps, eps_cap)
    for eps > 0 and exactly 0 for eps <= 0, so g0 is the slope on the
    uncapped branch.
    """

    kappa_theta: float = 0.0
    g0: float = 0.0
    eps_cap: float = math.inf

    def __post_init__(self):
        _require_finite("kappa_theta", self.kappa_theta)
        _require_finite("g0", self.g0)
        if math.isnan(self.eps_cap):
            raise DomainError("eps_cap must not be NaN")
        if self.kappa_theta < 0:
            raise DomainError("kappa_theta must be >= 0")
        if self.g0 < 0:
            raise DomainError("g0 must be >= 0")
        if self.eps_cap <= 0:
            raise DomainError("eps_cap must be > 0")


def gamma_theta(law: ThetaLaw, epsilon: float) -> float:
    """Policy-maintenance term; exactly zero for any epsilon <= 0."""
    if epsilon <= 0.0:
        return 0.0
    return law.g0 * min(epsilon, law.eps_cap)


def demand_at(rho: float, p: TwoLayerParams) -> float:
    """Aggregate domestic demand theta + (1-theta)*[1 - G((z-rho)/psi)].

    Continuous and weakly increasing in rho; the CDF argument is clamped to
    the distribution support.  A premium that is negative, NaN or infinite
    raises `DomainError`.
    """
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"rho must be finite and >= 0, got {rho}")
    arg = (p.z - rho) / p.psi
    return p.theta + (1.0 - p.theta) * (1.0 - p.dist.cdf(arg, p.c_bar))


def demand_derivative(rho: float, p: TwoLayerParams) -> float:
    """d(demand)/d(rho) = (1-theta)*g((z-rho)/psi)/psi; the premium is
    checked as in `demand_at`."""
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"rho must be finite and >= 0, got {rho}")
    arg = (p.z - rho) / p.psi
    return (1.0 - p.theta) * p.dist.density(arg, p.c_bar) / p.psi


def _bisect(f, p: TwoLayerParams, target: float, lo: float, hi: float,
            lo_negative: bool) -> Tuple[float, bool]:
    """Bisect g(x) = f(x, p) - target (no wrapper call per step) on [lo, hi],
    where g < 0 at lo exactly when `lo_negative`: (the first midpoint with
    |g| <= 1e-12, True), or (hi, False) after 200 halvings."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid, p) - target
        if abs(f_mid) <= _BISECT_TOL:
            return mid, True
        if (f_mid < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return hi, False


def solve_premium_bisection(p: TwoLayerParams) -> float:
    """Case-c premium by bisection on [0, z] to |demand - phi_req| <= 1e-12.

    Assumes demand_at(0) < phi_req <= demand_at(z); raises otherwise.
    """
    if demand_at(0.0, p) - p.phi_req >= 0 or demand_at(p.z, p) - p.phi_req < 0:
        raise ScopeError("bisection requires demand_at(0) < phi_req <= demand_at(z)")
    return _bisect(demand_at, p, p.phi_req, 0.0, p.z, True)[0]


def solve_premium(p: TwoLayerParams) -> PremiumSolution:
    """Classify and solve the complementarity problem for the premium.

    Uniform margins use the closed form
        rho* = z - psi*c_bar*(1 - (phi_req - theta)/(1 - theta)),
    table margins use bisection.  Hard failure (case d) is a valid outcome,
    not an error.
    """
    d0 = demand_at(0.0, p)
    dmax = demand_at(p.z, p)
    slack = d0 - p.phi_req
    if slack > 0.0:
        return PremiumSolution("a_interior", 0.0, d0, dmax, slack)
    if slack == 0.0:
        return PremiumSolution("b_boundary", 0.0, d0, dmax, slack)
    if p.phi_req > dmax:
        return PremiumSolution("d_hard_failure", None, d0, dmax, slack)
    if p.dist.kind == "uniform":  # theta < 1 here: at theta = 1, d0 = 1 >= phi_req
        rho = p.z - p.psi * p.c_bar * (
            1.0 - (p.phi_req - p.theta) / (1.0 - p.theta)
        )
        rho = min(max(rho, 0.0), p.z)
    else:
        rho = solve_premium_bisection(p)
    return PremiumSolution("c_stress", rho, d0, dmax, slack)


def _demand_on_grid(rho, theta: np.ndarray, z, p: TwoLayerParams) -> np.ndarray:
    """`demand_at` element by element, core share and spread per element."""
    arg = (z - rho) / p.psi
    return theta + (1.0 - theta) * (1.0 - p.dist.cdf_array(arg, p.c_bar))


def _premium_on_grid(p: TwoLayerParams, thetas: np.ndarray, z) -> np.ndarray:
    """`solve_premium(replace(p, theta=t, z=s)).rho` for each pair (t, s) of
    `thetas` [n] and `z` ([n] or one value), NaN in case d, evaluated as
    arrays with the scalar solver's exact arithmetic: the same case tests,
    the same clamped closed form, and a lockstep bisection on [0, s] in which
    each element stops at its own |f| <= 1e-12 or falls back to its upper
    end after the iteration cap."""
    import numpy as np

    z = np.broadcast_to(z, thetas.shape)
    d0 = _demand_on_grid(0.0, thetas, z, p)
    dmax = _demand_on_grid(z, thetas, z, p)
    slack = d0 - p.phi_req
    zero = (slack > 0.0) | (slack == 0.0)  # cases a and b
    failed = ~zero & (p.phi_req > dmax)  # case d
    stress = ~zero & ~failed  # case c
    rho = np.where(failed, np.nan, 0.0)
    closed = stress if p.dist.kind == "uniform" else np.zeros_like(stress)  # theta < 1 in case c
    th, zc = thetas[closed], z[closed]
    r = zc - p.psi * p.c_bar * (1.0 - (p.phi_req - th) / (1.0 - th))
    r = np.where(0.0 > r, 0.0, r)  # max(r, 0.0)
    rho[closed] = np.where(zc < r, zc, r)  # min(r, z)

    idx = np.flatnonzero(stress & ~closed)
    th, zb = thetas[idx], z[idx]
    lo = np.zeros(len(idx))
    hi = zb
    for _ in range(_BISECT_MAX_ITER):
        if not len(idx):
            break
        mid = 0.5 * (lo + hi)
        f_mid = _demand_on_grid(mid, th, zb, p) - p.phi_req
        done = np.abs(f_mid) <= _BISECT_TOL
        below = f_mid < 0
        if done.any():  # compact only when an element exits
            rho[idx[done]] = mid[done]
            go = ~done
            idx, th, zb, mid, below, lo, hi = (
                idx[go], th[go], zb[go], mid[go], below[go], lo[go], hi[go])
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    rho[idx] = hi  # upper end: demand weakly above the requirement
    return rho


def _core_drift(rho: np.ndarray, law: ThetaLaw, pi: float, r_rep: float) -> np.ndarray:
    """gamma(pi - r_rep - rho) - kappa element by element; maintenance is off
    (drift -kappa) where rho is NaN (hard failure)."""
    import numpy as np

    eps = pi - r_rep - rho
    capped = np.where(law.eps_cap < eps, law.eps_cap, eps)  # min(eps, eps_cap)
    gamma = np.where(eps <= 0.0, 0.0, law.g0 * capped)
    return np.where(np.isnan(rho), -law.kappa_theta, gamma - law.kappa_theta)


def _core_drift_at(p: TwoLayerParams, law: ThetaLaw, pi: float, r_rep: float) -> float:
    """gamma(pi - r_rep - rho) - kappa at p's premium rho, the scalar form of
    `_core_drift` (which serves the scan's grid and the Monte Carlo DGP);
    maintenance is off (drift -kappa) in hard failure."""
    rho = solve_premium(p).rho
    if rho is None:
        return -law.kappa_theta
    return gamma_theta(law, pi - r_rep - rho) - law.kappa_theta


def comparative_statics(p: TwoLayerParams) -> dict:
    """Analytic partials of the case-c premium (uniform margins).

    Using rho* = z - psi*c_bar*(1 - phi_req)/(1 - theta):
        d rho/d theta = -psi*c_bar*(1 - phi_req)/(1 - theta)^2
        d rho/d psi   = -c_bar*(1 - (phi_req - theta)/(1 - theta))
        d rho/d z     = 1
    Each matches central finite differences of solve_premium.
    """
    if p.dist.kind != "uniform":
        raise ScopeError("comparative statics require the uniform margin distribution")
    sol = solve_premium(p)
    if sol.case != "c_stress":
        raise ScopeError(f"comparative statics defined in case c, got {sol.case}")
    one_m_t = 1.0 - p.theta
    return {
        "d_rho_d_theta": -p.psi * p.c_bar * (1.0 - p.phi_req) / (one_m_t * one_m_t),
        "d_rho_d_psi": -p.c_bar * (1.0 - (p.phi_req - p.theta) / one_m_t),
        "d_rho_d_z": 1.0,
    }


def pe_sensitivities(p: TwoLayerParams) -> dict:
    """Partials of the zero-premium boundary score under uniform margins:
    dB/dtheta = z/(psi*c_bar), dB/dpsi = (1-theta)*z/(psi^2*c_bar),
    dB/dz = -(1-theta)/(psi*c_bar)."""
    if p.dist.kind != "uniform":
        raise ScopeError("sensitivities require the uniform margin distribution")
    denom = p.psi * p.c_bar
    return {
        "dB_dtheta": p.z / denom,
        "dB_dpsi": (1.0 - p.theta) * p.z / (p.psi * denom),
        "dB_dz": -(1.0 - p.theta) / denom,
    }


def theta_step(theta: float, law: ThetaLaw, epsilon: float) -> float:
    """Advance the hard core one period, clamped to [0, 1]."""
    _require_finite("epsilon", epsilon)
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
    return min(1.0, max(0.0, theta - law.kappa_theta + gamma_theta(law, epsilon)))


def _abs_drho_dtheta(p: TwoLayerParams) -> float:
    """|d rho/d theta| at the stress boundary for the current theta.

    Closed form for uniform margins; two-sided finite difference of the
    solver otherwise.  Zero when the core alone covers the requirement.
    """
    if p.theta >= 1.0:
        return math.inf
    if p.phi_req <= p.theta:
        return 0.0
    if p.dist.kind == "uniform":
        one_m_t = 1.0 - p.theta
        return p.psi * p.c_bar * (1.0 - p.phi_req) / (one_m_t * one_m_t)
    h = 1e-6
    lo = max(0.0, p.theta - h)
    hi = min(1.0, p.theta + h)
    stressed = p.with_theta(lo), p.with_theta(hi)
    rhos = []
    for q in stressed:
        sol = solve_premium(q)
        if sol.case != "c_stress":
            return 0.0
        rhos.append(sol.rho)
    return abs(rhos[1] - rhos[0]) / (hi - lo)


def feedback_gain(p: TwoLayerParams, law: ThetaLaw) -> float:
    """One-period gain of the premium -> repression loss -> core erosion loop:
    eta = |d rho/d theta| * law.g0.  theta = 1 returns +inf."""
    if p.theta >= 1.0:
        return math.inf
    return _abs_drho_dtheta(p) * law.g0


def monotone_path(
    p: TwoLayerParams,
    law: ThetaLaw,
    econ: EconState,
    horizon: int,
    r_rep: Optional[float] = None,
) -> dict:
    """Forward-simulate the coupled premium/core system.

    Each period: solve the premium at the current core share, derive the
    repression bias eps = pi - r_rep - rho, evaluate the feedback gain, and
    step the core.  Reports the first period with eta >= 1 (contraction
    failure) and the first case-c period.  `horizon` is an integer >= 1.
    """
    _require_integer("horizon", horizon)
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    r_rep = econ.r_n if r_rep is None else r_rep
    theta = p.theta
    periods: List[dict] = []
    first_eta_ge_1 = None
    first_case_c = None
    for t in range(horizon):
        pt = p.with_theta(theta)
        sol = solve_premium(pt)
        if sol.case == "d_hard_failure":
            rho = math.nan
            eps = math.nan
        else:
            rho = sol.rho
            eps = econ.pi - r_rep - rho
        eta = feedback_gain(pt, law)
        if first_eta_ge_1 is None and eta >= 1.0:
            first_eta_ge_1 = t
        if first_case_c is None and sol.case == "c_stress":
            first_case_c = t
        periods.append(
            {"t": t, "theta": theta, "rho": rho, "epsilon": eps,
             "eta": eta, "case": sol.case}
        )
        eps_for_step = eps if math.isfinite(eps) else 0.0
        theta = theta_step(theta, law, eps_for_step)
    return {
        "periods": periods,
        "first_eta_ge_1": first_eta_ge_1,
        "first_case_c": first_case_c,
    }


def perturbation_response(
    p: TwoLayerParams,
    law: ThetaLaw,
    econ: EconState,
    horizon: int,
    delta: float,
    r_rep: Optional[float] = None,
) -> dict:
    """Simulate a one-shot erosion of the initial core by delta and compare
    against the geometric amplification bound.

    The response is measured as the largest per-period displacement of the
    core and premium paths; the bounds are delta/(1 - max eta) and
    delta*max|d rho/d theta|/(1 - max eta), the geometric series of the
    one-period loop gain applied to the initial shock.  Time-summed
    deviations are also reported for diagnostics (they grow with the horizon
    whenever a displacement persists, so they are not what the geometric
    bound limits).
    """
    base = monotone_path(p, law, econ, horizon, r_rep)
    pert = monotone_path(
        p.with_theta(max(0.0, p.theta - delta)), law, econ, horizon, r_rep
    )
    max_theta = 0.0
    max_rho = 0.0
    cum_theta = 0.0
    cum_rho = 0.0
    max_eta = 0.0
    max_drho = 0.0
    for row_b, row_p in zip(base["periods"], pert["periods"]):
        dev_t = abs(row_p["theta"] - row_b["theta"])
        max_theta = max(max_theta, dev_t)
        cum_theta += dev_t
        if math.isfinite(row_b["rho"]) and math.isfinite(row_p["rho"]):
            dev_r = abs(row_p["rho"] - row_b["rho"])
            max_rho = max(max_rho, dev_r)
            cum_rho += dev_r
        eta = max(row_b["eta"], row_p["eta"])
        if math.isfinite(eta):
            max_eta = max(max_eta, eta)
        for row in (row_b, row_p):
            d = _abs_drho_dtheta(p.with_theta(row["theta"]))
            if math.isfinite(d):
                max_drho = max(max_drho, d)
    bound_theta = delta / (1.0 - max_eta) if max_eta < 1.0 else math.inf
    bound_rho = delta * max_drho / (1.0 - max_eta) if max_eta < 1.0 else math.inf
    return {
        "max_theta_dev": max_theta,
        "max_rho_dev": max_rho,
        "cum_theta_dev": cum_theta,
        "cum_rho_dev": cum_rho,
        "bound_theta": bound_theta,
        "bound_rho": bound_rho,
        "max_eta": max_eta,
        "max_abs_drho_dtheta": max_drho,
    }


def zero_premium_boundary_theta(p: TwoLayerParams) -> Optional[float]:
    """Core share at which zero-premium demand exactly meets the requirement.

    demand_at(0) is affine in theta for any margin distribution:
    demand0(theta) = 1 - q + q*theta with q = G(z/psi).  Returns None when
    demand0 exceeds the requirement for every theta in [0, 1].
    """
    q = p.dist.cdf(p.z / p.psi, p.c_bar)
    if q <= 0.0:
        return None
    theta_b = 1.0 - (1.0 - p.phi_req) / q
    if theta_b < 0.0 or theta_b > 1.0:
        return None
    return theta_b


def phi_req_affine(
    base: float,
    b: float,
    psi: float,
    z: float,
    d_b: float = 0.0,
    d_psi: float = 0.0,
    d_z: float = 0.0,
    anchor: Tuple[float, float, float] = (2.40, 0.97, 0.02),
) -> float:
    """Optional affine required-absorption schedule around an anchor point,
    clamped to [0, 1].  Signs are structural: d_b >= 0 (higher debt needs
    broader absorption), d_psi <= 0 (stronger institutions need less)."""
    for name, value in dict(base=base, b=b, psi=psi, z=z, d_b=d_b, d_psi=d_psi,
                            d_z=d_z).items():
        _require_finite(name, value)
    if d_b < 0:
        raise ConfigError("phi_req debt coefficient must be >= 0")
    if d_psi > 0:
        raise ConfigError("phi_req psi coefficient must be <= 0")
    b0, psi0, z0 = anchor
    val = base + d_b * (b - b0) + d_psi * (psi - psi0) + d_z * (z - z0)
    return min(1.0, max(0.0, val))


def fixed_point_scan(
    p: TwoLayerParams,
    law: ThetaLaw,
    pi: float,
    r_rep: float,
    grid: int = 2000,
    sigma: float = 0.0,
) -> dict:
    """Scan the one-period core map Phi(theta) = theta - kappa + gamma(eps(rho(theta)))
    for stationary points.

    Interior fixed points are transversal zeros of Phi(theta) - theta found
    by sign-change bracketing on the grid and refined by bisection, and
    isolated zeros on the grid; adjacent zeros on the grid (with kappa = 0,
    wherever eps <= 0) are an interval reported as the `stationary_interval`
    diagnostic, with no fixed point inside.  The upper corner theta = 1 is
    reported as a safe stationary point of the clamped dynamics when the
    unclamped map points upward there (maintenance saturates the share); a
    downward exit at theta = 0 is de-captivation, reported as a diagnostic
    rather than an equilibrium.

    The premium rho(theta) on the grid is evaluated for all grid points at
    once; refinement, slopes and residuals use the scalar solver.  A bracket
    whose bisection ends without |Phi(theta) - theta| <= 1e-12 straddles a
    jump of the premium in theta, not a root (where z/psi >= c_bar, the
    premium jumps up from zero as theta falls below phi_req): it is
    reported once as the `premium_jump` diagnostic, never as a fixed point.
    Other diagnostics: `degenerate_continuum` (the map is the identity),
    `exits_at_floor`, and `above_diagonal`/`below_diagonal` when no
    stationary point or interval exists.

    Each fixed point carries the branch label (safe: rho = 0; stress:
    rho > 0), the local slope |dPhi/dtheta| by central differences, and, for
    safe points, the buffer to the zero-premium boundary less the
    shock-absorption allowance sigma*eta/(1 - eta).
    """
    import numpy as np

    _require_integer("grid", grid)
    if grid < 1000:
        raise DomainError("grid must be >= 1000 points")

    def G(theta: float, state: TwoLayerParams = p) -> float:
        return _core_drift_at(state.with_theta(theta), law, pi, r_rep)

    n = grid
    vals = _core_drift(_premium_on_grid(p, np.arange(n + 1) / n, p.z), law, pi, r_rep)

    diagnostics: List[str] = []
    if np.all(np.abs(vals) <= 1e-12):
        return {"fixed_points": [], "diagnostics": ["degenerate_continuum"]}

    zero = np.abs(vals) <= 1e-12
    pair = zero[:-1] & zero[1:]  # zeros at both ends of cell i: no root there
    if pair.any():
        diagnostics.append("stationary_interval")
    on_grid = zero[:-1] & ~(pair | np.r_[False, pair[:-1]])
    on_grid[0] = False
    crossing = vals[:-1] * vals[1:] < 0.0
    roots: List[float] = []
    for i in np.flatnonzero(on_grid | crossing).tolist():
        a, b = i / n, (i + 1) / n
        if on_grid[i]:
            roots.append(a)
        if crossing[i]:
            root, met = _bisect(G, p, 0.0, a, b, bool(vals[i] < 0.0))
            if met:
                roots.append(root)
            elif "premium_jump" not in diagnostics:
                # the map jumps across the diagonal without meeting it
                diagnostics.append("premium_jump")
    # dedupe roots that landed within one grid cell of each other
    deduped: List[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1.0 / n:
            deduped.append(r)
    roots = deduped

    if vals[-1] > 1e-12 and (not roots or 1.0 - roots[-1] > 1.0 / n):
        roots.append(1.0)  # absorbing ceiling: clamped map is stationary at 1
    if vals[0] < -1e-12:
        diagnostics.append("exits_at_floor")
    if not roots and not pair.any():
        diagnostics.append(
            "above_diagonal" if vals[0] > 0 else "below_diagonal"
        )

    theta_b = zero_premium_boundary_theta(p)
    eta_b = None
    if theta_b is not None:
        eta_b = feedback_gain(p.with_theta(theta_b), law)

    h = 1.0 / n
    results = []
    for r in roots:
        kind = "safe" if solve_premium(p.with_theta(r)).rho == 0.0 else "stress"
        lo = max(0.0, r - h)
        hi = min(1.0, r + h)
        phi_lo = min(1.0, max(0.0, lo + G(lo)))
        phi_hi = min(1.0, max(0.0, hi + G(hi)))
        slope = abs(phi_hi - phi_lo) / (hi - lo)
        buffer = None
        if kind == "safe" and theta_b is not None:
            allowance = 0.0
            if eta_b is not None and math.isfinite(eta_b) and eta_b < 1.0:
                allowance = sigma * eta_b / (1.0 - eta_b)
            buffer = (r - theta_b) - allowance
        residual = abs(min(1.0, max(0.0, r + G(r))) - r)
        results.append(
            {"theta_star": r, "type": kind, "slope": slope,
             "buffer": buffer, "residual": residual}
        )
    return {"fixed_points": results, "diagnostics": diagnostics}
