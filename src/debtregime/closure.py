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
_SCAN_CELLS = 2000  # fixed_point_scan's grid
# the (b, psi, z) point around which `phi_req_affine` moves phi_req
_PHI_REQ_ANCHOR = (2.40, 0.97, 0.02)


@dataclass(frozen=True)
class MarginDistribution:
    """Captivity-benefit distribution G on [0, c_bar] within the contestable
    margin.  Either uniform or a piecewise-linear CDF through user knots;
    knots must start at c = 0 (an atom 0 <= G(0) < 1 there is allowed: the
    share of the margin with no captivity benefit at all), end at
    (c_bar, 1), and be strictly increasing in both coordinates.  A first
    knot c0 within 1e-15 above 0 extends the atom: G = G(c0) on [0, c0).
    The knots are checked on construction and stored as Python floats;
    `validate(c_bar)` checks that the last one lies within 1e-12 of c_bar.
    """

    kind: str = "uniform"
    knots: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        # the knots are checked once, here; every margin sets the same
        # attributes in the same order (None on uniform margins), so both
        # kinds share one attribute layout and uniform lookups stay as fast
        cs = gs = None
        if self.kind != "uniform":
            if self.kind != "table":
                raise ConfigError(f"unknown margin distribution kind {self.kind!r}")
            if not self.knots or len(self.knots) < 2:
                raise ConfigError("table CDF needs at least two knots")
            for c, g in self.knots:
                _require_finite("table CDF knot position", c)
                _require_finite("table CDF knot value", g)
            object.__setattr__(self, "knots", tuple((float(c), float(g)) for c, g in self.knots))
            cs = tuple(k[0] for k in self.knots)
            gs = tuple(k[1] for k in self.knots)
            if abs(cs[0]) > 1e-15 or not (0.0 <= gs[0] < 1.0):
                raise ConfigError("table CDF must start at c=0 with 0 <= G(0) < 1")
            if abs(gs[-1] - 1.0) > 1e-12:
                raise ConfigError("table CDF must end at (c_bar, 1)")
            if any(c1 <= c0 for c0, c1 in zip(cs, cs[1:])):
                raise ConfigError("table CDF knot positions must be strictly increasing")
            if any(g1 <= g0 for g0, g1 in zip(gs, gs[1:])):
                raise ConfigError("table CDF values must be strictly increasing")
        object.__setattr__(self, "_cs", cs)  # knot positions, for `bisect`
        object.__setattr__(self, "_gs", gs)  # knot values, for the premium's segment

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
        cs, gs = np.array(self._cs), np.array(self._gs)
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


def _bisect(f, lo: float, hi: float, lo_negative: bool) -> Tuple[float, bool]:
    """Bisect f on [lo, hi], where f < 0 at lo exactly when `lo_negative`:
    (the first midpoint with |f| <= 1e-12, True), or (hi, False) after 200
    halvings."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= _BISECT_TOL:
            return mid, True
        if (f_mid < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return hi, False


def solve_premium_bisection(p: TwoLayerParams) -> float:
    """Case-c premium on a piecewise-linear margin: a bisection over the knot
    segments, then the linear root on the one segment that holds it.

    Demand meets phi_req where G(c) = G* = (1 - phi_req)/(1 - theta), with
    c = (z - rho)/psi.  The first knot value at or above G* (`bisect_left`)
    ends the segment [(c0, g0), (c1, g1)] that holds G*; there
    c* = c0 + (G* - g0)/(g1 - g0)*(c1 - c0), or c* = 0 when G* is at the
    atom G(0), and rho* = z - psi*c* clamped to [0, z] as in the uniform
    closed form.  On a segment so steep that the rounded root leaves demand
    below phi_req - 1e-12 (one ulp of rho moves demand by more than that),
    the premium is the segment's upper end z - psi*c0 instead, where demand
    is weakly above the requirement.  A uniform margin is the two-knot table
    ((0, 0), (c_bar, 1)).

    Assumes demand_at(0) < phi_req <= demand_at(z); raises otherwise.
    """
    if demand_at(0.0, p) - p.phi_req >= 0 or demand_at(p.z, p) - p.phi_req < 0:
        raise ScopeError("bisection requires demand_at(0) < phi_req <= demand_at(z)")
    return _segment_rho(p, p.theta)


def _knot_lookup(p: TwoLayerParams, theta: float):
    """(G*, i, cs, gs) at core share theta < 1: G* = (1 - phi_req)/(1 - theta),
    the margin's knot positions cs and values gs (a uniform margin is the
    two-knot table ((0, 0), (c_bar, 1))) and i = `bisect_left(gs, G*)`, the
    first knot value at or above G*."""
    cs, gs = (0.0, p.c_bar), (0.0, 1.0)
    if p.dist.kind != "uniform":
        cs, gs = p.dist._cs, p.dist._gs
    g_star = (1.0 - p.phi_req) / (1.0 - theta)
    return g_star, bisect_left(gs, g_star), cs, gs


def _segment_rho(p: TwoLayerParams, theta: float) -> float:
    """`solve_premium_bisection` at core share theta in case c, unchecked."""
    g_star, i, cs, gs = _knot_lookup(p, theta)  # theta < 1 in case c
    if i == 0:
        return float(p.z)  # G* at the atom: c* = 0
    i = min(i, len(gs) - 1)  # G* above a last value within 1e-12 of 1
    (c0, c1), (g0, g1) = cs[i - 1:i + 1], gs[i - 1:i + 1]
    rho = p.z - p.psi * (c0 + (g_star - g0) / (g1 - g0) * (c1 - c0))
    rho = min(max(rho, 0.0), p.z)
    demand = theta + (1.0 - theta) * (1.0 - p.dist.cdf((p.z - rho) / p.psi, p.c_bar))
    if demand - p.phi_req < -_BISECT_TOL:  # steep segment: upper end
        rho = min(max(p.z - p.psi * c0, 0.0), p.z)
    return float(rho)


def solve_premium(p: TwoLayerParams) -> PremiumSolution:
    """Classify and solve the complementarity problem for the premium.

    Uniform margins use the closed form
        rho* = z - psi*c_bar*(1 - (phi_req - theta)/(1 - theta)),
    table margins the exact knot-segment solve of `solve_premium_bisection`
    (the linear root on the knot segment holding the root, or that segment's
    upper premium end where the segment is too steep to resolve).  Hard
    failure (case d) is a valid outcome, not an error.
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


def _cdf_ends(p: TwoLayerParams) -> Tuple[float, float]:
    """G at the CDF arguments of demand at rho = 0 and at rho = z (z/psi and
    0), which no core share changes: the `ends` of `_premium_at`."""
    return p.dist.cdf(p.z / p.psi, p.c_bar), p.dist.cdf(0.0, p.c_bar)


def _premium_at(p: TwoLayerParams, theta: float,
                ends: Tuple[float, float]) -> Tuple[str, Optional[float]]:
    """(case, rho) of `solve_premium(p.with_theta(theta))`, theta in [0, 1],
    with its arithmetic but no object built and no check run; `ends` is
    `_cdf_ends(p)`."""
    z, psi, c_bar, phi_req = p.z, p.psi, p.c_bar, p.phi_req
    q_zero, q_top = ends
    slack = theta + (1.0 - theta) * (1.0 - q_zero) - phi_req
    if slack > 0.0:
        return "a_interior", 0.0
    if slack == 0.0:
        return "b_boundary", 0.0
    if phi_req > theta + (1.0 - theta) * (1.0 - q_top):
        return "d_hard_failure", None
    if p.dist.kind == "uniform":
        rho = z - psi * c_bar * (1.0 - (phi_req - theta) / (1.0 - theta))
        return "c_stress", min(max(rho, 0.0), z)
    return "c_stress", _segment_rho(p, theta)


def _demand_on_grid(rho, theta: np.ndarray, z, p: TwoLayerParams) -> np.ndarray:
    """`demand_at` element by element, core share and spread per element."""
    arg = (z - rho) / p.psi
    return theta + (1.0 - theta) * (1.0 - p.dist.cdf_array(arg, p.c_bar))


def _premium_on_grid(p: TwoLayerParams, thetas: np.ndarray,
                     z) -> Tuple[np.ndarray, np.ndarray]:
    """`solve_premium(replace(p, theta=t, z=s)).rho` for each pair (t, s) of
    `thetas` [n] and `z` ([n] or one value), NaN in case d, evaluated as
    arrays with the scalar solver's exact arithmetic: the same case tests,
    the same clamped closed form on uniform margins, and on table margins the
    same knot-segment solve (`np.searchsorted` on the knot values, the
    linear root, the steep segment's upper premium end), with no iteration.
    Returned with the case-c mask (`.case == "c_stress"` per element)."""
    import numpy as np

    d0 = _demand_on_grid(0.0, thetas, z, p)  # one CDF value where z is one value
    dmax = _demand_on_grid(z, thetas, z, p)
    z = np.broadcast_to(z, thetas.shape)
    slack = d0 - p.phi_req
    zero = (slack > 0.0) | (slack == 0.0)  # cases a and b
    failed = ~zero & (p.phi_req > dmax)  # case d
    stress = ~zero & ~failed  # case c: theta < 1
    rho = np.where(failed, np.nan, 0.0)
    th, zc = thetas[stress], z[stress]

    def clamp(r):  # min(max(r, 0.0), z)
        r = np.where(0.0 > r, 0.0, r)
        return np.where(zc < r, zc, r)

    if p.dist.kind == "uniform":
        rho[stress] = clamp(zc - p.psi * p.c_bar * (1.0 - (p.phi_req - th) / (1.0 - th)))
        return rho, stress
    cs, gs = np.array(p.dist._cs), np.array(p.dist._gs)
    g_star = (1.0 - p.phi_req) / (1.0 - th)
    i = np.searchsorted(gs, g_star, side="left")  # the first knot value at or above G*
    seg = np.clip(i, 1, len(gs) - 1)
    c0, c1, g0, g1 = cs[seg - 1], cs[seg], gs[seg - 1], gs[seg]
    c_star = np.where(i == 0, 0.0, c0 + (g_star - g0) / (g1 - g0) * (c1 - c0))
    r = clamp(zc - p.psi * c_star)
    steep = _demand_on_grid(r, th, zc, p) - p.phi_req < -_BISECT_TOL
    rho[stress] = np.where(steep, clamp(zc - p.psi * c0), r)
    return rho, stress


def _core_drift(rho: np.ndarray, law: ThetaLaw, pi: float, r_rep: float) -> np.ndarray:
    """gamma(pi - r_rep - rho) - kappa element by element; maintenance is off
    (drift -kappa) where rho is NaN (hard failure)."""
    import numpy as np

    eps = pi - r_rep - rho
    capped = np.where(law.eps_cap < eps, law.eps_cap, eps)  # min(eps, eps_cap)
    gamma = np.where(eps <= 0.0, 0.0, law.g0 * capped)
    return np.where(np.isnan(rho), -law.kappa_theta, gamma - law.kappa_theta)


def _core_drift_at(p: TwoLayerParams, theta: float, ends: Tuple[float, float],
                   law: ThetaLaw, pi: float, r_rep: float) -> float:
    """gamma(pi - r_rep - rho) - kappa at the premium rho of p at core share
    theta in [0, 1] (`ends` is `_cdf_ends(p)`), the scalar form of
    `_core_drift` (which serves the scan's grid and the Monte Carlo DGP);
    maintenance is off (drift -kappa) in hard failure."""
    rho = _premium_at(p, theta, ends)[1]
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
    return {
        "d_rho_d_theta": -_abs_drho_dtheta(p, p.theta),
        "d_rho_d_psi": -p.c_bar * (1.0 - (p.phi_req - p.theta) / (1.0 - p.theta)),
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
    return _step(theta, law, epsilon)


def _step(theta: float, law: ThetaLaw, epsilon: float) -> float:
    """`theta_step` without its checks."""
    return min(1.0, max(0.0, theta - law.kappa_theta + gamma_theta(law, epsilon)))


def _abs_drho_dtheta(p: TwoLayerParams, theta: float) -> float:
    """|d rho/d theta| of the case-c branch rho_c = z - psi*G^-1(G*) at core
    share theta, p giving the rest: +inf at theta >= 1, 0 where phi_req <=
    theta or G* lies below the atom G(0), and otherwise
    psi*(c1 - c0)/(g1 - g0)*(1 - phi_req)/(1 - theta)^2 on the knot segment
    holding G* (the steeper of the two at an interior knot), in case a too.
    """
    if theta >= 1.0:
        return math.inf
    if p.phi_req <= theta:
        return 0.0
    g_star, i, cs, gs = _knot_lookup(p, theta)
    if g_star < gs[0]:
        return 0.0
    i = min(max(i, 1), len(gs) - 1)
    slope = (cs[i] - cs[i - 1]) / (gs[i] - gs[i - 1])
    if g_star == gs[i] and i + 1 < len(gs):
        slope = max(slope, (cs[i + 1] - cs[i]) / (gs[i + 1] - gs[i]))
    return float(p.psi * slope * (1.0 - p.phi_req) / ((1.0 - theta) * (1.0 - theta)))


def _eta(p: TwoLayerParams, law: ThetaLaw, theta: float) -> float:
    """`feedback_gain` at core share theta."""
    return math.inf if theta >= 1.0 else _abs_drho_dtheta(p, theta) * law.g0


def feedback_gain(p: TwoLayerParams, law: ThetaLaw) -> float:
    """eta = |d rho/d theta| * law.g0, the one-period gain of the premium ->
    repression loss -> core erosion loop; +inf at theta = 1."""
    return _eta(p, law, p.theta)


def monotone_path(
    p: TwoLayerParams,
    law: ThetaLaw,
    econ: EconState,
    horizon: int,
    r_rep: Optional[float] = None,
) -> dict:
    """Forward-simulate the premium/core system for `horizon` (>= 1) periods.

    Each period row holds t, theta, rho, the repression bias
    epsilon = pi - r_rep - rho (NaN in hard failure, where the core steps
    as at eps = 0), the feedback gain eta and the premium case; the result
    also names the first period with eta >= 1 and the first case-c period.
    """
    _require_integer("horizon", horizon)
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    r_rep = econ.r_n if r_rep is None else r_rep
    _require_finite("r_rep", r_rep)
    theta = p.theta
    ends = _cdf_ends(p)
    periods: List[dict] = []
    first_case_c = first_eta_ge_1 = None
    for t in range(horizon):
        case, rho = _premium_at(p, theta, ends)
        if rho is None:
            rho = eps = math.nan
        else:
            eps = econ.pi - r_rep - rho
        eta = _eta(p, law, theta)
        if first_case_c is None and case == "c_stress":
            first_case_c = t
        if first_eta_ge_1 is None and eta >= 1.0:
            first_eta_ge_1 = t
        periods.append(
            {"t": t, "theta": theta, "rho": rho, "epsilon": eps,
             "eta": eta, "case": case}
        )
        theta = _step(theta, law, eps if math.isfinite(eps) else 0.0)
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
    _require_finite("delta", delta)
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
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
        for d in (_abs_drho_dtheta(p, row_b["theta"]), _abs_drho_dtheta(p, row_p["theta"])):
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
) -> float:
    """Optional affine required-absorption schedule around the fixed anchor
    (b, psi, z) = (2.40, 0.97, 0.02), clamped to [0, 1].  Signs are
    structural: d_b >= 0 (higher debt needs broader absorption), d_psi <= 0
    (stronger institutions need less)."""
    for name, value in dict(base=base, b=b, psi=psi, z=z, d_b=d_b, d_psi=d_psi,
                            d_z=d_z).items():
        _require_finite(name, value)
    if d_b < 0:
        raise ConfigError("phi_req debt coefficient must be >= 0")
    if d_psi > 0:
        raise ConfigError("phi_req psi coefficient must be <= 0")
    b0, psi0, z0 = _PHI_REQ_ANCHOR
    val = base + d_b * (b - b0) + d_psi * (psi - psi0) + d_z * (z - z0)
    return min(1.0, max(0.0, val))


def fixed_point_scan(
    p: TwoLayerParams,
    law: ThetaLaw,
    pi: float,
    r_rep: float,
    sigma: float = 0.0,
) -> dict:
    """Scan the one-period core map Phi(theta) = theta - kappa + gamma(eps(rho(theta)))
    on a grid of 2000 cells for stationary points.

    `fixed_points` lists the interior roots of Phi(theta) - theta and, when
    the unclamped map points upward at theta = 1, that corner (maintenance
    saturates the share).  Each carries `theta_star`, its branch `type`
    (safe: rho = 0; stress otherwise), the central-difference `slope`
    |dPhi/dtheta| over one cell, the `residual` |Phi(theta*) - theta*| and,
    for a safe point, the `buffer` to the zero-premium boundary less the
    shock-absorption allowance sigma*eta/(1 - eta), with eta the feedback
    gain at that boundary: -inf where sigma != 0 and eta >= 1 (the loop
    does not contract, as `perturbation_response`'s inf bound says).
    `diagnostics` names `degenerate_continuum` (the map is the identity),
    `stationary_interval` (an interval of stationary states), `premium_jump`
    (the map jumps across the diagonal without meeting it), `exits_at_floor`
    (a downward exit at theta = 0, de-captivation, not an equilibrium), and
    `above_diagonal` or `below_diagonal` when neither a stationary point nor
    an interval exists.
    """
    import numpy as np

    for name, value in dict(pi=pi, r_rep=r_rep, sigma=sigma).items():
        _require_finite(name, value)
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")

    ends = _cdf_ends(p)

    def G(theta: float) -> float:
        return _core_drift_at(p, theta, ends, law, pi, r_rep)

    n = _SCAN_CELLS
    vals = _core_drift(_premium_on_grid(p, np.arange(n + 1) / n, p.z)[0], law, pi, r_rep)

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
            root, met = _bisect(G, a, b, bool(vals[i] < 0.0))
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
    if theta_b is not None and sigma != 0.0:  # eta only scales sigma
        eta_b = _eta(p, law, theta_b)

    h = 1.0 / n
    results = []
    for r in roots:
        kind = "safe" if _premium_at(p, r, ends)[1] == 0.0 else "stress"
        lo = max(0.0, r - h)
        hi = min(1.0, r + h)
        phi_lo = min(1.0, max(0.0, lo + G(lo)))
        phi_hi = min(1.0, max(0.0, hi + G(hi)))
        slope = abs(phi_hi - phi_lo) / (hi - lo)
        buffer = None
        if kind == "safe" and theta_b is not None:
            buffer = r - theta_b
            if eta_b is not None:  # no allowance contains shocks once eta >= 1
                buffer -= sigma * eta_b / (1.0 - eta_b) if eta_b < 1.0 else math.inf
        residual = abs(min(1.0, max(0.0, r + G(r))) - r)
        results.append(
            {"theta_star": r, "type": kind, "slope": slope,
             "buffer": buffer, "residual": residual}
        )
    return {"fixed_points": results, "diagnostics": diagnostics}
