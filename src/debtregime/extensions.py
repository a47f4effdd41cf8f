"""Closed-form dynamic extensions: sprint ratchet, repression dividend,
debt-reduction paradox, captive-threshold shifts, the share-erosion clock,
trend/break estimation for the erosion rate, the control-rights composite,
and the sprint-timing constraint.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .core import _require_finite, _require_integer
from .errors import (
    DomainError,
    EstimationError,
    InactiveRegimeError,
    ModelInconsistencyWarning,
    ScopeError,
)
from .inference import _line_fit

__all__ = [
    "SprintSpec",
    "ClockSpec",
    "PsiSpec",
    "sprint_cumulative_improvement",
    "ratchet_gap",
    "repression_dividend",
    "marginal_gain_sequence",
    "paradox_test",
    "captive_threshold_shift",
    "clock",
    "estimate_kappa",
    "psi_composite",
    "timing_feasible",
]


@dataclass(frozen=True)
class SprintSpec:
    """A temporary deep-compression episode.

    baseline_spread : r - g outside the sprint (fraction/yr)
    sprint_spread   : r - g during the sprint; must be strictly below baseline
    T               : sprint length in whole years (>= 1)
    b0              : debt ratio at sprint start
    """

    baseline_spread: float
    sprint_spread: float
    T: int
    b0: float

    def __post_init__(self):
        for name in ("baseline_spread", "sprint_spread", "T", "b0"):
            _require_finite(name, getattr(self, name))
        if not self.sprint_spread < self.baseline_spread:
            raise DomainError(
                "sprint must deepen compression: sprint_spread < baseline_spread"
            )
        if self.T < 1:
            raise DomainError(f"T must be >= 1, got {self.T}")


@dataclass(frozen=True)
class ClockSpec:
    """Inputs for the residual-horizon clock on the captive share."""

    phi: float
    phi_bar: float
    kappa: float
    kappa_exp: Optional[float] = None

    def __post_init__(self):
        for name in ("phi", "phi_bar", "kappa"):
            _require_finite(name, getattr(self, name))
        if self.kappa_exp is not None:
            _require_finite("kappa_exp", self.kappa_exp)
        if not self.phi > self.phi_bar:
            raise DomainError("clock requires phi > phi_bar (positive distance)")


@dataclass(frozen=True)
class PsiSpec:
    """Control-rights sub-indices and composite weights.

    Exactly three weights, nonnegative and summing to 1 within 1e-12.
    """

    mon: float
    abs_proxy: float
    fx: float
    weights: Tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        if len(self.weights) != 3:
            raise DomainError(f"need exactly three weights, got {self.weights!r}")
        for w in self.weights:
            _require_finite("weight", w)
        for name in ("mon", "abs_proxy", "fx"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v}")
        if any(w < 0 for w in self.weights):
            raise DomainError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")


def sprint_cumulative_improvement(spec: SprintSpec) -> float:
    """Conservative upper bound on the debt improvement from a sprint:
    T * |sprint_spread - baseline_spread| * b0 (fraction of GDP)."""
    return spec.T * abs(spec.sprint_spread - spec.baseline_spread) * spec.b0


def ratchet_gap(delta_T: float, baseline_spread: float, s: float) -> float:
    """Improvement gap s years after reversion: delta_T * (1 + spread)^s.

    With a negative baseline spread the gap decays geometrically but never
    reaches zero in finite time.
    """
    for name, value in dict(delta_T=delta_T, baseline_spread=baseline_spread, s=s).items():
        _require_finite(name, value)
    if abs(baseline_spread) >= 1:
        raise DomainError("|baseline_spread| must be < 1")
    if s < 0:
        raise DomainError("s must be >= 0")
    return delta_T * (1.0 + baseline_spread) ** s


def repression_dividend(epsilon: float, b_prev: float) -> float:
    """Annual repression dividend epsilon * b_prev (fraction of GDP).

    May be <= 0 when epsilon <= 0; callers treat that as the channel being
    inactive rather than as an error.
    """
    _require_finite("epsilon", epsilon)
    _require_finite("b_prev", b_prev)
    return epsilon * b_prev


def marginal_gain_sequence(
    mu: float, lam: float, epsilon: float, debt_path: Sequence[float]
) -> list:
    """Per-period compression gains C_t = mu * lam * epsilon * b_t^2 from
    reinvesting the dividend.

    Weakly decreasing on weakly decreasing debt paths and uniformly bounded
    by mu*lam*epsilon*max(b)^2.
    """
    for name, value in [("mu", mu), ("lam", lam), ("epsilon", epsilon),
                        *(("debt_path", b) for b in debt_path)]:
        _require_finite(name, value)
    if epsilon <= 0:
        raise InactiveRegimeError(
            "repression channel inactive (epsilon <= 0): no dividend to reinvest"
        )
    if not (0 < lam <= 1):
        raise DomainError(f"lam must lie in (0, 1], got {lam}")
    if mu <= 0:
        raise DomainError(f"mu must be > 0, got {mu}")
    return [mu * lam * epsilon * b * b for b in debt_path]


def paradox_test(spread: float, gamma: float) -> dict:
    """Sign test for the debt-reduction paradox under a deficit-relief response.

    derivative = spread + gamma is the response of the annual debt flow to the
    inherited debt ratio; a negative derivative means lowering the debt stock
    worsens the flow.  Defined only for spread < 0.
    """
    _require_finite("spread", spread)
    _require_finite("gamma", gamma)
    if spread >= 0:
        raise ScopeError("paradox test requires a negative spread (r - g < 0)")
    derivative = spread + gamma
    return {"derivative": derivative, "paradox_holds": gamma < abs(spread)}


def captive_threshold_shift(
    phi_bar0: float, a: float, b: float, eps_foreign: float, r_alt: float
) -> float:
    """Effective captive threshold under foreign repression and alternative
    returns: clamp(phi_bar0 - a*eps_foreign + b*r_alt) to (0, 1].

    Affine instance of the two-country comparative statics; only the signs of
    the two responses are structural, the coefficients are calibration inputs.
    """
    for name, value in dict(phi_bar0=phi_bar0, a=a, b=b, eps_foreign=eps_foreign,
                            r_alt=r_alt).items():
        _require_finite(name, value)
    if a < 0 or b < 0:
        raise DomainError("coefficients a, b must be nonnegative")
    raw = phi_bar0 - a * eps_foreign + b * r_alt
    if raw <= 0 and r_alt > 0:
        warnings.warn(
            "effective threshold nonpositive before clamping despite r_alt > 0; "
            "the positive-floor property fails at these coefficients",
            ModelInconsistencyWarning,
            stacklevel=2,
        )
    return min(1.0, max(raw, math.ulp(0.0)))


def clock(spec: ClockSpec) -> dict:
    """Residual years before the captive share crosses its threshold.

    T_linear = (phi - phi_bar)/kappa; kappa <= 0 yields an infinite-horizon
    sentinel (paused clock), not an error.  T_exp = ln(phi/phi_bar)/kappa_exp
    when a proportional decay rate is supplied; it is the same +inf sentinel
    when kappa_exp <= 0 or phi_bar = 0, which exponential decay never reaches.
    """
    if spec.kappa > 0:
        t_lin = (spec.phi - spec.phi_bar) / spec.kappa
    else:
        t_lin = math.inf
    t_exp = None
    if spec.kappa_exp is not None:
        if spec.kappa_exp > 0 and spec.phi_bar > 0:
            t_exp = math.log(spec.phi / spec.phi_bar) / spec.kappa_exp
        else:
            t_exp = math.inf
    return {"T_linear": t_lin, "T_exp": t_exp}


def _ols_line(t: np.ndarray, y: np.ndarray, sample: str) -> tuple:
    """Fit y = a + b*t in closed form; return (b, ssr)."""
    if t.min() == t.max():
        raise EstimationError(f"the {sample}'s time stamps do not vary")
    mean, slope = _line_fit(t, y)
    resid = y - (mean + slope * (t - t.mean()))
    return float(slope), float(resid @ resid)


def estimate_kappa(
    series: Sequence[Tuple[float, float]], break_index: Optional[int] = None
) -> dict:
    """Trend and structural-break diagnostics for a share series.

    `series` is (time, value) pairs with time in years.  Returns annualized
    OLS slopes for the full sample and, when `break_index` is given, for the
    two subsamples plus the Chow F statistic of the pooled-versus-split
    trend+intercept model.  No p-value is computed; the raw F is reported.
    Non-finite input, or a sample or segment whose times do not vary, raises
    `EstimationError`.
    """
    import numpy as np

    pts = [(float(t), float(v)) for t, v in series]
    if len(pts) < 8:
        raise EstimationError(f"need >= 8 observations, got {len(pts)}")
    t = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise EstimationError("series times and values must be finite")
    slope_full, ssr_pooled = _ols_line(t, y, "full sample")
    out = {
        "slope_full": slope_full,
        "slope_pre": None,
        "slope_post": None,
        "chow_F": None,
    }
    if break_index is None:
        return out
    _require_integer("break_index", break_index)
    n = len(pts)
    if not (3 <= break_index <= n - 3):
        raise EstimationError(
            f"break_index must leave >= 3 points on each side, got {break_index} of {n}"
        )
    slope_pre, ssr_pre = _ols_line(t[:break_index], y[:break_index], "pre-break segment")
    slope_post, ssr_post = _ols_line(t[break_index:], y[break_index:], "post-break segment")
    ssr_u = ssr_pre + ssr_post
    k = 2  # intercept + trend per regime
    if ssr_u <= 1e-18:
        # both segments fit exactly; F is 0 when the pooled fit is also exact
        chow = 0.0 if ssr_pooled <= 1e-18 else math.inf
    else:
        chow = ((ssr_pooled - ssr_u) / k) / (ssr_u / (n - 2 * k))
    out.update(slope_pre=slope_pre, slope_post=slope_post, chow_F=chow)
    return out


def psi_composite(spec: PsiSpec) -> float:
    """Weighted control-rights composite in [0, 1]."""
    w = spec.weights
    return w[0] * spec.mon + w[1] * spec.abs_proxy + w[2] * spec.fx


def timing_feasible(T_sprint: float, T_star: float) -> bool:
    """Sprint fits inside the residual window (inclusive; T_star may be inf)."""
    _require_finite("T_sprint", T_sprint)
    if T_star != math.inf:
        _require_finite("T_star", T_star)
    if T_sprint < 0 or T_star < 0:
        raise DomainError("horizons must be nonnegative")
    return T_sprint <= T_star
