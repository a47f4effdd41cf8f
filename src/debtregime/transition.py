"""Growth thresholds for a safe exit from the repression-supported regime,
under an exogenous premium bound or the endogenous complementarity premium,
plus joint financing/timing feasibility and the qualitative label rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .closure import TwoLayerParams, solve_premium
from .core import EconState, _require_finite
from .errors import DomainError

__all__ = [
    "TransitionSpec",
    "required_growth_exogenous",
    "required_growth_endogenous",
    "joint_feasibility",
    "feasibility_label",
]

# Required-efficiency cut points for the qualitative labels; the top of the
# illustrative efficiency range closes the Unlikely/Infeasible split.
_MU_CONDITIONAL = 0.05
_MU_TIGHT = 0.07

# Debt ratio under the monitoring (instrument-level) concept: the second debt
# concept of the tier-2 table and of the transition Monte Carlo.
_MONITOR_B = 1.574


@dataclass(frozen=True)
class TransitionSpec:
    """Inputs for the transition-threshold calculations.

    g_new    : proposed potential nominal growth after the transition
    rho_bar  : exogenous premium bound (>= 0)
    m        : safety margin (>= 0)
    closure  : two-layer parameters for the endogenous-premium mode
    mu       : investment-to-growth efficiency
    x_max_operational : per-period investment envelope (from the bound map)
    T_invest : years needed to complete the investment program
    T_star   : residual window (years; may be inf)
    """

    state: EconState
    g_new: float = 0.03
    rho_bar: float = 0.0
    m: float = 0.0
    closure: Optional[TwoLayerParams] = None
    mu: float = 0.05
    x_max_operational: float = 0.0
    T_invest: float = 2.0
    T_star: float = math.inf
    g_star_baseline: float = 0.03

    def __post_init__(self):
        for name in ("g_new", "rho_bar", "m", "mu", "x_max_operational", "T_invest",
                     "g_star_baseline"):
            _require_finite(name, getattr(self, name))
        if self.T_star != math.inf:
            _require_finite("T_star", self.T_star)
        if self.rho_bar < 0:
            raise DomainError(f"rho_bar must be >= 0, got {self.rho_bar}")
        if self.m < 0:
            raise DomainError(f"m must be >= 0, got {self.m}")


def _threshold(pi, d, s, b, rho, m):
    """Growth threshold pi + (d - s)/b + rho + m, on floats or arrays."""
    return pi + (d - s) / b + rho + m


def required_growth_exogenous(spec: TransitionSpec) -> dict:
    """Post-transition growth threshold with a bounded premium.

    threshold = pi + (d - s)/b + rho_bar + m; delta_g_min is the gap to the
    baseline potential growth (negative when no improvement is needed).
    """
    st = spec.state
    threshold = _threshold(st.pi, st.d, st.s, st.b_prev, spec.rho_bar, spec.m)
    return {
        "threshold": threshold,
        "delta_g_min": threshold - spec.g_star_baseline,
    }


def required_growth_endogenous(spec: TransitionSpec) -> dict:
    """Threshold with the premium priced by the complementarity closure.

    Case d (no premium restores absorption) yields an infeasible sentinel:
    threshold and delta_g_min are +inf.
    """
    if spec.closure is None:
        raise DomainError("endogenous mode requires closure parameters")
    sol = solve_premium(spec.closure)
    if sol.case == "d_hard_failure":
        return {
            "rho_star": None,
            "case": sol.case,
            "threshold": math.inf,
            "delta_g_min": math.inf,
        }
    st = spec.state
    threshold = _threshold(st.pi, st.d, st.s, st.b_prev, sol.rho, spec.m)
    return {
        "rho_star": sol.rho,
        "case": sol.case,
        "threshold": threshold,
        "delta_g_min": threshold - spec.g_star_baseline,
    }


def joint_feasibility(spec: TransitionSpec, delta_g_min: float) -> dict:
    """Financing and timing check for the required growth improvement.

    financeable: delta_g_min/mu fits inside the operational envelope (always
    true when nothing is required); timely: the program completes inside the
    residual window (inclusive).  delta_g_min may be inf (hard failure).
    """
    if delta_g_min != math.inf:
        _require_finite("delta_g_min", delta_g_min)
    if spec.mu <= 0:
        raise DomainError("mu must be > 0")
    if delta_g_min <= 0:
        financeable = True
    else:
        financeable = delta_g_min / spec.mu <= spec.x_max_operational
    timely = spec.T_invest <= spec.T_star
    return {
        "financeable": financeable,
        "timely": timely,
        "feasible": financeable and timely,
    }


def feasibility_label(
    delta_g_min: float, mu_range: Tuple[float, float], x_max: float
) -> str:
    """Qualitative feasibility of a required growth improvement.

    required mu = delta_g_min/x_max; Conditional at <= 0.05, Tight at
    <= 0.07, Unlikely up to the top of the supplied efficiency range,
    Infeasible beyond it, when the envelope is closed, or at delta_g_min = inf.
    """
    if delta_g_min != math.inf:
        _require_finite("delta_g_min", delta_g_min)
    _require_finite("x_max", x_max)
    lo, hi = mu_range
    if not (0 < lo <= hi < 1):
        raise DomainError("mu_range must satisfy 0 < lo <= hi < 1")
    if x_max <= 0:
        return "Infeasible"
    required_mu = delta_g_min / x_max
    if required_mu <= _MU_CONDITIONAL:
        return "Conditional"
    if required_mu <= _MU_TIGHT:
        return "Tight"
    if required_mu <= hi:
        return "Unlikely"
    return "Infeasible"
