"""Accounting backbone: debt recursion, stability condition, scope conditions.

All rates are annual fractions (0.008 means 0.8%/yr); debt ratios are
dimensionless multiples of GDP (2.40 means 240%).  Table emitters convert to
percent at the rendering layer, never here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigError, DomainError

__all__ = [
    "EconState",
    "RegimeParams",
    "FiscalResponse",
    "step_debt",
    "step_debt_stochastic",
    "stability_surplus",
    "check_scope",
    "effective_deficit",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _require_integer(name: str, value) -> None:
    """`DomainError` unless `value` is an integer (numpy integers included)."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class EconState:
    """One period's macro-fiscal observables.

    b_prev : debt-to-GDP ratio at the start of the period (> 0)
    r_n    : effective nominal rate (fraction/yr)
    g_n    : nominal growth (fraction/yr)
    pi     : inflation (fraction/yr)
    d      : effective deficit (fraction of GDP/yr)
    s      : seigniorage-like offset (fraction of GDP/yr), default 0
    """

    b_prev: float
    r_n: float
    g_n: float
    pi: float
    d: float
    s: float = 0.0

    def __post_init__(self):
        for name in ("b_prev", "r_n", "g_n", "pi", "d", "s"):
            _require_finite(name, getattr(self, name))
        if self.b_prev <= 0:
            raise DomainError(f"b_prev must be > 0, got {self.b_prev}")
        if abs(self.r_n - self.g_n) >= 1:
            raise DomainError(
                f"|r_n - g_n| must be < 1, got {abs(self.r_n - self.g_n)}"
            )

    @property
    def spread(self) -> float:
        return self.r_n - self.g_n


@dataclass(frozen=True)
class RegimeParams:
    """Repression and scope parameters.  The control-rights index has its
    own inputs (`extensions.PsiSpec`, `TwoLayerParams.psi`), not these.

    epsilon  : repression bias, inflation minus repression-consistent yield
    g_star   : potential nominal growth
    phi      : domestic captive share in [0, 1]
    phi_bar  : captive threshold in [0, 1]
    kappa    : annual decline rate of the captive share (linear clock)
    de       : exchange-rate depreciation this period
    e_bar    : depreciation window bound
    alpha    : linear pass-through coefficient (>= 0)
    beta     : quadratic overshoot penalty coefficient (>= 0)
    kappa_exp : optional proportional decay rate for the exponential clock
    """

    epsilon: float = 0.005
    g_star: float = 0.030
    phi: float = 0.88
    phi_bar: float = 0.85
    kappa: float = 0.01
    de: float = 0.0
    e_bar: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    kappa_exp: Optional[float] = 0.01

    def __post_init__(self):
        # the shares are range-checked below, which also rejects NaN and inf
        for name in ("epsilon", "g_star", "kappa", "de", "e_bar", "alpha", "beta"):
            _require_finite(name, getattr(self, name))
        if self.kappa_exp is not None:
            _require_finite("kappa_exp", self.kappa_exp)
        for name in ("phi", "phi_bar"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v}")
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("alpha and beta must be nonnegative")

    def pass_through(self) -> float:
        """Exchange-rate contribution: alpha*de - beta*max(0, de - e_bar)^2."""
        overshoot = max(0.0, self.de - self.e_bar)
        return self.alpha * self.de - self.beta * overshoot * overshoot


@dataclass(frozen=True)
class FiscalResponse:
    """Deficit as a function of the inherited debt ratio.

    mode 'constant'       : d = d0
    mode 'deficit_relief' : d = d0 + gamma*(b - b_ref)      (gamma >= 0)
    mode 'general'        : piecewise-linear table b -> d, clamped beyond
                            the end knots (Lipschitz by construction)
    """

    mode: str = "constant"
    d0: float = 0.02
    gamma: float = 0.0
    b_ref: float = 2.40
    table: Optional[Sequence[tuple]] = field(default=None)

    def __post_init__(self):
        if self.mode not in ("constant", "deficit_relief", "general"):
            raise ConfigError(f"unknown fiscal-response mode {self.mode!r}")
        for name in ("d0", "gamma", "b_ref"):
            _require_finite(name, getattr(self, name))
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")
        if self.mode == "general":
            if not self.table:
                raise ConfigError("general fiscal-response mode requires a table")
            for b, d in self.table:
                _require_finite("fiscal-response table b", b)
                _require_finite("fiscal-response table d", d)
            knots = sorted(self.table)
            bs = [k[0] for k in knots]
            if len(set(bs)) != len(bs):
                raise ConfigError("fiscal-response table has duplicate b knots")
            object.__setattr__(self, "table", tuple((float(b), float(d)) for b, d in knots))

    def lipschitz_constant(self) -> float:
        """Largest absolute slope between adjacent knots (general mode)."""
        if self.mode == "constant":
            return 0.0
        if self.mode == "deficit_relief":
            return self.gamma
        slopes = [
            abs((d1 - d0) / (b1 - b0))
            for (b0, d0), (b1, d1) in zip(self.table, self.table[1:])
        ]
        return max(slopes) if slopes else 0.0


def step_debt(state: EconState) -> float:
    """One period of the debt recursion: b' = b*(1 + r - g) + d."""
    return state.b_prev * (1.0 + state.r_n - state.g_n) + state.d


def step_debt_stochastic(state: EconState, sigma: float, eta: float) -> float:
    """Debt recursion with a bounded multiplicative shock on the spread.

    b' = b*(1 + r - g + sigma*eta) + d, with sigma >= 0 and |eta| <= 1.
    eta = 0 reproduces step_debt exactly.
    """
    _require_finite("sigma", sigma)
    _require_finite("eta", eta)
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    if abs(eta) > 1:
        raise DomainError(f"|eta| must be <= 1, got {eta}")
    return state.b_prev * (1.0 + state.r_n - state.g_n + sigma * eta) + state.d


def stability_surplus(state: EconState, regime: RegimeParams) -> float:
    """Stability-condition surplus (fraction/yr); positive means the
    regime-supported path is shrinking the debt ratio.

    epsilon + g_star + alpha*de - beta*max(0, de - e_bar)^2
        - pi - (d - s)/b_prev
    """
    burden = (state.d - state.s) / state.b_prev
    return regime.epsilon + regime.g_star + regime.pass_through() - state.pi - burden


def check_scope(regime: RegimeParams) -> dict:
    """Scope conditions; both boundaries inclusive.

    sc1: captive share at or above threshold (phi >= phi_bar)
    sc2: depreciation within the stability window (de <= e_bar)
    """
    return {
        "sc1": regime.phi >= regime.phi_bar,
        "sc2": regime.de <= regime.e_bar,
    }


def effective_deficit(fr: FiscalResponse, b_prev: float) -> float:
    """Evaluate the fiscal-response function at a debt ratio."""
    _require_finite("b_prev", b_prev)
    if b_prev <= 0:
        raise DomainError(f"b_prev must be > 0, got {b_prev}")
    if fr.mode == "constant":
        return fr.d0
    if fr.mode == "deficit_relief":
        return fr.d0 + fr.gamma * (b_prev - fr.b_ref)
    # general: piecewise-linear with clamped extrapolation at the end knots
    knots = fr.table
    if b_prev <= knots[0][0]:
        return knots[0][1]
    if b_prev >= knots[-1][0]:
        return knots[-1][1]
    for (b0, d0), (b1, d1) in zip(knots, knots[1:]):
        if b0 <= b_prev <= b1:
            w = (b_prev - b0) / (b1 - b0)
            return d0 + w * (d1 - d0)
    raise DomainError("unreachable: table interpolation failed")  # pragma: no cover
