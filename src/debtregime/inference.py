"""Set-valued regime inference: boundary scores, tiered envelopes,
local-linear detrending, block-subsampling critical values, and the
conservative sign-rule classification.  `_line_fit` is the one OLS line
fit: detrending, trend growth and `extensions.estimate_kappa` call it.

The target of inference is an interval of scores over an admissible family
of measurement readings, not a point.  Bands widen the interval; labels are
declared only when the widened band clears zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple, Union

from .closure import TwoLayerParams, demand_at
from .core import _require_finite, _require_integer
from .errors import ConfigError, DomainError, EstimationError
from .transition import TransitionSpec, required_growth_exogenous

__all__ = [
    "MeasurementVariant",
    "TierEnvelope",
    "SubsampleConfig",
    "score_pe",
    "score_tf",
    "apply_pe_variant",
    "apply_tf_variant",
    "tier_scores",
    "envelope",
    "detrend_local_linear",
    "subsample_critical_value",
    "classify",
    "trend_growth_estimate",
    "PE_LABELS",
    "TF_LABELS",
]

PE_LABELS = ("robustly-interior", "boundary-near", "robustly-premium-emergent")
TF_LABELS = ("feasible", "marginal", "infeasible")


@dataclass(frozen=True)
class MeasurementVariant:
    """One admissible measurement reading.

    `overrides` is a partial overlay: for premium-emergence scores it patches
    TwoLayerParams fields, for transition-feasibility scores it patches
    {b_concept, d, s}.  Tiers are nested: a tier-k variant belongs to every
    tier >= k.
    """

    id: str
    overrides: dict
    tier: int = 1


@dataclass(frozen=True)
class TierEnvelope:
    """Lower/upper score bounds over one tier's variants, with the ids of
    the variants that attain them."""

    lower: float
    upper: float
    argmin_id: str
    argmax_id: str


@dataclass(frozen=True)
class SubsampleConfig:
    """Block-subsampling settings for one band half-width; the statistic is
    the window mean.  The block-length sensitivity grid is
    `MCConfig.block_grid`.

    window_h  : inference window in periods (an integer)
    block_len : contiguous block length, an integer in [3, window_h)
    alpha     : band level in (0, 1)
    """

    window_h: int = 24
    block_len: int = 6
    alpha: float = 0.10

    def __post_init__(self):
        for name in ("window_h", "block_len", "alpha"):
            _require_finite(name, getattr(self, name))
        _require_integer("window_h", self.window_h)
        _require_integer("block_len", self.block_len)
        if not (3 <= self.block_len < self.window_h):
            raise ConfigError(
                f"need 3 <= block_len < window_h, got {self.block_len}, {self.window_h}"
            )
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")


def score_pe(p: TwoLayerParams) -> float:
    """Premium-emergence boundary score: zero-premium demand minus the
    required absorption share.  Positive means interior regime."""
    return demand_at(0.0, p) - p.phi_req


def score_tf(spec: TransitionSpec) -> float:
    """Transition-feasibility margin score: proposed growth minus the
    threshold.  Positive means the exit condition holds with margin."""
    threshold = required_growth_exogenous(spec)["threshold"]
    return spec.g_new - threshold


_PE_FIELDS = ("theta", "psi", "z", "c_bar", "phi_req", "dist")
# override key -> EconState field
_TF_FIELDS = {"b_concept": "b_prev", "d": "d", "s": "s"}


def _check_overrides(variant: MeasurementVariant, allowed) -> None:
    for key in variant.overrides:
        if key not in allowed:
            raise ConfigError(f"variant {variant.id!r}: unknown override {key!r}")


def apply_pe_variant(base: TwoLayerParams, variant: MeasurementVariant) -> float:
    """Score one admissible reading of the two-layer state."""
    _check_overrides(variant, _PE_FIELDS)
    return score_pe(replace(base, **variant.overrides))


def apply_tf_variant(spec: TransitionSpec, variant: MeasurementVariant) -> float:
    """Score one admissible debt-concept / fiscal-burden reading."""
    _check_overrides(variant, _TF_FIELDS)
    state = replace(spec.state, **{_TF_FIELDS[k]: v for k, v in variant.overrides.items()})
    return score_tf(replace(spec, state=state))


def tier_scores(base, variants: Sequence[MeasurementVariant], tier: int,
                mode: str = "PE") -> Dict[str, float]:
    """Evaluate every variant admissible at a tier (nesting is by
    construction: a tier-k variant belongs to all tiers >= k)."""
    if mode not in ("PE", "TF"):
        raise DomainError(f"mode must be 'PE' or 'TF', got {mode!r}")
    apply = apply_pe_variant if mode == "PE" else apply_tf_variant
    out: Dict[str, float] = {}
    for v in variants:
        if v.tier <= tier:
            out[v.id] = apply(base, v)
    if not out:
        raise ConfigError(f"no variants admissible at tier {tier}")
    return out


def envelope(scores: Dict[str, float]) -> TierEnvelope:
    """Min/max envelope over one tier's variant scores.

    `scores` maps variant id -> score.  Ties resolve to the earliest id in
    insertion order (`min` and `max` keep the first of equal scores), so the
    arg labels are deterministic.
    """
    if not scores:
        raise ConfigError("envelope requires at least one variant in the tier")
    lo_id = min(scores, key=scores.__getitem__)
    hi_id = max(scores, key=scores.__getitem__)
    return TierEnvelope(lower=scores[lo_id], upper=scores[hi_id],
                        argmin_id=lo_id, argmax_id=hi_id)


def _line_fit(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """OLS line of y on the 1-D regressor x along y's last axis, as (mean,
    slope) on the centred regressor c, so the fit at c is mean + slope * c.
    Centring twice keeps the rounding of mean(x) (large for calendar years)
    out of the slope.  A mean is `add.reduce / m`, as `ndarray.mean` is."""
    import numpy as np

    m = x.shape[-1]
    c = x - np.add.reduce(x) / m
    c = c - np.add.reduce(c) / m
    return np.add.reduce(y, axis=-1) / m, np.add.reduce(y * c, axis=-1) / np.add.reduce(c * c)


def detrend_local_linear(series: Sequence[float], window_h: int) -> dict:
    """Local-linear trend via moving least-squares line fits.

    Each point's trend value comes from the OLS line fit on the length-
    window_h window centered on it (clamped at the edges, so the first and
    last points reuse the end windows).  A `[..., n]` array is detrended
    row by row along its last axis, each row bit for bit as a 1-D call: the
    fits run on C-contiguous windows, and a series of length window_h is
    its own one window, fitted directly.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    _require_integer("window_h", window_h)
    y = np.asarray(series, dtype=float)
    n = y.shape[-1]
    if window_h < 4:
        raise EstimationError(f"window_h must be >= 4, got {window_h}")
    if n < window_h:
        raise EstimationError(f"series length {n} shorter than window {window_h}")
    if not np.isfinite(y).all():
        raise EstimationError("series contains non-finite values")
    x = np.arange(window_h, dtype=float)
    if n == window_h:
        mean, slope = _line_fit(x, np.ascontiguousarray(y))
        trend = mean[..., None] + slope[..., None] * (x - (window_h - 1) / 2.0)
    else:
        windows = np.ascontiguousarray(sliding_window_view(y, window_h, axis=-1))
        mean, slope = _line_fit(x, windows)
        i = np.arange(n)
        start = np.clip(i - window_h // 2, 0, n - window_h)
        trend = mean[..., start] + slope[..., start] * (i - start - (window_h - 1) / 2.0)
    return {"trend": trend, "remainder": y - trend}


def subsample_critical_value(
    remainder: Sequence[float], cfg: SubsampleConfig
) -> Union[float, np.ndarray]:
    """Band half-width from block subsampling of a detrended remainder.

    Over the trailing window of length window_h: tau = window mean; for each
    of the h - l + 1 contiguous blocks, the deviation sqrt(l)*(block mean -
    tau); the half-width is the right-continuous (1 - alpha) empirical
    quantile of those deviations divided by sqrt(h), floored at +0.0.
    Fewer than 5 blocks triggers the maximally conservative fallback: the
    largest absolute remainder deviation in the window.

    A 1-D remainder gives a float; a `[..., n]` array gives one half-width
    per row, bit for bit the 1-D call on that row.
    """
    import numpy as np

    r = np.asarray(remainder, dtype=float)
    h = cfg.window_h
    if r.shape[-1] < h:
        raise EstimationError(
            f"remainder length {r.shape[-1]} shorter than window {h}"
        )
    window = np.ascontiguousarray(r[..., -h:])
    if not np.isfinite(window).all():
        raise EstimationError("remainder window contains non-finite values")
    ell = cfg.block_len
    tau = np.add.reduce(window, axis=-1) / h
    n_blocks = h - ell + 1
    if n_blocks < 5:
        half = np.max(np.abs(window - tau[..., None]), axis=-1)
    else:
        # [block, row] sums on a period-major copy: each offset adds one
        # contiguous slice, in the left-to-right order of a single row
        periods = np.ascontiguousarray(window.reshape(-1, h).T)
        block_sums = periods[:n_blocks].copy()
        for j in range(1, ell):
            block_sums += periods[j : j + n_blocks]
        # the deviation is nondecreasing in the block sum (rounding included),
        # so only the selected order statistic of the sums is mapped; the sign
        # of a selected zero is settled by the floor: max(0.0, -0.0) is -0.0,
        # and adding 0.0 makes it +0.0
        k = math.ceil((1.0 - cfg.alpha) * n_blocks)  # type-1 (right-continuous) quantile
        block_sums.sort(axis=0)
        s = block_sums[min(max(k, 1), n_blocks) - 1].reshape(tau.shape)
        q = math.sqrt(ell) * (s / ell - tau)
        half = np.maximum(0.0, q / math.sqrt(h)) + 0.0
    return float(half) if r.ndim == 1 else half


def classify(lower: float, upper: float, c_lower: float, c_upper: float,
             mode: str) -> str:
    """Conservative sign-rule classification of the widened envelope
    [lower - c_lower, upper + c_upper].

    The positive label when the widened lower bound clears zero, the
    negative label when the widened upper bound is below zero, the middle
    label otherwise; the labels are (positive, middle, negative) of
    PE_LABELS for mode 'PE' (robustly-interior / boundary-near /
    robustly-premium-emergent) and of TF_LABELS for mode 'TF' (feasible /
    marginal / infeasible).
    """
    if mode not in ("PE", "TF"):
        raise DomainError(f"mode must be 'PE' or 'TF', got {mode!r}")
    positive, middle, negative = PE_LABELS if mode == "PE" else TF_LABELS
    if lower - c_lower > 0:
        return positive
    if upper + c_upper < 0:
        return negative
    return middle


def trend_growth_estimate(
    gdp_series: Sequence[float], window_quarters: int
) -> float:
    """Annualized log-linear trend growth over the trailing window.

    OLS slope of log(GDP) on the quarter index, times 4.  Requires finite,
    strictly positive values and an integer window of at least 8 quarters.
    """
    import numpy as np

    _require_integer("window_quarters", window_quarters)
    y = np.asarray(gdp_series, dtype=float)
    if window_quarters < 8:
        raise EstimationError(f"window_quarters must be >= 8, got {window_quarters}")
    if len(y) < window_quarters:
        raise EstimationError(
            f"series length {len(y)} shorter than window {window_quarters}"
        )
    tail = y[-window_quarters:]
    if not np.isfinite(tail).all():
        raise EstimationError("GDP window contains non-finite values")
    if np.any(tail <= 0):
        raise DomainError("GDP values must be strictly positive")
    _, slope = _line_fit(np.arange(window_quarters, dtype=float), np.log(tail))
    return float(slope) * 4.0
