"""Set-valued regime inference: boundary scores, tiered envelopes,
local-linear detrending, block-subsampling critical values, and the
conservative sign-rule classification.

The target of inference is an interval of scores over an admissible family
of measurement readings, not a point.  Bands widen the interval; labels are
declared only when the widened band clears zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closure import TwoLayerParams, demand_at
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
    """Lower/upper score bounds over one tier's variants at one period."""

    t: int
    lower: float
    upper: float
    argmin_id: str
    argmax_id: str
    label: str = ""


@dataclass(frozen=True)
class SubsampleConfig:
    """Block-subsampling settings for the band half-width.

    window_h  : inference window in periods
    block_len : contiguous block length (3 <= block_len < window_h)
    alpha     : band level in (0, 1)
    block_grid: lengths for the sensitivity sweep
    statistic : fixed to the window mean (recorded in output metadata)
    """

    window_h: int = 24
    block_len: int = 6
    alpha: float = 0.10
    block_grid: Tuple[int, ...] = (4, 6, 8)
    statistic: str = "window_mean"

    def __post_init__(self):
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
    if spec.state.b_prev <= 0:
        raise DomainError("b_prev must be > 0")
    threshold = required_growth_exogenous(spec)["threshold"]
    return spec.g_new - threshold


_PE_FIELDS = ("theta", "psi", "z", "c_bar", "phi_req", "dist")
_TF_FIELDS = ("b_concept", "d", "s")


def apply_pe_variant(base: TwoLayerParams, variant: MeasurementVariant) -> float:
    """Score one admissible reading of the two-layer state."""
    fields = {f: getattr(base, f) for f in _PE_FIELDS}
    for key, value in variant.overrides.items():
        if key not in _PE_FIELDS:
            raise ConfigError(f"variant {variant.id!r}: unknown override {key!r}")
        fields[key] = value
    return score_pe(TwoLayerParams(**fields))


def apply_tf_variant(spec: TransitionSpec, variant: MeasurementVariant) -> float:
    """Score one admissible debt-concept / fiscal-burden reading."""
    st = spec.state
    b = st.b_prev
    d = st.d
    s = st.s
    for key, value in variant.overrides.items():
        if key == "b_concept":
            b = value
        elif key == "d":
            d = value
        elif key == "s":
            s = value
        else:
            raise ConfigError(f"variant {variant.id!r}: unknown override {key!r}")
    from .core import EconState

    patched = TransitionSpec(
        state=EconState(b_prev=b, r_n=st.r_n, g_n=st.g_n, pi=st.pi, d=d, s=s),
        g_new=spec.g_new, rho_bar=spec.rho_bar, m=spec.m,
        g_star_baseline=spec.g_star_baseline,
    )
    return score_tf(patched)


def tier_scores(base, variants: Sequence[MeasurementVariant], tier: int,
                mode: str = "PE") -> Dict[str, float]:
    """Evaluate every variant admissible at a tier (nesting is by
    construction: a tier-k variant belongs to all tiers >= k)."""
    apply = apply_pe_variant if mode == "PE" else apply_tf_variant
    out: Dict[str, float] = {}
    for v in variants:
        if v.tier <= tier:
            out[v.id] = apply(base, v)
    if not out:
        raise ConfigError(f"no variants admissible at tier {tier}")
    return out


def envelope(
    scores: Dict[str, float], t: int = 0, variant_order: Optional[Sequence[str]] = None
) -> TierEnvelope:
    """Min/max envelope over one tier's variant scores.

    `scores` maps variant id -> score.  Ties resolve to the earliest id in
    `variant_order` (insertion order by default) so the arg labels are
    deterministic.
    """
    if not scores:
        raise ConfigError("envelope requires at least one variant in the tier")
    order = list(variant_order) if variant_order is not None else list(scores)
    lo_id = min(order, key=lambda k: (scores[k], order.index(k)))
    hi_id = max(order, key=lambda k: (scores[k], -order.index(k)))
    return TierEnvelope(
        t=t,
        lower=scores[lo_id],
        upper=scores[hi_id],
        argmin_id=lo_id,
        argmax_id=hi_id,
    )


def _line_fit(y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """OLS line through y along its last axis, as (mean, slope) on the centred
    time index c = j - (m - 1) / 2; since sum(c) = 0 the slope is
    sum(c * y) / sum(c**2) and the fitted value at c is mean + slope * c."""
    m = y.shape[-1]
    c = np.arange(m) - (m - 1) / 2.0
    return y.mean(axis=-1), (y * c).sum(axis=-1) / (m * (m * m - 1) / 12.0)


def detrend_local_linear(series: Sequence[float], window_h: int) -> dict:
    """Local-linear trend via moving least-squares line fits.

    Each point's trend value comes from the OLS line fit on the length-
    window_h window centered on it (clamped at the edges, so the first and
    last points reuse the end windows).  The fits are closed form: each
    distinct window's mean and centred-index slope is computed once over a
    sliding window view, and every point evaluates the line of its window.
    A `[..., n]` array is detrended row by row along its last axis.
    Fitting an exact line leaves a remainder at rounding level.
    """
    y = np.asarray(series, dtype=float)
    n = y.shape[-1]
    if window_h < 4:
        raise EstimationError(f"window_h must be >= 4, got {window_h}")
    if n < window_h:
        raise EstimationError(f"series length {n} shorter than window {window_h}")
    if not np.isfinite(y).all():
        raise EstimationError("series contains non-finite values")
    # contiguous windows make every row reduce in the same order as a 1-D call
    windows = np.ascontiguousarray(sliding_window_view(y, window_h, axis=-1))
    mean, slope = _line_fit(windows)
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
    quantile of those deviations divided by sqrt(h), floored at zero.

    Fewer than 5 blocks triggers the maximally conservative fallback: the
    largest absolute remainder deviation in the window.

    A 1-D remainder gives a float; a `[..., n]` array gives one half-width
    per row, each equal to the 1-D call on that row.
    """
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
    tau = window.mean(axis=-1)
    n_blocks = h - ell + 1
    if n_blocks < 5:
        half = np.max(np.abs(window - tau[..., None]), axis=-1)
    else:
        # block sums accumulate one offset at a time: the same order per row
        block_sums = window[..., :n_blocks]
        for j in range(1, ell):
            block_sums = block_sums + window[..., j : j + n_blocks]
        devs = math.sqrt(ell) * (block_sums / ell - tau[..., None])
        k = math.ceil((1.0 - cfg.alpha) * n_blocks)  # type-1 (right-continuous) quantile
        q = np.sort(devs, axis=-1)[..., min(max(k, 1), n_blocks) - 1]
        half = np.maximum(0.0, q / math.sqrt(h))
    return float(half) if r.ndim == 1 else half


def classify(env: TierEnvelope, c_lower: float, c_upper: float, mode: str) -> str:
    """Conservative sign-rule classification of a widened envelope.

    mode 'PE': robustly-interior when the widened lower bound clears zero,
    robustly-premium-emergent when the widened upper bound is below zero,
    boundary-near otherwise.  mode 'TF': feasible / infeasible / marginal by
    the same rule.
    """
    if mode not in ("PE", "TF"):
        raise DomainError(f"mode must be 'PE' or 'TF', got {mode!r}")
    positive = env.lower - c_lower > 0
    negative = env.upper + c_upper < 0
    if mode == "PE":
        if positive:
            return "robustly-interior"
        if negative:
            return "robustly-premium-emergent"
        return "boundary-near"
    if positive:
        return "feasible"
    if negative:
        return "infeasible"
    return "marginal"


def label_covers(label: str, truth_positive: bool) -> bool:
    """Whether a classification label's implied set contains the true regime."""
    if label in ("robustly-interior", "feasible"):
        return truth_positive
    if label in ("robustly-premium-emergent", "infeasible"):
        return not truth_positive
    return True  # set-valued labels cover both regimes


def trend_growth_estimate(
    gdp_series: Sequence[float], window_quarters: int
) -> float:
    """Annualized log-linear trend growth over the trailing window.

    OLS slope of log(GDP) on the quarter index, times 4.  Requires strictly
    positive values and a window of at least 8 quarters.
    """
    y = np.asarray(gdp_series, dtype=float)
    if window_quarters < 8:
        raise EstimationError(f"window_quarters must be >= 8, got {window_quarters}")
    if len(y) < window_quarters:
        raise EstimationError(
            f"series length {len(y)} shorter than window {window_quarters}"
        )
    tail = y[-window_quarters:]
    if np.any(tail <= 0):
        raise DomainError("GDP values must be strictly positive")
    _, slope = _line_fit(np.log(tail))
    return float(slope) * 4.0
