"""Seeded Monte Carlo comparison of regime classifiers.

Two experiments: the premium-emergence boundary classifier (tiered envelope
with subsampling bands versus naive point rules) and the transition-
feasibility margin classifier (debt-concept ambiguity).  Replications are
independent; each derives its generator from seed XOR replication index, so
results are bit-identical for a fixed seed.  Demand, premium, core drift
and growth threshold come from the closure and transition kernels.  The
replications run in lockstep as [replication, period] arrays: one DGP pass
advances every replication per period, the envelope bounds are stacked and
detrended once per horizon, each block length runs one band call on every
row, and each replication's envelope is built once per horizon and reused
by every block and method.  `threads` is accepted and has no effect.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import List, Sequence, Tuple, Union

import numpy as np

from .closure import MarginDistribution, ThetaLaw, TwoLayerParams
from .closure import _core_drift, _demand_on_grid, _premium_on_grid
from .core import _require_finite
from .errors import ConfigError, DomainError
from .inference import (
    PE_LABELS,
    TF_LABELS,
    SubsampleConfig,
    TierEnvelope,
    classify,
    detrend_local_linear,
    subsample_critical_value,
)
from .transition import _threshold

__all__ = [
    "MCConfig",
    "run_mc_pe",
    "run_mc_tf",
    "simulate_pe_paths",
    "PE_METHODS",
    "TF_METHODS",
]

PE_METHODS = (
    "proposed_tier2",
    "proposed_tier3",
    "naive_plugin",
    "single_threshold",
    "fixed_spec",
)

TF_METHODS = (
    "proposed_tier1",
    "proposed_tier2",
    "naive_baseline",
    "naive_monitoring",
    "fixed_spec_baseline",
)


_MONITOR_B = 1.574  # debt ratio under the monitoring (instrument-level) concept


@dataclass(frozen=True)
class MCConfig:
    """All knobs of the two Monte Carlo experiments.

    The data-generating process follows the two-layer closure: the core share
    integrates AR(1) innovations on top of its structural law, the outside-
    option spread is AR(1) around its baseline with occasional geometrically
    decaying stress shifts, and the control-rights index stays constant.
    Only the core share is observed with noise.

    The counts (seed, n_reps, T, window_h, block_len, block_grid entries)
    must be integers (numpy integers included), else `DomainError`; the
    seed must lie in [0, 2**64), else `ConfigError`.  The non-band methods
    are reported at `block_len`, so it must be an entry of `block_grid`,
    else `ConfigError`.
    """

    n_reps: int = 500
    T: int = 60
    alpha: float = 0.10
    seed: int = 42
    sigma_theta_obs: float = 0.02

    # core-share dynamics
    theta0: float = 0.65
    rho_theta: float = 0.8
    sd_theta: float = 0.005
    kappa_theta: float = 0.0
    g0: float = 0.0
    eps_cap: float = math.inf

    # outside-option dynamics
    z0: float = 0.02
    rho_z: float = 0.9
    sd_z: float = 0.0025
    stress_prob: float = 0.05
    stress_size: float = 0.0075
    stress_decay: float = 0.9

    # static closure inputs
    psi: float = 0.97
    c_bar: float = 0.06
    phi_req: float = 0.85
    pi: float = 0.027
    r_rep: float = 0.022

    # classifier settings
    evaluation_horizons: Tuple[float, ...] = (3.8, 7.5, 11.2, 15.0)
    window_h: int = 24
    block_len: int = 6
    block_grid: Tuple[int, ...] = (4, 6, 8)
    theta_reading_shift: float = 0.02
    dead_zone: float = 0.01

    # transition-feasibility experiment
    tf_b_baseline: float = 2.40
    tf_b_monitoring: float = _MONITOR_B
    tf_g_star: float = 0.03
    tf_g_spread: float = 0.015
    tf_pi0: float = 0.027
    tf_d0: float = 0.02
    tf_rho: float = 0.8
    tf_sd: float = 0.001
    tf_m: float = 0.0

    def __post_init__(self):
        counts = ("seed", "n_reps", "T", "window_h", "block_len", "block_grid")
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if not (f.name == "eps_cap" and v == math.inf):
                    _require_finite(f.name, v)
                if f.name in counts:
                    try:
                        operator.index(v)
                    except TypeError:
                        raise DomainError(
                            f"{f.name} must be an integer, got {v!r}"
                        ) from None
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.n_reps < 1:
            raise DomainError("n_reps must be >= 1")
        if self.T < self.window_h:
            raise DomainError("T must be at least window_h")
        if self.block_len not in self.block_grid:
            raise ConfigError(
                f"block_len {self.block_len} must be an entry of block_grid "
                f"{self.block_grid}"
            )
        if not self.evaluation_horizons:
            raise ConfigError("evaluation_horizons must hold at least one horizon")
        for h_yr, q in zip(self.evaluation_horizons, _horizon_indices(self)):
            if not 3 <= q < self.T:  # quarters 4 to T: 1 to T/4 years
                raise ConfigError(f"evaluation horizon {h_yr} must lie within "
                                  f"[1, {self.T / 4:g}] years (T = {self.T} quarters)")


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Per-replication stream: PCG64 keyed by seed XOR replication index
    (as Python ints, so numpy integer reps cannot overflow the mask)."""
    key = (operator.index(seed) ^ operator.index(rep)) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.PCG64(key))


# Piecewise-linear CDF perturbations of the uniform margin distribution used
# as the tier-3 specification readings: same support, concave / convex bow.
_G_FRACS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _bowed_dist(c_bar: float, power: float) -> MarginDistribution:
    knots = tuple((f * c_bar, f**power) for f in _G_FRACS)
    return MarginDistribution(kind="table", knots=knots)


def _params(cfg: MCConfig, dist: MarginDistribution = MarginDistribution()) -> TwoLayerParams:
    """The closure state at the initial core share and spread, on margin `dist`."""
    return TwoLayerParams(theta=cfg.theta0, psi=cfg.psi, z=cfg.z0, c_bar=cfg.c_bar,
                          phi_req=cfg.phi_req, dist=dist)


def _pe_scores(theta: np.ndarray, z: np.ndarray, p: TwoLayerParams) -> np.ndarray:
    """Zero-premium boundary score element by element: `score_pe` with the
    core share and the spread varying per element."""
    return _demand_on_grid(0.0, theta, z, p) - p.phi_req


def simulate_pe_paths(cfg: MCConfig, rep: Union[int, Sequence[int]]) -> dict:
    """Replications of the premium-emergence DGP, run in lockstep.

    Returns the true core and spread paths, the noisy observed core, and the
    true per-period boundary scores.  An int `rep` gives `[T]` arrays; a
    sequence of reps gives `[R, T]` arrays whose row i is replication
    rep[i], bit for bit the same as the int call.  Each replication draws
    its shocks from its own stream; one period loop then advances every
    replication as an `[R]` vector, with one array premium solve per period
    when g0 > 0 or kappa > 0.  The clamps mirror Python's `max(x, 1e-6)`,
    `max(0.0, x)` and `min(1.0, x)` (which keep the first argument unless
    the second is strictly larger, or smaller), so no -0.0 appears.
    """
    single = np.ndim(rep) == 0
    reps = [rep] if single else list(rep)
    R, T = len(reps), cfg.T
    eta_theta, eta_z, obs_noise = np.empty((3, R, T))
    events = np.empty((R, T), dtype=bool)
    for i, r in enumerate(reps):
        rng = _rep_rng(cfg.seed, r)
        eta_theta[i] = rng.normal(0.0, cfg.sd_theta, T)
        eta_z[i] = rng.normal(0.0, cfg.sd_z, T)
        events[i] = rng.uniform(0.0, 1.0, T) < cfg.stress_prob
        obs_noise[i] = rng.normal(0.0, cfg.sigma_theta_obs, T)
    stress_add = np.where(events, cfg.stress_size, 0.0)

    law = ThetaLaw(kappa_theta=cfg.kappa_theta, g0=cfg.g0, eps_cap=cfg.eps_cap)
    base = _params(cfg)
    structural = cfg.g0 > 0.0 or cfg.kappa_theta > 0.0

    theta = np.empty((R, T))
    z = np.empty((R, T))
    theta_t = np.full(R, cfg.theta0)
    u = v = stress = 0.0
    for t in range(T):
        v = cfg.rho_z * v + eta_z[:, t]
        stress = cfg.stress_decay * stress + stress_add[:, t]
        z_t = cfg.z0 + v + stress
        z_t = np.where(1e-6 > z_t, 1e-6, z_t)
        theta[:, t] = theta_t
        z[:, t] = z_t
        # structural part of the law needs each replication's premium
        if structural:
            drift = _core_drift(_premium_on_grid(base, theta_t, z_t), law, cfg.pi, cfg.r_rep)
        else:
            drift = 0.0
        u = cfg.rho_theta * u + eta_theta[:, t]
        theta_t = theta_t + drift + u
        theta_t = np.where(theta_t > 0.0, theta_t, 0.0)
        theta_t = np.where(theta_t < 1.0, theta_t, 1.0)
    theta_obs = np.clip(theta + obs_noise, 0.0, 1.0)
    true_scores = _pe_scores(theta, z, base)
    paths = {
        "theta": theta,
        "z": z,
        "theta_obs": theta_obs,
        "true_scores": true_scores,
    }
    return {k: a[0] for k, a in paths.items()} if single else paths


def _horizon_indices(cfg: MCConfig) -> List[int]:
    """Period index of each evaluation horizon (years to quarters)."""
    return [int(round(h_yr * 4.0)) - 1 for h_yr in cfg.evaluation_horizons]


def _bands(
    stack: np.ndarray,
    demeaned: np.ndarray,
    q: int,
    window_h: int,
    blocks: Sequence[int],
    alpha: float,
) -> np.ndarray:
    """Band half-widths [n_blocks, k + 1, R] over the trailing window ending
    at q.

    The k series of `stack` [k, R, T] are detrended in one call; the
    `demeaned` series [R, T] (the fixed-specification reading) is demeaned
    instead and appended as row k.  Each block length then runs the
    subsampling kernel once on every row.  Both kernels work row by row
    along the last axis, so each row equals a call on that series alone.
    """
    w = min(window_h, q + 1)
    rem = detrend_local_linear(stack[..., q + 1 - w : q + 1], w)["remainder"]
    win = demeaned[:, q + 1 - w : q + 1]
    rem = np.concatenate([rem, [win - win.mean(axis=1, keepdims=True)]])
    return np.array([
        subsample_critical_value(
            rem, SubsampleConfig(window_h=w, block_len=min(ell, w - 1), alpha=alpha)
        )
        for ell in blocks
    ])


def _envelopes(lower: np.ndarray, upper: np.ndarray) -> List[TierEnvelope]:
    """Each replication's envelope at one period, built once and shared by
    every block length and method that classifies it."""
    return [
        TierEnvelope(t=0, lower=lo, upper=up, argmin_id="", argmax_id="")
        for lo, up in zip(lower.tolist(), upper.tolist())
    ]


def _labels(
    envs: Sequence[TierEnvelope], c_lo: np.ndarray, c_up: np.ndarray, mode: str
) -> np.ndarray:
    """Sign-rule label of each replication's envelope widened by its band
    half-widths: `classify` on each row."""
    return np.array([
        classify(env, cl, cu, mode)
        for env, cl, cu in zip(envs, c_lo.tolist(), c_up.tolist())
    ])


def _outcomes(
    label: np.ndarray, truth_positive: np.ndarray, labels: Sequence[str]
) -> np.ndarray:
    """[R, 4] indicators per replication: false positive, false negative,
    covered (the label's set contains the truth), set-valued middle label.
    `labels` is (positive, middle, negative) as in PE_LABELS / TF_LABELS."""
    positive, middle, negative = labels
    false_pos = (label == positive) & ~truth_positive
    false_neg = (label == negative) & truth_positive
    covered = ~(false_pos | false_neg)
    return np.stack([false_pos, false_neg, covered, label == middle], axis=-1)


def run_mc_pe(cfg: MCConfig, threads: int = 1) -> dict:
    """Premium-emergence classifier comparison.

    Returns rows keyed (horizon_yr, method, block_len) with false_safety,
    false_alarm, coverage, and warning rates in percent.  Non-envelope
    methods are reported at the default block length only; the proposed tier
    methods appear once per entry of the block grid.  `threads` is accepted
    for compatibility and has no effect.
    """
    paths = simulate_pe_paths(cfg, range(cfg.n_reps))
    theta_obs, z, true_scores = paths["theta_obs"], paths["z"], paths["true_scores"]
    shift = cfg.theta_reading_shift

    base = _params(cfg)
    variant_scores = {
        "baseline": _pe_scores(theta_obs, z, base),
        "theta_minus": _pe_scores(np.clip(theta_obs - shift, 0, 1), z, base),
        "theta_plus": _pe_scores(np.clip(theta_obs + shift, 0, 1), z, base),
        "g_concave": _pe_scores(theta_obs, z, _params(cfg, _bowed_dist(cfg.c_bar, 0.8))),
        "g_convex": _pe_scores(theta_obs, z, _params(cfg, _bowed_dist(cfg.c_bar, 1.25))),
    }
    tier2_ids = ("baseline", "theta_minus", "theta_plus")
    tier3_ids = tier2_ids + ("g_concave", "g_convex")
    stack2 = np.stack([variant_scores[i] for i in tier2_ids])
    stack3 = np.stack([variant_scores[i] for i in tier3_ids])
    lo2, up2 = stack2.min(axis=0), stack2.max(axis=0)
    lo3, up3 = stack3.min(axis=0), stack3.max(axis=0)
    bounds = np.stack([lo2, up2, lo3, up3])
    base_series = variant_scores["baseline"]

    horizons = _horizon_indices(cfg)
    blocks = list(cfg.block_grid)
    # [rep, horizon, block, method, metric] indicators (false_safety,
    # false_alarm, covered, warning); the block axis enumerates the grid for
    # the band methods and repeats the default block for the rest
    out = np.zeros((cfg.n_reps, len(horizons), len(blocks), len(PE_METHODS), 4))
    for hi, q in enumerate(horizons):
        point = base_series[:, q]
        env2 = _envelopes(lo2[:, q], up2[:, q])
        env3 = _envelopes(lo3[:, q], up3[:, q])
        env_point = _envelopes(point, point)
        naive_plugin = np.where(point > 0, "robustly-interior", "robustly-premium-emergent")
        single_threshold = np.select(
            [point > cfg.dead_zone, point < -cfg.dead_zone],
            ["robustly-interior", "robustly-premium-emergent"],
            "boundary-near",
        )
        # [block, method, rep] labels in PE_METHODS order
        labels = np.array([
            [
                _labels(env2, c_lo2, c_up2, "PE"),
                _labels(env3, c_lo3, c_up3, "PE"),
                naive_plugin,
                single_threshold,
                _labels(env_point, c_fix, c_fix, "PE"),
            ]
            for c_lo2, c_up2, c_lo3, c_up3, c_fix in _bands(
                bounds, base_series, q, cfg.window_h, blocks, cfg.alpha
            )
        ])
        truth_interior = true_scores[:, q] > 0.0
        out[:, hi] = np.moveaxis(_outcomes(labels, truth_interior, PE_LABELS), 2, 0)
    means = out.mean(axis=0) * 100.0
    default_bi = blocks.index(cfg.block_len)
    rows = []
    for hi, h_yr in enumerate(cfg.evaluation_horizons):
        for mi, method in enumerate(PE_METHODS):
            band_method = method in ("proposed_tier2", "proposed_tier3", "fixed_spec")
            for bi, ell in enumerate(blocks):
                if bi != default_bi and not band_method:
                    continue
                fs, fa, cov, warn = means[hi, bi, mi]
                rows.append(
                    {
                        "horizon_yr": h_yr,
                        "method": method,
                        "block_len": ell,
                        "false_safety": fs,
                        "false_alarm": fa,
                        "coverage": cov,
                        "warning": warn,
                    }
                )
    return {"rows": rows, "config": cfg}


def run_mc_tf(
    cfg: MCConfig,
    rho_bar_list: Sequence[float] = (0.0, 0.005, 0.01),
    threads: int = 1,
) -> dict:
    """Transition-feasibility classifier comparison across premium bounds.

    The true debt concept is drawn uniformly between the monitoring and
    baseline readings each replication; tier 1 reads the baseline concept
    only while tier 2 spans both.  Rates in percent; the tier-2 envelope
    width is reported in basis points.  `threads` is accepted for
    compatibility and has no effect.
    """
    rho_bars = list(rho_bar_list)
    if not rho_bars or not all(math.isfinite(r) and r >= 0.0 for r in rho_bars):
        raise DomainError(f"rho_bar_list must hold premium bounds, each finite and "
                          f">= 0, got {rho_bar_list!r}")
    R, T = cfg.n_reps, cfg.T
    b_true, g_new = np.empty(R), np.empty(R)
    eps_pi, eps_d = np.empty((R, T)), np.empty((R, T))
    for rep in range(R):
        rng = _rep_rng(cfg.seed, rep)
        b_true[rep] = rng.uniform(cfg.tf_b_monitoring, cfg.tf_b_baseline)
        g_new[rep] = cfg.tf_g_star + rng.uniform(0.0, cfg.tf_g_spread)
        eps_pi[rep] = rng.normal(0.0, cfg.tf_sd, T)
        eps_d[rep] = rng.normal(0.0, cfg.tf_sd, T)
    u = np.zeros((R, T))
    w = np.zeros((R, T))
    for t in range(1, T):
        u[:, t] = cfg.tf_rho * u[:, t - 1] + eps_pi[:, t]
        w[:, t] = cfg.tf_rho * w[:, t - 1] + eps_d[:, t]
    pi_path = cfg.tf_pi0 + u
    d_path = cfg.tf_d0 + w

    def tf_score(b, rho_bar: float) -> np.ndarray:
        return g_new[:, None] - _threshold(pi_path, d_path, 0.0, b, rho_bar, cfg.tf_m)

    q = T - 1
    blocks = [cfg.block_len]
    # [rep, rho, method, metric]: false_feasible, false_infeasible, covered,
    # marginal, tier-2 width
    out = np.zeros((R, len(rho_bars), len(TF_METHODS), 5))
    for ri, rho_bar in enumerate(rho_bars):
        s_base = tf_score(cfg.tf_b_baseline, rho_bar)
        s_mon = tf_score(cfg.tf_b_monitoring, rho_bar)
        truth_feasible = tf_score(b_true[:, None], rho_bar)[:, q] > 0.0
        lo2 = np.minimum(s_base, s_mon)
        up2 = np.maximum(s_base, s_mon)
        ((c_base, c_lo2, c_up2, c_fix),) = _bands(
            np.stack([s_base, lo2, up2]), s_base, q, cfg.window_h, blocks, cfg.alpha
        )
        base_q = s_base[:, q]
        env_base = _envelopes(base_q, base_q)
        # [method, rep] labels in TF_METHODS order
        labels = np.array([
            _labels(env_base, c_base, c_base, "TF"),
            _labels(_envelopes(lo2[:, q], up2[:, q]), c_lo2, c_up2, "TF"),
            np.where(base_q > 0, "feasible", "infeasible"),
            np.where(s_mon[:, q] > 0, "feasible", "infeasible"),
            _labels(env_base, c_fix, c_fix, "TF"),
        ])
        out[:, ri, :, :4] = np.moveaxis(_outcomes(labels, truth_feasible, TF_LABELS), 1, 0)
        out[:, ri, :, 4] = (up2[:, q] - lo2[:, q])[:, None]
    means = out.mean(axis=0)
    rows = []
    for ri, rho_bar in enumerate(rho_bars):
        for mi, method in enumerate(TF_METHODS):
            ff, fi, cov, marg, width = means[ri, mi]
            rows.append(
                {
                    "rho_bar": rho_bar,
                    "method": method,
                    "false_feasible": ff * 100.0,
                    "false_infeasible": fi * 100.0,
                    "coverage": cov * 100.0,
                    "marginal": marg * 100.0,
                    "mean_width_bp": width * 1e4,
                }
            )
    return {"rows": rows, "config": cfg}
