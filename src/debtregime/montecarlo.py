"""Seeded Monte Carlo comparison of regime classifiers.

Two experiments: the premium-emergence boundary classifier (tiered envelope
with subsampling bands versus naive point rules) and the transition-
feasibility margin classifier (debt-concept ambiguity).  Replications are
independent; each derives its generator from seed XOR replication index, so
results are bit-identical for a fixed seed.  The replications run batched as
[replication, period] arrays on one thread: each envelope is detrended once
per horizon and each band is computed once per block length for all
replications.  The `threads` parameter is accepted for compatibility and has
no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .closure import (
    MarginDistribution,
    ThetaLaw,
    TwoLayerParams,
    gamma_theta,
    solve_premium,
)
from .errors import DomainError
from .inference import (
    PE_LABELS,
    TF_LABELS,
    SubsampleConfig,
    TierEnvelope,
    classify,
    detrend_local_linear,
    subsample_critical_value,
)

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


@dataclass(frozen=True)
class MCConfig:
    """All knobs of the two Monte Carlo experiments.

    The data-generating process follows the two-layer closure: the core share
    integrates AR(1) innovations on top of its structural law, the outside-
    option spread is AR(1) around its baseline with occasional geometrically
    decaying stress shifts, and the control-rights index stays constant.
    Only the core share is observed with noise.
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
    tf_b_monitoring: float = 1.574
    tf_g_star: float = 0.03
    tf_g_spread: float = 0.015
    tf_pi0: float = 0.027
    tf_d0: float = 0.02
    tf_rho: float = 0.8
    tf_sd: float = 0.001
    tf_m: float = 0.0

    def __post_init__(self):
        if self.n_reps < 1:
            raise DomainError("n_reps must be >= 1")
        if self.T < self.window_h:
            raise DomainError("T must be at least window_h")


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Per-replication stream: PCG64 keyed by seed XOR replication index."""
    return np.random.Generator(np.random.PCG64((seed ^ rep) & 0xFFFFFFFFFFFFFFFF))


# Piecewise-linear CDF perturbations of the uniform margin distribution used
# as the tier-3 specification readings: same support, concave / convex bow.
_G_FRACS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _bowed_dist(c_bar: float, power: float) -> MarginDistribution:
    knots = tuple((f * c_bar, f**power) for f in _G_FRACS)
    return MarginDistribution(kind="table", knots=knots)


def _cdf_at(dist_knots, c_bar: float, arg: np.ndarray) -> np.ndarray:
    """Vectorized table-CDF evaluation with clamped support."""
    cs = np.array([k[0] for k in dist_knots])
    gs = np.array([k[1] for k in dist_knots])
    return np.interp(np.clip(arg, 0.0, c_bar), cs, gs)


def _pe_scores(
    theta: np.ndarray,
    z: np.ndarray,
    psi: float,
    c_bar: float,
    phi_req: float,
    dist: Optional[MarginDistribution] = None,
) -> np.ndarray:
    """Zero-premium boundary score, vectorized over time."""
    arg = z / psi
    if dist is None or dist.kind == "uniform":
        G = np.clip(arg / c_bar, 0.0, 1.0)
    else:
        G = _cdf_at(dist.knots, c_bar, arg)
    return theta + (1.0 - theta) * (1.0 - G) - phi_req


def simulate_pe_paths(cfg: MCConfig, rep: int) -> dict:
    """One replication of the premium-emergence DGP.

    Returns the true core and spread paths, the noisy observed core, and the
    true per-period boundary scores.
    """
    rng = _rep_rng(cfg.seed, rep)
    T = cfg.T
    eta_theta = rng.normal(0.0, cfg.sd_theta, T)
    eta_z = rng.normal(0.0, cfg.sd_z, T)
    events = rng.uniform(0.0, 1.0, T) < cfg.stress_prob
    obs_noise = rng.normal(0.0, cfg.sigma_theta_obs, T)

    law = ThetaLaw(kappa_theta=cfg.kappa_theta, g0=cfg.g0, eps_cap=cfg.eps_cap)
    base = TwoLayerParams(
        theta=cfg.theta0, psi=cfg.psi, z=cfg.z0, c_bar=cfg.c_bar,
        phi_req=cfg.phi_req,
    )

    theta = np.empty(T)
    z = np.empty(T)
    theta_t = cfg.theta0
    u = 0.0
    v = 0.0
    stress = 0.0
    for t in range(T):
        v = cfg.rho_z * v + eta_z[t]
        stress = cfg.stress_decay * stress + (cfg.stress_size if events[t] else 0.0)
        z_t = max(cfg.z0 + v + stress, 1e-6)
        theta[t] = theta_t
        z[t] = z_t
        # structural part of the law needs the period's premium
        if cfg.g0 > 0.0 or cfg.kappa_theta > 0.0:
            sol = solve_premium(
                TwoLayerParams(
                    theta=theta_t, psi=base.psi, z=z_t, c_bar=base.c_bar,
                    phi_req=base.phi_req,
                )
            )
            rho = sol.rho if sol.rho is not None else cfg.pi - cfg.r_rep
            eps = cfg.pi - cfg.r_rep - rho
            drift = -cfg.kappa_theta + gamma_theta(law, eps)
        else:
            drift = 0.0
        u = cfg.rho_theta * u + eta_theta[t]
        theta_t = min(1.0, max(0.0, theta_t + drift + u))
    theta_obs = np.clip(theta + obs_noise, 0.0, 1.0)
    true_scores = _pe_scores(theta, z, cfg.psi, cfg.c_bar, cfg.phi_req)
    return {
        "theta": theta,
        "z": z,
        "theta_obs": theta_obs,
        "true_scores": true_scores,
    }


def _horizon_indices(cfg: MCConfig) -> List[int]:
    idx = []
    for h_yr in cfg.evaluation_horizons:
        q = int(round(h_yr * 4.0)) - 1
        idx.append(min(max(q, 0), cfg.T - 1))
    return idx


def _bands(
    series: np.ndarray,
    q: int,
    window_h: int,
    blocks: Sequence[int],
    alpha: float,
    detrend: bool = True,
) -> np.ndarray:
    """Band half-widths [n_blocks, R] over the trailing window ending at q.

    The window is detrended (or demeaned) once; each block length then runs
    the subsampling kernel on all replications at once.
    """
    w = min(window_h, q + 1)
    win = series[:, q + 1 - w : q + 1]
    if detrend:
        rem = detrend_local_linear(win, w)["remainder"]
    else:
        rem = win - win.mean(axis=1, keepdims=True)
    return np.array([
        subsample_critical_value(
            rem, SubsampleConfig(window_h=w, block_len=min(ell, w - 1), alpha=alpha)
        )
        for ell in blocks
    ])


def _labels(
    lower: np.ndarray, upper: np.ndarray, c_lo: np.ndarray, c_up: np.ndarray, mode: str
) -> np.ndarray:
    """Sign-rule label of each replication's widened envelope at one period."""
    return np.array([
        classify(TierEnvelope(t=0, lower=lo, upper=up, argmin_id="", argmax_id=""),
                 cl, cu, mode)
        for lo, up, cl, cu in zip(
            lower.tolist(), upper.tolist(), c_lo.tolist(), c_up.tolist()
        )
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
    paths = [simulate_pe_paths(cfg, rep) for rep in range(cfg.n_reps)]
    theta_obs, z, true_scores = (
        np.stack([p[key] for p in paths]) for key in ("theta_obs", "z", "true_scores")
    )
    shift = cfg.theta_reading_shift

    variant_scores = {
        "baseline": _pe_scores(theta_obs, z, cfg.psi, cfg.c_bar, cfg.phi_req),
        "theta_minus": _pe_scores(
            np.clip(theta_obs - shift, 0, 1), z, cfg.psi, cfg.c_bar, cfg.phi_req
        ),
        "theta_plus": _pe_scores(
            np.clip(theta_obs + shift, 0, 1), z, cfg.psi, cfg.c_bar, cfg.phi_req
        ),
        "g_concave": _pe_scores(
            theta_obs, z, cfg.psi, cfg.c_bar, cfg.phi_req,
            _bowed_dist(cfg.c_bar, 0.8),
        ),
        "g_convex": _pe_scores(
            theta_obs, z, cfg.psi, cfg.c_bar, cfg.phi_req,
            _bowed_dist(cfg.c_bar, 1.25),
        ),
    }
    tier2_ids = ("baseline", "theta_minus", "theta_plus")
    tier3_ids = tier2_ids + ("g_concave", "g_convex")
    stack2 = np.stack([variant_scores[i] for i in tier2_ids])
    stack3 = np.stack([variant_scores[i] for i in tier3_ids])
    lo2, up2 = stack2.min(axis=0), stack2.max(axis=0)
    lo3, up3 = stack3.min(axis=0), stack3.max(axis=0)
    base_series = variant_scores["baseline"]

    horizons = _horizon_indices(cfg)
    blocks = list(cfg.block_grid)
    # [rep, horizon, block, method, metric] indicators (false_safety,
    # false_alarm, covered, warning); the block axis enumerates the grid for
    # the band methods and repeats the default block for the rest
    out = np.zeros((cfg.n_reps, len(horizons), len(blocks), len(PE_METHODS), 4))
    for hi, q in enumerate(horizons):
        truth_interior = true_scores[:, q] > 0.0
        point = base_series[:, q]
        c_lo2, c_up2, c_lo3, c_up3 = (
            _bands(s, q, cfg.window_h, blocks, cfg.alpha) for s in (lo2, up2, lo3, up3)
        )
        c_fix = _bands(base_series, q, cfg.window_h, blocks, cfg.alpha, detrend=False)
        for bi in range(len(blocks)):
            labels = {
                "proposed_tier2": _labels(
                    lo2[:, q], up2[:, q], c_lo2[bi], c_up2[bi], "PE"
                ),
                "proposed_tier3": _labels(
                    lo3[:, q], up3[:, q], c_lo3[bi], c_up3[bi], "PE"
                ),
                "naive_plugin": np.where(
                    point > 0, "robustly-interior", "robustly-premium-emergent"
                ),
                "single_threshold": np.select(
                    [point > cfg.dead_zone, point < -cfg.dead_zone],
                    ["robustly-interior", "robustly-premium-emergent"],
                    "boundary-near",
                ),
                "fixed_spec": _labels(point, point, c_fix[bi], c_fix[bi], "PE"),
            }
            for mi, method in enumerate(PE_METHODS):
                out[:, hi, bi, mi] = _outcomes(labels[method], truth_interior, PE_LABELS)
    means = out.mean(axis=0) * 100.0
    horizons = list(cfg.evaluation_horizons)
    blocks = list(cfg.block_grid)
    default_bi = blocks.index(cfg.block_len) if cfg.block_len in blocks else 0
    rows = []
    for hi, h_yr in enumerate(horizons):
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
        return g_new[:, None] - (pi_path + d_path / b + rho_bar + cfg.tf_m)

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
        (c_base,), (c_lo2,), (c_up2,) = (
            _bands(s, q, cfg.window_h, blocks, cfg.alpha) for s in (s_base, lo2, up2)
        )
        (c_fix,) = _bands(s_base, q, cfg.window_h, blocks, cfg.alpha, detrend=False)
        base_q = s_base[:, q]
        labels = {
            "proposed_tier1": _labels(base_q, base_q, c_base, c_base, "TF"),
            "proposed_tier2": _labels(lo2[:, q], up2[:, q], c_lo2, c_up2, "TF"),
            "naive_baseline": np.where(base_q > 0, "feasible", "infeasible"),
            "naive_monitoring": np.where(s_mon[:, q] > 0, "feasible", "infeasible"),
            "fixed_spec_baseline": _labels(base_q, base_q, c_fix, c_fix, "TF"),
        }
        for mi, method in enumerate(TF_METHODS):
            out[:, ri, mi, :4] = _outcomes(labels[method], truth_feasible, TF_LABELS)
            out[:, ri, mi, 4] = up2[:, q] - lo2[:, q]
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
