"""Seeded Monte Carlo comparison of regime classifiers.

Two experiments: the premium-emergence boundary classifier (tiered envelope
with subsampling bands versus naive point rules) and the transition-
feasibility margin classifier (debt-concept ambiguity).  Replications are
independent; each derives its generator from seed XOR replication index, so
results are bit-identical for a fixed seed.  Demand, premium, core drift
and growth threshold come from the closure and transition kernels.

Both experiments stream their replications in consecutive blocks of at
most `_BLOCK_REPS`, and each block runs the same stages on [replication,
period] arrays:
- draws in place: each replication's own stream writes its standard
  normals and uniforms straight into the block's preallocated arrays
  (`standard_normal(out=)`, `random(out=)`), and each array is then scaled
  once, in place, as numpy scales one draw (loc + scale * z for a normal,
  lo + (hi - lo) * u for a uniform), so every value is numpy's own
  `normal` or `uniform` draw bit for bit;
- one AR(1) recursion advancing every state of every replication per
  period, through one preallocated step buffer;
- the premium-emergence core share as one cumulative sum until a clamp
  binds (the clamp recursion from there on, and throughout on the
  structural branch);
- one score call for the three uniform-margin readings;
- one band pass per window length: one detrend call, and one band call per
  block length, on every horizon or premium bound sharing it;
- one label pass: the scalar `classify` on each element, kept as the
  integer code of its label;
- the integer counts of the 0/1 outcome indicators of those codes.
A rate is the summed counts over `n_reps`, so it is exact whatever the
block split.  The transition experiment's mean tier-2 width is summed in
replication order.  `threads` has no effect (`bench/workloads.py` passes it).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from .closure import MarginDistribution, ThetaLaw, TwoLayerParams
from .closure import _core_drift, _demand_on_grid, _premium_on_grid
from .errors import DomainError
from .inference import (
    PE_LABELS,
    TF_LABELS,
    SubsampleConfig,
    classify,
    detrend_local_linear,
    subsample_critical_value,
)
from .scenario import _check_mc_fields, _horizon_index
from .transition import _MONITOR_B, _threshold

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


_BLOCK_REPS = 1024  # replications per block: bounds every stage's memory


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
    else `ConfigError`.  The shock scales, `tf_g_spread`, `tf_m` and
    `dead_zone` must be >= 0, `stress_prob` must lie in [0, 1], and the
    core-share law obeys `ThetaLaw`'s checks, else `DomainError`.  The rules
    are `scenario._check_mc_fields`, which `load_scenario` also runs, so a
    scenario file breaking one fails at load, naming its key and line.
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

    # transition-feasibility experiment: inflation starts at `pi`, and the
    # monitoring debt concept is `_MONITOR_B`
    tf_b_baseline: float = 2.40
    tf_g_star: float = 0.03
    tf_g_spread: float = 0.015
    tf_d0: float = 0.02
    tf_rho: float = 0.8
    tf_sd: float = 0.001
    tf_m: float = 0.0

    def __post_init__(self):
        _check_mc_fields(vars(self))


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Per-replication stream: PCG64 keyed by seed XOR replication index
    (as Python ints, so numpy integer reps cannot overflow the mask)."""
    key = (operator.index(seed) ^ operator.index(rep)) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.PCG64(key))


def _rep_blocks(n_reps: int) -> Iterator[range]:
    """Consecutive replication blocks of at most `_BLOCK_REPS`, in order."""
    return (range(r, min(r + _BLOCK_REPS, n_reps)) for r in range(0, n_reps, _BLOCK_REPS))


# the standard draw that fills each kind of series in place
_FILLS = {"normal": np.random.Generator.standard_normal, "uniform": np.random.Generator.random}


def _draws(seed: int, reps: Sequence[int], *series: tuple) -> List[np.ndarray]:
    """One [R, *shape] array per (kind, shape, loc, scale) entry of
    `series`, row j of each holding reps[j]'s draws.  Each replication's own
    stream fills its rows in place, in the order of `series`: standard
    normals for kind 'normal' (`standard_normal(out=)`), standard uniforms
    in [0, 1) for kind 'uniform' (`random(out=)`).  Each array is then
    scaled once, in place, as numpy scales one draw: `normal(loc, scale)` is
    loc + scale * z and `uniform(lo, hi)` is lo + (hi - lo) * u (so scale =
    hi - lo), multiplied and then added.  So every value equals numpy's own
    `normal`/`uniform` call at the same stream position, bit for bit (the
    added 0.0 of a zero loc turns -0.0 into +0.0, as numpy's does)."""
    out = [np.empty((len(reps),) + shape) for _, shape, _, _ in series]
    fills = [_FILLS[kind] for kind, *_ in series]
    for r, rows in zip(reps, zip(*out)):
        rng = _rep_rng(seed, r)
        for fill, row in zip(fills, rows):
            fill(rng, out=row)
    for (_, _, loc, scale), a in zip(series, out):
        a *= scale
        a += loc
    return out


def _pe_draws(cfg: MCConfig, reps: Sequence[int]) -> List[np.ndarray]:
    """The premium-emergence draws of `reps`, as each replication's stream
    gives normal(0, sd_theta, T), normal(0, sd_z, T), uniform(0, 1, T) and
    normal(0, sigma_theta_obs, T): the [R, 2, T] core-share and spread
    shocks (2T consecutive normals), the [R, T] stress uniforms and the
    [R, T] observation noise."""
    T = cfg.T
    return _draws(cfg.seed, reps, ("normal", (2, T), 0.0, np.array([[cfg.sd_theta], [cfg.sd_z]])),
                  ("uniform", (T,), 0.0, 1.0), ("normal", (T,), 0.0, cfg.sigma_theta_obs))


def _tf_draws(cfg: MCConfig, reps: Sequence[int]) -> List[np.ndarray]:
    """The transition-feasibility draws of `reps`, as each replication's
    stream gives uniform(_MONITOR_B, tf_b_baseline), uniform(0, tf_g_spread)
    and normal(0, tf_sd, T) twice: the [R, 2] true debt concept and growth
    spread, and the [R, 2, T] inflation and deficit shocks (2T consecutive
    normals)."""
    return _draws(cfg.seed, reps,
                  ("uniform", (2,), np.array([_MONITOR_B, 0.0]),
                   np.array([cfg.tf_b_baseline - _MONITOR_B, cfg.tf_g_spread - 0.0])),
                  ("normal", (2, cfg.T), 0.0, cfg.tf_sd))


def _ar1(coef: Union[float, np.ndarray], series: Sequence[np.ndarray]) -> np.ndarray:
    """[period, state, R] AR(1) paths x[t] = coef * x[t - 1] + e[t] from
    x[-1] = 0, one state per [R, T] shock series e: every state and
    replication advances in one multiply into a preallocated step buffer and
    one add on a contiguous block per period, in place on a period-major
    copy of the shocks."""
    paths = np.empty((series[0].shape[1], len(series), len(series[0])))
    for k, e in enumerate(series):
        paths[:, k] = e.T
    step = np.empty_like(paths[0])
    for t in range(1, len(paths)):
        np.multiply(coef, paths[t - 1], out=step)
        paths[t] += step  # e[t] + c * x == c * x + e[t] exactly
    return paths


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
    its shocks from its own stream.  The three AR(1) states (spread, stress,
    core innovation u) advance together through `_ar1`.  On the reduced-form
    branch (g0 = kappa = 0) the core share is the walk
    theta0 + u[0] + u[1] + ..., one cumulative sum over the periods that
    adds in the recursion's left-to-right order, so it equals the recursion
    bit for bit until a clamp binds; from the period before the first value
    a clamp would change (in any replication of the call) the recursion
    runs for every replication.  On the structural branch (g0 > 0 or
    kappa > 0) the recursion runs from period 0 and adds one array premium
    solve per period.  The clamps mirror Python's `max(x, 1e-6)`,
    `max(0.0, x)` and `min(1.0, x)` (which keep the first argument unless
    the second is strictly larger, or smaller), so no -0.0 appears after
    period 0.  Each [R, T] intermediate is overwritten or dropped once it is
    consumed, so the call's peak memory stays under twice the size of the
    arrays it returns.
    """
    single = np.ndim(rep) == 0
    shocks, e_stress, obs_noise = _pe_draws(cfg, [rep] if single else rep)
    # the stress shifts overwrite their uniform draws
    e_stress[:] = np.where(e_stress < cfg.stress_prob, cfg.stress_size, 0.0)
    law = ThetaLaw(kappa_theta=cfg.kappa_theta, g0=cfg.g0, eps_cap=cfg.eps_cap)
    base = _params(cfg)
    structural = cfg.g0 > 0.0 or cfg.kappa_theta > 0.0
    # [period, rep] paths of the spread v, stress and core innovation u
    v, stress, u = _ar1(np.array([cfg.rho_z, cfg.stress_decay, cfg.rho_theta])[:, None],
                        [shocks[:, 1], e_stress, shocks[:, 0]]).transpose(1, 0, 2)
    del shocks, e_stress
    z = cfg.z0 + v + stress
    z = np.where(1e-6 > z, 1e-6, z)
    theta = np.empty_like(z)
    theta[0] = cfg.theta0
    start = 0
    if not structural:
        # the walk, summed left to right as the recursion below sums it,
        # holds until a clamp would change a value: below 0, -0.0 or above 1
        theta[1:] = u[:-1]
        np.add.accumulate(theta, axis=0, out=theta)
        binds = (np.signbit(theta[1:]) | ~(theta[1:] <= 1.0)).any(axis=1)
        start = int(binds.argmax()) if binds.any() else cfg.T - 1
    for t in range(start, cfg.T - 1):
        # structural part of the law needs each replication's premium
        drift = (_core_drift(_premium_on_grid(base, theta[t], z[t])[0], law, cfg.pi, cfg.r_rep)
                 if structural else 0.0)
        theta_t = theta[t] + drift + u[t]
        theta_t = np.where(theta_t > 0.0, theta_t, 0.0)
        theta[t + 1] = np.where(theta_t < 1.0, theta_t, 1.0)
    del v, stress, u
    theta, z = np.ascontiguousarray(theta.T), np.ascontiguousarray(z.T)
    theta_obs = np.clip(theta + obs_noise, 0.0, 1.0)
    del obs_noise
    paths = {"theta": theta, "z": z, "theta_obs": theta_obs,
             "true_scores": _pe_scores(theta, z, base)}
    return {k: a[0] for k, a in paths.items()} if single else paths


def _horizon_indices(cfg: MCConfig) -> List[int]:
    """Period index of each evaluation horizon (years to quarters)."""
    return [_horizon_index(h_yr) for h_yr in cfg.evaluation_horizons]


def _bands(
    stack: np.ndarray,
    demeaned: np.ndarray,
    qs: Sequence[int],
    window_h: int,
    blocks: Sequence[int],
    alpha: float,
) -> np.ndarray:
    """Band half-widths [horizon, block, k + d, R] over the trailing window
    ending at each horizon index in `qs`.

    The m horizons with window length w = min(window_h, q + 1) share one
    detrend call on their stacked [m, k, R, w] windows of `stack` [k, R, T];
    their windows of `demeaned` [d, R, T] (fixed-specification readings) are
    demeaned and appended as rows k to k + d - 1, and each block length runs
    one band call on every row.  Both kernels work row by row, so each row
    equals a call on that series alone, whichever replications share the
    call; the callers pass one replication block at a time, which bounds
    the kernels' working memory.
    """
    out = np.empty((len(qs), len(blocks), len(stack) + len(demeaned), stack.shape[1]))
    widths = [min(window_h, q + 1) for q in qs]
    for w in dict.fromkeys(widths):
        group = [i for i, wi in enumerate(widths) if wi == w]
        # [m, series, R, w]: the group's windows of each input
        det, dem = (np.stack([x[:, :, qs[i] + 1 - w : qs[i] + 1] for i in group])
                    for x in (stack, demeaned))
        rem = np.concatenate([detrend_local_linear(det, w)["remainder"],
                              dem - dem.mean(axis=-1, keepdims=True)], axis=1)
        for bi, ell in enumerate(blocks):
            sub = SubsampleConfig(window_h=w, block_len=min(ell, w - 1), alpha=alpha)
            out[group, bi] = subsample_critical_value(rem, sub)
    return out


def _labels(
    lower: np.ndarray, upper: np.ndarray, c_lo: np.ndarray, c_up: np.ndarray, mode: str
) -> np.ndarray:
    """Sign-rule label code of each element of the broadcast bounds widened
    by their band half-widths: `classify` on each element, in C order, as
    the index of its label in PE_LABELS / TF_LABELS (0 positive, 1 middle,
    2 negative), in an int8 array of the broadcast shape."""
    code = {label: i for i, label in enumerate(PE_LABELS if mode == "PE" else TF_LABELS)}
    arrays = np.broadcast_arrays(lower, upper, c_lo, c_up)
    return np.fromiter(
        (code[classify(lo, up, cl, cu, mode)]
         for lo, up, cl, cu in zip(*(a.ravel().tolist() for a in arrays))),
        np.int8, arrays[0].size,
    ).reshape(arrays[0].shape)


def _outcomes(
    label: np.ndarray, truth_positive: np.ndarray, labels: Sequence
) -> np.ndarray:
    """[..., 4] indicators per label: false positive, false negative,
    covered (the label's set contains the truth), set-valued middle label.
    `labels` is (positive, middle, negative): the codes (0, 1, 2), or the
    strings of PE_LABELS / TF_LABELS."""
    positive, middle, negative = labels
    false_pos = (label == positive) & ~truth_positive
    false_neg = (label == negative) & truth_positive
    covered = ~(false_pos | false_neg)
    return np.stack([false_pos, false_neg, covered, label == middle], axis=-1)


def _pe_counts(cfg: MCConfig, reps: range) -> np.ndarray:
    """[horizon, block length, method, metric] outcome counts over the
    replications `reps`: false safety, false alarm, coverage and warning,
    with the block lengths of the grid and the methods in PE_METHODS order.

    The five readings' scores form one [reading, rep, period] array: tier 2
    is the first three (baseline and the two core-share shifts), tier 3 adds
    the two bowed margin distributions.
    """
    paths = simulate_pe_paths(cfg, reps)
    theta_obs, z, true_scores = paths["theta_obs"], paths["z"], paths["true_scores"]
    shift = cfg.theta_reading_shift
    scores = np.empty((5,) + theta_obs.shape)
    # the three uniform-margin readings share one call (and one margin CDF)
    scores[:3] = _pe_scores(np.array([theta_obs, np.clip(theta_obs - shift, 0, 1),
                                      np.clip(theta_obs + shift, 0, 1)]), z, _params(cfg))
    for i, power in ((3, 0.8), (4, 1.25)):
        scores[i] = _pe_scores(theta_obs, z, _params(cfg, _bowed_dist(cfg.c_bar, power)))
    tier2 = scores[:3]
    bounds = np.array([tier2.min(axis=0), tier2.max(axis=0),
                       scores.min(axis=0), scores.max(axis=0)])
    qs = _horizon_indices(cfg)
    bands = _bands(bounds, scores[:1], qs, cfg.window_h, cfg.block_grid, cfg.alpha)
    at_q = np.concatenate([bounds, scores[:1]])[..., qs]  # [reading, rep, horizon]
    # [horizon, 1, rep] tier-2 and tier-3 bounds and point score
    lo2, up2, lo3, up3, point = at_q.swapaxes(1, 2)[:, :, None]
    # [horizon, block, method, rep] label codes in PE_METHODS order; the non-band
    # methods repeat at every block
    codes = np.empty(bands.shape[:2] + (len(PE_METHODS), len(reps)), np.int8)
    codes[:, :, [0, 1, 4]] = _labels(np.stack([lo2, lo3, point], axis=2),
                                     np.stack([up2, up3, point], axis=2),
                                     bands[:, :, [0, 2, 4]], bands[:, :, [1, 3, 4]], "PE")
    codes[:, :, 2] = np.where(point > 0, 0, 2)
    codes[:, :, 3] = np.where(point > cfg.dead_zone, 0, np.where(point < -cfg.dead_zone, 2, 1))
    truth = true_scores[:, qs].T[:, None, None] > 0.0
    return _outcomes(codes, truth, (0, 1, 2)).sum(axis=3)


def run_mc_pe(cfg: MCConfig, threads: int = 1) -> dict:
    """Premium-emergence classifier comparison.

    Returns rows keyed (horizon_yr, method, block_len) with false_safety,
    false_alarm, coverage, and warning rates in percent.  Non-envelope
    methods are reported at the default block length only; the proposed tier
    methods appear once per entry of the block grid.  The replications run
    in blocks of at most `_BLOCK_REPS`, each adding its integer outcome
    counts; a rate is the total count over `n_reps`, so it is exact whatever
    the block split.  `threads` has no effect (`bench/workloads.py` passes
    it).
    """
    # [horizon, block length, method, metric] rates
    rates = sum(_pe_counts(cfg, reps) for reps in _rep_blocks(cfg.n_reps)) / cfg.n_reps * 100.0
    blocks = list(cfg.block_grid)
    default_bi = blocks.index(cfg.block_len)
    rows = []
    for h_yr, horizon_rates in zip(cfg.evaluation_horizons, rates):
        for mi, method in enumerate(PE_METHODS):
            band_method = method in ("proposed_tier2", "proposed_tier3", "fixed_spec")
            for bi, ell in enumerate(blocks):
                if bi != default_bi and not band_method:
                    continue
                fs, fa, cov, warn = horizon_rates[bi, mi]
                rows.append({"horizon_yr": h_yr, "method": method, "block_len": ell,
                             "false_safety": fs, "false_alarm": fa, "coverage": cov,
                             "warning": warn})
    return {"rows": rows, "config": cfg}


def _tf_counts(cfg: MCConfig, rho: np.ndarray, reps: range) -> Tuple[np.ndarray, np.ndarray]:
    """[method, bound, metric] outcome counts over the replications `reps`
    (false feasible, false infeasible, coverage, marginal; methods in
    TF_METHODS order) and their [bound, rep] tier-2 envelope widths, at the
    premium bounds `rho` [bound, 1, 1].  The scores of every premium bound,
    on the band window only, go through one `_bands` call."""
    T = cfg.T
    uniforms, shocks = _tf_draws(cfg, reps)
    b_true, u_g = uniforms.T
    g_new = cfg.tf_g_star + u_g
    shocks[:, :, 0] = 0.0  # deviations start at 0; period 0's draws advance the streams
    uw = _ar1(cfg.tf_rho, shocks.swapaxes(0, 1))
    del shocks
    # only the band window is scored: the band reads its w periods, the labels the last
    w = cfg.window_h  # <= T (MCConfig)
    pi_path = cfg.pi + uw[T - w :, 0].T
    d_path = cfg.tf_d0 + uw[T - w :, 1].T
    q = w - 1
    # [bound, rep, period] scores of the baseline and monitoring concepts
    s_base, s_mon = (g_new[:, None] - _threshold(pi_path, d_path, 0.0, b, rho, cfg.tf_m)
                     for b in (cfg.tf_b_baseline, _MONITOR_B))
    lo2, up2 = np.minimum(s_base, s_mon), np.maximum(s_base, s_mon)
    # one band call: base, tier-2 lower and upper (detrended), fixed-spec base
    ((bands,),) = _bands(np.concatenate([s_base, lo2, up2]), s_base, [q],
                         cfg.window_h, [cfg.block_len], cfg.alpha)
    c_base, c_lo2, c_up2, c_fix = bands.reshape(4, len(rho), -1)
    truth_feasible = g_new - _threshold(pi_path[:, q], d_path[:, q], 0.0, b_true,
                                        rho[..., 0], cfg.tf_m) > 0.0
    base_q, lo2_q, up2_q = s_base[..., q], lo2[..., q], up2[..., q]
    tier1, tier2, fixed = _labels(np.array([base_q, lo2_q, base_q]),
                                  np.array([base_q, up2_q, base_q]),
                                  np.array([c_base, c_lo2, c_fix]),
                                  np.array([c_base, c_up2, c_fix]), "TF")
    # [method, bound, rep] label codes in TF_METHODS order
    codes = np.array([tier1, tier2, np.where(base_q > 0, 0, 2),
                      np.where(s_mon[..., q] > 0, 0, 2), fixed])
    return _outcomes(codes, truth_feasible, (0, 1, 2)).sum(axis=2), up2_q - lo2_q


def run_mc_tf(
    cfg: MCConfig,
    rho_bar_list: Sequence[float] = (0.0, 0.005, 0.01),
    threads: int = 1,
) -> dict:
    """Transition-feasibility classifier comparison across premium bounds.

    The true debt concept is drawn uniformly between the monitoring and
    baseline readings each replication; tier 1 reads the baseline concept
    only while tier 2 spans both.  Rates in percent; the tier-2 envelope
    width is reported in basis points.  The replications run in blocks of
    at most `_BLOCK_REPS`: a rate is the blocks' total outcome count over
    `n_reps`, and the mean width sums every replication's width in
    replication order across the blocks.  `threads` has no effect
    (`bench/workloads.py` passes it).
    """
    rho_bars = list(rho_bar_list)
    if not rho_bars or not all(math.isfinite(r) and r >= 0.0 for r in rho_bars):
        raise DomainError(f"rho_bar_list must hold premium bounds, each finite and "
                          f">= 0, got {rho_bar_list!r}")
    rho = np.array(rho_bars, dtype=float)[:, None, None]
    counts, widths = zip(*(_tf_counts(cfg, rho, reps) for reps in _rep_blocks(cfg.n_reps)))
    # [method, bound, metric] rates
    rates = sum(counts) / cfg.n_reps * 100.0
    # tier-2 envelope width per bound, summed in replication order (per-block
    # totals would round differently)
    width_bp = np.cumsum(np.concatenate(widths, axis=1), axis=1)[:, -1] / cfg.n_reps * 1e4
    rows = []
    for ri, rho_bar in enumerate(rho_bars):
        for mi, method in enumerate(TF_METHODS):
            ff, fi, cov, marg = rates[mi, ri]
            rows.append({"rho_bar": rho_bar, "method": method, "false_feasible": ff,
                         "false_infeasible": fi, "coverage": cov, "marginal": marg,
                         "mean_width_bp": width_bp[ri]})
    return {"rows": rows, "config": cfg}
