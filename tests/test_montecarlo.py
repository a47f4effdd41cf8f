import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from debtregime.closure import (
    ThetaLaw,
    TwoLayerParams,
    _cdf_ends,
    _core_drift_at,
    solve_premium,
)
from debtregime.errors import ConfigError, DomainError
from debtregime.inference import (
    PE_LABELS,
    TF_LABELS,
    SubsampleConfig,
    classify,
    detrend_local_linear,
    score_pe,
    subsample_critical_value,
)
from debtregime.montecarlo import (
    MCConfig,
    PE_METHODS,
    TF_METHODS,
    run_mc_pe,
    run_mc_tf,
    simulate_pe_paths,
)
from debtregime.montecarlo import (
    _ar1,
    _bands,
    _bowed_dist,
    _horizon_indices,
    _outcomes,
    _params,
    _pe_counts,
    _pe_draws,
    _pe_scores,
    _rep_blocks,
    _rep_rng,
    _tf_counts,
    _tf_draws,
)
from debtregime.scenario import load_scenario
from debtregime.transition import _MONITOR_B, _threshold


def small_cfg(**kw):
    args = dict(n_reps=40, T=60, alpha=0.10, seed=42)
    args.update(kw)
    return MCConfig(**args)


def test_config_non_finite_rejected():
    for kw in ({"alpha": math.nan}, {"sd_z": math.inf}, {"eps_cap": math.nan},
               {"evaluation_horizons": (3.8, math.nan)}, {"tf_g_star": -math.inf},
               {"block_grid": (4, math.inf)}):
        with pytest.raises(DomainError, match="finite"):
            small_cfg(**kw)
    assert small_cfg(eps_cap=math.inf).eps_cap == math.inf


def _paths(cfg, rep):
    """Replication `rep`'s [T] paths: row 0 of a one-element call."""
    return {key: a[0] for key, a in simulate_pe_paths(cfg, [rep]).items()}


class TestDGP:
    def test_paths_reproducible(self):
        a = _paths(small_cfg(), 7)
        b = _paths(small_cfg(), 7)
        assert np.array_equal(a["theta"], b["theta"])
        assert np.array_equal(a["z"], b["z"])
        assert np.array_equal(a["theta_obs"], b["theta_obs"])

    def test_distinct_replications(self):
        a = _paths(small_cfg(), 1)
        b = _paths(small_cfg(), 2)
        assert not np.array_equal(a["z"], b["z"])

    def test_degenerate_dgp_is_constant(self):
        cfg = small_cfg(sd_theta=0.0, sd_z=0.0, stress_prob=0.0, sigma_theta_obs=0.0)
        paths = _paths(cfg, 0)
        assert np.allclose(paths["theta"], 0.65)
        assert np.allclose(paths["z"], 0.02)
        assert np.allclose(paths["true_scores"], paths["true_scores"][0])

    def test_vectorized_scores_match_pointwise(self):
        cfg = small_cfg()
        paths = _paths(cfg, 3)
        vec = _pe_scores(paths["theta"], paths["z"], _params(cfg))
        for t in (0, 17, 59):
            p = TwoLayerParams(
                theta=float(paths["theta"][t]), psi=cfg.psi, z=float(paths["z"][t]),
                c_bar=cfg.c_bar, phi_req=cfg.phi_req,
            )
            assert vec[t] == pytest.approx(score_pe(p), abs=1e-14)

    def test_bowed_distribution_scores_match_pointwise(self):
        cfg = small_cfg()
        paths = _paths(cfg, 3)
        dist = _bowed_dist(cfg.c_bar, 0.8)
        vec = _pe_scores(paths["theta"], paths["z"], _params(cfg, dist))
        for t in (0, 31):
            p = TwoLayerParams(
                theta=float(paths["theta"][t]), psi=cfg.psi, z=float(paths["z"][t]),
                c_bar=cfg.c_bar, phi_req=cfg.phi_req, dist=dist,
            )
            assert vec[t] == pytest.approx(score_pe(p), abs=1e-14)

    @pytest.mark.parametrize("power", [None, 0.8, 1.25])
    def test_scores_equal_closure_score_exactly(self, power):
        # the Monte Carlo score is `score_pe` on the closure's own CDF, bit
        # for bit, including arguments at and beyond the support's ends
        cfg = small_cfg()
        rng = np.random.default_rng(11)
        theta = np.concatenate([rng.uniform(0.0, 1.0, 300), [0.0, 1.0, 0.65]])
        z = np.concatenate([rng.uniform(1e-6, 0.08, 300),
                            [cfg.c_bar * cfg.psi, 1e-12, 0.5 * cfg.c_bar]])
        extra = {} if power is None else {"dist": _bowed_dist(cfg.c_bar, power)}
        vec = _pe_scores(theta, z, _params(cfg, **extra))
        want = [
            score_pe(TwoLayerParams(theta=float(t), psi=cfg.psi, z=float(v),
                                    c_bar=cfg.c_bar, phi_req=cfg.phi_req, **extra))
            for t, v in zip(theta, z)
        ]
        assert repr(vec.tolist()) == repr(want)

    def test_pathwise_risk_despite_positive_expected_score(self):
        # the expected score stays at the baseline slack, yet realized
        # scores cross the boundary with visible frequency
        cfg = small_cfg(
            n_reps=50, rho_z=0.0, sd_z=0.005, stress_prob=0.0, sd_theta=0.0,
        )
        frac_neg = []
        for rep in range(cfg.n_reps):
            paths = _paths(cfg, rep)
            frac_neg.append(np.mean(paths["true_scores"] < 0.0))
        assert float(np.mean(frac_neg)) > 0.01


class TestRunMCPE:
    def test_deterministic_across_runs_and_threads(self):
        cfg = small_cfg()
        r1 = run_mc_pe(cfg, threads=1)["rows"]
        r2 = run_mc_pe(cfg, threads=1)["rows"]
        r4 = run_mc_pe(cfg, threads=4)["rows"]
        assert r1 == r2 == r4

    def test_seed_changes_the_streams(self):
        a = _paths(small_cfg(seed=42), 0)
        b = _paths(small_cfg(seed=43), 0)
        assert not np.array_equal(a["z"], b["z"])
        assert not np.array_equal(a["theta_obs"], b["theta_obs"])

    def test_degenerate_interior_truth(self):
        cfg = small_cfg(sd_theta=0.0, sd_z=0.0, stress_prob=0.0, sigma_theta_obs=0.0)
        res = run_mc_pe(cfg)
        for row in res["rows"]:
            assert row["coverage"] == 100.0
            assert row["false_safety"] == 0.0
            assert row["false_alarm"] == 0.0
            assert row["warning"] == 0.0

    def test_row_shape(self):
        res = run_mc_pe(small_cfg())
        methods = {r["method"] for r in res["rows"]}
        assert methods == set(PE_METHODS)
        horizons = {r["horizon_yr"] for r in res["rows"]}
        assert horizons == {3.8, 7.5, 11.2, 15.0}
        # proposed methods appear once per block-grid entry
        t2 = [r for r in res["rows"]
              if r["method"] == "proposed_tier2" and r["horizon_yr"] == 15.0]
        assert sorted(r["block_len"] for r in t2) == [4, 6, 8]

    def test_tier_nesting_in_labels(self):
        # tier-3 envelopes contain tier-2 envelopes, so tier-3 can only move
        # labels toward the set-valued middle: its warning rate is weakly
        # larger at every horizon
        res = run_mc_pe(small_cfg(n_reps=60))
        by = {(r["method"], r["horizon_yr"], r["block_len"]): r for r in res["rows"]}
        for h in (3.8, 7.5, 11.2, 15.0):
            assert (
                by[("proposed_tier3", h, 6)]["warning"]
                >= by[("proposed_tier2", h, 6)]["warning"]
            )


class TestRunMCTF:
    def test_deterministic_across_threads(self):
        cfg = small_cfg()
        r1 = run_mc_tf(cfg, threads=1)["rows"]
        r4 = run_mc_tf(cfg, threads=4)["rows"]
        assert r1 == r4

    def test_degenerate_dgp(self):
        cfg = small_cfg(tf_sd=0.0, tf_g_spread=0.0)
        # fixed proposed growth equal to baseline: scores are deterministic
        # and every method agrees with the (infeasible) truth
        rows = [row for row in run_mc_tf(cfg)["rows"] if row["rho_bar"] == 0.0]
        for row in rows:
            assert row["coverage"] == 100.0
            assert row["false_feasible"] == 0.0
            assert row["false_infeasible"] == 0.0

    def test_structural_zero_false_rates_for_tier2(self):
        res = run_mc_tf(small_cfg(n_reps=80))
        for row in res["rows"]:
            if row["method"] == "proposed_tier2":
                assert row["false_feasible"] == 0.0
                assert row["false_infeasible"] == 0.0
                assert row["coverage"] == 100.0

    def test_envelope_width_matches_affine_formula(self):
        res = run_mc_tf(small_cfg(tf_sd=0.0))
        expected_bp = 0.02 * (1 / 1.574 - 1 / 2.40) * 1e4
        for row in res["rows"]:
            if row["method"] == "proposed_tier2":
                assert row["mean_width_bp"] == pytest.approx(expected_bp, abs=1e-9)

    def test_methods_present(self):
        res = run_mc_tf(small_cfg())
        assert {r["method"] for r in res["rows"]} == set(TF_METHODS)
        assert {r["rho_bar"] for r in res["rows"]} == {0.0, 0.005, 0.01}


# SHA-256 of repr(rows) recorded from the per-replication implementation
# (one lstsq fit per point, one thread-pool task per replication); the batched
# engine must reproduce every row bit for bit.
PINNED_ROWS = {
    "default": (
        dict(seed=7, n_reps=5),
        "4337b7a47b85fd90f66b8fd8885d7a626055b2811d381b0cd2d4dfbe88667195",
        "049834edcb225e97b78def9ec362bced830a87af52493e2bb04f634e48ba0cd0",
    ),
    # g0 > 0 runs solve_premium inside simulate_pe_paths
    "g0_premium_branch": (
        dict(seed=2024, n_reps=11, g0=0.3, kappa_theta=0.001),
        "e169eeadb46e1d3a04267857220063cf41aad7bc7149b346d787284b512f32e2",
        "2b0f681e080b19038a0dc64fb04e31fbbb4b89c309d807064996e705d402bcb7",
    ),
    # kappa > 0 with g0 = 0 runs the structural branch with maintenance off
    "kappa_only_branch": (
        dict(seed=31337, n_reps=13, kappa_theta=0.002),
        "da389c33aea4676a55d3bc0b8ebea6c4e6cd06b47b4ecbee00d31259d3d00694",
        "e266e2b895915e4a733ffe374a941bcd8ee88b0b1e8d88e6f9704a6ba651fdf0",
    ),
    # block 16 exceeds w - 1 = 14 at the 3.8-year horizon (w = 15): the
    # block is clamped to 14 and the band takes the fewer-than-5-blocks fallback
    "block_above_window": (
        dict(seed=0xDEADBEEFCAFE, n_reps=17, block_grid=(4, 6, 16)),
        "9cc2fa3a9f1c879d1ffd593cb3f2109567cd657016a9b97fc51b240a1a68bc9b",
        "0435ebeed3cc4747d8cf73a2de5c00b156e9b73c42cf74504eed588eb08e57d7",
    ),
    # every DGP clamp fires: theta at 1 (136 periods) and at 0 (25), and the
    # z floor (264); recorded with the per-replication period loop
    "clamps": (
        dict(seed=1234, n_reps=9, theta0=0.99, sd_theta=0.05, z0=0.001, sd_z=0.02),
        "819d3aefd1defbd7ebe5bafd041f6cf8413474e08dc0a3f51b53c8de38b36d6f",
        "53eb6c5123d4bd486787c5650fde53c241d0c87243d526c71ef01b5a6840f53a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_rows_match_pinned_digests(name):
    kw, pe_digest, tf_digest = PINNED_ROWS[name]
    cfg = MCConfig(**kw)
    for fn, digest in ((run_mc_pe, pe_digest), (run_mc_tf, tf_digest)):
        rows = fn(cfg)["rows"]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, fn.__name__


def test_tf_rows_for_one_premium_bound_match_pinned_digest(monkeypatch):
    # one premium bound's tier-2 widths form an [R] row, which a numpy mean
    # would sum pairwise; the rows sum them in replication order,
    # across replication blocks too (summing per-block totals would round
    # differently). At seed 8 the two sums differ in the last bit of
    # mean_width_bp (at seed 42 they happen to agree)
    import debtregime.montecarlo as mc

    for block in (1, 7, 33, 34):
        monkeypatch.setattr(mc, "_BLOCK_REPS", block)
        rows = [row for row in run_mc_tf(MCConfig(seed=8, n_reps=33))["rows"]
                if row["rho_bar"] == 0.0]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "923553c8b2e12ea136c22cd5072832c365e90eaa586c43d56fadf04448281177"
        ), block


@pytest.mark.parametrize("kw", [{"psi": 0.0}, {"c_bar": -0.01}, {"theta0": 1.2},
                                {"g0": -0.1}])
def test_invalid_closure_inputs_rejected(kw):
    # the reduced-form branch (g0 = kappa = 0) builds the closure state too
    with pytest.raises(DomainError):
        run_mc_pe(small_cfg(n_reps=2, **kw))


@pytest.mark.parametrize("name, value", [
    ("sigma_theta_obs", -0.01), ("sd_theta", -0.001), ("sd_z", -0.001),
    ("tf_g_spread", -0.001), ("tf_sd", -0.001), ("tf_m", -0.01),
    ("kappa_theta", -0.01), ("g0", -1.0), ("eps_cap", 0.0),
])
def test_negative_scales_and_law_rejected(name, value):
    # numpy rejected a negative scale with a ValueError, and run_mc_tf ran a
    # negative g0 that run_mc_pe rejected
    with pytest.raises(DomainError, match=f"{name} must be"):
        small_cfg(**{name: value})


@pytest.mark.parametrize("kw, named", [
    ({"dead_zone": -0.01}, "dead_zone must be >= 0"),
    ({"stress_prob": 1.5}, r"stress_prob must lie in \[0, 1\]"),
    ({"stress_prob": -0.2}, r"stress_prob must lie in \[0, 1\]"),
])
def test_dead_zone_and_stress_probability_ranges(kw, named):
    # a negative dead zone removed the single-threshold rule's middle label,
    # and a probability outside [0, 1] made stress certain or impossible
    with pytest.raises(DomainError, match=named):
        small_cfg(**kw)
    for kw in ({"dead_zone": 0.0}, {"stress_prob": 0.0}, {"stress_prob": 1.0}):
        small_cfg(**kw)


# Draw configs: every shock scale 0, a zero growth spread, the two seed ends
# and the shortest sample (T = window_h = 24)
DRAW_CONFIGS = {
    "zero_scales": dict(seed=3, sd_theta=0.0, sd_z=0.0, sigma_theta_obs=0.0, tf_sd=0.0,
                        tf_g_spread=0.0),
    "zero_growth_spread": dict(seed=4, tf_g_spread=0.0),
    "seed_zero": dict(seed=0),
    "seed_max": dict(seed=2**64 - 1),
    "short_sample": dict(seed=5, T=24, window_h=24, evaluation_horizons=(3.8, 6.0)),
}


@pytest.mark.parametrize("name", sorted(DRAW_CONFIGS))
def test_block_draws_equal_numpys_own_draw_calls(name):
    # each replication's stream fills its block rows with standard draws,
    # scaled once per block; every value must be the bytes numpy's own
    # normal/uniform calls return, in the order each replication made them
    cfg = MCConfig(**DRAW_CONFIGS[name])
    T = cfg.T
    for reps in (range(6), [5, 2, 9]):
        pe, tf = [], []
        for rep in reps:
            rng = _rep_rng(cfg.seed, rep)
            pe.append([rng.normal(0.0, cfg.sd_theta, T), rng.normal(0.0, cfg.sd_z, T),
                       rng.uniform(0.0, 1.0, T), rng.normal(0.0, cfg.sigma_theta_obs, T)])
            rng = _rep_rng(cfg.seed, rep)
            tf.append([rng.uniform(_MONITOR_B, cfg.tf_b_baseline),
                       rng.uniform(0.0, cfg.tf_g_spread),
                       rng.normal(0.0, cfg.tf_sd, T), rng.normal(0.0, cfg.tf_sd, T)])
        shocks, uniforms, noise = _pe_draws(cfg, reps)
        got = (shocks[:, 0], shocks[:, 1], uniforms, noise)
        for i, series in enumerate(got):
            assert series.tobytes() == np.array([p[i] for p in pe]).tobytes(), (reps, i)
        uniforms, shocks = _tf_draws(cfg, reps)
        got = (uniforms[:, 0], uniforms[:, 1], shocks[:, 0], shocks[:, 1])
        for i, series in enumerate(got):
            assert series.tobytes() == np.array([t[i] for t in tf]).tobytes(), (reps, i)


def test_outcomes_cover_every_label():
    truth = np.array([True, False, True, False, True, False])
    for labels in (PE_LABELS, TF_LABELS, (0, 1, 2)):
        positive, middle, negative = labels
        label = np.array([positive, positive, middle, middle, negative, negative])
        fp, fn, covered, warn = _outcomes(label, truth, labels).T
        # a point label covers only its own regime; the middle label covers both
        assert fp.tolist() == [False, True, False, False, False, False]
        assert fn.tolist() == [False, False, False, False, True, False]
        assert covered.tolist() == [True, False, True, True, False, True]
        assert warn.tolist() == [False, False, True, True, False, False]


def test_block_len_outside_grid_rejected():
    # the non-band methods are reported at block_len; a block_len the grid
    # does not hold used to be replaced by the grid's first entry
    with pytest.raises(ConfigError, match="block_grid"):
        small_cfg(block_len=5)
    assert small_cfg(block_len=8, block_grid=(8,)).block_len == 8


@pytest.mark.parametrize("kw", [{"n_reps": 2.0}, {"T": 30.0}, {"window_h": 24.0},
                                {"block_len": 6.0}, {"block_grid": (4, 6.0, 8)},
                                {"seed": 42.0}])
def test_non_integer_counts_rejected(kw):
    with pytest.raises(DomainError, match="integer"):
        small_cfg(**kw)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 42])
def test_seed_outside_64_bits_rejected(seed):
    # `_rep_rng` masks the key to 64 bits, so 2**64 would alias seed 0 and
    # -1 seed 2**64 - 1
    with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*64\)"):
        small_cfg(seed=seed)
    assert small_cfg(seed=2**64 - 1).seed == 2**64 - 1


def test_numpy_integer_counts_accepted():
    cfg = small_cfg(n_reps=np.int64(3), T=np.int32(60), window_h=np.int64(24),
                    block_len=np.int64(6), block_grid=(np.int64(4), 6, np.int16(8)))
    assert run_mc_pe(cfg)["rows"] == run_mc_pe(small_cfg(n_reps=3))["rows"]


def _simulate_reference(cfg, rep):
    """The per-replication DGP: one scalar period loop with Python clamps,
    the scalar premium solve and the scalar boundary score."""
    rng = _rep_rng(cfg.seed, rep)
    T = cfg.T
    eta_theta = rng.normal(0.0, cfg.sd_theta, T)
    eta_z = rng.normal(0.0, cfg.sd_z, T)
    events = rng.uniform(0.0, 1.0, T) < cfg.stress_prob
    obs_noise = rng.normal(0.0, cfg.sigma_theta_obs, T)
    law = ThetaLaw(kappa_theta=cfg.kappa_theta, g0=cfg.g0, eps_cap=cfg.eps_cap)
    base = TwoLayerParams(theta=cfg.theta0, psi=cfg.psi, z=cfg.z0, c_bar=cfg.c_bar,
                          phi_req=cfg.phi_req)
    theta, z = np.empty(T), np.empty(T)
    theta_t, u, v, stress = cfg.theta0, 0.0, 0.0, 0.0
    for t in range(T):
        v = cfg.rho_z * v + eta_z[t]
        stress = cfg.stress_decay * stress + (cfg.stress_size if events[t] else 0.0)
        z_t = max(cfg.z0 + v + stress, 1e-6)
        theta[t] = theta_t
        z[t] = z_t
        if cfg.g0 > 0.0 or cfg.kappa_theta > 0.0:
            p_t = replace(base, z=z_t)
            drift = _core_drift_at(p_t, theta_t, _cdf_ends(p_t), law, cfg.pi, cfg.r_rep)
        else:
            drift = 0.0
        u = cfg.rho_theta * u + eta_theta[t]
        theta_t = min(1.0, max(0.0, theta_t + drift + u))
    return {
        "theta": theta,
        "z": z,
        "theta_obs": np.clip(theta + obs_noise, 0.0, 1.0),
        "true_scores": np.array([
            score_pe(replace(base, theta=th, z=zt))
            for th, zt in zip(theta.tolist(), z.tolist())
        ]),
    }


LOCKSTEP_CONFIGS = {name: kw for name, (kw, _, _) in PINNED_ROWS.items()}
LOCKSTEP_CONFIGS.update({
    "theta_at_one": dict(seed=5, n_reps=12, theta0=0.99, sd_theta=0.05),
    "theta_at_zero_z_floor": dict(seed=6, n_reps=12, theta0=0.01, z0=0.001, sd_z=0.02),
    "finite_eps_cap": dict(seed=8, n_reps=12, g0=0.8, eps_cap=0.004, kappa_theta=0.001),
    # premium above zero, premium above pi - r_rep (eps <= 0) and eps above
    # its cap all occur along the paths
    "stress_premium": dict(seed=9, n_reps=12, theta0=0.6, phi_req=0.88, g0=0.5,
                           eps_cap=0.002, kappa_theta=0.002),
})


def _walk_escapes(cfg, reps):
    """(first period t >= 1 at which the unclamped core-share walk
    theta0 + u[0] + ... + u[t - 1] of any replication in `reps` is below 0,
    -0.0 or above 1, None if there is none; the number of replications whose
    walk ever is), from the scalar AR(1) recursion on each replication's own
    core-share draws."""
    first, escaped = None, 0
    for rep in reps:
        eta = _rep_rng(cfg.seed, rep).normal(0.0, cfg.sd_theta, cfg.T)
        u, walk = 0.0, cfg.theta0
        for t in range(1, cfg.T):
            u = cfg.rho_theta * u + eta[t - 1]
            walk += u
            if walk > 1.0 or math.copysign(1.0, walk) < 0.0:
                first = t if first is None else min(first, t)
                escaped += 1
                break
    return first, escaped


# Reduced-form configs for the core-share walk, each with the first period at
# which a clamp binds over range(n_reps) (None: the walk is never re-run) and
# the number of replications whose walk leaves [0, 1]
WALK_CASES = {
    "walk_clamp_at_period_1_from_one": (dict(seed=11, n_reps=12, theta0=1.0), 1, 10),
    "walk_clamp_at_period_1_from_zero": (dict(seed=12, n_reps=12, theta0=0.0), 1, 11),
    "walk_clamp_mid_path": (dict(seed=11, n_reps=12, theta0=0.9), 23, 3),
    "walk_clamp_in_last_period": (dict(seed=4, n_reps=12, theta0=0.6705), 59, 1),
    "walk_never_clamped": (dict(seed=13, n_reps=12, sd_theta=0.0), None, 0),
    "walk_from_negative_zero": (dict(seed=11, n_reps=12, theta0=-0.0), 1, 12),
    # period 0 keeps the -0.0 as given; every later period is +0.0
    "walk_from_negative_zero_never_clamped": (
        dict(seed=11, n_reps=12, theta0=-0.0, sd_theta=0.0), None, 0),
    "walk_one_replication_escapes": (dict(seed=1, n_reps=12, theta0=0.77), 49, 1),
}
LOCKSTEP_CONFIGS.update({name: kw for name, (kw, _, _) in WALK_CASES.items()})
# the structural recursion from period 0, with the clamp at 1 binding
LOCKSTEP_CONFIGS["walk_structural"] = dict(seed=14, n_reps=12, theta0=0.995, sd_theta=0.01,
                                           g0=0.4, kappa_theta=0.001)
PATH_KEYS = ("theta", "z", "theta_obs", "true_scores")


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_walk_cases_reach_their_branch(name):
    kw, first, escaped = WALK_CASES[name]
    cfg = MCConfig(**kw)
    assert not (cfg.g0 > 0.0 or cfg.kappa_theta > 0.0)
    assert _walk_escapes(cfg, range(cfg.n_reps)) == (first, escaped)
    theta = simulate_pe_paths(cfg, range(cfg.n_reps))["theta"]
    if first is None:
        assert (theta == theta[:, :1]).all()  # the walk is constant
    else:
        # the period the clamp binds holds a clamped value
        assert ((theta[:, first] == 0.0) | (theta[:, first] == 1.0)).any()
    assert np.signbit(theta[:, 0]).all() == (math.copysign(1.0, cfg.theta0) < 0.0)
    assert not np.signbit(theta[:, 1:]).any()


def test_structural_walk_case_clamps():
    cfg = MCConfig(**LOCKSTEP_CONFIGS["walk_structural"])
    theta = simulate_pe_paths(cfg, range(cfg.n_reps))["theta"]
    assert cfg.g0 > 0.0 and cfg.kappa_theta > 0.0
    assert (theta == 1.0).any() and not np.signbit(theta).any()


@pytest.mark.parametrize("name", sorted(LOCKSTEP_CONFIGS))
def test_lockstep_paths_equal_per_replication_loop(name):
    cfg = MCConfig(**LOCKSTEP_CONFIGS[name])
    for reps in (range(cfg.n_reps), [5, 2, 9]):
        paths = simulate_pe_paths(cfg, reps)
        for i, rep in enumerate(reps):
            want = _simulate_reference(cfg, rep)
            for key in PATH_KEYS:
                assert paths[key].shape == (len(reps), cfg.T)
                assert paths[key][i].tobytes() == want[key].tobytes(), (rep, key)


def test_lockstep_clamps_fire():
    # the clamp config reaches theta = 1, theta = 0 and the z floor
    paths = simulate_pe_paths(MCConfig(**LOCKSTEP_CONFIGS["clamps"]), range(9))
    assert (paths["theta"] == 1.0).any() and (paths["theta"] == 0.0).any()
    assert (paths["z"] == 1e-6).any()
    assert not np.signbit(paths["theta"]).any()


def test_lockstep_structural_branches_fire():
    # the stress config's paths reach case c, maintenance switched off by a
    # premium at or above pi - r_rep, and the eps cap; read with the scalar
    # solver at each path point
    cfg = MCConfig(**LOCKSTEP_CONFIGS["stress_premium"])
    paths = simulate_pe_paths(cfg, range(cfg.n_reps))
    base = _params(cfg)
    sols = [solve_premium(replace(base, theta=th, z=zt))
            for th, zt in zip(paths["theta"].ravel().tolist(), paths["z"].ravel().tolist())]
    assert {s.case for s in sols} >= {"a_interior", "c_stress"}
    eps = np.array([cfg.pi - cfg.r_rep - s.rho for s in sols])
    assert (eps <= 0.0).any() and (eps > cfg.eps_cap).any()
    assert ((eps > 0.0) & (eps <= cfg.eps_cap)).any()


@pytest.mark.parametrize("q, blocks", [(59, (4, 6, 8)), (14, (4, 6, 16)), (5, (3, 4))])
def test_stacked_bands_equal_per_series_calls(q, blocks):
    # one call bands a horizon list of mixed window lengths (w = 6, 15, 24,
    # 24 at q = 5, 14, 30, 59) that repeats q, so one length group holds two
    # equal windows; blocks above w - 1 are clamped, and short windows take
    # the fewer-than-5-blocks fallback
    rng = np.random.default_rng(3)
    stack = np.cumsum(rng.normal(0.0, 0.01, (3, 7, 60)), axis=-1)
    demeaned = rng.normal(0.0, 0.01, (2, 7, 60))
    qs = [q, 5, 14, 30, 59]
    got = _bands(stack, demeaned, qs, 24, blocks, 0.10)
    assert got.shape == (len(qs), len(blocks), 5, 7)
    for hi, qh in enumerate(qs):
        w = min(24, qh + 1)
        for bi, ell in enumerate(blocks):
            sub = SubsampleConfig(window_h=w, block_len=min(ell, w - 1), alpha=0.10)
            for r in range(7):
                for k in range(5):
                    if k < 3:
                        win = stack[k, r, qh + 1 - w : qh + 1]
                        rem = detrend_local_linear(win, w)["remainder"]
                    else:
                        win = demeaned[k - 3, r, qh + 1 - w : qh + 1]
                        rem = win - win.mean()
                    want = subsample_critical_value(rem, sub)
                    assert got[hi, bi, k, r] == want, (qh, ell, k, r)


@pytest.mark.parametrize("name", ["block_above_window", "g0_premium_branch"])
def test_rows_equal_across_replication_blocks(monkeypatch, name):
    # the replications stream in blocks of _BLOCK_REPS; one replication per
    # block, blocks of 7 (the last one short), one block of exactly n_reps
    # and one larger block all give the rows pinned above
    import debtregime.montecarlo as mc

    kw, pe_digest, tf_digest = PINNED_ROWS[name]
    cfg = MCConfig(**kw)
    for block in (1, 7, cfg.n_reps, cfg.n_reps + 1):
        monkeypatch.setattr(mc, "_BLOCK_REPS", block)
        for fn, digest in ((run_mc_pe, pe_digest), (run_mc_tf, tf_digest)):
            rows = fn(cfg)["rows"]
            assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, (fn.__name__,
                                                                               block)


def _labels_reference(lower, upper, c_lo, c_up, mode):
    """String label of each element of four same-shape arrays, in C order."""
    return np.array([
        classify(lo, up, cl, cu, mode)
        for lo, up, cl, cu in zip(lower.ravel().tolist(), upper.ravel().tolist(),
                                  c_lo.ravel().tolist(), c_up.ravel().tolist())
    ]).reshape(c_lo.shape)


def _pe_counts_reference(cfg, reps):
    """`_pe_counts` as a per-horizon loop over string labels."""
    paths = simulate_pe_paths(cfg, reps)
    theta_obs, z, true_scores = paths["theta_obs"], paths["z"], paths["true_scores"]
    shift = cfg.theta_reading_shift
    base = _params(cfg)
    scores = np.array([
        _pe_scores(theta_obs, z, base),
        _pe_scores(np.clip(theta_obs - shift, 0, 1), z, base),
        _pe_scores(np.clip(theta_obs + shift, 0, 1), z, base),
        _pe_scores(theta_obs, z, _params(cfg, _bowed_dist(cfg.c_bar, 0.8))),
        _pe_scores(theta_obs, z, _params(cfg, _bowed_dist(cfg.c_bar, 1.25))),
    ])
    tier2 = scores[:3]
    bounds = np.array([tier2.min(axis=0), tier2.max(axis=0),
                       scores.min(axis=0), scores.max(axis=0)])
    positive, middle, negative = PE_LABELS
    qs = _horizon_indices(cfg)
    bands = _bands(bounds, scores[:1], qs, cfg.window_h, cfg.block_grid, cfg.alpha)
    counts = []
    for q, horizon_bands in zip(qs, bands):
        lo2, up2, lo3, up3 = bounds[:, :, q]
        point = scores[0, :, q]
        naive_plugin = np.where(point > 0, positive, negative)
        single_threshold = np.select(
            [point > cfg.dead_zone, point < -cfg.dead_zone], [positive, negative], middle
        )
        labels = np.array([
            [
                _labels_reference(lo2, up2, c_lo2, c_up2, "PE"),
                _labels_reference(lo3, up3, c_lo3, c_up3, "PE"),
                naive_plugin,
                single_threshold,
                _labels_reference(point, point, c_fix, c_fix, "PE"),
            ]
            for c_lo2, c_up2, c_lo3, c_up3, c_fix in horizon_bands
        ])
        counts.append(_outcomes(labels, true_scores[:, q] > 0.0, PE_LABELS).sum(axis=2))
    return np.array(counts)


def _tf_counts_reference(cfg, rho, reps):
    """`_tf_counts` with string labels, one `classify` pass per method and
    the growth draw's offset added inside the draw."""
    T = cfg.T
    b_true, g_new, e_pi, e_d = (np.array(x) for x in zip(*(
        (rng.uniform(_MONITOR_B, cfg.tf_b_baseline),
         cfg.tf_g_star + rng.uniform(0.0, cfg.tf_g_spread),
         rng.normal(0.0, cfg.tf_sd, T),
         rng.normal(0.0, cfg.tf_sd, T))
        for rng in (_rep_rng(cfg.seed, r) for r in reps))))
    e_pi[:, 0] = e_d[:, 0] = 0.0
    uw = _ar1(cfg.tf_rho, [e_pi, e_d])
    w = cfg.window_h
    pi_path = cfg.pi + uw[T - w :, 0].T
    d_path = cfg.tf_d0 + uw[T - w :, 1].T
    q = w - 1
    s_base, s_mon = (g_new[:, None] - _threshold(pi_path, d_path, 0.0, b, rho, cfg.tf_m)
                     for b in (cfg.tf_b_baseline, _MONITOR_B))
    lo2, up2 = np.minimum(s_base, s_mon), np.maximum(s_base, s_mon)
    ((bands,),) = _bands(np.concatenate([s_base, lo2, up2]), s_base, [q],
                         cfg.window_h, [cfg.block_len], cfg.alpha)
    c_base, c_lo2, c_up2, c_fix = bands.reshape(4, len(rho), -1)
    truth_feasible = g_new - _threshold(pi_path[:, q], d_path[:, q], 0.0, b_true,
                                        rho[..., 0], cfg.tf_m) > 0.0
    base_q, lo2_q, up2_q = s_base[..., q], lo2[..., q], up2[..., q]
    feasible, _, infeasible = TF_LABELS
    labels = np.array([
        _labels_reference(base_q, base_q, c_base, c_base, "TF"),
        _labels_reference(lo2_q, up2_q, c_lo2, c_up2, "TF"),
        np.where(base_q > 0, feasible, infeasible),
        np.where(s_mon[..., q] > 0, feasible, infeasible),
        _labels_reference(base_q, base_q, c_fix, c_fix, "TF"),
    ])
    return _outcomes(labels, truth_feasible, TF_LABELS).sum(axis=2), up2_q - lo2_q


ORACLE_CONFIGS = {name: MCConfig(**kw) for name, (kw, _, _) in PINNED_ROWS.items()}
ORACLE_CONFIGS["baseline"] = load_scenario(None).mc_config(seed=1, n_reps=16)


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_label_codes_equal_the_string_label_loop(monkeypatch, name):
    # each block labels once, as integer codes over every horizon, block
    # length and band method; the per-horizon loop over string labels that
    # it replaced must give the same counts (and widths) block for block
    import debtregime.montecarlo as mc

    cfg = ORACLE_CONFIGS[name]
    rho = np.array([0.0, 0.005, 0.01])[:, None, None]
    for block in (1, 7, cfg.n_reps):
        monkeypatch.setattr(mc, "_BLOCK_REPS", block)
        for reps in _rep_blocks(cfg.n_reps):
            got, want = _pe_counts(cfg, reps), _pe_counts_reference(cfg, reps)
            assert got.shape == want.shape and (got == want).all(), (block, reps)
            (got, got_w), (want, want_w) = (_tf_counts(cfg, rho, reps),
                                            _tf_counts_reference(cfg, rho, reps))
            assert got.shape == want.shape and (got == want).all(), (block, reps)
            assert got_w.tobytes() == want_w.tobytes(), (block, reps)


@pytest.mark.parametrize("fn", [run_mc_pe, run_mc_tf])
def test_peak_memory_is_bounded_by_the_replication_block(monkeypatch, fn):
    # with blocks of 64 replications, a run of 512 peaks about as high as a
    # run of 64: no stage keeps an array over every replication
    import debtregime.montecarlo as mc

    monkeypatch.setattr(mc, "_BLOCK_REPS", 64)

    def peak(n_reps):
        tracemalloc.start()
        try:
            fn(small_cfg(n_reps=n_reps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fn(small_cfg(n_reps=64))  # warm-up: one-off allocations are not counted
    assert peak(512) <= 1.5 * peak(64)


def test_direct_call_peaks_under_twice_its_result():
    # a direct call over many replications is not split into blocks; each
    # replication's draws go straight into the [R, T] arrays and every
    # intermediate is dropped once consumed: the peak measured 1.78x the
    # returned bytes, against 3.77x when each replication's draws were held
    # until they were stacked (2.32x from that draw stage alone)
    cfg = MCConfig(seed=1)
    simulate_pe_paths(cfg, range(8))  # warm-up: one-off allocations are not counted
    tracemalloc.start()
    try:
        paths = simulate_pe_paths(cfg, range(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * sum(a.nbytes for a in paths.values())


def test_rows_across_three_band_chunks_match_pinned_digest():
    # 2,100 replications stream as three _BLOCK_REPS blocks of 1,024, 1,024
    # and 52 replications; digests recorded with the per-experiment draw
    # loops and recursions that the shared draw and AR(1) helpers replaced
    cfg = MCConfig(seed=3, n_reps=2100)
    for fn, digest in (
        (run_mc_pe, "367b39b487d425e5bde9d475589f430c070a81ad7d672f133bc6f5f7427714e8"),
        (run_mc_tf, "154940e1ee23245de403b6ef7ae2ba9bb0ce9d987aadd5e3200154f949b685a3"),
    ):
        rows = fn(cfg)["rows"]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, fn.__name__


def test_band_kernels_run_once_per_window_length(monkeypatch):
    # the benchmark's traced run counts these calls by their names in this
    # module and reads the SubsampleConfig as the band's second positional
    # argument; the default horizons have window lengths 15, 24, 24, 24, so
    # a regression to per-horizon (or per-premium-bound) calls shows here
    import debtregime.montecarlo as mc

    calls = {"detrend": 0, "subsample": 0, "classify": 0}

    def counting(name, fn, check=None):
        def shim(*args, **kwargs):
            calls[name] += 1
            if check is not None:
                check(args, kwargs)
            return fn(*args, **kwargs)
        return shim

    def band_args(args, kwargs):
        assert len(args) == 2 and not kwargs
        assert isinstance(args[1], SubsampleConfig)

    def detrend_args(args, kwargs):
        assert len(args) == 2 and not kwargs and len(args[0]) >= 1

    monkeypatch.setattr(mc, "detrend_local_linear",
                        counting("detrend", mc.detrend_local_linear, detrend_args))
    monkeypatch.setattr(mc, "subsample_critical_value",
                        counting("subsample", mc.subsample_critical_value, band_args))
    monkeypatch.setattr(mc, "classify", counting("classify", mc.classify))
    cfg = load_scenario(None).mc_config(seed=1, n_reps=5)
    R = cfg.n_reps
    assert len(cfg.evaluation_horizons) == 4 and len(cfg.block_grid) == 3

    run_mc_pe(cfg)
    # horizon x block x band method (tier 2, tier 3, fixed spec) x rep
    assert calls == {"detrend": 2, "subsample": 6, "classify": 4 * 3 * 3 * R}
    calls.update(detrend=0, subsample=0, classify=0)
    run_mc_tf(cfg)
    # premium bound x band method (tier 1, tier 2, fixed spec) x rep
    assert calls == {"detrend": 1, "subsample": 1, "classify": 3 * 3 * R}


@pytest.mark.parametrize("horizons, T, named", [
    ((), 60, "at least one"),
    ((3.8, 15.0, 20.0), 60, "20.0"),
    ((0.5, 3.8, 7.5), 60, "0.5"),
    ((0.75, 3.8), 60, "0.75"),
    ((3.8, 15.25), 60, "15.25"),
    ((3.8, 7.5), 20, "7.5"),
])
def test_horizon_outside_the_sample_rejected(horizons, T, named):
    # each horizon's period index round(4h) - 1 must lie in [3, T - 1]: a
    # later one used to be clamped to T - 1 and an earlier one to fail in
    # the band with a window the user never set
    with pytest.raises(ConfigError, match=re.escape(named)):
        small_cfg(evaluation_horizons=horizons, T=T, window_h=min(24, T))


def test_horizons_at_the_sample_ends_accepted():
    cfg = small_cfg(n_reps=3, evaluation_horizons=(1.0, 15.0))
    assert {r["horizon_yr"] for r in run_mc_pe(cfg)["rows"]} == {1.0, 15.0}
