import hashlib

import numpy as np
import pytest

from debtregime.closure import TwoLayerParams
from debtregime.inference import score_pe
from debtregime.montecarlo import (
    MCConfig,
    PE_METHODS,
    TF_METHODS,
    run_mc_pe,
    run_mc_tf,
    simulate_pe_paths,
)
from debtregime.montecarlo import _bowed_dist, _pe_scores


def small_cfg(**kw):
    args = dict(n_reps=40, T=60, alpha=0.10, seed=42)
    args.update(kw)
    return MCConfig(**args)


class TestDGP:
    def test_paths_reproducible(self):
        a = simulate_pe_paths(small_cfg(), 7)
        b = simulate_pe_paths(small_cfg(), 7)
        assert np.array_equal(a["theta"], b["theta"])
        assert np.array_equal(a["z"], b["z"])
        assert np.array_equal(a["theta_obs"], b["theta_obs"])

    def test_distinct_replications(self):
        a = simulate_pe_paths(small_cfg(), 1)
        b = simulate_pe_paths(small_cfg(), 2)
        assert not np.array_equal(a["z"], b["z"])

    def test_degenerate_dgp_is_constant(self):
        cfg = small_cfg(sd_theta=0.0, sd_z=0.0, stress_prob=0.0, sigma_theta_obs=0.0)
        paths = simulate_pe_paths(cfg, 0)
        assert np.allclose(paths["theta"], 0.65)
        assert np.allclose(paths["z"], 0.02)
        assert np.allclose(paths["true_scores"], paths["true_scores"][0])

    def test_vectorized_scores_match_pointwise(self):
        cfg = small_cfg()
        paths = simulate_pe_paths(cfg, 3)
        vec = _pe_scores(paths["theta"], paths["z"], cfg.psi, cfg.c_bar, cfg.phi_req)
        for t in (0, 17, 59):
            p = TwoLayerParams(
                theta=float(paths["theta"][t]), psi=cfg.psi, z=float(paths["z"][t]),
                c_bar=cfg.c_bar, phi_req=cfg.phi_req,
            )
            assert vec[t] == pytest.approx(score_pe(p), abs=1e-14)

    def test_bowed_distribution_scores_match_pointwise(self):
        cfg = small_cfg()
        paths = simulate_pe_paths(cfg, 3)
        dist = _bowed_dist(cfg.c_bar, 0.8)
        vec = _pe_scores(paths["theta"], paths["z"], cfg.psi, cfg.c_bar,
                         cfg.phi_req, dist)
        for t in (0, 31):
            p = TwoLayerParams(
                theta=float(paths["theta"][t]), psi=cfg.psi, z=float(paths["z"][t]),
                c_bar=cfg.c_bar, phi_req=cfg.phi_req, dist=dist,
            )
            assert vec[t] == pytest.approx(score_pe(p), abs=1e-14)

    def test_pathwise_risk_despite_positive_expected_score(self):
        # the expected score stays at the baseline slack, yet realized
        # scores cross the boundary with visible frequency
        cfg = small_cfg(
            n_reps=50, rho_z=0.0, sd_z=0.005, stress_prob=0.0, sd_theta=0.0,
        )
        frac_neg = []
        for rep in range(cfg.n_reps):
            paths = simulate_pe_paths(cfg, rep)
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
        a = simulate_pe_paths(small_cfg(seed=42), 0)
        b = simulate_pe_paths(small_cfg(seed=43), 0)
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
        res = run_mc_tf(cfg, rho_bar_list=(0.0,))
        for row in res["rows"]:
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
    # block 16 exceeds w - 1 = 14 at the 3.8-year horizon (w = 15): the
    # block is clamped to 14 and the band takes the fewer-than-5-blocks fallback
    "block_above_window": (
        dict(seed=0xDEADBEEFCAFE, n_reps=17, block_grid=(4, 6, 16)),
        "9cc2fa3a9f1c879d1ffd593cb3f2109567cd657016a9b97fc51b240a1a68bc9b",
        "0435ebeed3cc4747d8cf73a2de5c00b156e9b73c42cf74504eed588eb08e57d7",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_rows_match_pinned_digests(name):
    kw, pe_digest, tf_digest = PINNED_ROWS[name]
    cfg = MCConfig(**kw)
    for fn, digest in ((run_mc_pe, pe_digest), (run_mc_tf, tf_digest)):
        rows = fn(cfg)["rows"]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, fn.__name__
