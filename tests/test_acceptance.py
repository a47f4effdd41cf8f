"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest -v tests/test_acceptance.py -s`.
"""

import functools
import subprocess
import sys
import time

import numpy as np
import pytest

from debtregime.closure import (
    ThetaLaw,
    TwoLayerParams,
    demand_at,
    feedback_gain,
    fixed_point_scan,
    pe_sensitivities,
    perturbation_response,
    solve_premium,
    zero_premium_boundary_theta,
)
from debtregime.core import EconState
from debtregime.extensions import ClockSpec, PsiSpec, clock, psi_composite
from debtregime.inference import score_pe
from debtregime.scenario import load_scenario
from debtregime.tables import build_table
from debtregime.transition import TransitionSpec, required_growth_exogenous
from test_closure import interval_bisection

ECON = EconState(b_prev=2.40, r_n=0.022, g_n=0.030, pi=0.027, d=0.020)


def report(num, title):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except AssertionError:
                print(f"[FAIL] criterion {num}: {title}")
                raise
            print(f"[PASS] criterion {num}: {title}")

        return wrapper

    return decorator


@report(1, "headline calibration table replicated, < 1 s")
def test_criterion_01_calibration_table():
    t0 = time.perf_counter()
    art = build_table("calibration", load_scenario(None), seed=42)
    elapsed = time.perf_counter() - t0
    vals = {r[0]: r[1] for r in art.rows}
    # percent-unit quantities at 1e-3
    assert abs(vals["sprint_cumulative_improvement"] - 2.4) <= 1e-3
    assert abs(vals["annual_repression_dividend"] - 1.2) <= 1e-3
    assert abs(vals["paradox_gamma_threshold"] - 0.8) <= 1e-3
    assert abs(vals["x_max_rd"] - 0.6) <= 1e-3
    assert abs(vals["x_min_shock"] - 20.0) <= 1e-3
    assert abs(vals["x_min_demo_lo"] - 10.0) <= 1e-3
    assert abs(vals["x_min_demo_hi"] - 16.0) <= 1e-3
    assert abs(vals["x_max_safe"] - (-0.08)) <= 1e-3
    # year-valued clocks at the published print precision (two decimals)
    assert abs(vals["clock_linear"] - 3.0) <= 1e-3
    assert abs(vals["clock_exponential"] - 3.47) <= 5e-3
    assert elapsed < 1.0


@report(2, "two-layer baseline: interior regime with ~3 pp slack")
def test_criterion_02_closure_baseline():
    sol = solve_premium(TwoLayerParams())
    assert abs(sol.phi_d_at_zero - 0.8797) <= 5e-4
    assert abs(sol.phi_d_at_zero - 0.88) <= 0.005  # published rounding
    assert sol.case == "a_interior"
    assert sol.rho == 0.0
    assert abs(sol.slack - 0.03) <= 0.005


@report(3, "boundary-score sensitivities match analytics and differences")
def test_criterion_03_pe_sensitivities():
    p = TwoLayerParams()
    s = pe_sensitivities(p)
    assert abs(s["dB_dtheta"] - 0.344) <= 0.005
    assert abs(s["dB_dpsi"] - 0.124) <= 0.005
    assert abs(s["dB_dz"] - (-6.01)) <= 0.005
    h = 1e-7

    def score(theta=p.theta, psi=p.psi, z=p.z):
        return score_pe(
            TwoLayerParams(theta=theta, psi=psi, z=z, c_bar=p.c_bar,
                           phi_req=p.phi_req)
        )

    fd = {
        "dB_dtheta": (score(theta=p.theta + h) - score(theta=p.theta - h)) / (2 * h),
        "dB_dpsi": (score(psi=p.psi + h) - score(psi=p.psi - h)) / (2 * h),
        "dB_dz": (score(z=p.z + h) - score(z=p.z - h)) / (2 * h),
    }
    for key in fd:
        assert abs(s[key] - fd[key]) / abs(s[key]) <= 1e-6


@report(4, "transition thresholds and exact debt-concept widening")
def test_criterion_04_transition_thresholds():
    base = required_growth_exogenous(TransitionSpec(state=ECON))
    assert abs(base["delta_g_min"] * 100 - 0.533) <= 0.005
    bounded = required_growth_exogenous(TransitionSpec(state=ECON, rho_bar=0.005))
    assert abs(bounded["delta_g_min"] * 100 - 1.03) <= 0.005
    monitor = required_growth_exogenous(
        TransitionSpec(state=EconState(1.574, 0.022, 0.030, 0.027, 0.020))
    )
    assert abs(monitor["delta_g_min"] * 100 - 0.971) <= 0.005
    widening = monitor["threshold"] - base["threshold"]
    affine = (ECON.d - ECON.s) * (1.0 / 1.574 - 1.0 / 2.40)
    assert abs(widening - affine) <= 1e-12
    assert 0.437 <= widening * 100 <= 0.438


@report(5, "monitoring clock 43.71 yr against the published 43.6 +/- 0.2")
def test_criterion_05_monitoring_clock():
    out = clock(ClockSpec(phi=0.932, phi_bar=0.85, kappa=0.001876))
    assert abs(out["T_linear"] - 43.71) <= 0.005  # the division itself
    # the published 43.6 reflects rounding of the erosion-rate input; the
    # engine keeps the formula value and accepts the print at +/- 0.2 yr
    assert abs(out["T_linear"] - 43.6) <= 0.2


@report(6, "complementarity property suite over 1,000 random instances, < 5 s")
def test_criterion_06_complementarity_suite():
    rng = np.random.default_rng(20260801)
    t0 = time.perf_counter()
    n_case_c = 0
    for _ in range(1000):
        p = TwoLayerParams(
            theta=float(rng.uniform(0.0, 0.99)),
            psi=float(rng.uniform(0.3, 1.0)),
            z=float(rng.uniform(0.005, 0.08)),
            c_bar=float(rng.uniform(0.01, 0.10)),
            phi_req=float(rng.uniform(0.3, 1.0)),
        )
        sol = solve_premium(p)
        if sol.case == "d_hard_failure":
            assert p.phi_req > sol.phi_d_max
            continue
        assert sol.rho >= 0.0
        gap = demand_at(sol.rho, p) - p.phi_req
        assert gap >= -1e-12
        assert sol.rho * gap <= 1e-10
        if sol.case == "c_stress":
            n_case_c += 1
            assert abs(sol.rho - interval_bisection(p)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert n_case_c >= 100  # the stress branch is genuinely exercised
    assert elapsed < 5.0


@report(7, "amplification bound and stationary-point scan")
def test_criterion_07_contraction_and_fixed_points():
    # perturbation responses stay inside the geometric bound with headroom
    interior = perturbation_response(
        TwoLayerParams(), ThetaLaw(kappa_theta=0.02, g0=5.0, eps_cap=0.01),
        ECON, horizon=10, delta=0.01,
    )
    stressed = perturbation_response(
        TwoLayerParams(), ThetaLaw(kappa_theta=0.02, g0=12.0, eps_cap=0.001),
        ECON, horizon=20, delta=0.01,
    )
    for resp in (interior, stressed):
        assert resp["max_eta"] <= 0.9
        assert resp["max_theta_dev"] <= resp["bound_theta"] * 1.05
        assert resp["max_rho_dev"] <= resp["bound_rho"] * 1.05 + 1e-15
    assert stressed["max_rho_dev"] > 0.0

    # explosive instance: two stationary points astride the boundary
    p = TwoLayerParams(theta=0.9, z=0.0291, phi_req=0.95)
    law = ThetaLaw(kappa_theta=0.01, g0=4.0)
    boundary = zero_premium_boundary_theta(p)
    assert feedback_gain(p.with_theta(boundary), law) >= 1.0
    out = fixed_point_scan(p, law, pi=0.027, r_rep=0.01, grid=2000)
    fps = out["fixed_points"]
    assert len(fps) == 2
    assert sum(fp["theta_star"] < boundary for fp in fps) == 1
    assert sum(fp["theta_star"] > boundary for fp in fps) == 1
    assert all(fp["residual"] <= 1e-10 for fp in fps)

    # contraction instances: at most one stationary point
    weak = fixed_point_scan(
        p, ThetaLaw(kappa_theta=0.01, g0=0.5), pi=0.027, r_rep=0.01, grid=2000
    )
    strong = fixed_point_scan(
        p, ThetaLaw(kappa_theta=0.01, g0=1.0), pi=0.06, r_rep=0.01, grid=2000
    )
    assert feedback_gain(p.with_theta(boundary), ThetaLaw(g0=1.0)) < 1.0
    for res in (weak, strong):
        assert len(res["fixed_points"]) <= 1
        assert all(fp["residual"] <= 1e-10 for fp in res["fixed_points"])


@report(8, "premium-emergence Monte Carlo at desk scale, < 2 min")
def test_criterion_08_mc_pe():
    from debtregime.montecarlo import run_mc_pe

    cfg = load_scenario(None).mc_config(seed=42, n_reps=500)
    t0 = time.perf_counter()
    res = run_mc_pe(cfg, threads=1)
    elapsed = time.perf_counter() - t0
    rows = {(r["method"], r["horizon_yr"], r["block_len"]): r for r in res["rows"]}
    horizons = (3.8, 7.5, 11.2, 15.0)
    for h in horizons:
        t2 = rows[("proposed_tier2", h, cfg.block_len)]
        assert t2["false_safety"] <= 0.5
        assert 15.0 <= t2["warning"] <= 45.0
        naive = rows[("naive_plugin", h, cfg.block_len)]
        assert naive["false_safety"] > 0.0
        for metric in ("false_safety", "false_alarm", "coverage", "warning"):
            grid_vals = [rows[("proposed_tier2", h, ell)][metric] for ell in (4, 6, 8)]
            assert max(grid_vals) - min(grid_vals) <= 3.0 + 1e-9
    assert elapsed < 120.0


@report(9, "transition-feasibility Monte Carlo properties")
def test_criterion_09_mc_tf():
    from debtregime.montecarlo import run_mc_tf

    cfg = load_scenario(None).mc_config(seed=42, n_reps=500)
    res = run_mc_tf(cfg, rho_bar_list=(0.0, 0.005, 0.01), threads=1)
    t2 = {r["rho_bar"]: r for r in res["rows"] if r["method"] == "proposed_tier2"}
    for rho_bar, row in t2.items():
        assert 40.0 <= row["mean_width_bp"] <= 48.0
        assert row["false_feasible"] == 0.0
    marginals = [t2[rb]["marginal"] for rb in (0.0, 0.005, 0.01)]
    assert marginals[0] >= marginals[1] >= marginals[2]


@report(10, "stress-grid divergence handling and annotation file")
def test_criterion_10_stress_divergence(tmp_path):
    from debtregime.tables import emit_csv

    p = TwoLayerParams(theta=0.65, z=0.03)
    sol = solve_premium(p)
    assert abs(sol.phi_d_at_zero - 0.82) <= 0.005
    closed_form = p.z - p.psi * p.c_bar * (
        1.0 - (p.phi_req - p.theta) / (1.0 - p.theta)
    )
    assert abs(sol.rho - closed_form) <= 1e-10
    assert abs(sol.rho - interval_bisection(p)) <= 1e-10

    art = build_table("stress_v2", load_scenario(None), seed=42)
    path = tmp_path / "stress_v2.csv"
    emit_csv(art, str(path))
    text = path.read_text()
    ext = [l for l in text.split("\n") if l.startswith("external_stress")][0]
    cells = ext.split(",")
    assert float(cells[4]) == pytest.approx(0.505714, abs=1e-4)  # engine, %
    assert float(cells[7]) == pytest.approx(0.39, abs=1e-9)      # published, %


@report(11, "control-rights composites and cross-country ordering")
def test_criterion_11_psi_composites():
    japan = psi_composite(PsiSpec(1.00, 0.93, 1.00))
    italy = psi_composite(PsiSpec(0.50, 0.67, 0.00))
    greece = psi_composite(PsiSpec(0.50, 0.33, 0.00))
    assert abs(japan - 0.977) <= 0.005
    assert abs(italy - 0.39) <= 0.005
    assert abs(greece - 0.277) <= 0.005
    for w in ((1 / 3, 1 / 3, 1 / 3), (0.50, 0.25, 0.25),
              (0.25, 0.50, 0.25), (0.40, 0.40, 0.20)):
        vals = [
            psi_composite(PsiSpec(*c, weights=w))
            for c in ((1.00, 0.93, 1.00), (0.50, 0.67, 0.00), (0.50, 0.33, 0.00))
        ]
        assert vals[0] > vals[1] > vals[2]


@report(12, "byte-identical artifacts across reruns")
def test_criterion_12_determinism(tmp_path):
    def run(outdir, extra):
        res = subprocess.run(
            [sys.executable, "-m", "debtregime", "--out", str(tmp_path / outdir),
             "--seed", "42"] + extra,
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr

    run("m1", ["mc", "--reps", "30"])
    run("m2", ["mc", "--reps", "30"])
    for name in ("mc_pe.csv", "mc_tf.csv"):
        b1 = (tmp_path / "m1" / name).read_bytes()
        assert b1 == (tmp_path / "m2" / name).read_bytes()

    run("t1", ["tables", "--reps", "20"])
    run("t2", ["tables", "--reps", "20"])
    for name in ("calibration.csv", "stress_v2.csv", "tier_pe.csv", "tier_tf.csv",
                 "psi_countries.csv", "mc_pe.csv", "mc_tf.csv"):
        b1 = (tmp_path / "t1" / name).read_bytes()
        assert b1 == (tmp_path / "t2" / name).read_bytes()
