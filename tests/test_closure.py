import dataclasses
import hashlib
import math
import pickle
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtregime.closure import (
    _abs_drho_dtheta,
    _solution,
    _cdf_ends,
    _demand_on_grid,
    _premium_at,
    _premium_on_grid,
    _step,
    MarginDistribution,
    PremiumSolution,
    ThetaLaw,
    TwoLayerParams,
    comparative_statics,
    demand_at,
    demand_derivative,
    feedback_gain,
    fixed_point_scan,
    gamma_theta,
    monotone_path,
    pe_sensitivities,
    perturbation_response,
    phi_req_affine,
    solve_premium,
    solve_premium_bisection,
    theta_step,
    zero_premium_boundary_theta,
)
from debtregime.core import EconState
from debtregime.errors import ConfigError, DomainError, ScopeError

BASE = TwoLayerParams()  # theta 0.65, psi 0.97, z 2%, c_bar 6%, phi_req 0.85
ECON = EconState(b_prev=2.40, r_n=0.022, g_n=0.030, pi=0.027, d=0.020)


def interval_bisection(p):
    """The case-c premium by bisection on [0, z] to |demand - phi_req| <= 1e-12:
    the first midpoint within the tolerance, or the upper end after 200
    halvings.  `solve_premium_bisection` solved this way before it became the
    exact knot-segment solve; the bisection is kept as its oracle."""
    assert demand_at(0.0, p) < p.phi_req <= demand_at(p.z, p)
    lo, hi = 0.0, p.z
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = demand_at(mid, p) - p.phi_req
        if abs(f) <= 1e-12:
            return mid
        if f < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def table_from_power(c_bar, power, n=9):
    fr = np.linspace(0.0, 1.0, n)
    return MarginDistribution(kind="table", knots=tuple((f * c_bar, f**power) for f in fr))


class TestDemand:
    def test_baseline_zero_premium(self):
        assert demand_at(0.0, BASE) == pytest.approx(0.8797, abs=5e-5)

    def test_full_premium_saturates(self):
        assert demand_at(BASE.z, BASE) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_core(self):
        p = TwoLayerParams(theta=1.0)
        for rho in (0.0, 0.01, 0.02):
            assert demand_at(rho, p) == 1.0

    def test_weakly_increasing_in_rho(self):
        rhos = np.linspace(0.0, BASE.z, 101)
        vals = [demand_at(r, BASE) for r in rhos]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_density_form(self):
        h = 1e-7
        for p in (BASE, TwoLayerParams(dist=table_from_power(0.06, 1.3))):
            for rho in (0.002, 0.01, 0.015):
                fd = (demand_at(rho + h, p) - demand_at(rho - h, p)) / (2 * h)
                assert fd == pytest.approx(demand_derivative(rho, p), abs=1e-6)

    @pytest.mark.parametrize("fn", [demand_at, demand_derivative])
    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, -1.0])
    def test_premium_outside_its_domain_rejected(self, fn, rho):
        # on a table margin NaN used to read as demand theta and inf as full
        # demand; the derivative took NaN and negative premiums
        for p in (BASE, TwoLayerParams(dist=table_from_power(0.06, 1.3))):
            with pytest.raises(DomainError, match=r"rho must be finite and >= 0"):
                fn(rho, p)


class TestSolvePremium:
    def test_baseline_interior(self):
        sol = solve_premium(BASE)
        assert sol.case == "a_interior"
        assert sol.rho == 0.0
        assert sol.slack == pytest.approx(0.0297, abs=5e-5)

    def test_external_stress_closed_form(self):
        p = TwoLayerParams(z=0.03)
        sol = solve_premium(p)
        assert sol.case == "c_stress"
        assert sol.phi_d_at_zero == pytest.approx(0.8196, abs=5e-5)
        assert sol.rho == pytest.approx(0.00505714, abs=1e-7)

    def test_hard_failure(self):
        # an atom of zero-captivity holders caps max demand short of the
        # requirement: no premium in [0, z] restores absorption
        knots = ((0.0, 0.4), (0.03, 0.7), (0.06, 1.0))
        p = TwoLayerParams(
            theta=0.2, z=0.05, phi_req=0.95,
            dist=MarginDistribution(kind="table", knots=knots),
        )
        sol = solve_premium(p)
        assert sol.phi_d_max == pytest.approx(0.2 + 0.8 * 0.6, abs=1e-12)
        assert sol.phi_d_max < p.phi_req
        assert sol.case == "d_hard_failure"
        assert sol.rho is None

    def test_closed_form_matches_bisection(self):
        p = TwoLayerParams(z=0.03)
        rho_b = interval_bisection(p)
        assert abs(solve_premium(p).rho - rho_b) <= 1e-10

    def test_segment_solve_takes_a_uniform_margin_as_the_two_knot_table(self):
        p = TwoLayerParams(z=0.03)
        table = replace(p, dist=MarginDistribution(
            kind="table", knots=((0.0, 0.0), (p.c_bar, 1.0))))
        rho = solve_premium_bisection(p)
        assert type(rho) is float and repr(rho) == repr(solve_premium(table).rho)
        assert abs(rho - solve_premium(p).rho) <= 1e-15
        assert abs(demand_at(rho, p) - p.phi_req) <= 2 * math.ulp(1.0)

    def test_segment_solve_scope_and_python_floats(self):
        # numpy knot values (from np.linspace) are stored as Python floats
        # and stay out of the result; outside case c the solver refuses, as
        # the bisection did
        p = TwoLayerParams(z=0.03, phi_req=0.9, dist=table_from_power(0.06, 0.8))
        assert all(type(v) is float for knot in p.dist.knots for v in knot)
        rho = solve_premium_bisection(p)
        assert type(rho) is float and type(solve_premium(p).rho) is float
        assert abs(demand_at(rho, p) - p.phi_req) <= 2 * math.ulp(1.0)
        for phi_req in (0.5, 1.0):  # cases a and d
            with pytest.raises(ScopeError, match="demand_at"):
                solve_premium_bisection(replace(p, phi_req=phi_req, dist=ATOM_TABLE))

    def test_segment_solve_edge_cases(self):
        # phi_req = dmax sits on the atom: rho = z; a last knot 1e-12 below
        # c_bar; a first knot 1e-15 above 0
        p = TwoLayerParams(theta=0.2, psi=0.9, z=0.05, dist=ATOM_TABLE)
        p = replace(p, phi_req=demand_at(p.z, p))
        assert solve_premium(p).rho == p.z
        assert _premium_on_grid(p, np.array([p.theta]), p.z)[0].tolist() == [p.z]
        knots = ((1e-15, 0.0), (0.03, 0.4), (0.06 - 1e-12, 1.0))
        for phi_req in (0.8, 0.99, 0.999999):
            q = TwoLayerParams(theta=0.5, z=0.07, phi_req=phi_req,
                               dist=MarginDistribution(kind="table", knots=knots))
            rho = solve_premium(q).rho
            assert abs(demand_at(rho, q) - phi_req) <= 2 * math.ulp(1.0)
            assert abs(rho - interval_bisection(q)) <= 1e-12 / demand_derivative(rho, q)

    def test_complementarity_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            theta = rng.uniform(0.0, 0.99)
            p = TwoLayerParams(
                theta=theta,
                psi=rng.uniform(0.3, 1.0),
                z=rng.uniform(0.005, 0.08),
                c_bar=rng.uniform(0.01, 0.1),
                phi_req=rng.uniform(0.3, 1.0),
            )
            sol = solve_premium(p)
            if sol.case == "d_hard_failure":
                assert p.phi_req > sol.phi_d_max
                continue
            assert sol.rho >= 0.0
            gap = demand_at(sol.rho, p) - p.phi_req
            assert gap >= -1e-12
            assert sol.rho * gap <= 1e-10

    def test_corner_equivalence_with_scope_condition(self):
        # zero-premium cases are exactly those where demand at rho=0 covers
        # the requirement
        rng = np.random.default_rng(123)
        for _ in range(200):
            p = TwoLayerParams(
                theta=rng.uniform(0.0, 0.99),
                z=rng.uniform(0.005, 0.05),
                phi_req=rng.uniform(0.5, 0.99),
            )
            sol = solve_premium(p)
            holds = demand_at(0.0, p) >= p.phi_req
            assert (sol.case in ("a_interior", "b_boundary")) == holds


class TestComparativeStatics:
    def test_pass_through_is_unity(self):
        p = TwoLayerParams(z=0.03)
        assert comparative_statics(p)["d_rho_d_z"] == 1.0

    def test_partials_match_finite_differences(self):
        p = TwoLayerParams(theta=0.55, z=0.02)
        cs = comparative_statics(p)
        h = 1e-7

        def rho_of(**kw):
            q = TwoLayerParams(
                theta=kw.get("theta", p.theta), psi=kw.get("psi", p.psi),
                z=kw.get("z", p.z), c_bar=p.c_bar, phi_req=p.phi_req,
            )
            return solve_premium(q).rho

        fd_theta = (rho_of(theta=p.theta + h) - rho_of(theta=p.theta - h)) / (2 * h)
        fd_psi = (rho_of(psi=p.psi + h) - rho_of(psi=p.psi - h)) / (2 * h)
        fd_z = (rho_of(z=p.z + h) - rho_of(z=p.z - h)) / (2 * h)
        assert cs["d_rho_d_theta"] == pytest.approx(fd_theta, rel=1e-6)
        assert cs["d_rho_d_psi"] == pytest.approx(fd_psi, rel=1e-6)
        assert cs["d_rho_d_z"] == pytest.approx(fd_z, rel=1e-6)

    def test_core_sensitivity_value(self):
        # consistent with the closed form rho* = z - psi*c_bar*(1-req)/(1-theta):
        # at theta=0.55 the slope is -0.0582*0.15/0.45^2
        cs = comparative_statics(TwoLayerParams(theta=0.55, z=0.02))
        assert cs["d_rho_d_theta"] == pytest.approx(-0.0431111, abs=1e-6)
        assert cs["d_rho_d_theta"] <= 0.0

    def test_scope_errors(self):
        with pytest.raises(ScopeError):
            comparative_statics(BASE)  # interior case
        with pytest.raises(ScopeError):
            comparative_statics(
                TwoLayerParams(z=0.03, dist=table_from_power(0.06, 1.0))
            )


class TestPESensitivities:
    def test_baseline_values(self):
        s = pe_sensitivities(BASE)
        assert s["dB_dtheta"] == pytest.approx(0.344, abs=0.005)
        assert s["dB_dpsi"] == pytest.approx(0.124, abs=0.005)
        assert s["dB_dz"] == pytest.approx(-6.01, abs=0.005)

    def test_degenerate_core_kills_margin_terms(self):
        s = pe_sensitivities(TwoLayerParams(theta=1.0))
        assert s["dB_dpsi"] == 0.0
        assert s["dB_dz"] == 0.0

    def test_match_finite_differences_of_score(self):
        from debtregime.inference import score_pe

        h = 1e-7
        s = pe_sensitivities(BASE)

        def score(**kw):
            q = TwoLayerParams(
                theta=kw.get("theta", BASE.theta), psi=kw.get("psi", BASE.psi),
                z=kw.get("z", BASE.z), c_bar=BASE.c_bar, phi_req=BASE.phi_req,
            )
            return score_pe(q)

        fd_t = (score(theta=BASE.theta + h) - score(theta=BASE.theta - h)) / (2 * h)
        fd_p = (score(psi=BASE.psi + h) - score(psi=BASE.psi - h)) / (2 * h)
        fd_z = (score(z=BASE.z + h) - score(z=BASE.z - h)) / (2 * h)
        assert s["dB_dtheta"] == pytest.approx(fd_t, rel=1e-6)
        assert s["dB_dpsi"] == pytest.approx(fd_p, rel=1e-6)
        assert s["dB_dz"] == pytest.approx(fd_z, rel=1e-6)


class TestThetaLaw:
    def test_shutdown_is_exact(self):
        law = ThetaLaw(kappa_theta=0.002, g0=2.0)
        for eps in (0.0, -1e-300, -0.0081, -5.0):
            assert gamma_theta(law, eps) == 0.0
        assert theta_step(0.65, law, -0.0081) == pytest.approx(0.648, abs=1e-15)

    @pytest.mark.parametrize("law, eps", [(ThetaLaw(g0=1.0), math.nan), (ThetaLaw(), math.inf),
                                          (ThetaLaw(g0=1.0), -math.inf)])
    def test_non_finite_epsilon_rejected(self, law, eps):
        # nan returned nan, and inf gave 0 * inf = nan at the default g0 = 0;
        # theta_step already rejected both
        with pytest.raises(DomainError, match=f"^epsilon must be finite, got {eps!r}$"):
            gamma_theta(law, eps)

    def test_paused_core(self):
        law = ThetaLaw(kappa_theta=0.004, g0=2.0)
        eps = 0.002  # gamma = 0.004 exactly offsets erosion
        assert theta_step(0.5, law, eps) == pytest.approx(0.5, abs=1e-15)

    def test_clamping(self):
        law = ThetaLaw(kappa_theta=0.9, g0=0.0)
        assert theta_step(0.5, law, 0.01) == 0.0
        law_up = ThetaLaw(kappa_theta=0.0, g0=100.0)
        assert theta_step(0.9, law_up, 0.05) == 1.0

    def test_cap_binds(self):
        law = ThetaLaw(kappa_theta=0.0, g0=2.0, eps_cap=0.003)
        assert gamma_theta(law, 0.01) == pytest.approx(0.006, abs=1e-15)


class TestFeedbackGain:
    def test_baseline_gain_consistent_with_solver(self):
        # |d rho/d theta| from the closed form, cross-checked by finite
        # differences of the solver in stress territory
        law = ThetaLaw(g0=1.0)
        eta = feedback_gain(BASE, law)
        assert eta == pytest.approx(0.0582 * 0.15 / 0.35**2, abs=1e-9)
        h = 1e-6
        p = TwoLayerParams(theta=0.55, z=0.02)
        fd = (
            solve_premium(p.with_theta(0.55 - h)).rho
            - solve_premium(p.with_theta(0.55 + h)).rho
        ) / (2 * h)
        assert feedback_gain(p, law) == pytest.approx(abs(fd), rel=1e-5)

    def test_zero_sensitivity_kills_loop(self):
        assert feedback_gain(BASE, ThetaLaw(g0=0.0)) == 0.0

    def test_saturated_core_singular(self):
        assert math.isinf(feedback_gain(TwoLayerParams(theta=1.0), ThetaLaw(g0=1.0)))

    def test_amplification_factor(self):
        law = ThetaLaw(g0=1.0)
        eta = feedback_gain(BASE, law)
        assert eta < 1.0
        assert 0.01 / (1.0 - eta) == pytest.approx(0.01 / (1.0 - 0.0712653), abs=1e-6)


class TestMonotonePath:
    def test_stationary_interior(self):
        law = ThetaLaw(kappa_theta=0.0, g0=0.0)
        out = monotone_path(BASE, law, ECON, horizon=10)
        assert all(row["case"] == "a_interior" for row in out["periods"])
        assert all(row["rho"] == 0.0 for row in out["periods"])
        assert out["first_case_c"] is None

    def test_first_stress_period_matches_brute_force(self):
        law = ThetaLaw(kappa_theta=0.02, g0=0.0)
        out = monotone_path(BASE, law, ECON, horizon=10)
        # independent forward simulation of the same law
        theta, first = BASE.theta, None
        for t in range(10):
            if demand_at(0.0, BASE.with_theta(theta)) < BASE.phi_req and first is None:
                first = t
            theta = max(0.0, theta - 0.02)
        assert out["first_case_c"] == first
        assert first == 5
        boundary = zero_premium_boundary_theta(BASE)
        assert out["periods"][first]["theta"] < boundary < out["periods"][first - 1]["theta"]

    def test_severe_start_is_immediately_stressed(self):
        p = TwoLayerParams(theta=0.45, z=0.035)
        out = monotone_path(p, ThetaLaw(), ECON, horizon=3)
        assert out["first_case_c"] == 0
        assert out["periods"][0]["rho"] == pytest.approx(0.0191273, abs=1e-6)

    def test_eta_flag(self):
        p = TwoLayerParams(theta=0.9, z=0.0291, phi_req=0.95)
        law = ThetaLaw(kappa_theta=0.01, g0=4.0)
        out = monotone_path(p, law, ECON, horizon=5, r_rep=0.01)
        assert out["first_eta_ge_1"] == 0  # gain above one at the start

    def test_perturbation_bound_interior_path(self):
        # maintenance exceeds erosion: the path stays interior, the shock is
        # carried but never amplified
        law = ThetaLaw(kappa_theta=0.02, g0=5.0, eps_cap=0.01)
        resp = perturbation_response(BASE, law, ECON, horizon=10, delta=0.01)
        assert resp["max_eta"] <= 0.9
        assert resp["max_theta_dev"] <= resp["bound_theta"] * 1.05
        assert resp["max_rho_dev"] <= resp["bound_rho"] * 1.05 + 1e-15

    def test_perturbation_bound_capped_stress_path(self):
        # erosion into stress territory with the maintenance slope saturated:
        # the premium responds but the loop cannot compound the shock
        law = ThetaLaw(kappa_theta=0.02, g0=12.0, eps_cap=0.001)
        resp = perturbation_response(BASE, law, ECON, horizon=20, delta=0.01)
        assert resp["max_eta"] <= 0.9
        assert resp["max_rho_dev"] > 0.0  # stress region actually reached
        assert resp["max_theta_dev"] <= resp["bound_theta"] * 1.05
        assert resp["max_rho_dev"] <= resp["bound_rho"] * 1.05


class TestFixedPointScan:
    def test_degenerate_continuum(self):
        out = fixed_point_scan(BASE, ThetaLaw(kappa_theta=0.0, g0=0.0),
                               pi=0.027, r_rep=0.022)
        assert out["fixed_points"] == []
        assert "degenerate_continuum" in out["diagnostics"]

    def test_engineered_two_fixed_points(self):
        # thin contestable margin at the boundary and a wide requirement gap:
        # feedback gain above one at the zero-premium boundary
        p = TwoLayerParams(theta=0.9, z=0.0291, phi_req=0.95)
        law = ThetaLaw(kappa_theta=0.01, g0=4.0)
        boundary = zero_premium_boundary_theta(p)
        assert boundary == pytest.approx(0.9, abs=1e-12)
        assert feedback_gain(p.with_theta(boundary), law) >= 1.0
        out = fixed_point_scan(p, law, pi=0.027, r_rep=0.01)
        fps = out["fixed_points"]
        assert len(fps) == 2
        assert all(fp["residual"] <= 1e-10 for fp in fps)
        below = [fp for fp in fps if fp["theta_star"] < boundary]
        above = [fp for fp in fps if fp["theta_star"] > boundary]
        assert len(below) == 1 and len(above) == 1
        assert below[0]["type"] == "stress"
        assert above[0]["type"] == "safe"
        # stress point solves gamma(eps(rho)) = kappa: rho = eps0 - kappa/g0
        rho_star = (0.027 - 0.01) - 0.01 / 4.0
        theta_expected = 1.0 - p.psi * p.c_bar * (1 - p.phi_req) / (p.z - rho_star)
        assert below[0]["theta_star"] == pytest.approx(theta_expected, abs=1e-6)

    def test_contraction_instances_at_most_one(self):
        p = TwoLayerParams(theta=0.9, z=0.0291, phi_req=0.95)
        # erosion dominates everywhere: no stationary state, exits at floor
        weak = ThetaLaw(kappa_theta=0.01, g0=0.5)
        out = fixed_point_scan(p, weak, pi=0.027, r_rep=0.01)
        assert len(out["fixed_points"]) <= 1
        assert "exits_at_floor" in out["diagnostics"] or out["fixed_points"]
        # maintenance dominates everywhere: only the saturated safe state
        strong = ThetaLaw(kappa_theta=0.01, g0=1.0)
        out2 = fixed_point_scan(p, strong, pi=0.06, r_rep=0.01)
        assert feedback_gain(p.with_theta(0.9), strong) < 1.0
        assert len(out2["fixed_points"]) <= 1
        for fp in out2["fixed_points"]:
            assert fp["residual"] <= 1e-10

    def test_brute_force_grid_is_the_oracle(self):
        # direct evaluation of the map on a fine grid must agree with the
        # scan's bracketing on where the map crosses the diagonal
        p = TwoLayerParams(theta=0.9, z=0.0291, phi_req=0.95)
        law = ThetaLaw(kappa_theta=0.01, g0=4.0)
        pi, r_rep = 0.027, 0.01

        def phi_map(theta):
            sol = solve_premium(p.with_theta(theta))
            rho = sol.rho if sol.rho is not None else pi - r_rep
            return min(1.0, max(0.0, theta - law.kappa_theta
                                + gamma_theta(law, pi - r_rep - rho)))

        grid = np.linspace(0.0, 1.0, 4001)
        signs = np.sign([phi_map(t) - t for t in grid])
        crossings = [
            (grid[i], grid[i + 1])
            for i in range(len(grid) - 1)
            if signs[i] != 0 and signs[i + 1] != 0 and signs[i] != signs[i + 1]
        ]
        out = fixed_point_scan(p, law, pi=pi, r_rep=r_rep)
        interior = [fp for fp in out["fixed_points"] if 0.0 < fp["theta_star"] < 1.0]
        assert len(interior) == len(crossings)
        for fp, (lo, hi) in zip(sorted(interior, key=lambda f: f["theta_star"]), crossings):
            assert lo - 1e-9 <= fp["theta_star"] <= hi + 1e-9

    def test_premium_jump_is_not_a_fixed_point(self):
        # z/psi >= c_bar: the premium jumps up from zero as theta falls below
        # phi_req, and the drift changes sign across the jump without a root
        p = TwoLayerParams(theta=0.6, psi=0.9, z=0.04, c_bar=0.03, phi_req=0.8)
        out = fixed_point_scan(p, ThetaLaw(kappa_theta=0.001, g0=0.3), pi=0.03, r_rep=0.015)
        assert "premium_jump" in out["diagnostics"]
        assert [fp["theta_star"] for fp in out["fixed_points"]] == [1.0]
        # the drift also jumps where the premium runs out (case c -> case d)
        atom = TwoLayerParams(theta=0.6, psi=0.9, z=0.03, phi_req=0.9,
                              dist=ATOM_TABLE)
        out2 = fixed_point_scan(atom, ThetaLaw(kappa_theta=0.001, g0=0.5),
                                pi=0.05, r_rep=0.01)
        assert "premium_jump" in out2["diagnostics"]
        for res in (out, out2):
            assert all(fp["residual"] <= 1e-10 for fp in res["fixed_points"])

    def test_zero_drift_interval_is_one_diagnostic(self):
        # kappa = 0: wherever eps <= 0 the drift is exactly 0, and the
        # scan used to report every other point of that interval (231 of
        # them) as a fixed point of slope 1
        out = fixed_point_scan(BASE, ThetaLaw(g0=0.5), 0.03, 0.02)
        assert out["diagnostics"] == ["stationary_interval"]
        assert [(fp["theta_star"], fp["type"]) for fp in out["fixed_points"]] == [(1.0, "safe")]

    def test_isolated_grid_zero_stays_a_fixed_point(self, monkeypatch):
        # a grid drift with zero runs of two and three points and one
        # isolated zero, positive elsewhere: only the isolated zero and the
        # ceiling are fixed points
        import debtregime.closure as closure

        vals = np.full(2001, 1e-3)
        vals[[100, 101, 500, 800, 801, 802]] = 0.0
        monkeypatch.setattr(closure, "_core_drift", lambda rho, law, pi, r_rep: vals)
        out = fixed_point_scan(BASE, ThetaLaw(kappa_theta=0.001, g0=0.3), 0.03, 0.015)
        assert out["diagnostics"] == ["stationary_interval"]
        assert [fp["theta_star"] for fp in out["fixed_points"]] == [0.25, 1.0]

    def test_buffer_is_minus_inf_once_the_loop_stops_contracting(self):
        # on the default state the boundary gain eta_b crosses 1 between
        # g0 = 21 and 23; the buffer used to jump back to the raw distance
        # 0.4365 there, while perturbation_response's bound reads inf
        buffers = {g0: [fp["buffer"] for fp in fixed_point_scan(
            BASE, ThetaLaw(g0=g0), 0.02, 0.01, sigma=0.05)["fixed_points"]]
            for g0 in (21.0, 23.0, 25.0)}
        assert buffers == {21.0: [-0.836227272727254], 23.0: [-math.inf],
                           25.0: [-math.inf]}
        boundary = BASE.with_theta(zero_premium_boundary_theta(BASE))
        assert feedback_gain(boundary, ThetaLaw(g0=21.0)) < 1.0
        assert feedback_gain(boundary, ThetaLaw(g0=23.0)) >= 1.0
        # at sigma = 0 the gain is skipped: the raw distance to the boundary
        out = fixed_point_scan(BASE, ThetaLaw(g0=25.0), 0.02, 0.01)
        assert [fp["buffer"] for fp in out["fixed_points"]] == [0.4365000000000001]
        # phi_req = 1: the boundary is theta = 1, where eta_b = inf
        full = TwoLayerParams(phi_req=1.0)
        assert feedback_gain(full.with_theta(1.0), ThetaLaw(g0=0.5)) == math.inf
        out = fixed_point_scan(full, ThetaLaw(g0=0.5), 0.03, 0.01, sigma=0.05)
        assert [(fp["theta_star"], fp["buffer"]) for fp in out["fixed_points"]] == [
            (1.0, -math.inf)]


_NAN_CALLS = {
    ("monotone_path", "r_rep"): lambda: monotone_path(BASE, ThetaLaw(), ECON, 3, r_rep=math.nan),
    ("fixed_point_scan", "pi"): lambda: fixed_point_scan(BASE, ThetaLaw(), math.nan, 0.01),
    ("fixed_point_scan", "r_rep"): lambda: fixed_point_scan(BASE, ThetaLaw(), 0.02, math.nan),
    ("fixed_point_scan", "sigma"): lambda: fixed_point_scan(BASE, ThetaLaw(), 0.02, 0.01,
                                                            sigma=math.nan),
    ("perturbation_response", "delta"): lambda: perturbation_response(
        BASE, ThetaLaw(), ECON, 3, math.nan),
    ("perturbation_response", "r_rep"): lambda: perturbation_response(
        BASE, ThetaLaw(), ECON, 3, 0.01, r_rep=math.nan),
}


@pytest.mark.parametrize("function, name", sorted(_NAN_CALLS))
def test_non_finite_raw_float_rejected(function, name):
    # nan used to give a path with eps = nan, a below_diagonal scan, a nan
    # buffer, or a perturbed path started from theta = 0
    with pytest.raises(DomainError, match=f"^{name} must be finite, got nan$"):
        _NAN_CALLS[function, name]()


_NEGATIVE_CALLS = {
    "sigma": lambda: fixed_point_scan(BASE, ThetaLaw(g0=21.0), 0.02, 0.01, sigma=-0.05),
    "delta": lambda: perturbation_response(
        BASE, ThetaLaw(kappa_theta=0.02, g0=5.0, eps_cap=0.01), ECON, 10, -0.01),
}


@pytest.mark.parametrize("name", sorted(_NEGATIVE_CALLS))
def test_negative_shock_size_rejected(name):
    # a negative sigma used to add room to the safe buffer (+1.709 where
    # +0.05 gives -0.836), and a negative delta gave negative bounds
    with pytest.raises(DomainError, match=f"^{name} must be >= 0, got -0.0[15]$"):
        _NEGATIVE_CALLS[name]()


def _reference_rho(p, thetas, zs=None):
    """Per-element scalar solves (at p's spread unless `zs` gives one per
    theta): the oracle for the array kernel."""
    zs = [p.z] * len(thetas) if zs is None else zs
    sols = [solve_premium(replace(p, theta=t, z=s)) for t, s in zip(thetas, zs)]
    return [math.nan if s.rho is None else s.rho for s in sols]


def _spreads(p, n):
    """n spreads between a quarter and twice p's spread, in a fixed order."""
    return p.z * np.random.default_rng(5).uniform(0.25, 2.0, n)


def _reference_scan(p, law, pi, r_rep, grid=2000, sigma=0.0):
    """The per-grid-point scan the array kernel replaced, kept verbatim as
    the oracle (it reports premium jumps as roots, so it is only compared on
    states where the premium is continuous in theta)."""

    def rho_at(theta):
        sol = solve_premium(p.with_theta(theta))
        return sol.rho if sol.rho is not None else math.nan

    def G(theta):
        rho = rho_at(theta)
        if math.isnan(rho):
            return -law.kappa_theta
        return gamma_theta(law, pi - r_rep - rho) - law.kappa_theta

    n = grid
    thetas = [i / n for i in range(n + 1)]
    vals = [G(t) for t in thetas]
    diagnostics = []
    if all(abs(v) <= 1e-12 for v in vals):
        return {"fixed_points": [], "diagnostics": ["degenerate_continuum"]}
    roots = []
    for i in range(n):
        a, b = thetas[i], thetas[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if abs(fa) <= 1e-12 and 0 < i:
            roots.append(a)
        if fa * fb < 0.0:
            lo, hi, flo = a, b, fa
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = G(mid)
                if abs(fm) <= 1e-12:
                    break
                if (fm < 0.0) == (flo < 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(mid)
    deduped = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1.0 / n:
            deduped.append(r)
    roots = deduped
    if vals[-1] > 1e-12 and (not roots or 1.0 - roots[-1] > 1.0 / n):
        roots.append(1.0)
    if vals[0] < -1e-12:
        diagnostics.append("exits_at_floor")
    if not roots:
        diagnostics.append("above_diagonal" if vals[0] > 0 else "below_diagonal")
    theta_b = zero_premium_boundary_theta(p)
    eta_b = None
    if theta_b is not None:
        eta_b = feedback_gain(p.with_theta(theta_b), law)
    h = 1.0 / n
    results = []
    for r in roots:
        rho = rho_at(r)
        kind = "safe" if (not math.isnan(rho) and rho == 0.0) else "stress"
        lo = max(0.0, r - h)
        hi = min(1.0, r + h)
        phi_lo = min(1.0, max(0.0, lo + G(lo)))
        phi_hi = min(1.0, max(0.0, hi + G(hi)))
        slope = abs(phi_hi - phi_lo) / (hi - lo)
        buffer = None
        if kind == "safe" and theta_b is not None:
            allowance = 0.0
            if eta_b is not None and eta_b < 1.0:
                allowance = sigma * eta_b / (1.0 - eta_b)
            elif eta_b is not None and sigma != 0.0:
                allowance = math.inf  # the loop no longer contracts
            buffer = (r - theta_b) - allowance
        residual = abs(min(1.0, max(0.0, r + G(r))) - r)
        results.append({"theta_star": r, "type": kind, "slope": slope,
                        "buffer": buffer, "residual": residual})
    return {"fixed_points": results, "diagnostics": diagnostics}


# zero-benefit atom G(0) = 0.3: no premium can fill a requirement above
# theta + 0.7*(1 - theta), so low core shares are in case d
ATOM_TABLE = MarginDistribution(
    kind="table", knots=((0.0, 0.3), (0.02, 0.55), (0.045, 0.85), (0.06, 1.0)))
EXPLOSIVE = TwoLayerParams(theta=0.9, z=0.0291, phi_req=0.95)
GRID_STATES = [
    BASE,
    TwoLayerParams(z=0.03, phi_req=0.9),
    TwoLayerParams(psi=0.9, z=0.04, c_bar=0.03, phi_req=0.8),  # premium jump
    EXPLOSIVE,
    TwoLayerParams(z=0.03, phi_req=0.9, dist=table_from_power(0.06, 0.8)),
    TwoLayerParams(psi=0.8, z=0.035, phi_req=0.97, dist=table_from_power(0.06, 1.4, n=5)),
    TwoLayerParams(psi=0.9, z=0.03, phi_req=0.9, dist=ATOM_TABLE),  # cases a, c, d
    TwoLayerParams(psi=0.9, z=0.01, phi_req=1.0, dist=ATOM_TABLE),
    # the root sits in a first knot segment 1e-14 wide, where one ulp of rho
    # moves demand by far more than 1e-12: bisection ends at its upper end
    TwoLayerParams(theta=0.5, phi_req=0.9, dist=MarginDistribution(
        kind="table", knots=((0.0, 0.0), (1e-14, 0.5), (0.06, 1.0)))),
]


class TestPremiumOnGrid:
    @pytest.mark.parametrize("p", GRID_STATES)
    def test_matches_per_theta_solve_premium(self, p):
        thetas = np.arange(2001) / 2000
        got = _premium_on_grid(p, thetas, p.z)[0].tolist()
        assert repr(got) == repr(_reference_rho(p, thetas.tolist()))
        zs = _spreads(p, thetas.size)
        got = _premium_on_grid(p, thetas, zs)[0].tolist()
        assert repr(got) == repr(_reference_rho(p, thetas.tolist(), zs.tolist()))

    @pytest.mark.parametrize("p", GRID_STATES)
    def test_one_spread_equals_the_spread_per_element(self, p):
        # a scalar spread computes demand's CDF once; the bytes of rho and
        # of the mask are those of the same spread given per element
        thetas = np.arange(2001) / 2000
        one = _premium_on_grid(p, thetas, p.z)
        each = _premium_on_grid(p, thetas, np.full_like(thetas, p.z))
        assert [a.tobytes() for a in one] == [a.tobytes() for a in each]

    @pytest.mark.parametrize("p", GRID_STATES)
    def test_case_c_mask_matches_solve_premium(self, p):
        thetas = np.arange(2001) / 2000
        for zs in (p.z, _spreads(p, thetas.size)):
            _, stress = _premium_on_grid(p, thetas, zs)
            want = [solve_premium(replace(p, theta=t, z=s)).case == "c_stress"
                    for t, s in zip(thetas.tolist(), np.broadcast_to(zs, thetas.shape).tolist())]
            assert stress.tolist() == want

    def test_states_cover_every_case(self):
        cases = {solve_premium(p.with_theta(t)).case
                 for p in GRID_STATES for t in np.linspace(0.0, 1.0, 101)}
        assert cases == {"a_interior", "b_boundary", "c_stress", "d_hard_failure"}

    def test_per_element_spreads_reach_every_branch(self):
        # with the spread varying per element the states still reach cases
        # a-d, the closed form, bisection to |f| <= 1e-12 and the upper end
        branches = set()
        for p in GRID_STATES:
            thetas = np.arange(2001) / 2000
            for t, s in list(zip(thetas.tolist(), _spreads(p, thetas.size).tolist()))[::10]:
                q = replace(p, theta=t, z=s)
                sol = solve_premium(q)
                branch = sol.case
                if sol.case == "c_stress":
                    if p.dist.kind == "uniform" and t < 1.0:
                        branch = "closed_form"
                    elif abs(demand_at(sol.rho, q) - q.phi_req) <= 1e-12:
                        branch = "bisection"
                    else:
                        branch = "upper_end"
                branches.add(branch)
        assert branches == {"a_interior", "b_boundary", "closed_form", "bisection",
                            "upper_end", "d_hard_failure"}

    @pytest.mark.parametrize("dist", [MarginDistribution(), ATOM_TABLE])
    @pytest.mark.parametrize("phi_req", [0.0, 0.5, 1.0])
    def test_full_core_lands_in_case_a_or_b(self, dist, phi_req):
        # at theta = 1 zero-premium demand is 1 >= phi_req, so neither path
        # reaches the closed form's division by 1 - theta
        p = TwoLayerParams(theta=1.0, phi_req=phi_req, dist=dist)
        sol = solve_premium(p)
        assert (sol.case, sol.rho) == ("b_boundary" if phi_req == 1.0 else "a_interior", 0.0)
        thetas, zs = np.ones(3), np.array([0.001, p.z, 0.06])
        assert (_demand_on_grid(0.0, thetas, zs, p) >= phi_req).all()
        assert _premium_on_grid(p, thetas, zs)[0].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("p, law, pi, r_rep", [
        (BASE, ThetaLaw(kappa_theta=0.0, g0=0.0), 0.027, 0.022),
        (EXPLOSIVE, ThetaLaw(kappa_theta=0.01, g0=4.0), 0.027, 0.01),
        (EXPLOSIVE, ThetaLaw(kappa_theta=0.01, g0=0.5), 0.027, 0.01),
        (EXPLOSIVE, ThetaLaw(kappa_theta=0.01, g0=1.0), 0.06, 0.01),
        (GRID_STATES[4], ThetaLaw(kappa_theta=0.002, g0=0.5), 0.03, 0.01),
        (GRID_STATES[6], ThetaLaw(kappa_theta=0.002, g0=0.5), 0.03, 0.01),
    ])
    def test_scan_equals_per_point_reference(self, p, law, pi, r_rep):
        # at sigma = 0 the scan skips the boundary gain the reference computes
        for sigma in (0.001, 0.0):
            out = fixed_point_scan(p, law, pi=pi, r_rep=r_rep, sigma=sigma)
            assert repr(out) == repr(_reference_scan(p, law, pi, r_rep, sigma=sigma))


def _knot_thetas(p):
    """Core shares whose G* = (1 - phi_req)/(1 - theta) is exactly a knot
    value of p's margin (the uniform margin's are 0 and 1)."""
    gs = p.dist._gs if p.dist.kind == "table" else (0.0, 1.0)
    out = []
    for g in gs:
        if g <= 0.0 or not 0.0 <= 1.0 - (1.0 - p.phi_req) / g < 1.0:
            continue
        t = 1.0 - (1.0 - p.phi_req) / g
        for _ in range(8):  # walk a few ulps to where the quotient rounds to g
            if (1.0 - p.phi_req) / (1.0 - t) == g:
                out.append(t)
                break
            t = math.nextafter(t, 0.0 if (1.0 - p.phi_req) / (1.0 - t) > g else 1.0)
    return out


@pytest.mark.parametrize("p", GRID_STATES)
def test_premium_kernel_equals_solve_premium(p):
    # the loops' scalar kernel against the public solver, by repr: both ends,
    # a grid, the zero-premium boundary, and core shares whose G* sits
    # exactly on a knot value (state 8 puts its root in the 1e-14 segment)
    thetas = (np.arange(401) / 400).tolist() + [1e-7, 1.0 - 1e-7, p.theta]
    b = zero_premium_boundary_theta(p)
    if b is not None:
        thetas += [b, math.nextafter(b, 0.0), math.nextafter(b, 1.0)]
    knots = _knot_thetas(p)
    assert knots or p.phi_req == 1.0  # then G* = 0 for every theta < 1
    ends = _cdf_ends(p)
    for t in thetas + knots:
        sol = solve_premium(p.with_theta(t))
        assert repr(_premium_at(p, t, ends)) == repr((sol.case, sol.rho)), t


def test_premium_kernel_states_reach_every_branch():
    # the states above reach cases a-d, and on tables both the linear root
    # and the steep segment's upper end
    seen = set()
    for p in GRID_STATES:
        for t in (np.arange(401) / 400).tolist() + _knot_thetas(p):
            case, rho = _premium_at(p, t, _cdf_ends(p))
            if case == "c_stress" and p.dist.kind == "table":
                demand = demand_at(rho, p.with_theta(t))
                case = "root" if abs(demand - p.phi_req) <= 1e-12 else "upper_end"
            seen.add(case)
    assert seen == {"a_interior", "b_boundary", "c_stress", "d_hard_failure", "root",
                    "upper_end"}


@pytest.mark.parametrize("law", [ThetaLaw(), ThetaLaw(kappa_theta=0.01, g0=0.5),
                                 ThetaLaw(kappa_theta=0.002, g0=30.0, eps_cap=0.01)])
def test_unchecked_step_equals_theta_step(law):
    for t in (np.arange(101) / 100).tolist():
        for eps in (-0.05, -0.0, 0.0, 1e-9, 0.005, 0.01, 0.3, 1e300):
            assert repr(_step(t, law, eps)) == repr(theta_step(t, law, eps))


# SHA-256 of repr(monotone_path) from theta = 0.95 under a law that erodes the
# core through cases a, c and d, and of repr(fixed_point_scan), on each table
# margin of GRID_STATES (7 never reaches case c: its atom caps demand below
# phi_req = 1, and its safe ceiling's buffer is -inf, eta = inf at the
# boundary theta = 1), recorded with Python 3.11 and numpy 2.4.6
TABLE_PATH_SCAN_SHA256 = {
    4: ("45896838d6f80a1653134fe9ca88532b1e9f9d585d9e35f97d2b658f45d243ca",
        "7107fb390bc7810315546192210c75ab7d0cee08b5cd8a36e41ce44100334b8e"),
    5: ("e75032b0826d12ee90125d6864acb4d4bc7b9beaf599f9a6201012f701bb013e",
        "c8e52f00e711c9ff81ce6c670faf4609a01ce8c3a72911fd6e5b84ede6eb30a0"),
    6: ("5bc97b9ac79d16d88a61dd0ef90082e12fbc7007735f091664db644d850b1f06",
        "ea5c06620717dafd85c745e50f13a5d096b5136f6ea4818c26d9b96688aedc92"),
    7: ("b4a1c796b58f4b97b149e3038b2547a2fdaf9a6dc92f04997c27ea9bbe58dba4",
        "2b0d4b6a1f4a6a361b7271f9329a408a27cc3fdf0f457beb2b04ffdc9a0d0ceb"),
    8: ("ac6c641f50fc3dc78b7c18856afa3d76d376906679f64269281ee043eaed07cd",
        "a9ea5b689d38ee83e19c038859811fe63331f54865a80d8ebd16bec8747bacf8"),
}


@pytest.mark.parametrize("i", [4, 5, 6])
def test_table_margin_path_and_scan_agree_with_interval_bisection(i):
    # the pinned states against the oracle: each case-c period's premium
    # within 1e-12 / slope of the interval bisection, and each fixed point a
    # root of the core map to 1e-12
    p = GRID_STATES[i]
    path = monotone_path(p.with_theta(0.95), ThetaLaw(kappa_theta=0.01, g0=0.5), ECON, 50)
    stressed = [row for row in path["periods"] if row["case"] == "c_stress"]
    assert len(stressed) >= 5
    for row in stressed:
        q = p.with_theta(row["theta"])
        bound = 1e-12 / demand_derivative(row["rho"], q) + 2 * math.ulp(q.z)
        assert abs(row["rho"] - interval_bisection(q)) <= bound
    scan = fixed_point_scan(p, ThetaLaw(kappa_theta=0.002, g0=0.5), 0.03, 0.01,
                            sigma=0.001)
    assert [pt["type"] for pt in scan["fixed_points"]] == ["stress", "safe"]
    assert all(pt["residual"] <= 1e-12 for pt in scan["fixed_points"])


@pytest.mark.parametrize("i", [4, 5])
def test_numpy_and_python_float_knots_give_the_same_results(i):
    # the knots of states 4 and 5 come from np.linspace; as Python floats
    # every path, scan and solution keeps its repr
    knots = GRID_STATES[i].dist.knots
    p, q = (replace(GRID_STATES[i], dist=MarginDistribution(
        kind="table", knots=tuple((cast(c), cast(g)) for c, g in knots)))
        for cast in (np.float64, float))
    assert all(type(v) is float for knot in p.dist.knots for v in knot)
    for t in (0.95, 0.3):
        for law in (ThetaLaw(kappa_theta=0.01, g0=0.5), ThetaLaw(kappa_theta=0.002, g0=0.5)):
            assert (repr(monotone_path(p.with_theta(t), law, ECON, 50))
                    == repr(monotone_path(q.with_theta(t), law, ECON, 50)))
    for sigma in (0.0, 0.001, 0.05):
        law = ThetaLaw(kappa_theta=0.002, g0=0.5)
        assert (repr(fixed_point_scan(p, law, 0.03, 0.01, sigma=sigma))
                == repr(fixed_point_scan(q, law, 0.03, 0.01, sigma=sigma)))
    assert repr(solve_premium(p)) == repr(solve_premium(q))


@pytest.mark.parametrize("i", sorted(TABLE_PATH_SCAN_SHA256))
def test_table_margin_path_and_scan_pinned(i):
    p = GRID_STATES[i]
    assert p.dist.kind == "table"
    path = monotone_path(p.with_theta(0.95), ThetaLaw(kappa_theta=0.01, g0=0.5), ECON, 50)
    scan = fixed_point_scan(p, ThetaLaw(kappa_theta=0.002, g0=0.5), 0.03, 0.01,
                            sigma=0.001)
    got = tuple(hashlib.sha256(repr(out).encode()).hexdigest() for out in (path, scan))
    assert got == TABLE_PATH_SCAN_SHA256[i]


def _reference_cdf(dist, c, c_bar):
    """The linear knot scan that `MarginDistribution.cdf` replaced by knot
    bisection, kept as its exact-equality oracle."""
    if c < 0.0:
        return 0.0
    if c >= c_bar:
        return 1.0
    if dist.kind == "uniform":
        return c / c_bar
    knots = dist.knots
    if c < knots[0][0]:
        return knots[0][1]
    for (c0, g0), (c1, g1) in zip(knots, knots[1:]):
        if c0 <= c <= c1:
            return g0 + (c - c0) / (c1 - c0) * (g1 - g0)
    return 1.0


def _reference_density(dist, c, c_bar):
    """The linear knot scan that `MarginDistribution.density` replaced."""
    if c < 0.0 or c > c_bar:
        return 0.0
    if dist.kind == "uniform":
        return 1.0 / c_bar
    knots = dist.knots
    for (c0, g0), (c1, g1) in zip(knots, knots[1:]):
        if c0 <= c <= c1:
            return (g1 - g0) / (c1 - c0)
    return 0.0


_unit = st.floats(1e-9, 1.0 - 1e-9)  # no subnormal knot widths


@st.composite
def _tables(draw, max_inner=10):
    """A valid table margin on [0, c_bar] with up to `max_inner` inner knots,
    its first knot at 0 or up to 1e-15 above it and its last knot at c_bar
    or 5e-13 below it."""
    c_bar = draw(st.floats(0.001, 0.5))
    n_inner = draw(st.integers(0, max_inner))
    inner_c = sorted({c_bar * u for u in draw(st.lists(_unit, min_size=n_inner,
                                                        max_size=n_inner))})
    c_first = draw(st.sampled_from([0.0, 1e-16, 5e-16, 1e-15]))
    c_last = c_bar - draw(st.sampled_from([0.0, 5e-13]))
    cs = [c_first] + [c for c in inner_c if c_first < c < c_last] + [c_last]
    g_first = draw(st.sampled_from([0.0, 0.3]))
    gs = sorted({g_first + (1.0 - g_first) * u
                 for u in draw(st.lists(_unit, min_size=len(cs) - 2,
                                        max_size=len(cs) - 2, unique=True))})
    gs = [g_first] + [g for g in gs if g_first < g < 1.0] + [1.0]
    n = min(len(cs), len(gs))  # a collapsed duplicate drops one inner knot
    knots = tuple(zip(cs[:n - 1] + [cs[-1]], gs[:n - 1] + [gs[-1]]))
    return MarginDistribution(kind="table", knots=knots), c_bar


@settings(max_examples=300, deadline=None)
@given(table=_tables(), extra=st.lists(st.floats(-0.01, 0.6), max_size=20))
def test_knot_bisection_equals_linear_scan(table, extra):
    dist, c_bar = table
    TwoLayerParams(c_bar=c_bar, dist=dist)  # a valid margin for this c_bar
    cs = [c for c, _ in dist.knots]
    points = [0.0, -0.0, -1e-300, 5e-17, c_bar, c_bar + 1e-13, math.nan] + extra
    points += [0.5 * (a + b) for a, b in zip(cs, cs[1:] + [c_bar])]
    for c in cs:  # every knot, and the floats on either side of it
        points += [c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)]
    assert repr([dist.cdf(c, c_bar) for c in points]) == repr(
        [_reference_cdf(dist, c, c_bar) for c in points])
    assert repr([dist.density(c, c_bar) for c in points]) == repr(
        [_reference_density(dist, c, c_bar) for c in points])
    assert repr(dist.cdf_array(np.array(points), c_bar).tolist()) == repr(
        [_reference_cdf(dist, c, c_bar) for c in points])


# SHA-256 of repr(perturbation_response) from theta = 0.95 with a 0.02 shock
# on each table margin of GRID_STATES, recorded with the closed-form table
# gain, Python 3.11 and numpy 2.4.6
TABLE_PERTURBATION_SHA256 = {
    4: "0274fd07f0ab7eaaf811457708203b81a82d3a368c464971736eef9353c42be5",
    5: "b55fdc7d020c02c94a3b73167eb0ff416a32e3d40028feb8f69237aae8e4e05c",
    6: "64b0659e0780a154b59784c282286558589210993706cb968a86123ecf81e5f4",
    7: "92b07b0d135f573e9bc59aa205748c88481f943a899f9c0799c3238b3b7505c4",
    8: "eb421b0b455304b74c8b6ea15bcab7851f5e1f3036f736c2b602c68bc4d7123b",
}


@pytest.mark.parametrize("i", sorted(TABLE_PERTURBATION_SHA256))
def test_table_margin_perturbation_response_pinned(i):
    p = GRID_STATES[i]
    out = perturbation_response(p.with_theta(0.95), ThetaLaw(kappa_theta=0.01, g0=0.5),
                                ECON, 50, 0.02)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == TABLE_PERTURBATION_SHA256[i]


def scalar_abs_drho_dtheta(p):
    """|d rho/d theta| at p's core share as `_abs_drho_dtheta` took it before
    the closed form covered table margins: the closed form on uniform
    margins, and on table margins a difference of two scalar `solve_premium`
    calls at theta -/+ 1e-6 (0 if either is outside case c).  Kept as the
    kernel's oracle: bit for bit on uniform margins, within O(h) on one knot
    segment."""
    if p.theta >= 1.0:
        return math.inf
    if p.phi_req <= p.theta:
        return 0.0
    if p.dist.kind == "uniform":
        one_m_t = 1.0 - p.theta
        return p.psi * p.c_bar * (1.0 - p.phi_req) / (one_m_t * one_m_t)
    h = 1e-6
    lo = max(0.0, p.theta - h)
    hi = min(1.0, p.theta + h)
    rhos = []
    for q in (p.with_theta(lo), p.with_theta(hi)):
        sol = solve_premium(q)
        if sol.case != "c_stress":
            return 0.0
        rhos.append(sol.rho)
    return abs(rhos[1] - rhos[0]) / (hi - lo)


def _eta_thetas(p):
    """Core shares for the gain kernel: a grid, both ends and 1e-7 inside
    them, phi_req and its neighbours, points around the zero-premium
    boundary, and the core shares whose G* sits exactly on a knot."""
    thetas = (np.arange(201) / 200).tolist() + [0.0, 1e-7, 1.0 - 1e-7, 1.0]
    thetas += [min(1.0, max(0.0, p.phi_req + e)) for e in (-1e-6, -1e-9, 0.0, 1e-9)]
    b = zero_premium_boundary_theta(p)
    if b is not None:
        thetas += [min(1.0, max(0.0, b + e)) for e in (-2e-6, -5e-7, 0.0, 5e-7, 2e-6)]
    # `table_from_power` knots are numpy floats
    return [float(t) for t in thetas + _knot_thetas(p)]


def _stencil_segment(p, theta):
    """The slope (c1 - c0)/(g1 - g0) of the one knot segment that holds G*
    strictly inside it at both stencil points theta -/+ 1e-6 of the
    difference, where both are case-c linear roots (|demand - phi_req| <=
    1e-12, not a steep segment's upper end); otherwise None."""
    cs, gs = p.dist._cs, p.dist._gs
    segments = set()
    for t in (max(0.0, theta - 1e-6), min(1.0, theta + 1e-6)):
        q = p.with_theta(t)
        sol = solve_premium(q)
        if sol.case != "c_stress" or abs(demand_at(sol.rho, q) - q.phi_req) > 1e-12:
            return None
        g_star = (1.0 - p.phi_req) / (1.0 - t)
        i = bisect_left(gs, g_star)
        if not 0 < i < len(gs) or g_star == gs[i]:
            return None
        segments.add(i)
    if len(segments) != 1:
        return None
    i = segments.pop()
    return (cs[i] - cs[i - 1]) / (gs[i] - gs[i - 1])


def _assert_gains_match(p, thetas):
    """The kernel equals the closed form by repr on uniform margins, and on
    one knot segment of a table margin the difference to 1e-5 relative, or
    to the difference's own rounding (a few ulps of each premium over the
    stencil width) where the gain is that small; `feedback_gain` is the
    kernel times g0, and +inf at theta = 1."""
    got = [_abs_drho_dtheta(p, t) for t in thetas]
    if p.dist.kind == "uniform":
        assert repr(got) == repr([scalar_abs_drho_dtheta(p.with_theta(t)) for t in thetas])
    else:
        for t, d in zip(thetas, got):
            slope = _stencil_segment(p, t)
            if slope is not None:
                width = min(1.0, t + 1e-6) - max(0.0, t - 1e-6)
                noise = 4.0 * (math.ulp(p.z) + p.psi * slope * math.ulp(1.0)) / width
                assert d == pytest.approx(scalar_abs_drho_dtheta(p.with_theta(t)), rel=1e-5,
                                          abs=noise), t
    for g0 in (0.0, 0.5):
        law = ThetaLaw(g0=g0)
        assert repr([feedback_gain(p.with_theta(t), law) for t in thetas]) == repr(
            [math.inf if t >= 1.0 else d * g0 for t, d in zip(thetas, got)])


@pytest.mark.parametrize("p", GRID_STATES)
def test_drho_kernel_equals_scalar_difference(p):
    thetas = _eta_thetas(p)
    _assert_gains_match(p, thetas)
    if p.dist.kind == "table" and p.phi_req < 1.0:
        assert sum(_stencil_segment(p, t) is not None for t in thetas) >= 10


@settings(max_examples=150, deadline=None)
@given(table=_tables(), psi=st.floats(0.3, 1.0), z_frac=st.floats(0.05, 2.0),
       phi_req=st.floats(0.0, 1.0), thetas=st.lists(st.floats(0.0, 1.0), max_size=12))
def test_drho_kernel_equals_scalar_difference_on_random_tables(table, psi, z_frac, phi_req,
                                                               thetas):
    dist, c_bar = table
    for margin in (dist, MarginDistribution()):
        p = TwoLayerParams(psi=psi, z=z_frac * psi * c_bar, c_bar=c_bar, phi_req=phi_req,
                           dist=margin)
        _assert_gains_match(p, thetas + _eta_thetas(p)[::7])


def test_drho_kernel_at_knots_atom_and_case_a():
    # the steeper side at an interior knot, 0 below the atom, the branch
    # slope in case a, and the slope of the segment above an atom's value
    dist = MarginDistribution(kind="table", knots=((0.0, 0.2), (0.02, 0.6), (0.06, 1.0)))
    p = TwoLayerParams(psi=0.9, z=0.03, phi_req=0.9, dist=dist)

    def kernel(slope, theta):
        return 0.9 * slope * (1.0 - 0.9) / ((1.0 - theta) * (1.0 - theta))

    knot = [t for t in _knot_thetas(p) if (1.0 - 0.9) / (1.0 - t) == 0.6]
    assert len(knot) == 1
    assert _abs_drho_dtheta(p, knot[0]) == kernel((0.06 - 0.02) / (1.0 - 0.6), knot[0])
    assert _abs_drho_dtheta(p, 0.4) == 0.0  # G* = 1/6 < G(0) = 0.2: case d
    assert solve_premium(p.with_theta(0.4)).case == "d_hard_failure"
    at_atom = 1.0 - (1.0 - 0.9) / 0.2
    assert (1.0 - 0.9) / (1.0 - at_atom) == 0.2
    assert _abs_drho_dtheta(p, at_atom) == kernel((0.02 - 0.0) / (0.6 - 0.2), at_atom)
    assert solve_premium(p.with_theta(0.88)).case == "a_interior"
    assert _abs_drho_dtheta(p, 0.88) == kernel((0.06 - 0.02) / (1.0 - 0.6), 0.88)


def test_table_on_the_uniform_cdf_has_the_uniform_gain():
    # knots on the uniform CDF: the zero-premium boundary's gain used to read
    # 0 (one difference neighbour in case a), which dropped the scan's sigma
    # allowance and left a buffer of +0.4365 where the uniform margin has -0.836
    table = TwoLayerParams(dist=MarginDistribution(
        kind="table", knots=((0.0, 0.0), (0.015, 0.25), (0.03, 0.5), (0.045, 0.75),
                             (0.06, 1.0))))
    law = ThetaLaw(g0=21.0)
    b = zero_premium_boundary_theta(BASE)
    eta_uniform = feedback_gain(BASE.with_theta(b), law)
    eta_table = feedback_gain(table.with_theta(zero_premium_boundary_theta(table)), law)
    assert 0.96 < eta_uniform < 1.0
    assert eta_table == pytest.approx(eta_uniform, rel=1e-12, abs=0.0)
    buffers = [fp["buffer"] for fp in fixed_point_scan(table, law, 0.02, 0.01,
                                                       sigma=0.05)["fixed_points"]]
    assert len(buffers) == 1 and buffers[0] == pytest.approx(-0.836227272727254, rel=1e-9)


class TestDistributionAndHelpers:
    def test_table_validation(self):
        # the knots are checked when the margin is built, with or without a c_bar
        for knots, message in [
            (((0.0, 0.0), (0.06, 0.9)), "must end at"),
            (((0.01, 0.1), (0.06, 1.0)), "must start at c=0"),
            (((0.0, 1.0), (0.06, 1.0)), "must start at c=0"),  # the atom leaves no room
            (((0.0, 0.0), (0.03, 0.5), (0.03, 0.6), (0.06, 1.0)), "positions must be strictly"),
            (((0.0, 0.0), (0.03, 0.5), (0.04, 0.5), (0.06, 1.0)), "values must be strictly"),
            (((0.0, 0.0),), "at least two knots"),
            (None, "at least two knots"),
        ]:
            with pytest.raises(ConfigError, match=message):
                MarginDistribution(kind="table", knots=knots)

    def test_table_must_end_at_c_bar(self):
        # the one check that needs c_bar stays with the params
        dist = MarginDistribution(kind="table", knots=((0.0, 0.0), (0.05, 1.0)))
        with pytest.raises(ConfigError, match=r"table CDF must end at \(c_bar, 1\)"):
            TwoLayerParams(c_bar=0.06, dist=dist)
        with pytest.raises(ConfigError, match=r"table CDF must end at \(c_bar, 1\)"):
            TwoLayerParams(c_bar=0.05 + 2e-12, dist=dist)
        assert TwoLayerParams(c_bar=0.05 + 5e-13, dist=dist).dist is dist
        assert TwoLayerParams(c_bar=0.05, dist=dist).with_theta(0.2).dist is dist
        with pytest.raises(ConfigError, match="unknown margin distribution kind"):
            MarginDistribution(kind="lognormal")
        # an atom of zero-benefit holders is a legitimate reading
        MarginDistribution(kind="table", knots=((0.0, 0.2), (0.06, 1.0))).validate(0.06)

    def test_atom_below_offset_first_knot(self):
        # validate lets the first knot sit up to 1e-15 above 0; below it G is
        # the atom G(c0), not the 1.0 it used to return there
        dist = MarginDistribution(kind="table", knots=((1e-16, 0.2), (0.03, 0.6), (0.06, 1.0)))
        dist.validate(0.06)
        cs = [0.0, 5e-17, 1e-16, 2e-16]
        G = [dist.cdf(c, 0.06) for c in cs]
        assert G[:3] == [0.2, 0.2, 0.2] and G == sorted(G)
        assert dist.cdf_array(np.array(cs), 0.06).tolist() == G
        assert [dist.density(c, 0.06) for c in cs[:2]] == [0.0, 0.0]

    def test_bisection_on_table_dist(self):
        p = TwoLayerParams(z=0.03, dist=table_from_power(0.06, 0.8))
        sol = solve_premium(p)
        assert sol.case == "c_stress"
        assert abs(demand_at(sol.rho, p) - p.phi_req) <= 1e-12

    def test_phi_req_affine_signs(self):
        base = phi_req_affine(0.85, b=2.40, psi=0.97, z=0.02)
        assert base == 0.85
        assert phi_req_affine(0.85, b=2.60, psi=0.97, z=0.02, d_b=0.1) > 0.85
        assert phi_req_affine(0.85, b=2.40, psi=0.90, z=0.02, d_psi=-0.5) > 0.85
        with pytest.raises(ConfigError):
            phi_req_affine(0.85, 2.4, 0.97, 0.02, d_b=-0.1)
        with pytest.raises(ConfigError):
            phi_req_affine(0.85, 2.4, 0.97, 0.02, d_psi=0.1)

    def test_non_finite_rejected(self):
        for name in ("theta", "psi", "z", "c_bar", "phi_req"):
            for bad in (math.nan, math.inf):
                with pytest.raises(DomainError, match=name):
                    TwoLayerParams(**{name: bad})
        with pytest.raises(DomainError, match="knot"):
            TwoLayerParams(dist=MarginDistribution(
                kind="table", knots=((0.0, 0.0), (0.03, math.nan), (0.06, 1.0))))
        for kw in ({"kappa_theta": math.nan}, {"g0": math.inf}, {"eps_cap": math.nan}):
            with pytest.raises(DomainError):
                ThetaLaw(**kw)
        assert ThetaLaw(eps_cap=math.inf).eps_cap == math.inf

    def test_invariant_validation(self):
        with pytest.raises(DomainError):
            TwoLayerParams(z=0.0)
        with pytest.raises(DomainError):
            TwoLayerParams(psi=0.0)
        with pytest.raises(DomainError):
            TwoLayerParams(theta=1.2)


def _reference_solve_premium(p):
    """`solve_premium` as it was before it read the CDF ends and built its
    result directly: two `demand_at` calls and the dataclass's `__init__`.
    The oracle for the fast path."""
    d0 = demand_at(0.0, p)
    dmax = demand_at(p.z, p)
    slack = d0 - p.phi_req
    if slack > 0.0:
        return PremiumSolution("a_interior", 0.0, d0, dmax, slack)
    if slack == 0.0:
        return PremiumSolution("b_boundary", 0.0, d0, dmax, slack)
    if p.phi_req > dmax:
        return PremiumSolution("d_hard_failure", None, d0, dmax, slack)
    if p.dist.kind == "uniform":
        rho = p.z - p.psi * p.c_bar * (
            1.0 - (p.phi_req - p.theta) / (1.0 - p.theta)
        )
        rho = min(max(rho, 0.0), p.z)
    else:
        rho = solve_premium_bisection(p)
    return PremiumSolution("c_stress", rho, d0, dmax, slack)


@st.composite
def _premium_states(draw):
    """A two-layer state on a uniform or a 2-6-knot table margin (atom
    G(0) = 0 or above it), theta = 0, 1 or between, and phi_req drawn into
    one of the cases or onto one of the knife edges phi_req = d0 and
    phi_req = dmax."""
    if draw(st.booleans()):
        dist, c_bar = draw(_tables(max_inner=4))
    else:
        dist, c_bar = MarginDistribution(), draw(st.floats(1e-3, 0.5))
    theta = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    p = TwoLayerParams(theta=theta, psi=draw(st.floats(0.05, 1.0)),
                       z=draw(st.floats(1e-4, 0.2)), c_bar=c_bar, phi_req=0.0, dist=dist)
    d0, dmax = demand_at(0.0, p), demand_at(p.z, p)
    lo, hi = {"a": (0.0, d0), "b": (d0, d0), "c": (d0, dmax), "dmax": (dmax, dmax),
              "d": (dmax, 1.0)}[draw(st.sampled_from(["a", "b", "c", "dmax", "d"]))]
    phi_req = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return replace(p, phi_req=min(max(phi_req, 0.0), 1.0))


def test_solve_premium_equals_its_reference():
    # the CDF-ends demand and the direct build against the parent body, on
    # random uniform and table states in every case, by repr, rho's type,
    # == and hash
    seen = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(p=_premium_states())
    def check(p):
        fast, ref = solve_premium(p), _reference_solve_premium(p)
        assert repr(fast) == repr(ref)
        assert type(fast.rho) is type(ref.rho)
        assert fast == ref and hash(fast) == hash(ref)
        seen.add((fast.case, p.dist.kind, p.theta if p.theta in (0.0, 1.0) else None))

    check()
    assert {case for case, _, _ in seen} == {"a_interior", "b_boundary", "c_stress",
                                            "d_hard_failure"}
    assert {kind for _, kind, _ in seen} == {"uniform", "table"}
    assert {theta for _, _, theta in seen} >= {0.0, 1.0}


_SOLUTION_ARGS = [("a_interior", 0.0, 0.8797, 0.99, 0.0297),
                  ("b_boundary", 0.0, 0.85, 0.95, 0.0),
                  ("c_stress", 0.0075, 0.8, 0.9, -0.05),
                  ("c_stress", np.float64(0.0125), 0.75, 1.0, -0.1),
                  ("d_hard_failure", None, 0.7, 0.8, -0.25)]


@pytest.mark.parametrize("args", _SOLUTION_ARGS)
def test_direct_solution_build_is_the_dataclass(args):
    fast, ref = _solution(*args), PremiumSolution(*args)
    assert type(fast) is PremiumSolution
    assert repr(fast) == repr(ref) and fast == ref and hash(fast) == hash(ref)
    assert list(vars(fast).items()) == list(vars(ref).items())
    assert dataclasses.fields(fast) == dataclasses.fields(ref)
    moved = dataclasses.replace(fast, slack=1.0)
    assert moved == dataclasses.replace(ref, slack=1.0) and type(moved) is PremiumSolution
    back = pickle.loads(pickle.dumps(fast))
    assert repr(back) == repr(ref) and back == ref
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.rho = 0.5


def test_direct_solution_build_sets_every_field():
    # `_solution` skips `__init__`: a `__post_init__` check or a new field
    # added to PremiumSolution would be skipped silently, so both fail here
    assert not hasattr(PremiumSolution, "__post_init__")
    assert list(vars(_solution(*_SOLUTION_ARGS[0]))) == [
        f.name for f in dataclasses.fields(PremiumSolution)]


def test_closure_solver_calls_the_benchmark_traces(monkeypatch):
    # the benchmark's traced closure round counts these functions through the
    # module attributes (and the class method) that the package looks them up
    # by, and a traced run where one records no call is invalid; a
    # simplification that drops or inlines one of them fails here first
    import debtregime.closure as closure
    import debtregime.investment as investment
    import debtregime.transition as transition

    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def shim(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, shim)

    for owner, name in ((closure, "solve_premium_bisection"), (closure, "demand_at"),
                        (investment, "allocate_ascent"),
                        (investment.AllocationProblem, "objective"),
                        (transition, "solve_premium")):
        count(owner, name)

    p = TwoLayerParams(dist=table_from_power(0.06, 1.3))
    p = replace(p, phi_req=0.5 * (demand_at(0.0, p) + demand_at(p.z, p)))
    calls.clear()
    assert closure.solve_premium(p).case == "c_stress"
    assert calls["solve_premium_bisection"] == 1 and calls["demand_at"] >= 2

    problem = investment.AllocationProblem(
        mu_j=(0.03, 0.05, 0.04, 0.06), budget=0.02,
        gamma_jk=tuple(tuple(-0.5 if k > j else 0.0 for k in range(4)) for j in range(4)))
    calls.clear()
    investment.allocate(problem)
    assert calls["allocate_ascent"] == 1 and calls["objective"] >= 1

    calls.clear()
    transition.required_growth_endogenous(transition.TransitionSpec(state=ECON, closure=p))
    assert calls["solve_premium"] >= 1
