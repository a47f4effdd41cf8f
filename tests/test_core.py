import math

import numpy as np
import pytest

from debtregime.core import (
    EconState,
    FiscalResponse,
    RegimeParams,
    check_scope,
    effective_deficit,
    stability_surplus,
    step_debt,
    step_debt_stochastic,
)
from debtregime.closure import (
    ThetaLaw,
    TwoLayerParams,
    monotone_path,
    perturbation_response,
    phi_req_affine,
    theta_step,
)
from debtregime.errors import ConfigError, DomainError
from debtregime.extensions import (
    captive_threshold_shift,
    estimate_kappa,
    marginal_gain_sequence,
    paradox_test,
    ratchet_gap,
    repression_dividend,
    timing_feasible,
)
from debtregime.inference import trend_growth_estimate
from debtregime.investment import AllocationProblem, allocate
from debtregime.transition import TransitionSpec, feasibility_label, joint_feasibility


def state(b=2.40, r=0.022, g=0.030, pi=0.027, d=0.020, s=0.0):
    return EconState(b_prev=b, r_n=r, g_n=g, pi=pi, d=d, s=s)


BASELINE_REGIME = RegimeParams()


class TestStepDebt:
    def test_baseline_arithmetic(self):
        # 2.40*0.992 + 0.02 computed directly
        assert step_debt(state()) == pytest.approx(2.4008, abs=1e-12)

    def test_identity_when_r_equals_g(self):
        assert step_debt(state(b=1.0, r=0.02, g=0.02, d=0.0)) == 1.0

    def test_sprint_per_period_improvement(self):
        # deeper spread of 50 bp at b=2.40 improves the flow by 1.2 pp
        base = step_debt(state(r=0.022, g=0.030))
        sprint = step_debt(state(r=0.017, g=0.030))
        assert base - sprint == pytest.approx(0.012, abs=1e-12)

    def test_linearity_in_debt(self):
        b1, b2 = 1.3, 0.7
        total = step_debt(state(b=b1 + b2, d=0.0))
        parts = step_debt(state(b=b1, d=0.0)) + step_debt(state(b=b2, d=0.0))
        assert total == pytest.approx(parts, rel=1e-12)

    def test_difference_form_exact(self):
        st = state()
        assert step_debt(st) - st.b_prev == pytest.approx(
            st.spread * st.b_prev + st.d, abs=1e-15
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            state(r=math.nan)
        with pytest.raises(DomainError):
            state(b=-1.0)
        with pytest.raises(DomainError):
            state(r=1.5, g=0.0)


class TestStepDebtStochastic:
    def test_zero_volatility_matches_deterministic(self):
        st = state()
        for eta in (-1.0, -0.3, 0.0, 0.8):
            assert step_debt_stochastic(st, 0.0, eta) == step_debt(st)

    def test_known_shock(self):
        # 2.40*(1 - 0.008 + 0.01) + 0.02
        assert step_debt_stochastic(state(), 0.01, 1.0) == pytest.approx(
            2.4248, abs=1e-12
        )

    def test_symmetric_two_point_mean(self):
        st = state()
        up = step_debt_stochastic(st, 0.01, 1.0)
        dn = step_debt_stochastic(st, 0.01, -1.0)
        assert 0.5 * (up + dn) == pytest.approx(step_debt(st), abs=1e-15)

    def test_expectation_preserved_monte_carlo(self):
        st = state()
        rng = np.random.default_rng(20260310)
        n = 20000
        etas = rng.uniform(-1.0, 1.0, n)
        draws = np.array([step_debt_stochastic(st, 0.01, e) for e in etas])
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - step_debt(st)) <= 3.0 * se

    def test_eta_out_of_range(self):
        with pytest.raises(DomainError):
            step_debt_stochastic(state(), 0.01, 1.5)
        with pytest.raises(DomainError):
            step_debt_stochastic(state(), -0.01, 0.5)


class TestStabilitySurplus:
    def test_march_baseline(self):
        assert stability_surplus(state(), BASELINE_REGIME) == pytest.approx(
            -0.000333333, abs=1e-9
        )

    def test_burden_cancellation(self):
        st = state(b=1.0, d=0.02, s=0.02)
        rg = RegimeParams(epsilon=0.02, g_star=0.03, de=0.0)
        # pi equal to epsilon and d equal to s leave only g_star
        assert stability_surplus(
            EconState(b_prev=1.0, r_n=0.0, g_n=0.0, pi=0.02, d=0.02, s=0.02),
            rg,
        ) == pytest.approx(0.03, abs=1e-15)
        del st

    def test_one_for_one_substitutability(self):
        st = state()
        for c in (-0.01, 0.004, 0.02):
            shifted = RegimeParams(epsilon=0.005 - c, g_star=0.030 + c)
            assert stability_surplus(st, shifted) == pytest.approx(
                stability_surplus(st, BASELINE_REGIME), abs=1e-15
            )

    def test_pass_through_overshoot_penalty(self):
        rg = RegimeParams(de=0.10, e_bar=0.05, alpha=0.2, beta=3.0)
        st = state()
        expected = 0.005 + 0.030 + 0.2 * 0.10 - 3.0 * 0.05**2 - 0.027 - 0.02 / 2.40
        assert stability_surplus(st, rg) == pytest.approx(expected, abs=1e-15)


class TestRegimeParams:
    @pytest.mark.parametrize("kw", [{"epsilon": math.nan}, {"g_star": -math.inf},
                                    {"de": math.nan}, {"beta": math.inf}])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(DomainError, match="must be finite"):
            RegimeParams(**kw)


class TestCheckScope:
    def test_baseline_holds(self):
        rg = RegimeParams(phi=0.88, phi_bar=0.85)
        assert check_scope(rg) == {"sc1": True, "sc2": True}

    def test_boundary_inclusive(self):
        rg = RegimeParams(phi=0.85, phi_bar=0.85, de=0.0, e_bar=0.0)
        res = check_scope(rg)
        assert res["sc1"] and res["sc2"]

    def test_eroded_share_fails(self):
        assert not check_scope(RegimeParams(phi=0.83, phi_bar=0.85))["sc1"]

    def test_sc1_monotonicity(self):
        grid = np.linspace(0.0, 1.0, 21)
        for bar in (0.3, 0.85):
            vals = [check_scope(RegimeParams(phi=p, phi_bar=bar))["sc1"] for p in grid]
            assert vals == sorted(vals)  # non-decreasing in phi
        for phi in (0.3, 0.85):
            vals = [
                check_scope(RegimeParams(phi=phi, phi_bar=b))["sc1"] for b in grid
            ]
            assert vals == sorted(vals, reverse=True)  # non-increasing in phi_bar


class TestEffectiveDeficit:
    def test_relief_reduces_to_constant(self):
        fr = FiscalResponse(mode="deficit_relief", d0=0.02, gamma=0.0)
        for b in (0.5, 2.4, 4.0):
            assert effective_deficit(fr, b) == 0.02

    def test_relief_arithmetic(self):
        fr = FiscalResponse(mode="deficit_relief", d0=0.02, gamma=0.01, b_ref=2.40)
        assert effective_deficit(fr, 2.50) == pytest.approx(0.021, abs=1e-15)

    def test_general_interpolation_and_clamping(self):
        fr = FiscalResponse(
            mode="general", table=((2.0, 0.018), (2.4, 0.020), (2.8, 0.026))
        )
        assert effective_deficit(fr, 2.2) == pytest.approx(0.019, abs=1e-15)
        assert effective_deficit(fr, 1.0) == 0.018  # clamped below
        assert effective_deficit(fr, 9.0) == 0.026  # clamped above
        assert fr.lipschitz_constant() == pytest.approx(0.015, abs=1e-12)

    def test_non_finite_rejected(self):
        for kw in ({"d0": math.nan}, {"gamma": math.inf}, {"b_ref": -math.inf},
                   {"mode": "general", "table": ((2.0, 0.018), (math.nan, 0.02))},
                   {"mode": "general", "table": ((2.0, 0.018), (2.4, math.inf))}):
            with pytest.raises(DomainError, match="finite"):
                FiscalResponse(**kw)

    def test_general_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            FiscalResponse(mode="general", table=None)

    def test_flow_derivative_matches_relief_slope(self):
        # d(delta b)/db = (r - g) + gamma, by central differences
        fr = FiscalResponse(mode="deficit_relief", d0=0.02, gamma=0.004, b_ref=2.40)
        r, g = 0.022, 0.030
        h = 1e-3  # the flow is affine in b, so the difference quotient is exact

        def flow(b):
            st = EconState(b_prev=b, r_n=r, g_n=g, pi=0.027,
                           d=effective_deficit(fr, b))
            return step_debt(st) - b

        fd = (flow(2.40 + h) - flow(2.40 - h)) / (2 * h)
        assert fd == pytest.approx((r - g) + fr.gamma, rel=1e-8)



_SPEC = TransitionSpec(state=state(), x_max_operational=0.02)
_GENERAL = FiscalResponse(mode="general", table=((2.0, 0.018), (2.8, 0.026)))
nan = math.nan
# (function, NaN argument, call): each used to return a plausible value, or
# for the general fiscal mode an "unreachable" error naming no argument
NAN_CASES = [
    ("theta_step", "epsilon", lambda: theta_step(0.6, ThetaLaw(g0=0.5), nan)),
    ("phi_req_affine", "base", lambda: phi_req_affine(nan, 2.4, 0.97, 0.02)),
    ("phi_req_affine", "b", lambda: phi_req_affine(0.85, nan, 0.97, 0.02, d_b=0.1)),
    ("captive_threshold_shift", "phi_bar0",
     lambda: captive_threshold_shift(nan, 0.5, 0.5, 0.01, 0.01)),
    ("captive_threshold_shift", "eps_foreign",
     lambda: captive_threshold_shift(0.5, 0.5, 0.5, nan, 0.01)),
    ("paradox_test", "spread", lambda: paradox_test(nan, 0.01)),
    ("paradox_test", "gamma", lambda: paradox_test(-0.008, nan)),
    ("feasibility_label", "delta_g_min", lambda: feasibility_label(nan, 0.10, 0.02)),
    ("feasibility_label", "x_max", lambda: feasibility_label(0.001, 0.10, nan)),
    ("joint_feasibility", "delta_g_min", lambda: joint_feasibility(_SPEC, nan)),
    ("timing_feasible", "T_sprint", lambda: timing_feasible(nan, 3.0)),
    ("timing_feasible", "T_star", lambda: timing_feasible(2.0, nan)),
    ("effective_deficit_constant", "b_prev", lambda: effective_deficit(FiscalResponse(), nan)),
    ("effective_deficit_relief", "b_prev", lambda: effective_deficit(
        FiscalResponse(mode="deficit_relief", gamma=0.01), nan)),
    ("effective_deficit_general", "b_prev", lambda: effective_deficit(_GENERAL, nan)),
    ("ratchet_gap", "delta_T", lambda: ratchet_gap(nan, -0.008, 2.0)),
    ("ratchet_gap", "baseline_spread", lambda: ratchet_gap(0.01, nan, 2.0)),
    ("ratchet_gap", "s", lambda: ratchet_gap(0.01, -0.008, nan)),
    ("repression_dividend", "epsilon", lambda: repression_dividend(nan, 2.4)),
    ("repression_dividend", "b_prev", lambda: repression_dividend(0.005, nan)),
    ("marginal_gain_sequence", "mu", lambda: marginal_gain_sequence(nan, 0.5, 0.005, [2.4])),
    ("marginal_gain_sequence", "epsilon",
     lambda: marginal_gain_sequence(0.05, 0.5, nan, [2.4])),
    ("marginal_gain_sequence", "debt_path",
     lambda: marginal_gain_sequence(0.05, 0.5, 0.005, [2.4, nan])),
]


@pytest.mark.parametrize("name, call", [c[1:] for c in NAN_CASES],
                         ids=[f"{fn}-{arg}" for fn, arg, _ in NAN_CASES])
def test_nan_argument_rejected_by_name(name, call):
    with pytest.raises(DomainError, match=f"^{name} must be finite, got nan$"):
        call()


def test_infinite_sentinels_still_accepted():
    # +inf is a documented sentinel: hard failure's delta_g_min and a paused
    # clock's T_star
    assert feasibility_label(math.inf, 0.10, 0.02) == "Infeasible"
    assert joint_feasibility(_SPEC, math.inf)["financeable"] is False
    assert timing_feasible(2.0, math.inf) is True


_SHARES = [(2000 + 0.25 * i, 0.9 - 0.004 * i + 0.001 * (i % 3)) for i in range(12)]
_GDP = [100.0 * 1.007**i for i in range(12)]
# (function, count argument, call with that count, a valid count): each
# non-integer count used to end in a raw TypeError
COUNT_CASES = [
    ("monotone_path", "horizon",
     lambda n: monotone_path(TwoLayerParams(), ThetaLaw(), state(), n), 3),
    ("perturbation_response", "horizon",
     lambda n: perturbation_response(TwoLayerParams(), ThetaLaw(), state(), n, 0.01), 3),
    ("estimate_kappa", "break_index", lambda n: estimate_kappa(_SHARES, break_index=n), 5),
    ("trend_growth_estimate", "window_quarters", lambda n: trend_growth_estimate(_GDP, n), 8),
    ("allocate", "grid_resolution",
     lambda n: allocate(AllocationProblem(mu_j=(0.05, 0.04), budget=0.01), n), 10),
]


@pytest.mark.parametrize("name, call, count", [c[1:] for c in COUNT_CASES],
                         ids=[c[0] for c in COUNT_CASES])
def test_non_integer_count_rejected_by_name(name, call, count):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {count}.5$"):
        call(count + 0.5)


@pytest.mark.parametrize("name, call", [c[1:3] for c in COUNT_CASES],
                         ids=[c[0] for c in COUNT_CASES])
def test_bool_count_rejected_by_name(name, call):
    # operator.index accepts a bool, which would run as a count of 0 or 1
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got True$"):
        call(True)


@pytest.mark.parametrize("call, count", [c[2:] for c in COUNT_CASES],
                         ids=[c[0] for c in COUNT_CASES])
def test_numpy_integer_count_accepted(call, count):
    assert call(np.int64(count)) == call(count)
