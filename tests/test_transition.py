import math

import pytest

from debtregime.closure import MarginDistribution, TwoLayerParams
from debtregime.core import EconState
from debtregime.errors import DomainError
from debtregime.transition import (
    TransitionSpec,
    feasibility_label,
    joint_feasibility,
    required_growth_endogenous,
    required_growth_exogenous,
)

ECON = EconState(b_prev=2.40, r_n=0.022, g_n=0.030, pi=0.027, d=0.020)
MONITOR = EconState(b_prev=1.574, r_n=0.022, g_n=0.030, pi=0.027, d=0.020)


def spec(state=ECON, **kw):
    args = dict(state=state, g_new=0.03, rho_bar=0.0, m=0.0,
                closure=TwoLayerParams(), mu=0.05, g_star_baseline=0.03)
    args.update(kw)
    return TransitionSpec(**args)


class TestSpecValidation:
    @pytest.mark.parametrize("name", ["g_new", "rho_bar", "m", "mu", "x_max_operational",
                                      "T_invest", "T_star", "g_star_baseline"])
    def test_non_finite_rejected(self, name):
        for bad in (math.nan, -math.inf) + (() if name == "T_star" else (math.inf,)):
            with pytest.raises(DomainError, match=name):
                spec(**{name: bad})
        assert spec(T_star=math.inf).T_star == math.inf


class TestExogenousThreshold:
    def test_march_baseline(self):
        out = required_growth_exogenous(spec())
        assert out["delta_g_min"] == pytest.approx(0.00533333, abs=1e-8)

    def test_bounded_premium(self):
        out = required_growth_exogenous(spec(rho_bar=0.005))
        assert out["delta_g_min"] == pytest.approx(0.0103333, abs=5e-5)

    def test_monitoring_concept(self):
        out = required_growth_exogenous(spec(state=MONITOR))
        assert out["delta_g_min"] == pytest.approx(0.0097065, abs=5e-6)

    def test_monotonicity(self):
        base = required_growth_exogenous(spec())["threshold"]
        assert required_growth_exogenous(spec(rho_bar=0.002))["threshold"] > base
        assert required_growth_exogenous(spec(m=0.002))["threshold"] > base
        hi_d = EconState(2.40, 0.022, 0.030, 0.027, 0.025)
        assert required_growth_exogenous(spec(state=hi_d))["threshold"] > base
        hi_s = EconState(2.40, 0.022, 0.030, 0.027, 0.020, s=0.005)
        assert required_growth_exogenous(spec(state=hi_s))["threshold"] < base
        # deficit exceeds the offset, so a lower ratio raises the burden
        assert required_growth_exogenous(spec(state=MONITOR))["threshold"] > base

    def test_concept_widening(self):
        wide = required_growth_exogenous(spec(state=MONITOR))["threshold"]
        base = required_growth_exogenous(spec())["threshold"]
        assert wide - base == pytest.approx(0.0043731, abs=5e-7)


class TestEndogenousThreshold:
    def test_interior_closure_reduces_to_exogenous(self):
        out = required_growth_endogenous(spec())
        assert out["rho_star"] == 0.0
        assert out["delta_g_min"] == pytest.approx(0.00533333, abs=1e-8)

    def test_stress_closure_adds_premium(self):
        stressed = spec(closure=TwoLayerParams(z=0.03))
        out = required_growth_endogenous(stressed)
        assert out["rho_star"] == pytest.approx(0.00505714, abs=1e-7)
        assert out["delta_g_min"] == pytest.approx(0.00505714 + 0.00533333, abs=1e-7)

    def test_endogenous_at_least_no_premium_baseline(self):
        base = required_growth_exogenous(spec())["delta_g_min"]
        for z in (0.025, 0.03, 0.035):
            out = required_growth_endogenous(spec(closure=TwoLayerParams(z=z)))
            if out.get("case") == "c_stress":
                assert out["delta_g_min"] >= base

    def test_hard_failure_sentinel(self):
        knots = ((0.0, 0.4), (0.03, 0.7), (0.06, 1.0))
        dead = TwoLayerParams(
            theta=0.2, z=0.05, phi_req=0.95,
            dist=MarginDistribution(kind="table", knots=knots),
        )
        out = required_growth_endogenous(spec(closure=dead))
        assert out["rho_star"] is None
        assert math.isinf(out["delta_g_min"])

    def test_missing_closure_rejected(self):
        with pytest.raises(DomainError):
            required_growth_endogenous(spec(closure=None))


class TestJointFeasibility:
    def test_tight_corridor_not_financeable(self):
        s = spec(x_max_operational=0.006, T_invest=2.0, T_star=3.0)
        out = joint_feasibility(s, 0.0053)
        assert not out["financeable"]  # requires 10.6% of GDP against 0.6%
        assert out["timely"]
        assert not out["feasible"]

    def test_nothing_required_is_financeable(self):
        s = spec(x_max_operational=0.0)
        assert joint_feasibility(s, -0.001)["financeable"]
        assert joint_feasibility(s, 0.0)["financeable"]

    def test_timing_boundary_inclusive(self):
        s = spec(x_max_operational=1.0, T_invest=3.0, T_star=3.0)
        assert joint_feasibility(s, 0.001)["feasible"]


class TestFeasibilityLabel:
    MU_HI = 0.08

    def test_published_anchor_rows(self):
        # required growth from the published grid against the default
        # labeling envelope of 16% of GDP
        assert feasibility_label(0.0053, self.MU_HI, 0.16) == "Conditional"
        assert feasibility_label(0.0097, self.MU_HI, 0.16) == "Tight"
        assert feasibility_label(0.0271, self.MU_HI, 0.16) == "Infeasible"

    def test_unlikely_band(self):
        # required efficiency in (0.07, 0.08]
        assert feasibility_label(0.0120, self.MU_HI, 0.16) == "Unlikely"

    def test_closed_envelope(self):
        assert feasibility_label(0.001, self.MU_HI, 0.0) == "Infeasible"
        assert feasibility_label(0.001, self.MU_HI, -0.01) == "Infeasible"

    def test_label_ordering_monotone(self):
        order = {"Conditional": 0, "Tight": 1, "Unlikely": 2, "Infeasible": 3}
        prev = -1
        for dg in [x * 1e-4 for x in range(0, 200)]:
            lab = order[feasibility_label(dg, self.MU_HI, 0.16)]
            assert lab >= prev
            prev = lab

    def test_nothing_required_is_conditional(self):
        assert feasibility_label(-0.002, self.MU_HI, 0.16) == "Conditional"

    def test_mu_range_validated(self):
        for mu_hi in (0.0, 1.0, -0.08, math.nan):
            with pytest.raises(DomainError, match="mu_hi"):
                feasibility_label(0.005, mu_hi, 0.16)
