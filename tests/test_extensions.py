import math
from fractions import Fraction

import numpy as np
import pytest

from debtregime.errors import (
    DomainError,
    EstimationError,
    InactiveRegimeError,
    ModelInconsistencyWarning,
    ScopeError,
)
from debtregime.extensions import (
    ClockSpec,
    PsiSpec,
    SprintSpec,
    captive_threshold_shift,
    clock,
    estimate_kappa,
    marginal_gain_sequence,
    paradox_test,
    psi_composite,
    ratchet_gap,
    repression_dividend,
    sprint_cumulative_improvement,
    timing_feasible,
)


class TestSprint:
    def test_two_year_baseline_sprint(self):
        spec = SprintSpec(baseline_spread=-0.008, sprint_spread=-0.013, T=2, b0=2.40)
        assert sprint_cumulative_improvement(spec) == pytest.approx(0.024, abs=1e-12)

    def test_unit_case(self):
        spec = SprintSpec(baseline_spread=0.0, sprint_spread=-0.01, T=1, b0=1.0)
        assert sprint_cumulative_improvement(spec) == pytest.approx(0.01, abs=1e-15)

    def test_zero_depth_rejected(self):
        with pytest.raises(DomainError):
            SprintSpec(baseline_spread=-0.008, sprint_spread=-0.008, T=2, b0=2.40)

    @pytest.mark.parametrize("kw", [{"b0": math.nan}, {"b0": math.inf},
                                    {"baseline_spread": math.nan},
                                    {"sprint_spread": -math.inf}])
    def test_non_finite_rejected(self, kw):
        args = dict(baseline_spread=-0.008, sprint_spread=-0.013, T=2, b0=2.40)
        args.update(kw)
        with pytest.raises(DomainError, match="must be finite"):
            SprintSpec(**args)

    @pytest.mark.parametrize("kw, message", [
        ({"T": 1.5}, "T must be an integer"), ({"T": True}, "T must be an integer"),
        ({"T": 0}, "T must be >= 1"), ({"b0": 0.0}, "b0 must be > 0"),
        ({"b0": -2.4}, "b0 must be > 0")])
    def test_out_of_domain_rejected(self, kw, message):
        # a fractional T or a negative b0 used to scale the improvement
        args = dict(baseline_spread=-0.008, sprint_spread=-0.013, T=2, b0=2.40)
        args.update(kw)
        with pytest.raises(DomainError, match=f"^{message}"):
            SprintSpec(**args)


class TestRatchet:
    def test_identity_at_reversion(self):
        assert ratchet_gap(0.024, -0.008, 0.0) == pytest.approx(0.024, abs=1e-15)

    def test_five_year_decay(self):
        assert ratchet_gap(0.024, -0.008, 5.0) == pytest.approx(
            0.024 * 0.992**5, abs=1e-12
        )

    def test_persistence_never_zero(self):
        gaps = [ratchet_gap(0.024, -0.008, s) for s in range(0, 200, 10)]
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestDividendAndGains:
    def test_baseline_dividend(self):
        assert repression_dividend(0.005, 2.40) == pytest.approx(0.012, abs=1e-15)
        assert repression_dividend(0.0, 2.40) == 0.0

    def test_reversed_bias_is_negative(self):
        # mid-2025 monitoring reading: channel inactive
        assert repression_dividend(-0.0081, 1.574) == pytest.approx(
            -0.0127494, abs=1e-8
        )

    def test_marginal_gain_value(self):
        out = marginal_gain_sequence(0.05, 0.5, 0.005, [2.40])
        assert out[0] == pytest.approx(0.00072, abs=1e-12)

    def test_constant_path_constant_gain(self):
        out = marginal_gain_sequence(0.05, 0.5, 0.005, [2.0, 2.0, 2.0])
        assert len(set(out)) == 1

    def test_decreasing_path_decreasing_gain_and_bound(self):
        path = [2.4, 2.3, 2.2]
        out = marginal_gain_sequence(0.05, 0.5, 0.005, path)
        assert all(b < a for a, b in zip(out, out[1:]))
        bound = 0.05 * 0.5 * 0.005 * max(path) ** 2
        assert all(c <= bound + 1e-18 for c in out)

    def test_inactive_regime_rejected(self):
        with pytest.raises(InactiveRegimeError):
            marginal_gain_sequence(0.05, 0.5, -0.001, [2.4])


class TestParadox:
    def test_threshold_at_baseline_spread(self):
        res = paradox_test(-0.008, 0.0)
        assert res["derivative"] == pytest.approx(-0.008, abs=1e-15)
        assert res["paradox_holds"]

    def test_boundary_gamma(self):
        res = paradox_test(-0.008, 0.008)
        assert res["derivative"] == pytest.approx(0.0, abs=1e-15)
        assert not res["paradox_holds"]

    def test_partial_relief(self):
        res = paradox_test(-0.008, 0.005)
        assert res["derivative"] == pytest.approx(-0.003, abs=1e-15)
        assert res["paradox_holds"]

    def test_sign_flip_at_threshold(self):
        eps = 1e-9
        assert paradox_test(-0.008, 0.008 - eps)["paradox_holds"]
        assert not paradox_test(-0.008, 0.008 + eps)["paradox_holds"]

    def test_positive_spread_out_of_scope(self):
        with pytest.raises(ScopeError):
            paradox_test(0.01, 0.0)


class TestThresholdShift:
    def test_identity_with_zero_coefficients(self):
        assert captive_threshold_shift(0.85, 0.0, 0.0, 0.02, 0.03) == 0.85

    def test_foreign_repression_lowers_threshold(self):
        lo = captive_threshold_shift(0.85, 0.5, 0.0, 0.01, 0.0)
        hi = captive_threshold_shift(0.85, 0.5, 0.0, 0.03, 0.0)
        assert hi < lo < 0.85

    def test_alternative_return_raises_threshold(self):
        lo = captive_threshold_shift(0.85, 0.0, 0.5, 0.0, 0.01)
        hi = captive_threshold_shift(0.85, 0.0, 0.5, 0.0, 0.03)
        assert 0.85 < lo < hi

    def test_floor_violation_warns(self):
        with pytest.warns(ModelInconsistencyWarning):
            out = captive_threshold_shift(0.1, 50.0, 0.001, 0.05, 0.01)
        assert out > 0.0  # clamped strictly positive


class TestClock:
    def test_baseline_linear(self):
        spec = ClockSpec(phi=0.88, phi_bar=0.85, kappa=0.01)
        assert clock(spec)["T_linear"] == pytest.approx(3.0, abs=1e-12)

    def test_baseline_exponential(self):
        spec = ClockSpec(phi=0.88, phi_bar=0.85, kappa=0.01, kappa_exp=0.01)
        assert clock(spec)["T_exp"] == pytest.approx(
            100.0 * math.log(0.88 / 0.85), abs=1e-12
        )

    def test_monitoring_reading(self):
        spec = ClockSpec(phi=0.932, phi_bar=0.85, kappa=0.001876)
        assert clock(spec)["T_linear"] == pytest.approx(43.71, abs=0.005)

    def test_paused_clock_sentinel(self):
        spec = ClockSpec(phi=0.88, phi_bar=0.85, kappa=0.0, kappa_exp=0.0)
        out = clock(spec)
        assert math.isinf(out["T_linear"]) and math.isinf(out["T_exp"])

    def test_zero_threshold_exponential_sentinel(self):
        # exponential decay never reaches a zero threshold
        out = clock(ClockSpec(phi=0.88, phi_bar=0.0, kappa=0.01, kappa_exp=0.01))
        assert out == {"T_linear": pytest.approx(88.0, abs=1e-12), "T_exp": math.inf}

    def test_normalized_exponential_exceeds_linear(self):
        # with kappa_exp = kappa/phi the proportional horizon is strictly longer
        for phi, bar, kappa in [(0.88, 0.85, 0.01), (0.95, 0.5, 0.02), (0.7, 0.69, 0.001)]:
            out = clock(ClockSpec(phi=phi, phi_bar=bar, kappa=kappa,
                                  kappa_exp=kappa / phi))
            assert out["T_exp"] > out["T_linear"]

    @pytest.mark.parametrize("kw", [{"kappa": math.nan}, {"kappa": math.inf},
                                    {"kappa_exp": math.nan}, {"phi": math.inf}])
    def test_non_finite_rejected(self, kw):
        # a NaN kappa would otherwise read as a paused clock (T_linear = inf)
        args = dict(phi=0.9, phi_bar=0.85, kappa=0.01, kappa_exp=None)
        args.update(kw)
        with pytest.raises(DomainError, match="must be finite"):
            ClockSpec(**args)

    @pytest.mark.parametrize("kw", [{"phi": 5.0}, {"phi": 1.01}, {"phi_bar": -0.5},
                                    {"phi_bar": 1.5}])
    def test_share_outside_unit_interval_rejected(self, kw):
        # phi = 5 used to give T_linear = 415 and phi_bar = -0.5 T_exp = inf
        args = dict(phi=0.9, phi_bar=0.85, kappa=0.01, kappa_exp=0.01)
        args.update(kw)
        name, value = next(iter(kw.items()))
        with pytest.raises(DomainError, match=rf"^{name} must lie in \[0, 1\], got {value}$"):
            ClockSpec(**args)

    def test_unit_interval_ends_accepted(self):
        out = clock(ClockSpec(phi=1.0, phi_bar=0.0, kappa=0.01))
        assert out["T_linear"] == pytest.approx(100.0, abs=1e-12)


class TestEstimateKappa:
    def test_exact_line(self):
        series = [(t, 0.9 - 0.002 * t) for t in range(12)]
        out = estimate_kappa(series, break_index=6)
        assert out["slope_full"] == pytest.approx(-0.002, abs=1e-12)
        assert out["chow_F"] == pytest.approx(0.0, abs=1e-9)

    def test_two_segment_recovery(self):
        t_pre = np.arange(10.0)
        t_post = np.arange(10.0, 24.0)
        pre = 0.90 + 0.001 * t_pre
        post = pre[-1] + 0.001 - 0.002 * (t_post - 10.0)
        series = list(zip(t_pre, pre)) + list(zip(t_post, post))
        out = estimate_kappa(series, break_index=10)
        assert out["slope_pre"] == pytest.approx(0.001, abs=1e-10)
        assert out["slope_post"] == pytest.approx(-0.002, abs=1e-10)
        assert out["chow_F"] > 50.0

    def test_flat_series(self):
        series = [(t, 0.9) for t in range(10)]
        assert estimate_kappa(series)["slope_full"] == pytest.approx(0.0, abs=1e-14)

    def test_insufficient_data(self):
        with pytest.raises(EstimationError):
            estimate_kappa([(t, 0.9) for t in range(5)])
        with pytest.raises(EstimationError):
            estimate_kappa([(t, 0.9) for t in range(10)], break_index=1)

    def test_non_finite_or_constant_times_rejected(self):
        # each would otherwise return NaN: a slope of NaN input, or 0/0 for
        # times that do not vary
        series = [(t, 0.9 - 0.002 * t) for t in range(12)]
        for bad in ((3, math.nan), (math.inf, 0.9), (math.nan, 0.9), (3, -math.inf)):
            with pytest.raises(EstimationError, match="finite"):
                estimate_kappa(series[:3] + [bad] + series[4:])
        with pytest.raises(EstimationError, match="full sample"):
            estimate_kappa([(2020.0, 0.9 + 0.01 * i) for i in range(10)])
        pre_flat = [(0.0, 0.9), (0.0, 0.91), (0.0, 0.92)] + series[3:]
        with pytest.raises(EstimationError, match="pre-break segment"):
            estimate_kappa(pre_flat, break_index=3)
        post_flat = series[:9] + [(11.0, 0.8), (11.0, 0.81), (11.0, 0.82)]
        with pytest.raises(EstimationError, match="post-break segment"):
            estimate_kappa(post_flat, break_index=9)

    def test_noisy_slope_close(self):
        rng = np.random.default_rng(7)
        t = np.arange(40.0)
        y = 0.93 - 0.0019 * t + rng.normal(0, 1e-4, 40)
        out = estimate_kappa(list(zip(t, y)))
        assert out["slope_full"] == pytest.approx(-0.0019, abs=2e-5)

    @staticmethod
    def share_series(rng, t0):
        """A trending share on an irregular time grid starting after t0, split
        at a random break leaving >= 3 points on each side."""
        n = int(rng.integers(8, 80))
        t = t0 + np.cumsum(rng.uniform(0.05, 1.0, n))
        trend = rng.choice([-1.0, 1.0]) * rng.uniform(5e-4, 5e-3)
        y = 0.9 + trend * (t - t[0]) + rng.normal(0, 1e-4, n)
        return t, y, int(rng.integers(3, n - 2))

    @staticmethod
    def chow_check(out, fits, n):
        """Compare slopes at 1e-12 relative and the Chow F on the scale of the
        pooled SSR (F is a small difference of two SSRs)."""
        (b, ssr), (b_pre, ssr_pre), (b_post, ssr_post) = fits
        ssr_u = ssr_pre + ssr_post
        chow = ((ssr - ssr_u) / 2) / (ssr_u / (n - 4))
        for got, ref in ((out["slope_full"], b), (out["slope_pre"], b_pre),
                         (out["slope_post"], b_post)):
            assert got == pytest.approx(float(ref), rel=1e-12, abs=0)
        scale = float(ssr / (ssr_u / (n - 4)))
        assert abs(out["chow_F"] - float(chow)) <= 1e-12 * scale

    def test_matches_lstsq(self):
        def lstsq_line(t, y):
            X = np.column_stack([np.ones_like(t), t])
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            resid = y - X @ coef
            return coef[1], resid @ resid

        rng = np.random.default_rng(19)
        for _ in range(300):
            t, y, k = self.share_series(rng, 0.0)
            out = estimate_kappa(list(zip(t, y)), break_index=k)
            fits = [lstsq_line(t[sl], y[sl]) for sl in (slice(None), slice(k), slice(k, None))]
            self.chow_check(out, fits, len(t))

    def test_calendar_year_grid_matches_exact_ols(self):
        # with one centring pass the rounding of mean(t) at t ~ 2000 moves the
        # slope by up to 4e-10 relative
        def exact_line(t, y):
            t, y = [Fraction(v) for v in t], [Fraction(v) for v in y]
            mt, my = sum(t) / len(t), sum(y) / len(y)
            b = sum((a - mt) * (v - my) for a, v in zip(t, y)) / sum((a - mt) ** 2 for a in t)
            return b, sum((v - my - b * (a - mt)) ** 2 for a, v in zip(t, y))

        rng = np.random.default_rng(23)
        for _ in range(100):
            t, y, k = self.share_series(rng, 2000.0)
            out = estimate_kappa(list(zip(t, y)), break_index=k)
            fits = [exact_line(t[sl], y[sl]) for sl in (slice(None), slice(k), slice(k, None))]
            self.chow_check(out, fits, len(t))


class TestPsiComposite:
    @pytest.mark.parametrize("weights", [(math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0),
                                         (0.5, 0.5, -math.inf)])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(DomainError, match="must be finite"):
            PsiSpec(0.5, 0.5, 0.5, weights=weights)

    def test_three_country_values(self):
        assert psi_composite(PsiSpec(1.00, 0.93, 1.00)) == pytest.approx(
            0.976667, abs=1e-5
        )
        assert psi_composite(PsiSpec(0.50, 0.67, 0.00)) == pytest.approx(0.39, abs=1e-12)
        assert psi_composite(PsiSpec(0.50, 0.33, 0.00)) == pytest.approx(
            0.276667, abs=1e-5
        )

    def test_monetary_heavy_weighting(self):
        spec = PsiSpec(0.50, 0.67, 0.00, weights=(0.50, 0.25, 0.25))
        assert psi_composite(spec) == pytest.approx(0.4175, abs=1e-12)

    def test_ordering_invariance_over_weight_schemes(self):
        japan, italy, greece = (1.00, 0.93, 1.00), (0.50, 0.67, 0.00), (0.50, 0.33, 0.00)
        schemes = [
            (1 / 3, 1 / 3, 1 / 3),
            (0.50, 0.25, 0.25),
            (0.25, 0.50, 0.25),
            (0.40, 0.40, 0.20),
        ]
        for w in schemes:
            vals = [psi_composite(PsiSpec(*c, weights=w)) for c in (japan, italy, greece)]
            assert vals[0] > vals[1] > vals[2]

    def test_ordering_under_low_fx_convex_weights(self):
        # any convex weights with w_fx <= 1/3 preserve the ranking
        rng = np.random.default_rng(11)
        japan, italy, greece = (1.00, 0.93, 1.00), (0.50, 0.67, 0.00), (0.50, 0.33, 0.00)
        for _ in range(200):
            w_fx = rng.uniform(0.0, 1.0 / 3.0)
            w_mon = rng.uniform(0.0, 1.0 - w_fx)
            w = (w_mon, 1.0 - w_fx - w_mon, w_fx)
            vals = [psi_composite(PsiSpec(*c, weights=w)) for c in (japan, italy, greece)]
            assert np.argsort(vals).tolist() == [2, 1, 0]

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            PsiSpec(0.5, 0.5, 0.5, weights=(0.5, 0.5, 0.5))
        with pytest.raises(DomainError):
            PsiSpec(1.2, 0.5, 0.5)
        # a fourth weight used to pass the sum check and then be ignored, and
        # two weights to end in a raw IndexError
        for weights in ((0.25,) * 4, (0.5, 0.5)):
            with pytest.raises(DomainError, match="exactly three weights"):
                PsiSpec(1.0, 1.0, 1.0, weights=weights)


class TestTiming:
    def test_window_cases(self):
        assert timing_feasible(2.0, 3.0)
        assert timing_feasible(3.0, 3.0)  # inclusive
        assert not timing_feasible(3.5, 3.0)
        assert timing_feasible(100.0, math.inf)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            timing_feasible(-1.0, 3.0)
