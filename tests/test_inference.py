import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from debtregime.closure import TwoLayerParams
from debtregime.core import EconState
from debtregime.errors import ConfigError, DomainError, EstimationError
from debtregime.inference import (
    MeasurementVariant,
    SubsampleConfig,
    apply_pe_variant,
    apply_tf_variant,
    classify,
    detrend_local_linear,
    envelope,
    score_pe,
    score_tf,
    subsample_critical_value,
    tier_scores,
    trend_growth_estimate,
)
from debtregime.inference import _line_fit
from debtregime.transition import TransitionSpec

ECON = EconState(b_prev=2.40, r_n=0.022, g_n=0.030, pi=0.027, d=0.020)


class TestScores:
    def test_pe_baseline(self):
        assert score_pe(TwoLayerParams()) == pytest.approx(0.0297, abs=5e-5)

    def test_pe_stressed(self):
        assert score_pe(TwoLayerParams(z=0.03)) == pytest.approx(-0.0304, abs=5e-5)

    def test_pe_knife_edge(self):
        # core exactly at requirement with a fully exiting margin
        p = TwoLayerParams(theta=0.85, z=0.0582, phi_req=0.85)
        assert score_pe(p) == pytest.approx(0.0, abs=1e-12)

    def test_tf_baseline_sign_flip(self):
        spec = TransitionSpec(state=ECON, g_new=0.03)
        assert score_tf(spec) == pytest.approx(-0.00533333, abs=1e-8)

    def test_tf_monitoring_widening(self):
        mon = TransitionSpec(
            state=EconState(1.574, 0.022, 0.030, 0.027, 0.020), g_new=0.03
        )
        base = TransitionSpec(state=ECON, g_new=0.03)
        assert score_tf(base) - score_tf(mon) == pytest.approx(0.0043731, abs=5e-7)

    def test_tf_knife_edge(self):
        g = 0.027 + 0.02 / 2.40
        spec = TransitionSpec(state=ECON, g_new=g)
        assert score_tf(spec) == pytest.approx(0.0, abs=1e-15)


class TestEnvelope:
    def test_single_variant_degenerate(self):
        env = envelope({"baseline": 0.03})
        assert env.lower == env.upper == 0.03
        assert env.argmin_id == env.argmax_id == "baseline"

    def test_two_reading_band(self):
        env = envelope({"baseline": 0.03, "core_erosion": -0.01})
        assert (env.lower, env.upper) == (-0.01, 0.03)
        assert classify(env.lower, env.upper, 0.0, 0.0, "PE") == "boundary-near"

    def test_tie_break_deterministic(self):
        env = envelope({"a": 0.01, "b": 0.01})
        assert env.argmin_id == "a" and env.argmax_id == "a"

    def test_ties_keep_the_first_id_in_insertion_order(self):
        env = envelope({"a": 0.02, "b": 0.01, "c": 0.02, "d": 0.01})
        assert (env.argmin_id, env.argmax_id) == ("b", "a")

    def test_nesting_property(self):
        variants = {"baseline": 0.03, "lower_read": -0.01, "g_spec": 0.05}
        tier1 = envelope({"baseline": variants["baseline"]})
        tier2 = envelope(variants)
        assert tier2.lower <= tier1.lower <= tier1.upper <= tier2.upper

    def test_empty_tier_rejected(self):
        with pytest.raises(ConfigError):
            envelope({})

    @pytest.mark.parametrize("scores, vid", [({"a": math.nan, "b": 0.1}, "a"),
                                             ({"a": 0.1, "b": math.nan}, "b"),
                                             ({"a": 0.1, "b": -math.inf}, "b")])
    def test_non_finite_score_rejected(self, scores, vid):
        # a leading nan gave lower = upper = nan, which classify labels
        # boundary-near; a later one was skipped by min and max
        with pytest.raises(DomainError, match=f"^variant '{vid}' score must be finite"):
            envelope(scores)

    def test_tf_affine_width_exact(self):
        d, s = 0.020, 0.0
        b_lo, b_hi = 1.574, 2.40
        scores = {}
        for name, b in (("monitoring", b_lo), ("baseline", b_hi)):
            spec = TransitionSpec(
                state=EconState(b, 0.022, 0.030, 0.027, d, s), g_new=0.03
            )
            scores[name] = score_tf(spec)
        env = envelope(scores)
        width = env.upper - env.lower
        assert abs(width - (d - s) * (1 / b_lo - 1 / b_hi)) <= 1e-12


class TestMeasurementVariants:
    VARIANTS = (
        MeasurementVariant("baseline", {}, tier=1),
        MeasurementVariant("theta_low", {"theta": 0.60}, tier=2),
        MeasurementVariant("wide_spread", {"z": 0.03}, tier=2),
    )

    def test_pe_variant_overlay(self):
        base = TwoLayerParams()
        assert apply_pe_variant(base, self.VARIANTS[0]) == score_pe(base)
        low = apply_pe_variant(base, self.VARIANTS[1])
        assert low == pytest.approx(score_pe(TwoLayerParams(theta=0.60)), abs=1e-15)

    def test_tf_variant_overlay(self):
        spec = TransitionSpec(state=ECON, g_new=0.03)
        mon = MeasurementVariant("monitoring", {"b_concept": 1.574}, tier=2)
        got = apply_tf_variant(spec, mon)
        want = score_tf(
            TransitionSpec(state=EconState(1.574, 0.022, 0.030, 0.027, 0.020),
                           g_new=0.03)
        )
        assert got == pytest.approx(want, abs=1e-15)

    def test_tier_nesting_by_construction(self):
        base = TwoLayerParams()
        s1 = tier_scores(base, self.VARIANTS, tier=1)
        s2 = tier_scores(base, self.VARIANTS, tier=2)
        assert set(s1) == {"baseline"}
        assert set(s1) <= set(s2)
        e1, e2 = envelope(s1), envelope(s2)
        assert e2.lower <= e1.lower <= e1.upper <= e2.upper

    @pytest.mark.parametrize("mode", ["pe", "XX", "tf", ""])
    def test_bad_mode_is_the_classify_error(self, mode):
        # a mode that is neither 'PE' nor 'TF' used to run the TF overlay on
        # the closure params and end in a raw AttributeError
        variants = [MeasurementVariant("a", {}, 1)]
        with pytest.raises(DomainError) as raised:
            tier_scores(TwoLayerParams(), variants, 1, mode=mode)
        with pytest.raises(DomainError) as want:
            classify(0.0, 0.0, 0.0, 0.0, mode)
        assert str(raised.value) == str(want.value)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_pe_variant(TwoLayerParams(), MeasurementVariant("x", {"nope": 1}))
        with pytest.raises(ConfigError):
            apply_tf_variant(
                TransitionSpec(state=ECON), MeasurementVariant("x", {"nope": 1})
            )


class TestDetrend:
    def test_exact_line_zero_remainder(self):
        t = np.arange(30.0)
        out = detrend_local_linear(2.0 + 0.003 * t, 12)
        assert np.max(np.abs(out["remainder"])) <= 1e-12

    def test_constant_series(self):
        out = detrend_local_linear(np.full(20, 0.7), 8)
        assert np.allclose(out["trend"], 0.7, atol=1e-12)

    def test_line_plus_alternation(self):
        t = np.arange(24.0)
        c = 0.05
        series = 1.0 + 0.01 * t + c * np.where(t % 2 == 0, 1.0, -1.0)
        rem = detrend_local_linear(series, 12)["remainder"]
        interior = rem[4:20]
        signs = np.sign(interior)
        assert all(a != b for a, b in zip(signs, signs[1:]))
        assert np.all(np.abs(interior) > 0.5 * c)
        assert np.all(np.abs(interior) < 1.5 * c)

    def test_matches_independent_ols(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 1, 40)
        w = 10
        out = detrend_local_linear(y, w)
        # reproduce one interior point with a standalone polyfit
        i = 20
        start = i - w // 2
        coef = np.polyfit(np.arange(start, start + w), y[start : start + w], 1)
        assert out["trend"][i] == pytest.approx(np.polyval(coef, i), abs=1e-10)

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            detrend_local_linear(np.zeros(5), 8)
        with pytest.raises(EstimationError):
            detrend_local_linear(np.zeros(10), 3)

    @staticmethod
    def lstsq_reference(y, window_h):
        """The per-point least-squares loop the closed form replaces."""
        n = len(y)
        t = np.arange(n, dtype=float)
        trend = np.empty(n)
        half = window_h // 2
        for i in range(n):
            start = min(max(i - half, 0), n - window_h)
            tt = t[start : start + window_h]
            X = np.column_stack([np.ones(window_h), tt])
            coef, *_ = np.linalg.lstsq(X, y[start : start + window_h], rcond=None)
            trend[i] = coef[0] + coef[1] * t[i]
        return trend

    @pytest.mark.parametrize(
        "n,w", [(24, 24), (15, 15), (40, 10), (41, 11), (30, 7), (25, 24)]
    )
    def test_closed_form_matches_lstsq(self, n, w):
        rng = np.random.default_rng(n * 100 + w)
        drifting = 0.03 + 0.001 * np.arange(n) + rng.normal(0, 0.01, n)
        for y in (rng.normal(0, 1, n), drifting):
            out = detrend_local_linear(y, w)
            ref = self.lstsq_reference(y, w)
            # every point, including the clamped edge windows
            assert np.max(np.abs(out["trend"] - ref)) <= 1e-12
            assert np.array_equal(out["remainder"], y - out["trend"])

    @pytest.mark.parametrize("w", [8, 9, 24])
    def test_batched_equals_rows(self, w):
        rng = np.random.default_rng(w)
        y = rng.normal(0, 1, (3, 4, 30))
        out = detrend_local_linear(y, w)
        for idx in np.ndindex(3, 4):
            row = detrend_local_linear(y[idx], w)
            assert np.array_equal(out["trend"][idx], row["trend"])
            assert np.array_equal(out["remainder"][idx], row["remainder"])

    @pytest.mark.parametrize("n, w", [(24, 24), (15, 15), (40, 24), (31, 9)])
    def test_batched_4d_equals_rows(self, n, w):
        # the Monte Carlo detrends [horizon, series, rep, w] windows (n == w);
        # `infer` detrends longer series (n > w)
        rng = np.random.default_rng(n * 100 + w)
        y = np.cumsum(rng.normal(0, 1, (2, 3, 4, n)), axis=-1)
        out = detrend_local_linear(y, w)
        for idx in np.ndindex(2, 3, 4):
            row = detrend_local_linear(y[idx], w)
            assert np.array_equal(out["trend"][idx], row["trend"])
            assert np.array_equal(out["remainder"][idx], row["remainder"])

    @pytest.mark.parametrize("n, w", [(24, 24), (15, 15), (40, 24), (31, 9)])
    def test_strided_view_equals_contiguous_array(self, n, w):
        # the windows are copied only when they are not C-contiguous; a
        # series of length w is its own window and is not copied, so a
        # strided view (copied) must give the same bytes as the array
        rng = np.random.default_rng(n * 7 + w)
        wide = np.cumsum(rng.normal(0, 1, (3, 5, 2 * n)), axis=-1)
        view = wide[:, ::2, ::2]  # every other row and period: strided
        flat = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous and flat.flags.c_contiguous
        got, want = detrend_local_linear(view, w), detrend_local_linear(flat, w)
        for key in ("trend", "remainder"):
            assert got[key].tobytes() == want[key].tobytes(), key
        for idx in np.ndindex(*flat.shape[:-1]):
            row = detrend_local_linear(flat[idx], w)
            assert got["remainder"][idx].tobytes() == row["remainder"].tobytes()

    def test_index_line_fit_equals_closed_denominator(self):
        # the index fit used to divide by sum(c**2) = m(m^2 - 1)/12 written out
        rng = np.random.default_rng(11)
        for m in range(4, 401):
            y = rng.normal(0, 1, (2, m))
            c = np.arange(m) - (m - 1) / 2.0
            mean, slope = _line_fit(np.arange(m, dtype=float), y)
            assert np.array_equal(mean, y.mean(axis=-1))
            assert np.array_equal(slope, (y * c).sum(axis=-1) / (m * (m * m - 1) / 12.0))

    @pytest.mark.parametrize("w", [24.0, 8.5])
    def test_non_integer_window_rejected(self, w):
        # a float window used to fail with a raw TypeError, or to become a
        # float index array
        with pytest.raises(DomainError, match="window_h must be an integer"):
            detrend_local_linear(np.linspace(0.0, 1.0, 30), w)

    def test_numpy_integer_window_accepted(self):
        y = np.random.default_rng(5).normal(0, 1, 30)
        want = detrend_local_linear(y, 8)["remainder"]
        assert np.array_equal(detrend_local_linear(y, np.int64(8))["remainder"], want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        y = np.linspace(0.0, 1.0, 20)
        y[7] = bad
        with pytest.raises(EstimationError):
            detrend_local_linear(y, 8)
        batch = np.vstack([np.linspace(0.0, 1.0, 20), y])
        with pytest.raises(EstimationError):
            detrend_local_linear(batch, 8)


class TestSubsampling:
    CFG = SubsampleConfig(window_h=24, block_len=6, alpha=0.10)

    def test_zero_remainder(self):
        assert subsample_critical_value(np.zeros(24), self.CFG) == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        r = rng.normal(0, 1, 24)
        a = subsample_critical_value(r, self.CFG)
        b = subsample_critical_value(r.copy(), self.CFG)
        assert a == b

    def test_right_continuous_quantile(self):
        # hand-computable case: deviations from a known window
        window = np.array([0.0] * 23 + [1.0])
        cfg = SubsampleConfig(window_h=24, block_len=6, alpha=0.10)
        tau = window.mean()
        bm = np.convolve(window, np.ones(6) / 6, mode="valid")
        devs = np.sort(math.sqrt(6) * (bm - tau))
        k = math.ceil(0.9 * len(devs))
        expected = max(0.0, devs[k - 1] / math.sqrt(24))
        assert subsample_critical_value(window, cfg) == pytest.approx(
            expected, abs=1e-15
        )

    def test_block_length_widens_bands_under_persistence(self):
        # persistent remainders: longer blocks capture more of the long-run
        # variance, widening the band on average
        means = {}
        for ell in (4, 6, 8):
            cfg = SubsampleConfig(window_h=48, block_len=ell, alpha=0.10)
            vals = []
            for seed in range(200):
                rng = np.random.default_rng(seed + 1000)
                e = rng.normal(0, 1.0, 48)
                x = np.empty(48)
                acc = 0.0
                for t in range(48):
                    acc = 0.8 * acc + e[t]
                    x[t] = acc
                vals.append(subsample_critical_value(x, cfg))
            means[ell] = float(np.mean(vals))
        assert means[4] <= means[6] <= means[8]

    def test_degenerate_fallback(self):
        cfg = SubsampleConfig(window_h=8, block_len=5, alpha=0.10)  # 4 blocks
        window = np.array([0.1, -0.2, 0.05, 0.3, -0.1, 0.0, 0.02, -0.05])
        out = subsample_critical_value(window, cfg)
        assert out == pytest.approx(np.max(np.abs(window - window.mean())), abs=1e-15)

    @pytest.mark.parametrize("h,ell", [(24, 6), (24, 8), (15, 14), (8, 5)])
    def test_batched_equals_rows(self, h, ell):
        # (15, 14) and (8, 5) leave fewer than 5 blocks: the fallback
        cfg = SubsampleConfig(window_h=h, block_len=ell, alpha=0.10)
        rng = np.random.default_rng(h * 10 + ell)
        r = rng.normal(0, 1, (2, 5, h + 7))
        out = subsample_critical_value(r, cfg)
        assert out.shape == (2, 5)
        rows = [subsample_critical_value(r[idx], cfg) for idx in np.ndindex(2, 5)]
        assert np.array_equal(out.ravel(), np.array(rows))
        # every trailing window of one series at once, as `infer` reads them
        series = rng.normal(0, 1, 60)
        windows = subsample_critical_value(sliding_window_view(series, h), cfg)
        prefixes = [
            subsample_critical_value(series[: i + 1], cfg) for i in range(h - 1, 60)
        ]
        assert np.array_equal(windows, np.array(prefixes))

    @pytest.mark.parametrize("h,ell", [(24, 4), (24, 6), (24, 8), (15, 6)])
    def test_matches_convolve_reference(self, h, ell):
        # the block means were np.convolve(window, ones(ell) / ell); summing
        # the block first rounds differently, by at most a few ulps per term
        cfg = SubsampleConfig(window_h=h, block_len=ell, alpha=0.10)
        rng = np.random.default_rng(h * 100 + ell)
        for _ in range(50):
            window = rng.normal(0, 1, h)
            tau = window.mean()
            bm = np.convolve(window, np.ones(ell) / ell, mode="valid")
            devs = np.sort(math.sqrt(ell) * (bm - tau))
            k = math.ceil(0.9 * len(devs))
            expected = max(0.0, devs[k - 1] / math.sqrt(h))
            tol = 4 * ell * np.finfo(float).eps * np.max(np.abs(window))
            assert subsample_critical_value(window, cfg) == pytest.approx(
                expected, rel=0, abs=tol
            )

    def test_one_dimensional_returns_float(self):
        r = np.random.default_rng(4).normal(0, 1, 30)
        assert type(subsample_critical_value(r, self.CFG)) is float

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # an all-NaN window used to give a zero half-width, the narrowest band
        with pytest.raises(EstimationError):
            subsample_critical_value(np.full(24, bad), self.CFG)
        r = np.zeros((3, 24))
        r[1, 5] = bad
        with pytest.raises(EstimationError):
            subsample_critical_value(r, self.CFG)

    def test_config_non_finite_rejected(self):
        # a NaN alpha or an infinite window used to pass the range checks
        for kw in ({"alpha": math.nan}, {"window_h": math.inf}, {"block_len": math.nan}):
            with pytest.raises(DomainError, match="finite"):
                SubsampleConfig(**kw)

    @pytest.mark.parametrize("kw, named", [({"window_h": 24.5}, "window_h"),
                                           ({"window_h": 24.0}, "window_h"),
                                           ({"block_len": 6.5}, "block_len"),
                                           ({"block_len": 6.0}, "block_len")])
    def test_config_non_integer_rejected(self, kw, named):
        # a float count used to construct and then fail with a raw TypeError
        # when the band sliced its window
        with pytest.raises(DomainError, match=f"{named} must be an integer"):
            SubsampleConfig(**kw)

    def test_config_numpy_integers_accepted(self):
        cfg = SubsampleConfig(window_h=np.int64(24), block_len=np.int32(6))
        r = np.random.default_rng(4).normal(0, 1, 30)
        assert subsample_critical_value(r, cfg) == subsample_critical_value(r, self.CFG)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 0.9])
    def test_zero_half_width_is_positive_zero(self, alpha):
        # np.maximum(0.0, -0.0) keeps -0.0: a window of -0 values selected a
        # -0.0 half-width at alpha = 0.1, 0.5 and 0.9 before the floor added 0.0
        window = np.array([-0.0] * 20 + [0.0] * 4)
        cfg = SubsampleConfig(block_len=4, alpha=alpha)
        half = subsample_critical_value(window, cfg)
        assert half == 0.0 and math.copysign(1.0, half) == 1.0
        rows = subsample_critical_value(np.array([window, -window]), cfg)
        assert np.signbit(rows).tolist() == [False, False]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SubsampleConfig(window_h=8, block_len=8)
        with pytest.raises(ConfigError):
            SubsampleConfig(window_h=8, block_len=2)
        with pytest.raises(ConfigError):
            SubsampleConfig(alpha=1.5)


class TestClassify:
    def test_pe_sign_rules(self):
        assert classify(0.02, 0.04, 0.005, 0.005, "PE") == "robustly-interior"
        assert classify(-0.04, -0.02, 0.005, 0.005, "PE") == "robustly-premium-emergent"
        assert classify(-0.01, 0.03, 0.0, 0.0, "PE") == "boundary-near"

    def test_tf_sign_rules(self):
        assert classify(0.004, 0.009, 0.001, 0.001, "TF") == "feasible"
        assert classify(0.004, 0.009, 0.005, 0.001, "TF") == "marginal"
        assert classify(-0.009, -0.004, 0.001, 0.001, "TF") == "infeasible"

    def test_conservatism_never_interior_below_band(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            scores = {f"v{i}": float(rng.normal(0, 0.02)) for i in range(4)}
            c = float(rng.uniform(0, 0.01))
            env = envelope(scores)
            label = classify(env.lower, env.upper, c, c, "PE")
            if label == "robustly-interior":
                assert min(scores.values()) >= -c

    def test_exactly_one_label(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = float(rng.normal(0, 0.02))
            label = classify(min(x, 0.0), max(x, 0.0) + 0.01, 0.002, 0.002, "PE")
            assert label in (
                "robustly-interior", "boundary-near", "robustly-premium-emergent"
            )

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            classify(0.0, 0.0, 0.0, 0.0, "XX")


class TestDetrendEnvelopeCommutation:
    def test_commutation_within_trend_spread(self):
        # smooth drifting variants: detrending the envelope versus enveloping
        # detrended variants agree within the cross-variant trend gap
        t = np.arange(48.0)
        rng = np.random.default_rng(8)
        noise = rng.normal(0, 0.002, (3, 48))
        variants = np.vstack(
            [
                0.030 + 0.0004 * t + noise[0],
                0.020 + 0.0005 * t + noise[1],
                0.025 + 0.00045 * t + noise[2],
            ]
        )
        w = 16
        lower = variants.min(axis=0)
        detrended_env = detrend_local_linear(lower, w)["remainder"]
        per_variant = np.vstack(
            [detrend_local_linear(v, w)["remainder"] for v in variants]
        )
        env_of_detrended = per_variant.min(axis=0)
        trends = np.vstack([detrend_local_linear(v, w)["trend"] for v in variants])
        tol = float(np.max(trends.max(axis=0) - trends.min(axis=0)))
        assert np.max(np.abs(detrended_env - env_of_detrended)) <= tol


class TestTrendGrowth:
    def test_exact_exponential(self):
        q = np.arange(40)
        gdp = 100.0 * np.exp(0.03 * q / 4.0)
        assert trend_growth_estimate(gdp, 24) == pytest.approx(0.03, abs=1e-10)

    def test_constant_series(self):
        assert trend_growth_estimate(np.full(20, 500.0), 12) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_window_sensitivity_with_level_break(self):
        q = np.arange(48)
        gdp = 100.0 * np.exp(0.02 * q / 4.0)
        gdp[36:] *= 1.04  # level break three years from the end
        short = trend_growth_estimate(gdp, 12)
        long = trend_growth_estimate(gdp, 24)
        assert abs(short - long) > 0.005

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_window_rejected(self, bad):
        # NaN returned nan and +inf returned inf; -inf fails as non-positive
        gdp = 100.0 * np.exp(0.03 * np.arange(12) / 4.0)
        gdp[-3] = bad
        with pytest.raises(EstimationError, match="non-finite"):
            trend_growth_estimate(gdp, 12)
        # only the trailing window is read
        assert trend_growth_estimate(gdp[::-1], 8) == pytest.approx(-0.03, abs=1e-10)

    def test_validation(self):
        with pytest.raises(EstimationError):
            trend_growth_estimate(np.ones(20), 6)
        with pytest.raises(DomainError):
            trend_growth_estimate(np.array([1.0] * 11 + [-1.0]), 12)


# Exact-equality oracles: the kernels' earlier formulas (`ndarray.mean`,
# every window through `sliding_window_view` and a gather, `np.moveaxis`
# and `np.sort`), kept here as the reference the kernels must match byte
# for byte.
ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=120)


def _reference_line_fit(x, y):
    c = x - x.mean()
    c = c - c.mean()
    return y.mean(axis=-1), (y * c).sum(axis=-1) / (c * c).sum()


def _reference_detrend(y, w):
    n = y.shape[-1]
    windows = np.ascontiguousarray(sliding_window_view(y, w, axis=-1))
    mean, slope = _reference_line_fit(np.arange(w, dtype=float), windows)
    i = np.arange(n)
    start = np.clip(i - w // 2, 0, n - w)
    trend = mean[..., start] + slope[..., start] * (i - start - (w - 1) / 2.0)
    return trend, y - trend


def _reference_band(r, cfg):
    h, ell = cfg.window_h, cfg.block_len
    window = np.ascontiguousarray(r[..., -h:])
    tau = window.mean(axis=-1)
    n_blocks = h - ell + 1
    if n_blocks < 5:
        return np.max(np.abs(window - tau[..., None]), axis=-1)
    periods = np.ascontiguousarray(np.moveaxis(window, -1, 0))
    block_sums = periods[:n_blocks].copy()
    for j in range(1, ell):
        block_sums += periods[j : j + n_blocks]
    k = math.ceil((1.0 - cfg.alpha) * n_blocks)
    s = np.sort(block_sums, axis=0)[min(max(k, 1), n_blocks) - 1]
    return np.maximum(0.0, math.sqrt(ell) * (s / ell - tau) / math.sqrt(h)) + 0.0


def _layout(a, layout):
    """`a`'s values as a C-contiguous, Fortran-ordered or strided array."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    wide = np.repeat(a, 2, axis=-1)  # every other period of `wide` is `a`
    return wide[..., ::2]


@st.composite
def _series(draw, min_len=4, max_len=60, max_extra=0):
    """(array, window) with 0 to 3 leading axes and n = w + extra periods: a
    random walk around a level, so the means and slopes round."""
    w = draw(st.integers(min_len, max_len))
    n = w + draw(st.integers(0, max_extra))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = draw(st.sampled_from([0.0, 0.85, -3.0, 1990.0]))
    a = level + np.cumsum(rng.normal(0, 0.01, lead + (n,)), axis=-1)
    return _layout(a, draw(st.sampled_from(["C", "F", "strided"]))), w


class TestKernelOracles:
    @ORACLE
    @given(_series())
    def test_one_window_detrend_equals_reference(self, case):
        # the Monte Carlo's calls: every series is its own one window
        y, w = case
        got = detrend_local_linear(y, w)
        trend, remainder = _reference_detrend(y, w)
        assert got["trend"].tobytes() == trend.tobytes()
        assert got["remainder"].tobytes() == remainder.tobytes()

    @ORACLE
    @given(_series(max_len=30, max_extra=40))
    def test_detrend_equals_reference(self, case):
        y, w = case
        got = detrend_local_linear(y, w)
        trend, remainder = _reference_detrend(y, w)
        assert got["trend"].tobytes() == trend.tobytes()
        assert got["remainder"].tobytes() == remainder.tobytes()

    @ORACLE
    @given(_series(min_len=2, max_len=200), st.sampled_from(["index", "quarters", "stamps"]))
    def test_line_fit_equals_mean_form(self, case, regressor):
        # the detrend and trend growth fit on the index, `estimate_kappa` on
        # time stamps in years
        y, m = case
        x = np.arange(m, dtype=float)
        if regressor == "quarters":
            x = 1990.0 + 0.25 * x
        elif regressor == "stamps":
            x = 1990.0 + np.cumsum(np.random.default_rng(m).uniform(0.1, 1.0, m))
        got, want = _line_fit(x, y), _reference_line_fit(x, y)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @ORACLE
    @given(st.lists(st.integers(1, 5), min_size=3, max_size=3), st.integers(4, 24),
           st.sampled_from([4, 6, 8]), st.sampled_from([0.05, 0.1, 0.5, 0.9]),
           st.integers(0, 2**32 - 1))
    def test_band_on_monte_carlo_stacks_equals_reference(self, lead, w, ell, alpha, seed):
        # `_bands` passes [horizon, series, rep, w] remainders, block length
        # capped at w - 1 (fewer than 5 blocks takes the fallback)
        cfg = SubsampleConfig(window_h=w, block_len=min(ell, w - 1), alpha=alpha)
        r = np.random.default_rng(seed).normal(0, 0.01, tuple(lead) + (w,))
        assert subsample_critical_value(r, cfg).tobytes() == _reference_band(r, cfg).tobytes()

    @ORACLE
    @given(_series(min_len=8, max_len=30, max_extra=40), st.integers(3, 29),
           st.sampled_from([0.05, 0.1, 0.5, 0.9]))
    def test_band_on_sliding_windows_equals_reference(self, case, ell, alpha):
        # `infer` passes every trailing window of its remainders at once
        y, h = case
        cfg = SubsampleConfig(window_h=h, block_len=min(ell, h - 1), alpha=alpha)
        windows = sliding_window_view(y, h, axis=-1)
        got = subsample_critical_value(windows, cfg)
        assert got.tobytes() == _reference_band(windows, cfg).tobytes()
        row = y.reshape(-1, y.shape[-1])[0]
        assert subsample_critical_value(row, cfg) == float(_reference_band(row, cfg))

    def test_zero_half_width_in_a_stack_is_positive_zero(self):
        cfg = SubsampleConfig(window_h=24, block_len=4, alpha=0.1)
        r = np.random.default_rng(3).normal(0, 0.01, (2, 3, 4, 24))
        r[1, 2, 3] = [-0.0] * 20 + [0.0] * 4
        got = subsample_critical_value(r, cfg)
        assert got.tobytes() == _reference_band(r, cfg).tobytes()
        assert got[1, 2, 3] == 0.0 and not np.signbit(got[1, 2, 3])


@pytest.mark.parametrize("call", [lambda: detrend_local_linear(5.0, 4),
                                  lambda: subsample_critical_value(5.0, SubsampleConfig()),
                                  lambda: trend_growth_estimate(5.0, 8)],
                         ids=["detrend", "subsample", "trend_growth"])
def test_scalar_series_rejected(call):
    # a scalar used to raise IndexError (detrend, subsample) or TypeError
    with pytest.raises(EstimationError, match="must be a sequence, got a scalar"):
        call()
