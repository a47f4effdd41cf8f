"""Set-valued inference on a simulated boundary-score history: admissible
measurement readings, tier envelopes, local-linear detrending, block
subsampling for band half-widths, and the conservative sign rule.

Run:  python demos/06_inference_bands.py
"""

import numpy as np

from debtregime import (
    MeasurementVariant,
    SubsampleConfig,
    TwoLayerParams,
    classify,
    detrend_local_linear,
    envelope,
    score_pe,
    subsample_critical_value,
    trend_growth_estimate,
)
from debtregime.inference import tier_scores

rng = np.random.default_rng(12)
T = 48

# a drifting true state observed through noisy core readings
theta_true = 0.65 - 0.0008 * np.arange(T) + rng.normal(0, 0.004, T)
z_path = 0.02 + rng.normal(0, 0.002, T)
theta_obs = np.clip(theta_true + rng.normal(0, 0.02, T), 0, 1)

variants = [
    MeasurementVariant("baseline", {}, tier=1),
    MeasurementVariant("theta_minus", {}, tier=2),
    MeasurementVariant("theta_plus", {}, tier=2),
]

cfg = SubsampleConfig(window_h=24, block_len=6, alpha=0.10)
lower = np.empty(T)
upper = np.empty(T)
for t in range(T):
    readings = {
        "baseline": theta_obs[t],
        "theta_minus": max(0.0, theta_obs[t] - 0.02),
        "theta_plus": min(1.0, theta_obs[t] + 0.02),
    }
    scores = {
        v.id: score_pe(TwoLayerParams(theta=readings[v.id], z=float(z_path[t])))
        for v in variants
    }
    env = envelope(scores)
    lower[t], upper[t] = env.lower, env.upper

rem_lo = detrend_local_linear(lower, cfg.window_h)["remainder"]
rem_up = detrend_local_linear(upper, cfg.window_h)["remainder"]

print("== per-period tier-2 bands over the final year ==")
print(f"{'t':>3} {'lower':>8} {'upper':>8} {'half-width':>10} {'label':>28}")
for t in range(T - 4, T):
    c_lo = subsample_critical_value(rem_lo[: t + 1], cfg)
    c_up = subsample_critical_value(rem_up[: t + 1], cfg)
    label = classify(lower[t], upper[t], c_lo, c_up, "PE")
    print(f"{t:>3} {lower[t] * 100:+8.2f} {upper[t] * 100:+8.2f} "
          f"{c_lo * 100:>10.2f} {label:>28}")

print("\nthe label turns set-valued exactly when the widened band straddles "
      "zero; a point rule would be forced to pick a side")

print("\n== tier nesting ==")
p0 = TwoLayerParams()
s1 = tier_scores(p0, variants, tier=1)
s2 = tier_scores(p0, variants, tier=2)
print(f"tier-1 variants: {sorted(s1)}  tier-2 adds: {sorted(set(s2) - set(s1))}")

print("\n== trailing trend growth from a quarterly level series ==")
gdp = 550.0 * np.exp(0.028 * np.arange(40) / 4.0) * np.exp(rng.normal(0, 0.002, 40))
print(f"24-quarter log-linear trend: {trend_growth_estimate(gdp, 24) * 100:.2f}%/yr")
print(f"12-quarter log-linear trend: {trend_growth_estimate(gdp, 12) * 100:.2f}%/yr")
