"""Property tests of the closure's array kernels against the scalar
definitions, the premium solvers against each other, the band and envelope
invariants of the inference layer, the CSV round trip, and the allocation
ascent's capped-simplex projection."""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from debtregime.closure import (
    _premium_on_grid,
    MarginDistribution,
    TwoLayerParams,
    demand_at,
    solve_premium,
    solve_premium_bisection,
)
from debtregime.inference import (
    PE_LABELS,
    TF_LABELS,
    MeasurementVariant,
    SubsampleConfig,
    classify,
    envelope,
    subsample_critical_value,
    tier_scores,
)
from debtregime.investment import _project_capped_simplex
from debtregime.scenario import load_series_csv
from debtregime.tables import TableArtifact, emit_csv

# a fixed example sequence per test keeps the suite deterministic
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def margins(draw):
    """(distribution, c_bar): uniform, or a table CDF with 2-8 knots and an
    optional zero-benefit atom G(0) > 0."""
    c_bar = draw(st.floats(0.005, 0.1))
    if draw(st.booleans()):
        return MarginDistribution(), c_bar
    n = draw(st.integers(2, 8))
    weights = st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1)
    dc, dg = np.cumsum(draw(weights)), np.cumsum(draw(weights))
    g0 = draw(st.sampled_from([0.0, 0.0, 0.1, 0.4]))
    cs = [0.0] + (c_bar * dc[:-1] / dc[-1]).tolist() + [c_bar]
    gs = [g0] + (g0 + (1.0 - g0) * dg[:-1] / dg[-1]).tolist() + [1.0]
    return MarginDistribution(kind="table", knots=tuple(zip(cs, gs))), c_bar


@PROPERTY
@given(margins(), st.lists(st.floats(-0.5, 1.5), max_size=20))
def test_cdf_array_equals_scalar_cdf(margin, fractions):
    dist, c_bar = margin
    points = [c_bar * f for f in fractions] + [-1e-300, -0.0, 0.0, c_bar, 2.0 * c_bar]
    if dist.kind == "table":
        points += [c for c, _ in dist.knots]
    got = dist.cdf_array(np.array(points), c_bar).tolist()
    assert repr(got) == repr([dist.cdf(c, c_bar) for c in points])


@PROPERTY
@given(margins(), st.floats(0.05, 1.0),
       st.lists(st.floats(0.001, 0.05), min_size=1, max_size=201), st.floats(0.0, 1.0))
def test_premium_grid_complementarity(margin, psi, spreads, phi_req):
    # each grid point has its own spread, the drawn spreads repeated in turn
    dist, c_bar = margin
    p = TwoLayerParams(psi=psi, c_bar=c_bar, phi_req=phi_req, dist=dist)
    thetas = np.arange(201) / 200
    zs = np.resize(spreads, thetas.size)
    rhos = _premium_on_grid(p, thetas, zs).tolist()
    for theta, z, rho in zip(thetas.tolist(), zs.tolist(), rhos):
        q = replace(p, theta=theta, z=z)
        if math.isnan(rho):  # case d: even the full premium z cannot fill the gap
            assert phi_req > demand_at(z, q)
            continue
        gap = demand_at(rho, q) - phi_req
        assert 0.0 <= rho <= z
        assert gap >= -1e-10
        assert abs(rho * gap) <= 1e-10


@PROPERTY
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10), st.floats(0.0, 0.5))
def test_projection_feasible_and_idempotent(x, budget):
    y = _project_capped_simplex(x, budget)
    assert len(y) == len(x) and min(y) >= 0.0
    assert sum(y) <= budget + 4 * len(x) * math.ulp(max(budget, max(map(abs, x))))
    again = _project_capped_simplex(y, budget)
    assert max(abs(a - b) for a, b in zip(again, y)) <= 1e-15


@PROPERTY
@given(st.floats(0.0, 0.99), st.floats(0.05, 1.0), st.floats(0.001, 0.05),
       st.floats(0.005, 0.1), st.floats(0.0, 1.0))
def test_closed_form_agrees_with_bisection(theta, psi, z, c_bar, phi_req):
    # the uniform margin written as the two-knot table goes through bisection;
    # bisection stops at a demand residual of 1e-12, a premium error of at most
    # 1e-12 * psi * c_bar / (1 - theta) <= 1e-11 on this domain
    p = TwoLayerParams(theta=theta, psi=psi, z=z, c_bar=c_bar, phi_req=phi_req)
    table = replace(p, dist=MarginDistribution(kind="table", knots=((0.0, 0.0), (c_bar, 1.0))))
    closed, bisected = solve_premium(p), solve_premium(table)
    assert closed.case == bisected.case
    if closed.case == "c_stress":
        assert abs(closed.rho - bisected.rho) <= 1e-10
        assert abs(closed.rho - solve_premium_bisection(p)) <= 1e-10
    else:
        assert closed.rho == bisected.rho


@PROPERTY
@given(st.integers(6, 40), st.data())
def test_band_half_width_nonnegative_and_widens_as_alpha_falls(h, data):
    ell = data.draw(st.integers(3, h - 1))
    rem = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=h, max_size=h)))
    alphas = sorted(data.draw(st.lists(st.floats(0.001, 0.999), min_size=2, max_size=5)))
    widths = [
        subsample_critical_value(rem, SubsampleConfig(window_h=h, block_len=ell, alpha=a))
        for a in alphas
    ]
    assert min(widths) >= 0.0
    # alphas ascend, so the half-widths must not grow along the list
    assert all(w0 >= w1 for w0, w1 in zip(widths, widths[1:]))


@PROPERTY
@given(st.lists(st.tuples(st.integers(1, 3), st.floats(0.0, 1.0), st.floats(0.001, 0.05)),
                min_size=1, max_size=6))
def test_tier3_envelope_contains_tier2(readings):
    base = TwoLayerParams()
    variants = [MeasurementVariant("base", {}, tier=1)] + [
        MeasurementVariant(f"v{i}", {"theta": theta, "z": z}, tier=tier)
        for i, (tier, theta, z) in enumerate(readings)
    ]
    env2 = envelope(tier_scores(base, variants, 2))
    env3 = envelope(tier_scores(base, variants, 3))
    assert env3.lower <= env2.lower <= env2.upper <= env3.upper


@PROPERTY
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
       st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=4, max_size=4),
       st.sampled_from(["PE", "TF"]))
def test_wider_band_or_envelope_never_flips_the_label(bounds, widths, mode):
    # [lo, up] nests in [outer_lo, outer_up]; c <= c_wide on each side
    outer_lo, lo, up, outer_up = sorted(bounds)
    c_lo, c_lo_wide = sorted(widths[:2])
    c_up, c_up_wide = sorted(widths[2:])
    middle = (PE_LABELS if mode == "PE" else TF_LABELS)[1]
    label = classify(lo, up, c_lo, c_up, mode)
    for wider in (classify(lo, up, c_lo_wide, c_up_wide, mode),
                  classify(outer_lo, outer_up, c_lo, c_up, mode),
                  classify(outer_lo, outer_up, c_lo_wide, c_up_wide, mode)):
        # the same label or the middle one, never the opposite point label
        assert wider in (label, middle)


@PROPERTY
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=20))
def test_emit_csv_round_trips_at_six_digits(points):
    artifact = TableArtifact("series", ("t", "value"), [list(p) for p in points],
                             {"seed": 1})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        emit_csv(artifact, path)
        ts, vs = load_series_csv(path)
    assert [v for pair in zip(ts, vs) for v in pair] == [
        float(f"{v:.6g}") for p in points for v in p
    ]
