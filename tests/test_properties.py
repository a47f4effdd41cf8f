"""Property tests of the closure's array kernels against the scalar
definitions, and of the allocation ascent's capped-simplex projection."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from debtregime.closure import (
    _premium_on_grid,
    MarginDistribution,
    TwoLayerParams,
    demand_at,
)
from debtregime.investment import _project_capped_simplex

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
@given(margins(), st.floats(0.05, 1.0), st.floats(0.001, 0.05), st.floats(0.0, 1.0))
def test_premium_grid_complementarity(margin, psi, z, phi_req):
    dist, c_bar = margin
    p = TwoLayerParams(psi=psi, z=z, c_bar=c_bar, phi_req=phi_req, dist=dist)
    thetas = np.arange(201) / 200
    for theta, rho in zip(thetas.tolist(), _premium_on_grid(p, thetas).tolist()):
        q = p.with_theta(theta)
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
