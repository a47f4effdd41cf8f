"""Property tests of the closure's array kernels against the scalar
definitions, the premium solvers against each other, the band and envelope
invariants of the inference layer, the CSV round trip, the exact allocation
against random feasible points, and the preservation claims: the
bounded debt shock's envelope, the fiscal response's Lipschitz bound, and
demand's monotonicity with the premium case it implies; and the Monte Carlo's
core-share walk against the per-replication scalar recursion."""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from debtregime.closure import (
    _premium_on_grid,
    MarginDistribution,
    TwoLayerParams,
    demand_at,
    demand_derivative,
    solve_premium,
)
from debtregime.core import (
    EconState,
    FiscalResponse,
    effective_deficit,
    step_debt_stochastic,
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
from debtregime.investment import AllocationProblem, allocate_ascent
from debtregime.montecarlo import MCConfig, _labels, simulate_pe_paths
from debtregime.scenario import load_series_csv
from debtregime.tables import TableArtifact, emit_csv
from test_closure import interval_bisection
from test_investment import objective_scale
from test_montecarlo import PATH_KEYS, _simulate_reference

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
    rhos = _premium_on_grid(p, thetas, zs)[0].tolist()
    for theta, z, rho in zip(thetas.tolist(), zs.tolist(), rhos):
        q = replace(p, theta=theta, z=z)
        if math.isnan(rho):  # case d: even the full premium z cannot fill the gap
            assert phi_req > demand_at(z, q)
            continue
        gap = demand_at(rho, q) - phi_req
        assert 0.0 <= rho <= z
        assert gap >= -1e-10
        assert abs(rho * gap) <= 1e-10


@st.composite
def allocations(draw):
    """(problem, points): 1-6 sectors, returns and interactions of either sign
    (zero often), and up to 5 feasible points, on and inside the budget face."""
    J = draw(st.integers(1, 6))
    coef = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    problem = AllocationProblem(
        mu_j=tuple(draw(st.lists(st.floats(-0.05, 0.1), min_size=J, max_size=J))),
        gamma_jk=tuple(tuple(draw(coef) if k > j else 0.0 for k in range(J)) for j in range(J)),
        budget=draw(st.floats(0.0, 0.5)), base_surplus=draw(st.floats(-1e-3, 1e-3)))
    points = []
    for _ in range(draw(st.integers(1, 5))):
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=J, max_size=J))
        share = draw(st.sampled_from([1.0, 0.5])) * problem.budget / max(math.fsum(w), 1e-300)
        points.append([v * share for v in w])
    return problem, points


@PROPERTY
@given(allocations())
def test_exact_allocation_beats_feasible_points(case):
    problem, points = case
    best = allocate_ascent(problem)["objective"]
    for x in points:
        assert best >= problem.objective(x) - 1e-15 * objective_scale(problem)


@PROPERTY
@given(st.floats(0.0, 0.99), st.floats(0.05, 1.0), st.floats(0.001, 0.05),
       st.floats(0.005, 0.1), st.floats(0.0, 1.0))
def test_closed_form_agrees_with_bisection(theta, psi, z, c_bar, phi_req):
    # the uniform margin written as the two-knot table goes through the
    # knot-segment solve; the interval bisection stops at a demand residual of
    # 1e-12, a premium error of at most 1e-12 * psi * c_bar / (1 - theta) <=
    # 1e-11 on this domain
    p = TwoLayerParams(theta=theta, psi=psi, z=z, c_bar=c_bar, phi_req=phi_req)
    table = replace(p, dist=MarginDistribution(kind="table", knots=((0.0, 0.0), (c_bar, 1.0))))
    closed, segment = solve_premium(p), solve_premium(table)
    assert closed.case == segment.case
    if closed.case == "c_stress":
        assert abs(closed.rho - segment.rho) <= 1e-10
        assert abs(closed.rho - interval_bisection(p)) <= 1e-10
    else:
        assert closed.rho == segment.rho


@st.composite
def case_c_tables(draw):
    """A case-c state on a table margin of 2-6 knots, with the segment solve's
    edge cases: an atom G(0) > 0, a first knot offset up to 1e-15 from 0, a
    last knot 1e-12 below c_bar, a last knot value 5e-13 below 1, a segment
    1e-14 wide (steep: one ulp of rho moves demand by up to about 1e-4), and
    phi_req = dmax (rho = z), a root on the steep segment, or G* above the
    last knot value (the jump to 1 past the last knot)."""
    c_bar = draw(st.floats(0.005, 0.1))
    n = draw(st.integers(2, 6))
    weights = st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1)
    dc, dg = np.cumsum(draw(weights)), np.cumsum(draw(weights))
    g_first = draw(st.sampled_from([0.0, 0.0, 0.2]))
    c_first = draw(st.sampled_from([0.0, 0.0, 1e-16, 1e-15]))
    c_last = c_bar - draw(st.sampled_from([0.0, 1e-12]))
    if c_bar - c_last > 1e-12:  # rounding took it past the 1e-12 the knots allow
        c_last = math.nextafter(c_last, c_bar)
    cs = [c_first] + (c_first + (c_last - c_first) * dc[:-1] / dc[-1]).tolist() + [c_last]
    g_last = draw(st.sampled_from([1.0, 1.0, 1.0 - 5e-13]))
    gs = [g_first] + (g_first + (1.0 - g_first) * dg[:-1] / dg[-1]).tolist() + [g_last]
    steep = draw(st.none() | st.integers(0, n - 2))  # the knot a steep segment starts at
    if steep is not None:
        cs.insert(steep + 1, cs[steep] + 1e-14)
        gs.insert(steep + 1, 0.5 * (gs[steep] + gs[steep + 1]))
    dist = MarginDistribution(kind="table", knots=tuple(zip(cs, gs)))
    targets = ["between", "dmax"] + (["steep"] if steep is not None else ["between"])
    target = draw(st.sampled_from(targets + (["top"] if g_last < 1.0 else [])))
    theta, psi = draw(st.floats(0.0, 0.99)), draw(st.floats(0.05, 1.0))
    reach = draw(st.floats(1.0 if target == "top" else 0.05, 1.5))  # z/psi over c_bar
    p = TwoLayerParams(theta=theta, psi=psi, z=psi * c_bar * reach, c_bar=c_bar, dist=dist)
    if target in ("steep", "top"):  # G* = (1 - phi_req)/(1 - theta) on that stretch
        lo, hi = (gs[steep], gs[steep + 1]) if target == "steep" else (g_last, 1.0)
        phi_req = 1.0 - (1.0 - theta) * (lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    else:
        d0, dmax = demand_at(0.0, p), demand_at(p.z, p)
        phi_req = dmax if target == "dmax" else d0 + draw(st.floats(0.0, 1.0)) * (dmax - d0)
    p = replace(p, phi_req=min(max(phi_req, 0.0), 1.0))
    assume(demand_at(0.0, p) < p.phi_req <= demand_at(p.z, p))
    return p


@PROPERTY
@given(case_c_tables())
def test_table_premium_is_the_segment_root(p):
    # the knot-segment solve on a case-c table: the scalar and array paths
    # agree by repr; demand meets phi_req to within a few ulps, plus what one
    # ulp of rho moves it by and the jump of G to 1 past a last knot value
    # below 1; there rho lies within 1e-12 / slope (plus two ulps of rho) of
    # the interval bisection's answer; otherwise the steep-segment rule took
    # the segment's upper premium end, where demand is weakly above phi_req
    sol = solve_premium(p)
    rho = sol.rho
    assert sol.case == "c_stress" and type(rho) is float and 0.0 <= rho <= p.z
    thetas = np.array([p.theta, 1.0, p.theta])
    got = _premium_on_grid(p, thetas, p.z)[0].tolist()
    assert repr(got) == repr([rho, solve_premium(p.with_theta(1.0)).rho, rho])

    cs, gs = zip(*p.dist.knots)
    slopes = [(g1 - g0) / (c1 - c0) for c0, c1, g0, g1 in zip(cs, cs[1:], gs, gs[1:])]
    d_max = (1.0 - p.theta) * max(slopes) / p.psi  # the steepest demand slope in rho
    jump = (1.0 - p.theta) * (1.0 - gs[-1])  # where G jumps to 1 past the last knot
    gap = demand_at(rho, p) - p.phi_req
    if abs(gap) <= 4 * math.ulp(1.0) + d_max * 2 * math.ulp(p.z) + jump:
        slope = min(demand_derivative(r, p) for r in (rho, interval_bisection(p)))
        if slope > 0.0:
            assert abs(rho - interval_bisection(p)) <= 1e-12 / slope + 2 * math.ulp(p.z)
    else:  # the steep segment's upper premium end z - psi*c0
        assert gap >= 0.0
        assert rho in [min(max(p.z - p.psi * c, 0.0), p.z) for c in cs]


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


# a small pool makes exact ties (lower - c_lower == 0, upper + c_upper == 0)
# and inf - inf frequent; any float, NaN and infinities included, fills in
LABEL_INPUTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.inf, -math.inf, math.nan]),
    st.floats(),
)


@PROPERTY
@given(hnp.mutually_broadcastable_shapes(num_shapes=4, max_dims=3, max_side=3),
       st.sampled_from(["PE", "TF"]), st.data())
def test_label_codes_index_the_scalar_labels(shapes, mode, data):
    # lower, upper, c_lower, c_upper broadcast together; the code of each
    # element indexes the label `classify` gives it
    arrays = [data.draw(hnp.arrays(np.float64, shape, elements=LABEL_INPUTS))
              for shape in shapes.input_shapes]
    codes = _labels(*arrays, mode)
    assert codes.shape == shapes.result_shape
    labels = PE_LABELS if mode == "PE" else TF_LABELS
    for idx, args in zip(np.ndindex(*codes.shape),
                         zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*arrays)))):
        assert labels[codes[idx]] == classify(*args, mode), (idx, args)


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


@PROPERTY
@given(st.floats(0.01, 5.0), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
       st.floats(-0.1, 0.1), st.floats(0.0, 0.5), st.floats(-1.0, 1.0))
def test_debt_shock_stays_between_its_extreme_shocks(b_prev, r_n, g_n, d, sigma, eta):
    # b' is increasing in eta and every rounding step is monotone, so the
    # bound holds exactly
    state = EconState(b_prev=b_prev, r_n=r_n, g_n=g_n, pi=0.02, d=d)
    low, high = (step_debt_stochastic(state, sigma, e) for e in (-1.0, 1.0))
    assert low <= step_debt_stochastic(state, sigma, eta) <= high


@st.composite
def fiscal_responses(draw):
    """A FiscalResponse in each mode; a general table has 1-8 knots at
    least 0.01 apart in b, given in a shuffled order."""
    mode = draw(st.sampled_from(["constant", "deficit_relief", "general"]))
    if mode != "general":
        return FiscalResponse(mode=mode, d0=draw(st.floats(-0.1, 0.1)),
                              gamma=draw(st.floats(0.0, 0.5)), b_ref=draw(st.floats(0.5, 3.0)))
    n = draw(st.integers(1, 8))
    bs = draw(st.floats(0.1, 1.0)) + np.cumsum(draw(st.lists(
        st.floats(0.01, 1.0), min_size=n, max_size=n)))
    ds = draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    table = draw(st.permutations(list(zip(bs.tolist(), ds))))
    return FiscalResponse(mode=mode, table=table)


@PROPERTY
@given(fiscal_responses(), st.floats(0.01, 10.0), st.floats(0.01, 10.0))
def test_fiscal_response_within_its_lipschitz_constant(fr, b1, b2):
    # slopes are at most 0.2 / 0.01, so rounding stays far below 1e-12
    gap = abs(effective_deficit(fr, b1) - effective_deficit(fr, b2))
    assert gap <= fr.lipschitz_constant() * abs(b1 - b2) + 1e-12


def _subsample_reference(remainder, cfg):
    """The band kernel as it was before it selected one block sum: every
    row's block deviations, each block summed along the row, are sorted and
    the selected one is kept."""
    r = np.asarray(remainder, dtype=float)
    h = cfg.window_h
    window = np.ascontiguousarray(r[..., -h:])
    ell = cfg.block_len
    tau = window.mean(axis=-1)
    n_blocks = h - ell + 1
    if n_blocks < 5:
        half = np.max(np.abs(window - tau[..., None]), axis=-1)
    else:
        block_sums = window[..., :n_blocks]
        for j in range(1, ell):
            block_sums = block_sums + window[..., j : j + n_blocks]
        devs = math.sqrt(ell) * (block_sums / ell - tau[..., None])
        k = math.ceil((1.0 - cfg.alpha) * n_blocks)
        q = np.sort(devs, axis=-1)[..., min(max(k, 1), n_blocks) - 1]
        half = np.maximum(0.0, q / math.sqrt(h))
    return float(half) if r.ndim == 1 else half


@st.composite
def band_inputs(draw):
    """(remainder, SubsampleConfig): a 1-D series, a [a, b, n] batch or, as
    `infer` passes it, the non-contiguous sliding-window view [2, m, h] of two
    series; values from a small pool (ties, +-0.0) or any float of moderate
    size, or one value repeated everywhere (all-equal windows).  No
    subnormals: where a block sum underflows s / l to zero, the sign of the
    old kernel's selected zero followed its sort's tie order."""
    h = draw(st.integers(4, 30))
    cfg = SubsampleConfig(window_h=h, block_len=draw(st.integers(3, h - 1)),
                          alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    layout = draw(st.sampled_from(["1-D", "batched", "sliding"]))
    n = h + draw(st.integers(0, 8))
    shape = {"1-D": (n,), "batched": (draw(st.integers(1, 3)), draw(st.integers(1, 4)), n),
             "sliding": (2, n)}[layout]
    values = st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0]) | st.floats(
        -1e3, 1e3, allow_subnormal=False)
    if draw(st.booleans()):
        r = np.full(shape, draw(values))
    else:
        r = draw(hnp.arrays(np.float64, shape, elements=values))
    if layout == "sliding":
        r = sliding_window_view(r, h, axis=-1)
    return r, cfg


@PROPERTY
@given(band_inputs())
def test_band_kernel_equals_the_sorted_deviations(case):
    # the kernel sorts the block sums and maps the selected one, because the
    # deviation is nondecreasing in the block sum; the bytes must be those of
    # sorting every deviation
    r, cfg = case
    got, want = subsample_critical_value(r, cfg), _subsample_reference(r, cfg)
    assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@PROPERTY
@given(margins(), st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.floats(0.001, 0.05),
       st.just(1.0) | st.floats(0.0, 1.0), st.sampled_from([None, 0.0, 1.0]),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30))
def test_demand_rises_with_the_premium_and_fixes_the_case(margin, theta, psi, z,
                                                           phi_req, pin, fractions):
    # `pin` sets phi_req to demand at premium 0 (the knife edge) or at z;
    # phi_req = 1 above a margin's atom G(0) > 0 is a hard failure
    dist, c_bar = margin
    p = TwoLayerParams(theta=theta, psi=psi, z=z, c_bar=c_bar, phi_req=phi_req, dist=dist)
    if pin is not None:
        p = replace(p, phi_req=demand_at(pin * z, p))
    demands = [demand_at(z * f, p) for f in [0.0] + sorted(fractions) + [1.0]]
    # a knot value can round one ulp differently from its two segments
    assert all(b >= a - 1e-15 for a, b in zip(demands, demands[1:]))
    d0, dmax = demand_at(0.0, p), demand_at(z, p)
    want = ("a_interior" if d0 > p.phi_req else "b_boundary" if d0 == p.phi_req
            else "c_stress" if p.phi_req <= dmax else "d_hard_failure")
    sol = solve_premium(p)
    assert sol.case == want
    assert (sol.phi_d_at_zero, sol.phi_d_max) == (d0, dmax)


@PROPERTY
@given(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0),
       st.just(0.0) | st.floats(0.0, 0.2), st.floats(-0.99, 0.99),
       st.integers(0, 2**64 - 1), st.integers(24, 60),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
def test_core_share_walk_equals_the_scalar_recursion(theta0, sd_theta, rho_theta, seed, T,
                                                      reps):
    # the reduced-form walk is a cumulative sum until a clamp binds in any of
    # the call's replications, then the clamp recursion; each row equals the
    # per-replication scalar loop byte for byte
    cfg = MCConfig(seed=seed, n_reps=len(reps), T=T, evaluation_horizons=(3.8,),
                   theta0=theta0, sd_theta=sd_theta, rho_theta=rho_theta)
    paths = simulate_pe_paths(cfg, reps)
    for i, rep in enumerate(reps):
        want = _simulate_reference(cfg, rep)
        for key in PATH_KEYS:
            assert paths[key][i].tobytes() == want[key].tobytes(), (rep, key)
