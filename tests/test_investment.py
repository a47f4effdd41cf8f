import itertools
import math

import numpy as np
import pytest

from debtregime.core import EconState, RegimeParams
from debtregime.errors import DomainError
from debtregime.investment import (
    InvestmentBounds,
    AllocationProblem,
    InvestmentInputs,
    allocate,
    allocate_ascent,
    compute_bounds,
    cumulative_upper_bound,
)
from debtregime.investment import _project_capped_simplex


def baseline_inputs(**kw):
    args = dict(
        state=EconState(b_prev=2.40, r_n=0.022, g_n=0.030, pi=0.027, d=0.020),
        regime=RegimeParams(),
        mu=0.05,
        lam=0.5,
        m=0.0,
    )
    args.update(kw)
    return InvestmentInputs(**args)


class TestComputeBounds:
    def test_baseline_values(self):
        b = compute_bounds(baseline_inputs())
        assert b.x_max_rd == pytest.approx(0.006, abs=1e-12)
        assert b.x_max_safe == pytest.approx(-0.0008, abs=1e-12)
        assert b.x_min_shock == pytest.approx(0.20, abs=1e-12)
        assert b.x_min_demo_lo == pytest.approx(0.10, abs=1e-12)
        assert b.x_min_demo_hi == pytest.approx(0.16, abs=1e-12)
        assert b.x_min_static == pytest.approx(0.0066667, abs=1e-6)
        assert b.x_max_arith == pytest.approx(-0.0008, abs=1e-12)

    def test_operational_composition(self):
        b = compute_bounds(baseline_inputs())
        uppers = [b.x_max_arith, b.x_max_safe]
        if b.x_max_rd is not None:
            uppers.append(b.x_max_rd)
        assert b.x_max_operational == min(uppers)
        assert b.x_min_operational == max(b.x_min_static, b.x_min_shock, b.x_min_demo_hi)
        assert not b.feasible  # baseline corridor is closed

    def test_rd_absent_when_bias_reversed(self):
        inp = baseline_inputs(regime=RegimeParams(epsilon=-0.0081))
        b = compute_bounds(inp)
        assert b.x_max_rd is None

    def test_safe_bound_monotonicity(self):
        base = compute_bounds(baseline_inputs()).x_max_safe
        up_eps = compute_bounds(
            baseline_inputs(regime=RegimeParams(epsilon=0.006))
        ).x_max_safe
        up_g = compute_bounds(
            baseline_inputs(regime=RegimeParams(g_star=0.031))
        ).x_max_safe
        up_pi = compute_bounds(
            baseline_inputs(state=EconState(2.40, 0.022, 0.030, 0.028, 0.020))
        ).x_max_safe
        up_m = compute_bounds(baseline_inputs(m=0.001)).x_max_safe
        assert up_eps > base and up_g > base
        assert up_pi < base and up_m < base

    def test_lower_bounds_decreasing_in_mu(self):
        lo = compute_bounds(baseline_inputs(mu=0.05))
        hi = compute_bounds(baseline_inputs(mu=0.08))
        assert hi.x_min_shock < lo.x_min_shock
        assert hi.x_min_demo_hi < lo.x_min_demo_hi

    def test_substitutability_pass_through(self):
        c = 0.004
        base = compute_bounds(baseline_inputs()).x_max_safe
        shifted = compute_bounds(
            baseline_inputs(regime=RegimeParams(g_star=0.030 + c))
        ).x_max_safe
        assert shifted - base == pytest.approx(c * 2.40, abs=1e-12)

    def test_bad_mu_rejected(self):
        with pytest.raises(DomainError):
            baseline_inputs(mu=0.0)

    @pytest.mark.parametrize("kw", [{"mu": math.nan}, {"lam": math.nan}, {"m": math.nan},
                                    {"delta_bar": math.inf}, {"shock_size": -math.inf},
                                    {"delta_demo": (0.005, math.nan)}])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(DomainError, match="finite"):
            baseline_inputs(**kw)


class TestCumulativeUpperBound:
    def test_three_identical_periods(self):
        inp = baseline_inputs(delta_bar=0.02)  # lift the arithmetic bound
        b = compute_bounds(inp)
        assert b.x_max_rd == pytest.approx(0.006, abs=1e-12)
        # make the dividend bound the binding one
        lifted = compute_bounds(
            baseline_inputs(delta_bar=0.05, m=-0.0, regime=RegimeParams(g_star=0.04))
        )
        assert min(lifted.x_max_arith, lifted.x_max_rd, lifted.x_max_safe) == pytest.approx(
            0.006, abs=1e-12
        )
        total = cumulative_upper_bound([lifted, lifted, lifted], 3.0)
        assert total == pytest.approx(0.018, abs=1e-12)

    def test_fractional_window_floors(self):
        b = compute_bounds(baseline_inputs())
        assert cumulative_upper_bound([b], 0.9) == 0.0

    def test_negative_periods_contribute_zero(self):
        b = compute_bounds(baseline_inputs())  # all uppers <= 0 at baseline
        assert cumulative_upper_bound([b, b, b], 3.0) == 0.0

    def test_inactive_rd_does_not_constrain(self):
        inp = baseline_inputs(
            regime=RegimeParams(epsilon=-0.001, g_star=0.05), delta_bar=0.05
        )
        b = compute_bounds(inp)
        assert b.x_max_rd is None
        expected = max(0.0, min(b.x_max_arith, b.x_max_safe))
        assert cumulative_upper_bound([b], 1.0) == pytest.approx(expected, abs=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            cumulative_upper_bound([], 1.0)

    @pytest.mark.parametrize("T_star", [-1.0, -0.5, -math.inf, math.nan])
    def test_negative_or_nan_window_rejected(self, T_star):
        # five periods of 0.01..0.05: a slice by T_star = -1 would sum all but
        # the last (0.10 of 0.15), and NaN would pass as "every period"
        periods = [InvestmentBounds(x, None, x, x, 0.0, 0.0, 0.0, 0.0, 0.0, True)
                   for x in (0.01, 0.02, 0.03, 0.04, 0.05)]
        assert cumulative_upper_bound(periods, math.inf) == pytest.approx(0.15, abs=1e-15)
        assert cumulative_upper_bound(periods, 0.0) == 0.0
        with pytest.raises(DomainError, match="T_star"):
            cumulative_upper_bound(periods, T_star)


def brute_force_grid(problem, resolution):
    """Independent exhaustive search used as the optimality oracle."""
    levels = np.linspace(0.0, problem.budget, resolution + 1)
    best, best_val = None, -math.inf
    for combo in itertools.product(levels, repeat=problem.n_sectors):
        if sum(combo) > problem.budget + 1e-15:
            continue
        val = problem.objective(combo)
        if val > best_val + 1e-15:
            best, best_val = combo, val
    return best, best_val


class TestAllocate:
    def test_single_sector_full_budget(self):
        problem = AllocationProblem(mu_j=(0.05,), budget=0.01)
        out = allocate(problem)
        assert out["allocation"] == pytest.approx([0.01], abs=1e-15)
        assert out["objective"] == pytest.approx(0.0005, abs=1e-12)

    def test_flat_optimum_lexicographic_tie_break(self):
        problem = AllocationProblem(
            mu_j=(0.05, 0.05),
            gamma_jk=((0.0, 0.0), (0.0, 0.0)),
            budget=0.01,
        )
        out = allocate(problem, grid_resolution=20)
        assert out["objective"] == pytest.approx(0.0005, abs=1e-12)
        assert out["allocation"] == pytest.approx([0.0, 0.01], abs=1e-15)

    def test_complementarity_prefers_equal_split(self):
        problem = AllocationProblem(
            mu_j=(0.05, 0.05),
            gamma_jk=((0.0, 0.1), (0.0, 0.0)),
            budget=0.01,
        )
        out = allocate(problem, grid_resolution=20)
        assert out["allocation"] == pytest.approx([0.005, 0.005], abs=1e-12)
        oracle, oracle_val = brute_force_grid(problem, 20)
        assert out["objective"] == pytest.approx(oracle_val, abs=1e-15)

    def test_ascent_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(314159)
        for _ in range(100):
            J = int(rng.integers(1, 4))
            mu = tuple(rng.uniform(0.01, 0.10, J))
            gamma = [[0.0] * J for _ in range(J)]
            for j in range(J):
                for k in range(j + 1, J):
                    gamma[j][k] = float(rng.uniform(0.0, 0.2))
            problem = AllocationProblem(
                mu_j=mu,
                gamma_jk=tuple(tuple(row) for row in gamma),
                budget=float(rng.uniform(0.005, 0.02)),
            )
            grid = allocate(problem, grid_resolution=40)
            ascent = allocate_ascent(problem)
            assert abs(ascent["objective"] - grid["objective"]) <= 1e-6

    def test_feasibility_of_returned_allocation(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            J = int(rng.integers(1, 6))
            mu = tuple(rng.uniform(0.01, 0.10, J))
            problem = AllocationProblem(mu_j=mu, budget=float(rng.uniform(0.001, 0.05)))
            out = allocate(problem, grid_resolution=20)
            x = np.asarray(out["allocation"])
            assert np.all(x >= 0.0)
            assert x.sum() <= problem.budget + 1e-12

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            AllocationProblem(mu_j=(0.05,), budget=-0.01)

    @pytest.mark.parametrize("J", [1, 2, 3])
    @pytest.mark.parametrize("resolution", [10, 20, 40, 60])
    def test_grid_equals_product_loop(self, J, resolution):
        # random problems, and tie-heavy ones (equal mu, no interaction:
        # every point on the budget face attains the maximum)
        rng = np.random.default_rng(1000 * J + resolution)
        n_random = 3 if J < 3 or resolution <= 20 else 1
        problems = [
            AllocationProblem(
                mu_j=tuple(rng.uniform(-0.02, 0.08, J)),
                gamma_jk=tuple(tuple(rng.uniform(-2.0, 2.0) if k > j else 0.0
                                     for k in range(J)) for j in range(J)),
                budget=float(rng.uniform(0.001, 0.05)),
                base_surplus=float(rng.uniform(-0.001, 0.001)))
            for _ in range(n_random)
        ]
        problems.append(AllocationProblem(mu_j=(0.05,) * J, budget=0.01))
        problems.append(AllocationProblem(mu_j=(0.03,) * J, budget=float(rng.uniform(0.005, 0.02))))
        for problem in problems:
            best, best_val = brute_force_grid(problem, resolution)
            out = allocate(problem, grid_resolution=resolution)
            assert repr(out) == repr({"allocation": list(best), "objective": best_val})

    def test_non_finite_rejected(self):
        for kw in ({"mu_j": (0.05, math.nan)}, {"mu_j": (0.05,), "budget": math.inf},
                   {"mu_j": (0.05,), "base_surplus": math.nan},
                   {"mu_j": (0.05, 0.05), "gamma_jk": ((0.0, math.inf), (0.0, 0.0))}):
            with pytest.raises(DomainError, match="finite"):
                AllocationProblem(**kw)

    def test_base_surplus_passes_through(self):
        problem = AllocationProblem(mu_j=(0.05,), budget=0.01, base_surplus=-0.0003)
        out = allocate(problem)
        assert out["objective"] == pytest.approx(-0.0003 + 0.0005, abs=1e-12)


def _oracle_project(x, budget):
    """The numpy projection the Python-float `_project_capped_simplex` replaced."""
    y = np.maximum(x, 0.0)
    if y.sum() <= budget:
        return y
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - budget
    idx = np.arange(1, len(x) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(x - theta, 0.0)


def _oracle_ascent(problem, start, iters=2000):
    """The numpy `_ascent` the Python-float one replaced."""
    mu = np.asarray(problem.mu_j, dtype=float)
    J = problem.n_sectors
    G = np.zeros((J, J))
    for j in range(J):
        for k in range(j + 1, J):
            G[j, k] = problem.gamma_jk[j][k]
    G = G + G.T
    x = _oracle_project(start.astype(float), problem.budget)
    obj = problem.objective(x)
    step = max(problem.budget, 1e-6)
    for _ in range(iters):
        grad = mu + G @ x
        moved = False
        s = step
        for _ in range(40):
            cand = _oracle_project(x + s * grad, problem.budget)
            cand_obj = problem.objective(cand)
            if cand_obj > obj + 1e-15:
                x, obj, moved = cand, cand_obj, True
                break
            s *= 0.5
        if not moved:
            break
    return x


def oracle_allocate_ascent(problem):
    J = problem.n_sectors
    starts = [np.zeros(J), np.full(J, problem.budget / J)]
    for j in range(J):
        e = np.zeros(J)
        e[j] = problem.budget
        starts.append(e)
    best_x, best_obj = None, -math.inf
    for s in starts:
        x = _oracle_ascent(problem, s)
        val = problem.objective(x)
        if val > best_obj:
            best_x, best_obj = x, val
    return {"allocation": [float(v) for v in best_x], "objective": best_obj}


def ascent_problems(J, rng):
    """Random mixed-sign, crowding-out and tie-heavy problems with J sectors,
    budgets from 1e-4 to 0.5 and a nonzero base surplus."""
    def upper(draw):
        return tuple(tuple(draw() if k > j else 0.0 for k in range(J)) for j in range(J))

    return [
        dict(mu_j=tuple(rng.uniform(-0.02, 0.08, J)),
             gamma_jk=upper(lambda: rng.uniform(-2.0, 2.0)), budget=0.5,
             base_surplus=float(rng.uniform(-0.001, 0.001))),
        dict(mu_j=tuple(rng.uniform(0.02, 0.08, J)),
             gamma_jk=upper(lambda: rng.uniform(-2.0, 0.0)),
             budget=float(10 ** rng.uniform(-4.0, math.log10(0.5)))),
        dict(mu_j=(0.05,) * J, gamma_jk=upper(lambda: float(rng.choice([0.0, -1.0, 0.5]))),
             budget=1e-4, base_surplus=-0.0003),
        dict(mu_j=(0.03,) * J, budget=float(rng.uniform(0.005, 0.03))),
    ]


class TestAscentEqualsNumpyOracle:
    """The Python-float ascent against the numpy ascent it replaced.

    Up to 7 sectors the two do the same IEEE operations in the same order
    (numpy's sum is sequential below 8 terms), so results must match to the
    last bit.  From 8 terms numpy's sum unrolls 8 ways, so for J = 8..10 the
    result need only be feasible and within 1e-12 of the oracle's objective.
    """

    @pytest.mark.parametrize("J", range(1, 8))
    def test_repr_equal(self, J):
        rng = np.random.default_rng(4000 + J)
        for kw in ascent_problems(J, rng):
            want = oracle_allocate_ascent(AllocationProblem(**kw))
            # mu_j as np.float64 and as Python float
            for mu in (tuple(np.float64(m) for m in kw["mu_j"]),
                       tuple(float(m) for m in kw["mu_j"])):
                problem = AllocationProblem(**{**kw, "mu_j": mu})
                got = allocate_ascent(problem)
                assert repr(got) == repr(want)
                if J > 3:
                    assert repr(allocate(problem)) == repr(want)

    def test_projection_repr_equal(self):
        # random points, and points on the budget face, where the feasibility
        # test turns on the last bit of the sum
        rng = np.random.default_rng(6000)
        for _ in range(2000):
            J = int(rng.integers(1, 8))
            budget = float(10 ** rng.uniform(-4.0, math.log10(0.5)))
            x = (rng.uniform(-1.0, 1.0, J) * budget * 3.0).tolist()
            on_face = _oracle_project(np.array(x), budget).tolist()
            for point in (x, on_face, [v * (1.0 + 1e-15) for v in on_face]):
                want = _oracle_project(np.array(point), budget).tolist()
                assert repr(_project_capped_simplex(point, budget)) == repr(want)

    @pytest.mark.parametrize("J", [8, 9, 10])
    def test_large_j_within_tolerance(self, J):
        rng = np.random.default_rng(5000 + J)
        for kw in ascent_problems(J, rng)[:2]:
            problem = AllocationProblem(**kw)
            want = oracle_allocate_ascent(problem)
            got = allocate(problem)
            x = got["allocation"]
            assert min(x) >= 0.0 and sum(x) <= problem.budget + 1e-12
            assert abs(got["objective"] - want["objective"]) <= 1e-12

    def test_zero_budget_ascent_returns_zero(self):
        # the numpy projection found no qualifying index at budget 0 and
        # raised IndexError
        problem = AllocationProblem(mu_j=(0.05,) * 4, budget=0.0)
        assert repr(allocate_ascent(problem)) == repr(
            {"allocation": [0.0] * 4, "objective": np.float64(0.0)})

    def test_coefficients_stored_as_floats(self):
        problem = AllocationProblem(mu_j=np.array([0.05, 0.03]),
                                    gamma_jk=np.array([[0.0, -1.0], [0.0, 0.0]]))
        assert problem.mu_j == (0.05, 0.03)
        assert problem.gamma_jk == ((0.0, -1.0), (0.0, 0.0))
        assert all(type(v) is float for v in problem.mu_j + sum(problem.gamma_jk, ()))
