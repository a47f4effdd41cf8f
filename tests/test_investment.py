import itertools
import math
import os
import sys
import warnings

import numpy as np
import pytest

from debtregime.core import EconState, RegimeParams
from debtregime.errors import DomainError
from debtregime.investment import (
    InvestmentBounds,
    AllocationProblem,
    InvestmentInputs,
    _solve,
    allocate,
    allocate_ascent,
    compute_bounds,
    cumulative_upper_bound,
)


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


def objective_scale(problem):
    """A bound on the magnitude of every term of the objective on the
    feasible set, the scale of its rounding error."""
    B = problem.budget
    return (abs(problem.base_surplus) + B * sum(abs(m) for m in problem.mu_j)
            + B * B * sum(abs(g) for row in problem.gamma_jk for g in row))


def assert_kkt(problem, x):
    """Check x against the KKT conditions of max f(x) s.t. x >= 0, sum(x) <=
    budget: a multiplier lam >= 0, zero unless the budget binds, equals the
    gradient on the support and bounds it off the support."""
    J, B = problem.n_sectors, problem.budget
    assert len(x) == J and min(x) >= 0.0 and math.fsum(x) <= B * (1.0 + 1e-15)
    H = np.triu(np.array(problem.gamma_jk), 1)
    grad = np.array(problem.mu_j) + (H + H.T).dot(np.array(x))
    tol = 1e-9 * (max(map(abs, problem.mu_j)) + B * np.abs(H).max(initial=0.0))
    support = np.array(x) > 0.0
    tight = math.fsum(x) >= B * (1.0 - 1e-12) and B > 0.0
    lam = grad[support].max(initial=0.0) if tight else 0.0
    assert lam >= -tol
    assert np.all(np.abs(grad[support] - lam) <= tol)
    assert np.all(grad[~support] <= lam + tol)


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
        # the exact solution is at least the best point of a fine grid (whose
        # points may overshoot the budget by 1e-15), and not far above it
        rng = np.random.default_rng(314159)
        for i in range(24):
            J = 1 + i % 3
            mu = tuple(rng.uniform(0.01, 0.10, J))
            gamma = [[0.0] * J for _ in range(J)]
            for j in range(J):
                for k in range(j + 1, J):
                    gamma[j][k] = float(rng.uniform(-0.2, 0.2))
            problem = AllocationProblem(
                mu_j=mu,
                gamma_jk=tuple(tuple(row) for row in gamma),
                budget=float(rng.uniform(0.005, 0.02)),
            )
            grid = allocate(problem, grid_resolution=200)
            ascent = allocate_ascent(problem)
            assert ascent["objective"] >= grid["objective"] - 1e-15 * objective_scale(problem)
            assert ascent["objective"] - grid["objective"] <= 1e-6

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
        # budgets below the absolute 1e-15 slack: points up to budget + 1e-15
        # count, beyond the index simplex (at 1e-16 the whole cube)
        tiny = (1e-16, 1e-15, 1e-14, 1e-13) if J < 3 or resolution <= 20 else (1e-16, 1e-14)
        problems += [
            AllocationProblem(mu_j=tuple(rng.uniform(-0.02, 0.08, J)), budget=budget,
                              gamma_jk=tuple(tuple(rng.uniform(-2.0, 2.0) if k > j else 0.0
                                                   for k in range(J)) for j in range(J)))
            for budget in tiny
        ]
        for problem in problems:
            best, best_val = brute_force_grid(problem, resolution)
            out = allocate(problem, grid_resolution=resolution)
            assert repr(out) == repr({"allocation": list(best), "objective": best_val})

    @pytest.mark.parametrize("J, resolution, budget", [
        (2, 10, 7024.716), (2, 20, 6337.0), (3, 10, 2045.6), (3, 20, 142.093),
        (2, 10, 2635.77), (2, 20, 52.82), (3, 10, 6428.61), (3, 20, 59.04),
    ])
    def test_grid_sum_test_where_the_level_search_misses(self, J, resolution, budget):
        # budgets above 1 where the slack is below one ulp: the search on
        # budget + 1e-15 - lead misses a level of some leading cell by one
        # (too few in the first four cases, too many in the last four), and
        # the kept points must still be exactly those of the sum test
        rng = np.random.default_rng(J * resolution)
        for mu in ((0.05,) * J, tuple(rng.uniform(-0.02, 0.08, J)), (-0.01,) * (J - 1) + (0.05,)):
            problem = AllocationProblem(mu_j=mu, budget=budget)
            best, best_val = brute_force_grid(problem, resolution)
            out = allocate(problem, grid_resolution=resolution)
            assert repr(out) == repr({"allocation": list(best), "objective": best_val})

    def test_non_finite_rejected(self):
        for kw in ({"mu_j": (0.05, math.nan)}, {"mu_j": (0.05,), "budget": math.inf},
                   {"mu_j": (0.05,), "base_surplus": math.nan},
                   {"mu_j": (0.05, 0.05), "gamma_jk": ((0.0, math.inf), (0.0, 0.0))}):
            with pytest.raises(DomainError, match="finite"):
                AllocationProblem(**kw)

    def test_overflowing_objective_rejected(self):
        # finite coefficients whose objective overflows at a finite budget:
        # the J = 3 grid, the J = 4 face walk and allocate_ascent raise, and
        # no numpy warning escapes; a budget whose grid sums overflow but
        # whose objective does not still solves
        g3 = ((0.0, 1.0, -1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
        g4 = tuple(tuple((1.0 if (j + k) % 2 else -1.0) if k > j else 0.0 for k in range(4))
                   for j in range(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for problem in (AllocationProblem(mu_j=(0.05, 0.03, 0.04), gamma_jk=g3, budget=1e200),
                            AllocationProblem(mu_j=(0.05, 0.03, 0.04, 0.02), gamma_jk=g4,
                                              budget=1e200)):
                for solve in (allocate, allocate_ascent):
                    with pytest.raises(DomainError, match="objective is not finite"):
                        solve(problem)
            problem = AllocationProblem(mu_j=(0.05, 0.03, 0.04), budget=1.7e308)
            for solve in (allocate, allocate_ascent):
                out = solve(problem)
                assert out["allocation"] == [1.7e308, 0.0, 0.0]
                assert out["objective"] == 0.05 * 1.7e308

    def test_base_surplus_passes_through(self):
        problem = AllocationProblem(mu_j=(0.05,), budget=0.01, base_surplus=-0.0003)
        out = allocate(problem)
        assert out["objective"] == pytest.approx(-0.0003 + 0.0005, abs=1e-12)


def _oracle_project(x, budget):
    """Euclidean projection onto {x >= 0, sum(x) <= budget} (the sort
    algorithm of Duchi et al., ICML 2008)."""
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
    """Projected gradient ascent with backtracking from one start: the
    heuristic the exact face enumeration replaced, kept as an oracle."""
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
    """The exact face enumeration (`allocate_ascent`) against the numpy
    multi-start ascent kept as an oracle.  The ascent is a local method, so
    the exact objective must be at least the oracle's, up to rounding of
    1e-15 of the objective's scale; and the exact result must be the same,
    bit for bit, for numpy and Python-float coefficients and through
    `allocate`."""

    @pytest.mark.parametrize("J", range(1, 8))
    def test_repr_equal(self, J):
        rng = np.random.default_rng(4000 + J)
        for kw in ascent_problems(J, rng):
            want = oracle_allocate_ascent(AllocationProblem(**kw))
            # mu_j as np.float64 and as Python float
            results = set()
            for mu in (tuple(np.float64(m) for m in kw["mu_j"]),
                       tuple(float(m) for m in kw["mu_j"])):
                problem = AllocationProblem(**{**kw, "mu_j": mu})
                got = allocate_ascent(problem)
                results.add(repr(got))
                if J > 3:
                    results.add(repr(allocate(problem)))
            assert len(results) == 1
            assert got["objective"] >= want["objective"] - 1e-15 * objective_scale(problem)

    @pytest.mark.parametrize("J", [8, 9, 10])
    def test_large_j_within_tolerance(self, J):
        rng = np.random.default_rng(5000 + J)
        for kw in ascent_problems(J, rng)[:2]:
            problem = AllocationProblem(**kw)
            want = oracle_allocate_ascent(problem)
            got = allocate(problem)
            x = got["allocation"]
            assert min(x) >= 0.0 and sum(x) <= problem.budget + 1e-12
            assert got["objective"] >= want["objective"] - 1e-15 * objective_scale(problem)

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


def _oracle_solve(a, b):
    """`investment._solve` before it hoisted the pivot row: Gaussian
    elimination on Python floats, pivoting on the first row of largest
    |entry| (found by `max`), None when a pivot is zero; kept as the
    exact-equality oracle of the elimination."""
    n = len(b)
    m = [row + [v] for row, v in zip(a, b)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(m[r][c]))
        if m[p][c] == 0.0:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r][c + 1:] = [u - f * w for u, w in zip(m[r][c + 1:], m[c][c + 1:])]
    x = [0.0] * n
    for c in range(n - 1, -1, -1):
        v = m[c][n]
        for k in range(c + 1, n):
            v -= m[c][k] * x[k]
        x[c] = v / m[c][c]
    return x


def two_system_walk(problem):
    """`allocate_ascent` as it was before it dropped the budget-slack
    systems: each support solves H_SS x_S = -mu_S (kept if every x_S >= 0
    and `math.fsum(x) <= budget`) and then the budget-tight system, kept as
    the oracle that no slack solution decides a result.

    That a walk over the budget-tight systems alone gives the same result
    but for rounding: a maximiser lies in the relative interior of a face
    whose stationarity system is nonsingular, and it is x = 0 or has the
    budget tight.  H (the symmetric gamma) is zero-diagonal, so a
    nonsingular slack system has |S| >= 2 and a trace-0 H_SS with a
    positive eigenvalue, and its solution with every x_S > 0 is a saddle:
    the objective, linear in each x_j, has zero slope in every x_j of S
    there, so setting one to 0 keeps its value, and the smaller faces,
    walked first, reach at least that value.  A slack solution could still
    win the tie where its rounded objective passes an incumbent that sits
    almost 1e-15 below that value; the tests below find no such case.
    """
    J, g, budget = problem.n_sectors, problem.gamma_jk, problem.budget
    best_x = [0.0] * J
    best = problem.objective(best_x)
    for n in range(1, J + 1):
        for S in itertools.combinations(range(J), n):
            H = [[g[min(j, k)][max(j, k)] for k in S] for j in S]
            rhs = [-problem.mu_j[j] for j in S]
            slack = _oracle_solve(H, rhs)
            tight = _oracle_solve([row + [-1.0] for row in H] + [[1.0] * n + [0.0]],
                                  rhs + [budget])
            for sol, cap in ((slack, budget), (tight and tight[:-1], math.inf)):
                if sol is None or not all(v >= 0.0 for v in sol) or math.fsum(sol) > cap:
                    continue
                at = dict(zip(S, sol))
                x = [at.get(j, 0.0) for j in range(J)]
                val = problem.objective(x)
                if val > best + 1e-15:
                    best_x, best = x, val
    return {"allocation": best_x, "objective": np.float64(best)}


def bench_allocation_problems(seed=1):
    """The allocation problems of the benchmark's closure rounds at `seed`
    (`bench/workloads.py::ClosureSolvers`, loaded from its file)."""
    import importlib.util
    import types

    import debtregime

    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(bench, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    dr = types.SimpleNamespace(**{name: getattr(debtregime, name) for name in
                                  ("closure", "core", "investment", "transition")})
    wl = workloads.ClosureSolvers(dr, seed, False, None)
    return [args[0] for specs in wl.rounds for _, module, _, args, _ in specs
            if module == "investment"]


class TestSolveEqualsOracle:
    @pytest.mark.parametrize("J", range(1, 9))
    def test_repr_equal_on_slack_and_bordered_systems(self, J):
        # symmetric zero-diagonal H as the face walk builds it, alone (the
        # slack system) and bordered by the budget row; entries drawn from a
        # few values so |pivot| ties, zero pivots and -0.0 come up often
        rng = np.random.default_rng(8100 + J)
        values = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]

        def draw(n):
            return float(rng.choice(values) if n % 2 else rng.uniform(-2.0, 2.0))

        seen = set()
        for n in range(300):
            H = [[0.0] * J for _ in range(J)]
            for j in range(J):
                for k in range(j + 1, J):
                    H[j][k] = H[k][j] = draw(n)
            rhs = [draw(n) for _ in range(J)]
            for a, b in ((H, rhs), ([row + [-1.0] for row in H] + [[1.0] * J + [0.0]],
                                    rhs + [draw(n)])):
                want = _oracle_solve(a, b)
                assert repr(_solve(a, b)) == repr(want), (a, b)
                seen.add(want is None)
                col = [abs(row[0]) for row in a]
                if col.count(max(col)) > 1:
                    seen.add("tie")
        assert seen == ({True, False, "tie"} if J > 1 else {True, False})

    def test_zero_pivot_and_signed_zeros(self):
        # a zero pivot, also one left by the elimination, gives None; a tie
        # pivots on the first row, and signed zeros come out as the oracle's
        for a, b in (([[0.0]], [1.0]), ([[-0.0, 1.0], [0.0, 1.0]], [1.0, 1.0]),
                     ([[1.0, -1.0], [-1.0, 1.0]], [1.0, -0.0])):
            assert _solve(a, b) is None and _oracle_solve(a, b) is None
        a, b = [[2.0, -0.0], [-2.0, 1.0]], [-0.0, -0.0]
        assert repr(_solve(a, b)) == repr(_oracle_solve(a, b)) == "[-0.0, -0.0]"


class TestExactAllocation:
    @pytest.mark.parametrize("J", range(1, 8))
    def test_tight_faces_equal_the_two_system_walk(self, J):
        rng = np.random.default_rng(9000 + J)
        for kw in ascent_problems(J, rng) + ascent_problems(J, rng):
            problem = AllocationProblem(**kw)
            assert repr(allocate_ascent(problem)) == repr(two_system_walk(problem))

    def test_tight_faces_equal_the_two_system_walk_on_the_bench_problems(self):
        problems = bench_allocation_problems()
        assert len(problems) == 3 * 128
        for problem in problems:
            assert repr(allocate_ascent(problem)) == repr(two_system_walk(problem))

    @pytest.mark.parametrize("J", range(1, 11))
    def test_kkt_certificate(self, J):
        rng = np.random.default_rng(7000 + J)
        for kw in ascent_problems(J, rng):
            problem = AllocationProblem(**kw)
            got = allocate_ascent(problem)
            assert type(got["objective"]) is np.float64
            assert all(type(v) is float for v in got["allocation"])
            assert got["objective"] == problem.objective(got["allocation"])
            assert_kkt(problem, got["allocation"])

    def test_ties_go_to_the_first_face(self):
        # equal returns and no interaction: every point of the budget face is
        # optimal, and the first face of the walk is the vertex on sector 0
        problem = AllocationProblem(mu_j=(0.03,) * 4, budget=0.01)
        assert repr(allocate_ascent(problem)) == repr(
            {"allocation": [0.01, 0.0, 0.0, 0.0], "objective": np.float64(0.0003)})
        # nothing beats x = 0 when every return and interaction is negative
        problem = AllocationProblem(mu_j=(-0.01,) * 4, budget=0.01, base_surplus=0.001,
                                    gamma_jk=tuple(tuple(-1.0 if k > j else 0.0 for k in range(4))
                                                   for j in range(4)))
        assert repr(allocate_ascent(problem)) == repr(
            {"allocation": [0.0] * 4, "objective": np.float64(0.001)})

    def test_interior_optimum_on_the_budget_face(self):
        # complements: the optimum is the equal split on the budget face
        gamma = tuple(tuple(0.05 if k > j else 0.0 for k in range(4)) for j in range(4))
        problem = AllocationProblem(mu_j=(0.05,) * 4, gamma_jk=gamma, budget=0.01)
        got = allocate_ascent(problem)
        assert got["allocation"] == pytest.approx([0.0025] * 4, rel=1e-14)
        # on x0 + x1 = 0.01 the objective is concave with its peak at
        # x0 = (0.01 + 0.01 / 2) / 2; sectors 2 and 3 earn nothing
        gamma = ((0.0, 2.0, 0.0, 0.0),) + ((0.0,) * 4,) * 3
        problem = AllocationProblem(mu_j=(0.05, 0.04, 0.0, 0.0), gamma_jk=gamma, budget=0.01)
        got = allocate_ascent(problem)
        assert got["allocation"] == pytest.approx([0.0075, 0.0025, 0.0, 0.0], rel=1e-14)

    def test_size_cap(self):
        problem = AllocationProblem(mu_j=tuple(0.01 * (1 + j % 5) for j in range(12)), budget=0.01)
        assert allocate(problem)["allocation"] == [0.0, 0.0, 0.0, 0.0, 0.01] + [0.0] * 7
        problem = AllocationProblem(mu_j=(0.05,) * 13, budget=0.01)
        for solve in (allocate, allocate_ascent):
            with pytest.raises(DomainError, match="at most 12 sectors, got 13"):
                solve(problem)

    @pytest.mark.parametrize("gamma, entry", [
        (((0.0, 0.0), (8.0, 0.0)), r"gamma_jk\[1\]\[0\]"),
        (((5.0, 0.0), (0.0, 0.0)), r"gamma_jk\[0\]\[0\]"),
        (((0.0, 1.0), (0.0, -2.0)), r"gamma_jk\[1\]\[1\]"),
    ], ids=["below", "first_diagonal", "last_diagonal"])
    def test_entries_on_or_below_the_diagonal_rejected(self, gamma, entry):
        # the objective reads only j < k, so these entries would be dropped
        with pytest.raises(DomainError, match=entry + ".*upper-triangular"):
            AllocationProblem(mu_j=(0.05, 0.05), gamma_jk=gamma)
        # upper-triangular (signed zeros below it are zeros), the interaction
        # pulls the optimum to the equal split
        problem = AllocationProblem(mu_j=(0.05, 0.05), gamma_jk=((-0.0, 8.0), (-0.0, 0.0)),
                                    budget=0.012)
        assert allocate(problem)["allocation"] == pytest.approx([0.006, 0.006], abs=1e-15)
