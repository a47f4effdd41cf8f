import itertools
import math

import numpy as np
import pytest

from debtregime.core import EconState, RegimeParams
from debtregime.errors import DomainError
from debtregime.investment import (
    AllocationProblem,
    InvestmentInputs,
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
