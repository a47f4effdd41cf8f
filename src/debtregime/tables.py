"""Golden-table builders and the CSV emitter.

Every artifact is a TableArtifact: ordered rows plus metadata (engine
version, seed, config hash) emitted as leading `#` comment lines.  Numbers
render with 6 significant digits; identical inputs produce byte-identical
files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ._version import __version__
from .closure import solve_premium
from .core import check_scope, stability_surplus, step_debt
from .errors import DomainError, EngineError
from .extensions import (
    PsiSpec,
    SprintSpec,
    clock,
    paradox_test,
    psi_composite,
    repression_dividend,
    sprint_cumulative_improvement,
)
from .inference import classify, envelope, score_pe, score_tf
from .investment import compute_bounds
from .reference_values import STRESS_V2_RHO_REF, TIER_PE_SCORE_REF
from .scenario import Scenario
from .transition import (
    _MONITOR_B,
    feasibility_label,
    joint_feasibility,
    required_growth_endogenous,
    required_growth_exogenous,
)

__all__ = ["TableArtifact", "emit_csv", "build_table", "TABLE_IDS", "scenario_report"]

# Control-rights sub-index vectors used for the cross-country composite
# table: (monetary, absorption proxy, exchange rate).
_COUNTRY_PSI = (
    ("japan", PsiSpec(1.00, 0.93, 1.00)),
    ("italy", PsiSpec(0.50, 0.67, 0.00)),
    ("greece", PsiSpec(0.50, 0.33, 0.00)),
)
_PSI_WEIGHTS = (
    ("equal", (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)),
    ("monetary_heavy", (0.50, 0.25, 0.25)),
    ("absorption_heavy", (0.25, 0.50, 0.25)),
    ("fx_deemphasized", (0.40, 0.40, 0.20)),
)


@dataclass
class TableArtifact:
    table_id: str
    columns: Sequence[str]
    rows: List[Sequence[object]]
    metadata: Dict[str, object] = field(default_factory=dict)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.6g" % value  # prints inf, -inf and nan as such
    return str(value)


def emit_csv(artifact: TableArtifact, path: str) -> None:
    """Write an artifact as UTF-8 CSV: `#` metadata lines, a snake_case
    header, LF line endings, 6-significant-digit numbers."""
    lines = [f"# table_id: {artifact.table_id}"]
    for key in sorted(artifact.metadata):
        lines.append(f"# {key}: {artifact.metadata[key]}")
    lines.append(",".join(artifact.columns))
    for row in artifact.rows:
        if len(row) != len(artifact.columns):
            raise EngineError(
                f"row width {len(row)} != column count {len(artifact.columns)}"
            )
        lines.append(",".join(_fmt(v) for v in row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise EngineError(f"cannot write {path}: {exc}") from exc


def _meta(scenario: Scenario, seed: int) -> Dict[str, object]:
    return {
        "engine_version": __version__,
        "seed": seed,
        "config_hash": scenario.config_hash(),
        "envelope_statistic": "window_mean",
        "quantile_convention": "type1_right_continuous",
    }


def build_calibration(scenario: Scenario, seed: int) -> TableArtifact:
    """Headline closed-form quantities at the scenario operating point, in
    percent / years as noted per row."""
    econ = scenario.econ_state()
    regime = scenario.regime_params()
    inv = scenario.investment_inputs()
    sprint = SprintSpec(
        baseline_spread=econ.spread,
        sprint_spread=econ.spread - 0.005,  # repression bias raised by 50 bp
        T=2,
        b0=econ.b_prev,
    )
    bounds = compute_bounds(inv)
    clk = clock(scenario.clock_spec())
    par = paradox_test(econ.spread, scenario.get("fiscal.gamma"))
    rows = [
        ("sprint_cumulative_improvement", sprint_cumulative_improvement(sprint) * 100, "pp_gdp"),
        ("annual_repression_dividend", repression_dividend(regime.epsilon, econ.b_prev) * 100, "pct_gdp"),
        ("paradox_gamma_threshold", abs(econ.spread) * 100, "pp"),
        ("paradox_derivative", par["derivative"] * 100, "pp"),
        ("clock_linear", clk["T_linear"], "years"),
        ("clock_exponential", clk["T_exp"], "years"),
        ("x_max_arith", bounds.x_max_arith * 100, "pct_gdp"),
        ("x_max_rd", None if bounds.x_max_rd is None else bounds.x_max_rd * 100, "pct_gdp"),
        ("x_max_safe", bounds.x_max_safe * 100, "pct_gdp"),
        ("x_min_static", bounds.x_min_static * 100, "pct_gdp"),
        ("x_min_shock", bounds.x_min_shock * 100, "pct_gdp"),
        ("x_min_demo_lo", bounds.x_min_demo_lo * 100, "pct_gdp"),
        ("x_min_demo_hi", bounds.x_min_demo_hi * 100, "pct_gdp"),
        ("stability_surplus", stability_surplus(econ, regime) * 100, "pct_yr"),
    ]
    return TableArtifact(
        "calibration", ("quantity", "value", "units"), rows, _meta(scenario, seed)
    )


def build_stress_v2(scenario: Scenario, seed: int, name: str = "stress_v2") -> TableArtifact:
    """Stress grid over (core share, outside-option spread): zero-premium
    demand, equilibrium premium, required growth improvement, feasibility
    label, and the published premium reference for side-by-side reading.

    `name` selects the sweep (the built-in `stress_v2` rows or a scenario
    file's `sweep.<name>.*` rows) and becomes the table id."""
    rows = []
    for row_name, overrides in scenario.sweep_rows(name):
        sc = scenario.with_overrides(overrides)
        p = sc.two_layer()
        spec = sc.transition_spec()
        res = required_growth_endogenous(spec)
        sol = solve_premium(p)
        label = feasibility_label(res["delta_g_min"], sc.get("transition.mu_hi"),
                                  sc.get("transition.x_max_label"))
        ref = STRESS_V2_RHO_REF.get(row_name)
        rows.append(
            (
                row_name,
                p.theta,
                p.z * 100,
                sol.phi_d_at_zero,
                sol.rho * 100 if sol.rho is not None else None,
                res["delta_g_min"] * 100,
                label,
                ref * 100 if ref is not None else None,
            )
        )
    return TableArtifact(
        name,
        ("scenario", "theta", "z", "phi_d0", "rho_star", "required_dg", "label", "paper_rho_ref"),
        rows,
        _meta(scenario, seed),
    )


def build_tier_pe(scenario: Scenario, seed: int) -> TableArtifact:
    """Tier-widening illustration for the boundary score: engine-computed
    scores for the admissible readings next to the published ones."""
    readings = (
        ("tier1_baseline", 1, {}),
        ("tier2_core_erosion_1", 2, {"closure.theta": 0.60}),
        ("tier2_external_stress", 2, {"closure.z": 0.030}),
    )
    rows = []
    for reading, tier, ov in readings:
        p = scenario.with_overrides(ov).two_layer()
        ref = TIER_PE_SCORE_REF.get(reading)
        rows.append(
            (reading, tier, score_pe(p) * 100, ref * 100 if ref is not None else None)
        )
    env = envelope({r[0]: r[2] for r in rows})
    label = classify(env.lower, env.upper, 0.0, 0.0, "PE")
    rows.append((f"tier2_envelope_lower_{label}", 2, env.lower, None))
    rows.append((f"tier2_envelope_upper_{label}", 2, env.upper, None))
    return TableArtifact(
        "tier_pe",
        ("reading", "tier", "score_pp", "paper_score_ref"),
        rows,
        _meta(scenario, seed),
    )


def build_tier_tf(scenario: Scenario, seed: int) -> TableArtifact:
    """Debt-concept widening of the transition threshold: baseline versus
    monitoring concept, plus the affine envelope width."""
    spec = scenario.transition_spec()
    base = required_growth_exogenous(spec)
    mon_spec = scenario.with_overrides({"econ.b_prev": _MONITOR_B}).transition_spec()
    mon = required_growth_exogenous(mon_spec)
    d_net = spec.state.d - spec.state.s
    width = d_net * (1.0 / _MONITOR_B - 1.0 / spec.state.b_prev)
    rows = [
        ("tier1_baseline", spec.state.b_prev, base["threshold"] * 100, base["delta_g_min"] * 100, None),
        ("tier2_monitoring", mon_spec.state.b_prev, mon["threshold"] * 100, mon["delta_g_min"] * 100, width * 100),
    ]
    return TableArtifact(
        "tier_tf",
        ("tier", "b_concept", "threshold_pct", "delta_g_min_pp", "widening_pp"),
        rows,
        _meta(scenario, seed),
    )


def build_psi_countries(scenario: Scenario, seed: int) -> TableArtifact:
    """Control-rights composites for the three-country comparison under each
    weighting scheme."""
    rows = []
    for scheme, weights in _PSI_WEIGHTS:
        for country, spec in _COUNTRY_PSI:
            s = PsiSpec(spec.mon, spec.abs_proxy, spec.fx, weights)
            rows.append(
                (scheme, country, weights[0], weights[1], weights[2],
                 spec.mon, spec.abs_proxy, spec.fx, psi_composite(s))
            )
    return TableArtifact(
        "psi_countries",
        ("scheme", "country", "w_mon", "w_abs", "w_fx", "psi_mon", "psi_abs", "psi_fx", "psi"),
        rows,
        _meta(scenario, seed),
    )


def _build_mc(table_id: str, scenario: Scenario, seed: int,
              n_reps: Optional[int]) -> TableArtifact:
    """A Monte Carlo table: one row per result row of its experiment, under
    the result rows' keys, with the premium bound in percent (`rho_bar_pct`)."""
    from .montecarlo import run_mc_pe, run_mc_tf

    cfg = scenario.mc_config(seed=seed, n_reps=n_reps)
    res = (run_mc_pe if table_id == "mc_pe" else run_mc_tf)(cfg)["rows"]
    columns = tuple(k + "_pct" if k == "rho_bar" else k for k in res[0])
    rows = [tuple(v * 100 if k == "rho_bar" else v for k, v in r.items()) for r in res]
    meta = {**_meta(scenario, seed), "n_reps": cfg.n_reps}
    return TableArtifact(table_id, columns, rows, meta)


# table id -> builder(scenario, seed, n_reps), in emission order
_BUILDERS = {
    "calibration": lambda sc, seed, n_reps: build_calibration(sc, seed),
    "stress_v2": lambda sc, seed, n_reps: build_stress_v2(sc, seed),
    "tier_pe": lambda sc, seed, n_reps: build_tier_pe(sc, seed),
    "tier_tf": lambda sc, seed, n_reps: build_tier_tf(sc, seed),
    "mc_pe": lambda sc, seed, n_reps: _build_mc("mc_pe", sc, seed, n_reps),
    "mc_tf": lambda sc, seed, n_reps: _build_mc("mc_tf", sc, seed, n_reps),
    "psi_countries": lambda sc, seed, n_reps: build_psi_countries(sc, seed),
}
TABLE_IDS = tuple(_BUILDERS)


def build_table(table_id: str, scenario: Scenario, seed: int,
                n_reps: Optional[int] = None) -> TableArtifact:
    if table_id not in _BUILDERS:
        raise DomainError(f"unknown table_id {table_id!r}")
    return _BUILDERS[table_id](scenario, seed, n_reps)


def _field_rows(result) -> List[Tuple[str, object]]:
    """(field name, value) rows of a result dataclass, in field order."""
    return [(f.name, getattr(result, f.name)) for f in fields(result)]


def _transition_test(scenario: Scenario):
    """The transition test at the scenario's operating point: the required
    growth, exogenous and closure-priced, financed inside the operational
    envelope and timed against the linear clock.  Returns the bound map, the
    clock, the spec and the exogenous, endogenous and joint results."""
    bounds = compute_bounds(scenario.investment_inputs())
    clk = clock(scenario.clock_spec())
    spec = scenario.transition_spec(
        x_max_operational=bounds.x_max_operational, T_star=clk["T_linear"]
    )
    endo = required_growth_endogenous(spec)
    return (bounds, clk, spec, required_growth_exogenous(spec), endo,
            joint_feasibility(spec, endo["delta_g_min"]))


def scenario_report(scenario: Scenario, seed: int) -> TableArtifact:
    """Single-scenario full report as section/key/value rows."""
    econ = scenario.econ_state()
    regime = scenario.regime_params()
    scope = check_scope(regime)
    p = scenario.two_layer()
    sol = solve_premium(p)
    bounds, clk, spec, exo, endo, joint = _transition_test(scenario)
    rows = [
        ("recursion", "b_next", step_debt(econ)),
        ("recursion", "delta_b", step_debt(econ) - econ.b_prev),
        ("stability", "surplus", stability_surplus(econ, regime)),
        ("stability", "holds", stability_surplus(econ, regime) >= 0),
        ("scope", "sc1", scope["sc1"]),
        ("scope", "sc2", scope["sc2"]),
        ("clock", "T_linear", clk["T_linear"]),
        ("clock", "T_exp", clk["T_exp"]),
        *(("bounds", key, value) for key, value in _field_rows(bounds)),
        ("closure", "case", sol.case),
        ("closure", "rho", sol.rho),
        ("closure", "phi_d0", sol.phi_d_at_zero),
        ("closure", "slack", sol.slack),
        ("closure", "score_pe", score_pe(p)),
        ("transition", "threshold_exogenous", exo["threshold"]),
        ("transition", "delta_g_min_exogenous", exo["delta_g_min"]),
        ("transition", "rho_star", endo.get("rho_star")),
        ("transition", "delta_g_min_endogenous", endo["delta_g_min"]),
        ("transition", "score_tf", score_tf(spec)),
        ("transition", "financeable", joint["financeable"]),
        ("transition", "timely", joint["timely"]),
        ("transition", "feasible", joint["feasible"]),
    ]
    return TableArtifact(
        "scenario_report", ("section", "key", "value"), rows, _meta(scenario, seed)
    )
