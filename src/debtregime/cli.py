"""Command-line driver.

Subcommands: scenario, clock, bounds, closure (with --sweep), transition,
infer, mc, tables.  Global flags: --config, --seed, --out, --format,
--threads (accepted for compatibility; the engine runs batched on one
thread).  Exit codes: 0 success, 1 usage, 2 configuration, 3 numeric/domain.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closure import solve_premium
from .core import check_scope, stability_surplus, step_debt
from .errors import ConfigError, DomainError, EngineError
from .extensions import ClockSpec, clock
from .inference import (
    classify,
    detrend_local_linear,
    envelope,
    subsample_critical_value,
)
from .investment import compute_bounds
from .scenario import Scenario, load_scenario, load_series_csv
from .tables import TABLE_IDS, TableArtifact, build_table, emit_csv, scenario_report
from .transition import required_growth_endogenous, required_growth_exogenous

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="debtregime", description=__doc__)
    parser.add_argument("--config", default=None, help="scenario file path")
    parser.add_argument("--seed", type=int, default=42, help="64-bit seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--format", default="csv", choices=["csv"])
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; the engine runs batched on one thread",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenario", help="full single-scenario report")
    sub.add_parser("clock", help="residual-horizon clock")
    sub.add_parser("bounds", help="investment bound map")

    p_closure = sub.add_parser("closure", help="premium solution / stress sweep")
    p_closure.add_argument("--sweep", default=None, help="named sweep (e.g. stress_v2)")

    sub.add_parser("transition", help="transition thresholds")

    p_infer = sub.add_parser(
        "infer", help="envelope band + classification on score series CSVs"
    )
    p_infer.add_argument(
        "--series", action="append", required=True,
        help="t,value CSV; repeat for additional admissible readings",
    )
    p_infer.add_argument("--mode", default="PE", choices=["PE", "TF"])

    p_mc = sub.add_parser("mc", help="Monte Carlo classifier comparison")
    p_mc.add_argument("--reps", type=int, default=None, help="replication count")
    p_mc.add_argument("--experiment", default="both", choices=["pe", "tf", "both"])

    p_tables = sub.add_parser("tables", help="emit all golden tables")
    p_tables.add_argument(
        "--reps", type=int, default=200,
        help="replication count for the Monte Carlo tables",
    )
    p_tables.add_argument(
        "--only", default=None, choices=list(TABLE_IDS),
        help="emit a single table instead of all",
    )
    return parser


def _write(artifact: TableArtifact, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name + ".csv")
    emit_csv(artifact, path)
    return path


def _print_kv(rows) -> None:
    for row in rows:
        print("  " + "  ".join(str(v) for v in row))


def _cmd_scenario(scenario: Scenario, args) -> int:
    art = scenario_report(scenario, args.seed)
    path = _write(art, args.out, "scenario_report")
    econ = scenario.econ_state()
    regime = scenario.regime_params()
    print(f"scenario {scenario.name!r}")
    print(f"  b_next = {step_debt(econ):.6f}")
    print(f"  stability surplus = {stability_surplus(econ, regime) * 100:.4f}%/yr")
    scope = check_scope(regime)
    print(f"  sc1 = {scope['sc1']}, sc2 = {scope['sc2']}")
    sol = solve_premium(scenario.two_layer())
    rho_txt = "n/a" if sol.rho is None else f"{sol.rho * 100:.4f}%"
    print(f"  closure case = {sol.case}, rho = {rho_txt}")
    exo = required_growth_exogenous(scenario.transition_spec())
    print(f"  required dg (exogenous) = {exo['delta_g_min'] * 100:.2f} pp")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_clock(scenario: Scenario, args) -> int:
    regime = scenario.regime_params()
    clk = clock(
        ClockSpec(phi=regime.phi, phi_bar=regime.phi_bar,
                  kappa=regime.kappa, kappa_exp=regime.kappa_exp)
    )
    art = TableArtifact(
        "clock",
        ("quantity", "value"),
        [("T_linear", clk["T_linear"]), ("T_exp", clk["T_exp"])],
        {"config_hash": scenario.config_hash(), "seed": args.seed},
    )
    path = _write(art, args.out, "clock")
    print(f"T_linear = {clk['T_linear']}, T_exp = {clk['T_exp']}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_bounds(scenario: Scenario, args) -> int:
    b = compute_bounds(scenario.investment_inputs())
    rows = [
        ("x_max_arith", b.x_max_arith), ("x_max_rd", b.x_max_rd),
        ("x_max_safe", b.x_max_safe), ("x_max_operational", b.x_max_operational),
        ("x_min_static", b.x_min_static), ("x_min_shock", b.x_min_shock),
        ("x_min_demo_lo", b.x_min_demo_lo), ("x_min_demo_hi", b.x_min_demo_hi),
        ("x_min_operational", b.x_min_operational), ("feasible", b.feasible),
    ]
    art = TableArtifact(
        "bounds", ("quantity", "value"), rows,
        {"config_hash": scenario.config_hash(), "seed": args.seed},
    )
    path = _write(art, args.out, "bounds")
    _print_kv(rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_closure(scenario: Scenario, args) -> int:
    if args.sweep:
        art = build_table("stress_v2", scenario, args.seed) if args.sweep == "stress_v2" \
            else _custom_sweep(scenario, args)
        path = _write(art, args.out, art.table_id)
        print(f"wrote {path}")
        return EXIT_OK
    sol = solve_premium(scenario.two_layer())
    rows = [
        ("case", sol.case), ("rho", sol.rho),
        ("phi_d_at_zero", sol.phi_d_at_zero), ("phi_d_max", sol.phi_d_max),
        ("slack", sol.slack),
    ]
    art = TableArtifact(
        "closure", ("quantity", "value"), rows,
        {"config_hash": scenario.config_hash(), "seed": args.seed},
    )
    path = _write(art, args.out, "closure")
    _print_kv(rows)
    print(f"wrote {path}")
    return EXIT_OK


def _custom_sweep(scenario: Scenario, args) -> TableArtifact:
    from .reference_values import STRESS_V2_RHO_REF
    from .transition import feasibility_label, required_growth_endogenous

    rows = []
    mu_range = (scenario.get("transition.mu_lo"), scenario.get("transition.mu_hi"))
    x_max_label = scenario.get("transition.x_max_label")
    for row_name, overrides in scenario.sweep_rows(args.sweep):
        sc = scenario.with_overrides(overrides)
        p = sc.two_layer()
        sol = solve_premium(p)
        res = required_growth_endogenous(sc.transition_spec())
        ref = STRESS_V2_RHO_REF.get(row_name)
        rows.append(
            (row_name, p.theta, p.z * 100, sol.phi_d_at_zero,
             sol.rho * 100 if sol.rho is not None else None,
             res["delta_g_min"] * 100,
             feasibility_label(res["delta_g_min"], mu_range, x_max_label),
             ref * 100 if ref is not None else None)
        )
    return TableArtifact(
        args.sweep,
        ("scenario", "theta", "z", "phi_d0", "rho_star", "required_dg", "label", "paper_rho_ref"),
        rows,
        {"config_hash": scenario.config_hash(), "seed": args.seed},
    )


def _cmd_transition(scenario: Scenario, args) -> int:
    bounds = compute_bounds(scenario.investment_inputs())
    regime = scenario.regime_params()
    clk = clock(
        ClockSpec(phi=regime.phi, phi_bar=regime.phi_bar,
                  kappa=regime.kappa, kappa_exp=regime.kappa_exp)
    )
    spec = scenario.transition_spec(
        x_max_operational=bounds.x_max_operational, T_star=clk["T_linear"]
    )
    exo = required_growth_exogenous(spec)
    endo = required_growth_endogenous(spec)
    from .transition import joint_feasibility

    joint = joint_feasibility(spec, endo["delta_g_min"])
    rows = [
        ("threshold_exogenous", exo["threshold"]),
        ("delta_g_min_exogenous", exo["delta_g_min"]),
        ("rho_star", endo.get("rho_star")),
        ("threshold_endogenous", endo["threshold"]),
        ("delta_g_min_endogenous", endo["delta_g_min"]),
        ("financeable", joint["financeable"]),
        ("timely", joint["timely"]),
        ("feasible", joint["feasible"]),
    ]
    art = TableArtifact(
        "transition", ("quantity", "value"), rows,
        {"config_hash": scenario.config_hash(), "seed": args.seed},
    )
    path = _write(art, args.out, "transition")
    _print_kv(rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_infer(scenario: Scenario, args) -> int:
    series_list = []
    for spath in args.series:
        ts, vs = load_series_csv(spath)
        series_list.append((ts, np.asarray(vs)))
    n = min(len(vs) for _, vs in series_list)
    stack = np.vstack([vs[:n] for _, vs in series_list])
    ts = series_list[0][0][:n]
    cfg = scenario.subsample_config()
    if n < cfg.window_h:
        raise DomainError(
            f"series length {n} shorter than inference window {cfg.window_h}"
        )
    lower = stack.min(axis=0)
    upper = stack.max(axis=0)
    rem = detrend_local_linear(np.vstack([lower, upper]), cfg.window_h)["remainder"]
    # the band at period i reads the trailing window ending at i
    c_lo_all, c_up_all = subsample_critical_value(
        sliding_window_view(rem, cfg.window_h, axis=-1), cfg
    ).tolist()
    rows = []
    for i in range(n):
        if i + 1 >= cfg.window_h:
            c_lo = c_lo_all[i + 1 - cfg.window_h]
            c_up = c_up_all[i + 1 - cfg.window_h]
            env = envelope(
                {f"s{j}": float(stack[j, i]) for j in range(len(series_list))}, t=i
            )
            label = classify(env, c_lo, c_up, args.mode)
        else:
            c_lo = c_up = float("nan")
            label = "insufficient-window"
        rows.append((ts[i], lower[i], upper[i], c_lo, c_up, label))
    art = TableArtifact(
        "envelope_bands",
        ("t", "lower", "upper", "c_lower", "c_upper", "label"),
        rows,
        {"config_hash": scenario.config_hash(), "seed": args.seed,
         "mode": args.mode, "envelope_statistic": "window_mean"},
    )
    path = _write(art, args.out, "envelope_bands")
    print(f"classified {n} periods; final label: {rows[-1][-1]}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_mc(scenario: Scenario, args) -> int:
    paths = []
    if args.experiment in ("pe", "both"):
        art = build_table("mc_pe", scenario, args.seed, n_reps=args.reps,
                          threads=args.threads)
        paths.append(_write(art, args.out, "mc_pe"))
    if args.experiment in ("tf", "both"):
        art = build_table("mc_tf", scenario, args.seed, n_reps=args.reps,
                          threads=args.threads)
        paths.append(_write(art, args.out, "mc_tf"))
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_tables(scenario: Scenario, args) -> int:
    ids = [args.only] if args.only else list(TABLE_IDS)
    for table_id in ids:
        art = build_table(table_id, scenario, args.seed, n_reps=args.reps,
                          threads=args.threads)
        print(f"wrote {_write(art, args.out, table_id)}")
    return EXIT_OK


_COMMANDS = {
    "scenario": _cmd_scenario,
    "clock": _cmd_clock,
    "bounds": _cmd_bounds,
    "closure": _cmd_closure,
    "transition": _cmd_transition,
    "infer": _cmd_infer,
    "mc": _cmd_mc,
    "tables": _cmd_tables,
}


def run_cli(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        scenario = load_scenario(args.config)
        return _COMMANDS[args.command](scenario, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_cli())
