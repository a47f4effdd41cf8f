"""Command-line driver: parse the arguments, call the one builder behind
each artifact, write its CSV and print a summary.

Subcommands: scenario, clock, bounds, closure, transition, infer, mc,
tables.  `closure --sweep NAME` emits the stress grid over the built-in
`stress_v2` rows or a scenario file's `sweep.NAME.*` rows.  Global flags:
--config, --seed, --out.  Exit codes: 0 success, 1 usage, 2 configuration,
3 numeric/domain.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .closure import solve_premium
from .errors import ConfigError, DomainError, EngineError
from .extensions import clock
from .inference import classify, detrend_local_linear, subsample_critical_value
from .investment import compute_bounds
from .scenario import Scenario, load_scenario, load_series_csv
from .tables import (
    TABLE_IDS,
    TableArtifact,
    _field_rows,
    _transition_test,
    build_stress_v2,
    build_table,
    emit_csv,
    scenario_report,
)

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
    parser.add_argument("--seed", type=int, default=42, help="seed in [0, 2**64)")
    parser.add_argument("--out", default="out", help="output directory")
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


def _write(artifact: TableArtifact, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, artifact.table_id + ".csv")
    emit_csv(artifact, path)
    return path


def _emit_quantities(table_id: str, rows, scenario: Scenario, args,
                     summary: Optional[List[str]] = None) -> int:
    """Write a two-column quantity/value artifact, then print `summary` (by
    default one line per row) and the path written."""
    art = TableArtifact(
        table_id, ("quantity", "value"), rows,
        {"config_hash": scenario.config_hash(), "seed": args.seed},
    )
    path = _write(art, args.out)
    for line in summary or ["  " + "  ".join(str(v) for v in row) for row in rows]:
        print(line)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_scenario(scenario: Scenario, args) -> int:
    art = scenario_report(scenario, args.seed)
    path = _write(art, args.out)
    v = {(section, key): value for section, key, value in art.rows}
    rho = v["closure", "rho"]
    rho_txt = "n/a" if rho is None else f"{rho * 100:.4f}%"
    print(f"scenario {scenario.name!r}")
    print(f"  b_next = {v['recursion', 'b_next']:.6f}")
    print(f"  stability surplus = {v['stability', 'surplus'] * 100:.4f}%/yr")
    print(f"  sc1 = {v['scope', 'sc1']}, sc2 = {v['scope', 'sc2']}")
    print(f"  closure case = {v['closure', 'case']}, rho = {rho_txt}")
    print(f"  required dg (exogenous) = "
          f"{v['transition', 'delta_g_min_exogenous'] * 100:.2f} pp")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_clock(scenario: Scenario, args) -> int:
    clk = clock(scenario.clock_spec())
    return _emit_quantities(
        "clock", [("T_linear", clk["T_linear"]), ("T_exp", clk["T_exp"])], scenario, args,
        summary=[f"T_linear = {clk['T_linear']}, T_exp = {clk['T_exp']}"],
    )


def _cmd_bounds(scenario: Scenario, args) -> int:
    bounds = compute_bounds(scenario.investment_inputs())
    return _emit_quantities("bounds", _field_rows(bounds), scenario, args)


def _cmd_closure(scenario: Scenario, args) -> int:
    if args.sweep:
        art = build_stress_v2(scenario, args.seed, args.sweep)
        print(f"wrote {_write(art, args.out)}")
        return EXIT_OK
    sol = solve_premium(scenario.two_layer())
    return _emit_quantities("closure", _field_rows(sol), scenario, args)


def _cmd_transition(scenario: Scenario, args) -> int:
    _, _, _, exo, endo, joint = _transition_test(scenario)
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
    return _emit_quantities("transition", rows, scenario, args)


def _cmd_infer(scenario: Scenario, args) -> int:
    """Envelope, band and label per period over the `--series` readings,
    which must share one finite, strictly increasing `t` column (exit 2 for
    another axis or an unordered one, 3 for a non-finite stamp): the detrend
    and the trailing band windows read the rows in order."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    readings = [load_series_csv(spath) for spath in args.series]
    ts = readings[0][0]
    for spath, (t, _) in zip(args.series, readings):
        if not np.isfinite(t).all():
            raise DomainError(f"series file {spath} has a non-finite time stamp")
        if t != ts:
            raise ConfigError(
                f"series file {spath} does not share the t column of {args.series[0]}"
            )
    if not (np.diff(ts) > 0).all():
        raise ConfigError(
            f"series file {args.series[0]} has a t column that is not strictly increasing"
        )
    stack = np.array([v for _, v in readings])
    cfg = scenario.subsample_config()
    n, skip = len(ts), cfg.window_h - 1
    if n <= skip:
        raise DomainError(
            f"series length {n} shorter than inference window {cfg.window_h}"
        )
    bounds = np.array([stack.min(axis=0), stack.max(axis=0)])
    rem = detrend_local_linear(bounds, cfg.window_h)["remainder"]
    # the band at period i >= skip reads the trailing window ending at i
    c_lo, c_up = subsample_critical_value(
        sliding_window_view(rem, cfg.window_h, axis=-1), cfg
    ).tolist()
    lower, upper = bounds.tolist()
    nan = float("nan")
    rows = [(ts[i], lower[i], upper[i], nan, nan, "insufficient-window") for i in range(skip)]
    for i, cl, cu in zip(range(skip, n), c_lo, c_up):
        rows.append((ts[i], lower[i], upper[i], cl, cu,
                     classify(lower[i], upper[i], cl, cu, args.mode)))
    art = TableArtifact(
        "envelope_bands",
        ("t", "lower", "upper", "c_lower", "c_upper", "label"),
        rows,
        {"config_hash": scenario.config_hash(), "seed": args.seed,
         "mode": args.mode, "envelope_statistic": "window_mean"},
    )
    path = _write(art, args.out)
    print(f"classified {n} periods; final label: {rows[-1][-1]}")
    print(f"wrote {path}")
    return EXIT_OK


def _emit_tables(table_ids, scenario: Scenario, args) -> int:
    # build every table before writing one, so that an error leaves no CSV
    arts = [build_table(t, scenario, args.seed, n_reps=args.reps) for t in table_ids]
    for art in arts:
        print(f"wrote {_write(art, args.out)}")
    return EXIT_OK


def _cmd_mc(scenario: Scenario, args) -> int:
    ids = {"pe": ["mc_pe"], "tf": ["mc_tf"], "both": ["mc_pe", "mc_tf"]}
    return _emit_tables(ids[args.experiment], scenario, args)


def _cmd_tables(scenario: Scenario, args) -> int:
    return _emit_tables([args.only] if args.only else TABLE_IDS, scenario, args)


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
