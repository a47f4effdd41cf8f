"""The benchmark's three workloads: seeded inputs, one round of work, checks.

A workload generates `n_inputs` distinct rounds from its seed and cycles
through them.  A round is a fixed amount of work of `units` work units, so
the wall time of one round compares across commits.  An op is one top-level
public call (or one CLI command); its latency is timed around that call
alone.  Every op's output is checked after the round, outside the timing:
invariant checks at any seed here, CSV digests at the reference seed in
run.py.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

CHILD_TIMEOUT_S = 60  # one command takes under a second


@dataclass
class Op:
    kind: str
    seconds: float = 0.0
    error: Optional[str] = None
    result: object = None
    check: Optional[Callable[[object], List[str]]] = None


@dataclass
class Round:
    units: float
    ops: List[Op] = field(default_factory=list)
    # (digest key, CSV path, indices of the ops whose output it holds)
    csvs: List[Tuple[str, str, Sequence[int]]] = field(default_factory=list)


def child_env(src: str) -> dict:
    """Environment for child interpreters: the absolute `src` path first in
    PYTHONPATH, so children import the checkout from any working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    return env


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


class Workload:
    name = ""
    unit = ""
    tail_pct = 75  # fixed so that the parent commit has >= 10 ops beyond it
    warmup_rounds = 1
    in_children = False  # the untraced run's work runs in child processes

    def __init__(self, dr, seed: int, tiny: bool, workdir: str):
        self.dr = dr
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.tracer = None
        self._op_id = 0

    def _call(self, rnd: Round, kind: str, fn: Callable, check=None) -> Op:
        """Run one op, timing only the call; an exception fails the op."""
        op = Op(kind, check=check)
        self._op_id += 1
        if self.tracer is not None:
            self.tracer.op_id = self._op_id
        t0 = time.perf_counter()
        try:
            op.result = fn()
        except Exception as exc:  # any exception is a failed op, counted
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        rnd.ops.append(op)
        return op

    def _emit(self, table_id: str, columns, rows, meta, name: str) -> str:
        tables = self.dr.tables
        path = os.path.join(self.workdir, name)
        tables.emit_csv(tables.TableArtifact(table_id, columns, rows, meta), path)
        return path


# ---------------------------------------------------------------- mc_classifiers

def _check_rates(rows: Sequence[dict], rate_keys: Sequence[str], n_rows: int) -> List[str]:
    errs = []
    if len(rows) != n_rows:
        errs.append(f"expected {n_rows} rows, got {len(rows)}")
    for row in rows:
        for key in rate_keys:
            v = row[key]
            if not (math.isfinite(v) and 0.0 <= v <= 100.0):
                errs.append(f"{row['method']} {key} = {v} outside [0, 100]")
        if "mean_width_bp" in row and not (math.isfinite(row["mean_width_bp"])
                                           and row["mean_width_bp"] >= 0.0):
            errs.append(f"{row['method']} mean_width_bp = {row['mean_width_bp']}")
    return errs


PE_RATES = ("false_safety", "false_alarm", "coverage", "warning")
TF_RATES = ("false_feasible", "false_infeasible", "coverage", "marginal")


class MonteCarlo(Workload):
    """run_mc_pe and run_mc_tf on the baseline scenario's mc_config.

    A round is two premium-emergence calls and one transition-feasibility
    call, each on its own seed; the 2:1 mix keeps the median and the tail
    percentile inside the premium-emergence latency mode.
    """

    name = "mc_classifiers"
    unit = "replications"
    tail_pct = 75

    def __init__(self, dr, seed, tiny, workdir):
        super().__init__(dr, seed, tiny, workdir)
        self.reps = {"pe": 2, "tf": 2} if tiny else {"pe": 16, "tf": 32}
        self.plan = ("pe", "pe", "tf")
        self.n_inputs = 2 if tiny else 24
        self.trace_rounds = 1 if tiny else 3
        self.seeds = _rng(seed, 1).integers(0, 2**32, size=(self.n_inputs, len(self.plan)))
        self.scenario = dr.scenario.load_scenario(None)
        cfg = self.scenario.mc_config(seed=0)
        n_h, n_b = len(cfg.evaluation_horizons), len(cfg.block_grid)
        self.n_rows = {"pe": n_h * (3 * n_b + 2), "tf": 3 * 5}

    def run_round(self, k: int, in_process: bool) -> Round:
        mc = self.dr.montecarlo
        rnd = Round(units=sum(self.reps[e] for e in self.plan))
        for j, exp in enumerate(self.plan):
            op_seed = int(self.seeds[k, j])
            cfg = self.scenario.mc_config(seed=op_seed, n_reps=self.reps[exp])
            fn = mc.run_mc_pe if exp == "pe" else mc.run_mc_tf
            keys = PE_RATES if exp == "pe" else TF_RATES
            check = functools.partial(self._check, keys, self.n_rows[exp])
            op = self._call(rnd, "run_mc_" + exp, functools.partial(fn, cfg, threads=1), check)
            if op.error is None:
                rows = op.result["rows"]
                columns = tuple(rows[0])
                path = self._emit(
                    "mc_" + exp, columns, [tuple(r[c] for c in columns) for r in rows],
                    {"seed": op_seed, "n_reps": cfg.n_reps}, f"r{k}_op{j}_mc_{exp}.csv")
                rnd.csvs.append((f"r{k}/op{j}_mc_{exp}.csv", path, [len(rnd.ops) - 1]))
        return rnd

    @staticmethod
    def _check(keys, n_rows, result) -> List[str]:
        return _check_rates(result["rows"], keys, n_rows)


# ---------------------------------------------------------------- closure_solvers

_KNOT_FRACS = (0.0, 0.25, 0.5, 0.75, 1.0)
_TOL = 1e-10


class ClosureSolvers(Workload):
    """Library calls on generated two-layer states and allocation problems.

    Per round: 110 solve_premium (80 uniform margins, closed form; 30 table
    margins, bisection in case c) spanning cases a-d, 31
    required_growth_endogenous, 4 monotone_path, one fixed_point_scan on
    uniform and one on table margins, allocate for J=3 (grid) and J>3
    (ascent), and allocate_ascent for J=3.  The 150 ops put the median in
    the cheap solves and the 99th percentile in the J=3 allocation grid.
    """

    name = "closure_solvers"
    unit = "ops"
    tail_pct = 99

    def __init__(self, dr, seed, tiny, workdir):
        super().__init__(dr, seed, tiny, workdir)
        self.n_inputs = 2 if tiny else 128
        self.trace_rounds = 1 if tiny else 20
        self.rounds = [self._make_round(_rng(seed, 100 + k), tiny) for k in range(self.n_inputs)]

    # -- input generation ------------------------------------------------

    def _params(self, rng, case: str, table: bool, continuous: bool = False):
        """Two-layer state whose premium falls in `case` (a-d).

        With `continuous`, c_bar exceeds z/psi, so zero-premium demand depends
        on theta and the premium is continuous in theta; otherwise the
        premium can jump where theta crosses phi_req.
        """
        C = self.dr.closure
        theta, psi, z = rng.uniform(0.3, 0.8), rng.uniform(0.7, 1.0), rng.uniform(0.01, 0.04)
        c_bar = rng.uniform(1.1, 2.5) * z / psi if continuous else rng.uniform(0.03, 0.08)
        dist = C.MarginDistribution()
        if table:
            g0 = rng.uniform(0.05, 0.3) if case == "d" else 0.0
            power = rng.uniform(0.6, 1.6)
            knots = tuple((f * c_bar, g0 + (1.0 - g0) * f**power) for f in _KNOT_FRACS)
            knots = knots[:-1] + ((c_bar, 1.0),)
            dist = C.MarginDistribution(kind="table", knots=knots)
        base = C.TwoLayerParams(theta=theta, psi=psi, z=z, c_bar=c_bar, phi_req=0.5, dist=dist)
        d0 = C.demand_at(0.0, base)
        dmax = C.demand_at(base.z, base)
        u = rng.uniform(0.1, 0.9)
        phi_req = {
            "a": d0 * (1.0 - 0.1 * u),
            "b": d0,
            "c": d0 + u * (dmax - d0),
            "d": dmax + u * (1.0 - dmax),
        }[case]
        return C.TwoLayerParams(theta=base.theta, psi=base.psi, z=base.z,
                                c_bar=c_bar, phi_req=phi_req, dist=dist)

    def _econ(self, rng):
        return self.dr.core.EconState(
            b_prev=rng.uniform(1.2, 2.8), r_n=rng.uniform(0.01, 0.03),
            g_n=rng.uniform(0.02, 0.04), pi=rng.uniform(0.01, 0.04),
            d=rng.uniform(0.0, 0.04))

    def _law(self, rng):
        return self.dr.closure.ThetaLaw(kappa_theta=rng.uniform(0.0, 0.004),
                                        g0=rng.uniform(0.1, 0.8))

    def _problem(self, rng, J: int):
        # sectors crowd each other out (gamma_jk <= 0), so the optimum can be
        # interior and the ascent's iteration count stays moderate
        gamma = tuple(tuple(rng.uniform(-2.0, 0.0) if k > j else 0.0 for k in range(J))
                      for j in range(J))
        return self.dr.investment.AllocationProblem(
            mu_j=tuple(rng.uniform(0.02, 0.08, J)), gamma_jk=gamma,
            budget=rng.uniform(0.005, 0.03))

    def _make_round(self, rng, tiny: bool):
        """A list of (kind, module, function, args, check) op specs."""
        specs = []
        n_uni, n_tab, n_rge, n_path = (4, 4, 2, 1) if tiny else (80, 30, 31, 4)
        for _ in range(n_uni):
            case = "abc"[int(rng.choice(3, p=(0.4, 0.1, 0.5)))]
            p = self._params(rng, case, table=False)
            specs.append(("solve_premium", "closure", "solve_premium", (p,),
                          functools.partial(self._check_premium, p, case)))
        for _ in range(n_tab):
            case = "abcd"[int(rng.choice(4, p=(0.2, 0.1, 0.5, 0.2)))]
            p = self._params(rng, case, table=True)
            specs.append(("solve_premium", "closure", "solve_premium", (p,),
                          functools.partial(self._check_premium, p, case)))
        T = self.dr.transition
        for _ in range(n_rge):
            case = "abcd"[int(rng.choice(4, p=(0.3, 0.1, 0.4, 0.2)))]
            p = self._params(rng, case, table=case == "d" or rng.random() < 0.3)
            spec = T.TransitionSpec(state=self._econ(rng), closure=p)
            specs.append(("required_growth_endogenous", "transition",
                          "required_growth_endogenous", (spec,),
                          functools.partial(self._check_growth, case)))
        for _ in range(n_path):
            p = self._params(rng, "abc"[int(rng.integers(3))], table=rng.random() < 0.5)
            horizon = 10 if tiny else 40
            specs.append(("monotone_path", "closure", "monotone_path",
                          (p, self._law(rng), self._econ(rng), horizon),
                          functools.partial(self._check_path, horizon)))
        for table in (False, True):
            # the scan brackets sign changes, which are roots only where the
            # premium is continuous in theta
            p = self._params(rng, "c", table=table, continuous=True)
            specs.append(("fixed_point_scan", "closure", "fixed_point_scan",
                          (p, self._law(rng), rng.uniform(0.02, 0.04), rng.uniform(0.01, 0.03)),
                          self._check_scan))
        for kind, fn, J in (("allocate_grid", "allocate", 3),
                            ("allocate_ascent_branch", "allocate", int(rng.integers(4, 6))),
                            ("allocate_ascent", "allocate_ascent", 3)):
            prob = self._problem(rng, J)
            args = (prob, 10) if tiny and fn == "allocate" and J == 3 else (prob,)
            specs.append((kind, "investment", fn, args,
                          functools.partial(self._check_allocation, prob)))
        return [specs[i] for i in rng.permutation(len(specs))]

    # -- one round ---------------------------------------------------------

    def run_round(self, k: int, in_process: bool) -> Round:
        specs = self.rounds[k]
        rnd = Round(units=len(specs))
        rows = []
        for i, (kind, module, fn_name, args, check) in enumerate(specs):
            fn = getattr(getattr(self.dr, module), fn_name)  # wrapped when tracing
            op = self._call(rnd, kind, functools.partial(fn, *args), check)
            rows.append((i, kind) + (self._row(kind, op.result) if op.error is None
                                     else ("error",) + (None,) * 4))
        path = self._emit("closure_solvers", ("op", "kind", "case", "x1", "x2", "x3", "x4"),
                          rows, {"seed": self.seed, "round": k}, f"r{k}_closure.csv")
        rnd.csvs.append((f"r{k}/closure.csv", path, range(len(specs))))
        return rnd

    @staticmethod
    def _row(kind: str, res) -> tuple:
        if kind == "solve_premium":
            return (res.case, res.rho, res.phi_d_at_zero, res.phi_d_max, res.slack)
        if kind == "required_growth_endogenous":
            return (res["case"], res["rho_star"], res["threshold"], res["delta_g_min"], None)
        if kind == "monotone_path":
            last = res["periods"][-1]
            return (last["case"], last["theta"], res["first_case_c"],
                    res["first_eta_ge_1"], len(res["periods"]))
        if kind == "fixed_point_scan":
            pts = res["fixed_points"]
            return ("|".join(res["diagnostics"]), len(pts),
                    pts[0]["theta_star"] if pts else None,
                    pts[-1]["theta_star"] if pts else None,
                    pts[0]["slope"] if pts else None)
        x = [float(v) for v in res["allocation"]]
        return (f"J={len(x)}", float(res["objective"]), sum(x), x[0], x[-1])

    # -- checks ------------------------------------------------------------

    def _check_premium(self, p, case: str, sol) -> List[str]:
        errs = []
        if sol.case[0] != case:
            errs.append(f"expected case {case}, got {sol.case}")
        if sol.case == "d_hard_failure":
            if sol.rho is not None:
                errs.append("case d must carry no premium")
            return errs
        rho = sol.rho
        gap = self.dr.closure.demand_at(rho, p) - p.phi_req
        if not rho >= 0.0:
            errs.append(f"rho = {rho} < 0")
        if not gap >= -_TOL:
            errs.append(f"demand_at(rho) - phi_req = {gap} < -1e-10")
        if not abs(rho * gap) <= _TOL:
            errs.append(f"complementarity rho*gap = {rho * gap}")
        return errs

    @staticmethod
    def _check_growth(case: str, res) -> List[str]:
        errs = [] if res["case"][0] == case else [f"expected case {case}, got {res['case']}"]
        if (res["case"] == "d_hard_failure") == math.isfinite(res["threshold"]):
            errs.append(f"threshold {res['threshold']} inconsistent with {res['case']}")
        return errs

    @staticmethod
    def _check_path(horizon: int, res) -> List[str]:
        periods = res["periods"]
        errs = [] if len(periods) == horizon else [f"{len(periods)} periods, want {horizon}"]
        errs += [f"theta {r['theta']} outside [0, 1]" for r in periods
                 if not 0.0 <= r["theta"] <= 1.0]
        return errs

    @staticmethod
    def _check_scan(res) -> List[str]:
        return [f"fixed point {fp['theta_star']} residual {fp['residual']}"
                for fp in res["fixed_points"] if not fp["residual"] <= _TOL]

    @staticmethod
    def _check_allocation(prob, res) -> List[str]:
        x = np.asarray(res["allocation"], dtype=float)
        errs = []
        if len(x) != prob.n_sectors:
            errs.append(f"{len(x)} sectors, want {prob.n_sectors}")
        if not np.all(x >= 0.0):
            errs.append(f"negative allocation {x.tolist()}")
        if not x.sum() <= prob.budget + 1e-12:
            errs.append(f"allocation sum {x.sum()} over budget {prob.budget}")
        if not abs(prob.objective(x) - res["objective"]) <= 1e-12:
            errs.append("reported objective does not match the allocation")
        return errs


# ---------------------------------------------------------------- cli_artifacts

NON_MC_TABLES = ("calibration", "stress_v2", "tier_pe", "tier_tf", "psi_countries")
ALL_TABLES = NON_MC_TABLES + ("mc_pe", "mc_tf")
BAND_LABELS = {"insufficient-window", "robustly-interior", "boundary-near",
               "robustly-premium-emergent", "feasible", "marginal", "infeasible"}


def _read_csv(path: str) -> Tuple[List[str], List[List[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _check_outputs(paths: Sequence[str]) -> List[str]:
    errs = []
    for path in paths:
        name = os.path.basename(path)
        header, rows = _read_csv(path)
        if not rows:
            errs.append(f"{name} has no rows")
        if name in ("mc_pe.csv", "mc_tf.csv"):
            keys = PE_RATES if name == "mc_pe.csv" else TF_RATES
            cols = [header.index(k) for k in keys]
            for row in rows:
                vals = [float(row[c]) for c in cols]
                if not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in vals):
                    errs.append(f"{name}: rate outside [0, 100] in {row}")
        elif name == "envelope_bands.csv":
            lab = header.index("label")
            bad = [row[lab] for row in rows if row[lab] not in BAND_LABELS]
            if bad:
                errs.append(f"{name}: unknown labels {sorted(set(bad))}")
    return errs


class CliArtifacts(Workload):
    """Fresh `python -m debtregime` processes on generated inputs, one at a time.

    Per round: `scenario`, `closure --sweep stress_v2`, `tables --only` for
    each non-MC table, `infer` in PE and TF mode on three long series each,
    and `tables` at a small replication count.  The traced run calls
    `run_cli` in-process on the same commands.
    """

    name = "cli_artifacts"
    unit = "commands"
    tail_pct = 75
    warmup_rounds = 0
    in_children = True

    def __init__(self, dr, seed, tiny, workdir):
        super().__init__(dr, seed, tiny, workdir)
        self.n_inputs = 2 if tiny else 6
        self.trace_rounds = 1 if tiny else 2
        n_periods = 200 if tiny else 3000
        table_reps = 2 if tiny else 4
        self.env = child_env(os.path.dirname(os.path.dirname(
            os.path.abspath(dr.package.__file__))))
        self.rounds = []
        for k in range(self.n_inputs):
            rng = _rng(seed, 200 + k)
            config = self._write_scenario(rng, k)
            series = {mode: self._write_series(rng, k, mode, n_periods) for mode in ("PE", "TF")}
            base = ["--config", config, "--seed", str(int(rng.integers(0, 2**32)))]
            commands = [(["scenario"], ["scenario_report"]),
                        (["closure", "--sweep", "stress_v2"], ["stress_v2"])]
            commands += [(["tables", "--only", t], [t]) for t in NON_MC_TABLES]
            for mode in ("PE", "TF"):
                argv = ["infer", "--mode", mode]
                for path in series[mode]:
                    argv += ["--series", path]
                commands.append((argv, ["envelope_bands"]))
            commands.append((["tables", "--reps", str(table_reps)], list(ALL_TABLES)))
            self.rounds.append([(base, argv, outs) for argv, outs in commands])

    def _write_scenario(self, rng, k: int) -> str:
        c_bar = round(rng.uniform(0.04, 0.08), 6)
        lines = [
            f"scenario.name = generated_{k}",
            f"econ.b_prev = {rng.uniform(1.6, 2.6):.6f}",
            f"econ.pi = {rng.uniform(0.015, 0.035):.6f}",
            f"econ.d = {rng.uniform(0.01, 0.03):.6f}",
            f"regime.phi = {rng.uniform(0.86, 0.95):.6f}",
            f"closure.theta = {rng.uniform(0.55, 0.7):.6f}",
            f"closure.psi = {rng.uniform(0.85, 1.0):.6f}",
            f"closure.z = {rng.uniform(0.015, 0.03):.6f}",
            f"closure.c_bar = {c_bar!r}",
        ]
        if k % 2 == 1:  # table margins on every other scenario
            power = rng.uniform(0.7, 1.4)
            knots = [(f * c_bar, f**power) for f in _KNOT_FRACS[:-1]] + [(c_bar, 1.0)]
            lines.append("closure.dist = table")
            lines.append("closure.dist_knots = " + ", ".join(f"{c!r}:{g!r}" for c, g in knots))
        path = os.path.join(self.workdir, f"scenario_{k}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# generated benchmark scenario\n" + "\n".join(lines) + "\n")
        return path

    def _write_series(self, rng, k: int, mode: str, n: int) -> List[str]:
        """Three admissible readings of one score: a slow cycle plus AR(1)
        noise, shifted apart by reading."""
        t = np.arange(n)
        ar = np.zeros(n)
        eps = rng.normal(0.0, 0.002, n)
        for i in range(1, n):
            ar[i] = 0.8 * ar[i - 1] + eps[i]
        base = 0.01 * np.sin(2.0 * np.pi * t / rng.uniform(300, 900)) + ar
        paths = []
        for j, shift in enumerate((0.0, -0.004, 0.004)):
            path = os.path.join(self.workdir, f"series_{k}_{mode}_{j}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("t,value\n")
                fh.writelines(f"{i},{v:.10g}\n" for i, v in enumerate(base + shift))
            paths.append(path)
        return paths

    def _subprocess(self, argv: List[str]) -> None:
        proc = subprocess.Popen([sys.executable, "-m", "debtregime"] + argv, env=self.env,
                                cwd=self.workdir, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {err.decode(errors='replace')[-300:]}")

    def _in_process(self, argv: List[str]) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.dr.cli.run_cli(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {buf.getvalue()[-300:]}")

    def run_round(self, k: int, in_process: bool) -> Round:
        rnd = Round(units=len(self.rounds[k]))
        for j, (base, argv, outs) in enumerate(self.rounds[k]):
            out_dir = os.path.join(self.workdir, f"out_r{k}_c{j}")
            shutil.rmtree(out_dir, ignore_errors=True)
            paths = [os.path.join(out_dir, name + ".csv") for name in outs]
            run = self._in_process if in_process else self._subprocess
            op = self._call(rnd, argv[0], functools.partial(run, base + ["--out", out_dir] + argv),
                            check=lambda _res, paths=paths: _check_outputs(paths))
            if op.error is None:
                missing = [p for p in paths if not os.path.isfile(p)]
                if missing:
                    op.error = f"missing outputs {missing}"
                    continue
                idx = [len(rnd.ops) - 1]
                rnd.csvs += [(f"r{k}/c{j}/{os.path.basename(p)}", p, idx) for p in paths]
        return rnd


WORKLOADS = {w.name: w for w in (MonteCarlo, ClosureSolvers, CliArtifacts)}
