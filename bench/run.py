"""Benchmark runner for debtregime.

    python3 bench/run.py --workload mc_classifiers --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's `src/`, and child processes get that absolute path in
PYTHONPATH.  With `--trace 0` the run reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it runs a fixed number of rounds untraced
and then traced, and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Other flags: `--tiny` shrinks every workload for the smoke test,
`--digests PATH` reads reference digests from another file, and
`--record-digests` (only at the reference seed) runs every generated round
once and stores the digests of its CSVs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from typing import Dict, List, Optional

import numpy as np

from tracer import Tracer, per_layer_units
from workloads import WORKLOADS, child_env

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
REFERENCE_SEED = 1
SETUP_PROBES = 8  # timed probes, after one untimed warm-up probe
MIN_ROUNDS = 3
# Calibration kernel time on an idle core of the host the benchmark was
# defined on (2-vCPU 2.1 GHz Xeon); see Speed.
CALIBRATION_REF_S = 0.0065
END_TO_END_UNITS = (
    ("setup_s", "s"), ("wall_s", "s"), ("throughput", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
)

# A fresh interpreter: import the package and load the workload's scenario,
# then report the import time and the monotonic clock at the end.
PROBE = (
    "import sys, time\n"
    "t0 = time.monotonic()\n"
    "import debtregime\n"
    "t1 = time.monotonic()\n"
    "debtregime.load_scenario(sys.argv[1])\n"
    "print(t1 - t0, time.monotonic())\n"
)


class BenchError(Exception):
    """The benchmark itself cannot run or its run is invalid."""


def _calibration_kernel() -> float:
    acc = 0
    table = {}
    for i in range(60000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    a = np.linspace(0.0, 1.0, 48)
    for _ in range(900):
        a = np.sqrt(a * a + 1e-3)
    return acc + float(a.sum())


class Speed:
    """Scales timings to the reference machine's speed.

    On a shared host this process runs at two speeds about 1.5x apart (a
    busy or idle sibling core), switching every few seconds to minutes, so
    no run length averages the drift out.  A fixed calibration kernel
    (interpreter loop plus small numpy calls, like the workloads) is timed
    before every round and every setup probe, and once after the last
    round.  Times are multiplied by CALIBRATION_REF_S over the kernel time:

    - work in the benchmark process, per round, by the mean of the two
      calibrations around the round, which tracks the phase it ran in;
    - work in child processes (CLI commands, setup probes), by the run's
      mean calibration, because a child may run on another core than the
      kernel and only the run-level average tracks it.

    Raw values go to the run record.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        t0 = time.perf_counter()
        _calibration_kernel()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        """Scale for the item timed between samples i and i + 1."""
        return 2.0 * CALIBRATION_REF_S / (self.samples[i] + self.samples[i + 1])

    def mean_factor(self) -> float:
        return CALIBRATION_REF_S / statistics.mean(self.samples)


def _import_package() -> types.SimpleNamespace:
    if not os.path.isfile(os.path.join(SRC, "debtregime", "__init__.py")):
        raise BenchError(f"no debtregime package under {SRC}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("debtregime")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported debtregime from {package.__file__}, not {SRC}")
    names = ("cli", "closure", "core", "inference", "investment", "montecarlo",
             "scenario", "tables", "transition")
    modules = {n: importlib.import_module("debtregime." + n) for n in names}
    return types.SimpleNamespace(package=package, **modules)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _git_sha() -> Optional[str]:
    """Read HEAD from the checkout's .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _run_record(args, dr) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": None}
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "debtregime": dr.package.__version__,
        "blas": blas,
        "blas_threads": threads or "library default",
        "loadavg_start": os.getloadavg(),
        "started_unix": time.time(),
    }


class SetupProbes:
    """Fresh interpreters that import the package and load a scenario.

    setup_s is the median time from process start through `import
    debtregime` and `load_scenario`; import_s the median import time.  The
    first probe of a run is not counted: it warms the file cache and writes
    bytecode.
    """

    def __init__(self, env: dict, scenario_path: str, cwd: str, speed: Speed):
        self.env, self.scenario_path, self.cwd, self.speed = env, scenario_path, cwd, speed
        self.setups: List[float] = []
        self.imports: List[float] = []
        self.warm = False

    def run(self, n: int) -> None:
        for _ in range(n + (0 if self.warm else 1)):
            self.speed.sample()
            t_spawn = time.monotonic()
            proc = subprocess.run([sys.executable, "-c", PROBE, self.scenario_path],
                                  env=self.env, cwd=self.cwd, capture_output=True, text=True,
                                  timeout=120)
            if proc.returncode != 0:
                raise BenchError(f"setup probe failed: {proc.stderr[-500:]}")
            import_s, t_done = (float(v) for v in proc.stdout.split())
            if self.warm:
                self.setups.append(t_done - t_spawn)
                self.imports.append(import_s)
            self.warm = True

    def setup_s(self, scale: float = 1.0) -> float:
        return statistics.median(self.setups) * scale

    def import_s(self, scale: float = 1.0) -> float:
        return statistics.median(self.imports) * scale


def _digest(path: str) -> str:
    """SHA-256 of a CSV's header and rows; `#` metadata lines are left out so
    that a version bump is not an output change."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


class Phase:
    """Round-by-round measurements of one phase of a run."""

    def __init__(self):
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.latencies: List[List[float]] = []  # per round
        self.scales: List[float] = []  # per round, from Speed.factor
        self.units = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}


def run_phase(wl, phase: Phase, speed: Speed, *, start: int = 0,
              rounds: Optional[int] = None, seconds: Optional[float] = None,
              in_process: bool, tracer=None, reference: Optional[Dict[str, str]] = None,
              timed: bool = True) -> None:
    t_phase = time.perf_counter()
    done = 0
    while True:
        if rounds is not None and done >= rounds:
            break
        if (seconds is not None and done >= MIN_ROUNDS
                and time.perf_counter() - t_phase >= seconds):
            break
        k = (start + done) % wl.n_inputs
        cal = speed.sample()
        c0, t0 = _cpu_s(), time.perf_counter()
        if tracer is not None:
            tracer.active = True
        rnd = wl.run_round(k, in_process)
        if tracer is not None:
            tracer.active = False
        t1, c1 = time.perf_counter(), _cpu_s()
        _check_round(rnd, phase, reference)
        if timed:
            phase.walls.append(t1 - t0)
            phase.cpus.append(c1 - c0)
            phase.latencies.append([op.seconds for op in rnd.ops])
            phase.scales.append(cal)
            phase.units += rnd.units
        done += 1
    speed.sample()
    phase.scales = [speed.factor(i) for i in phase.scales]


def _timings(phase: Phase, scales: List[float]) -> Dict[str, List[float]]:
    return {
        "walls": [w * f for w, f in zip(phase.walls, scales)],
        "cpus": [c * f for c, f in zip(phase.cpus, scales)],
        "latencies": [x * f for lats, f in zip(phase.latencies, scales) for x in lats],
    }


def _check_round(rnd, phase: Phase, reference: Optional[Dict[str, str]]) -> None:
    for op in rnd.ops:
        if op.error is None and op.check is not None:
            problems = op.check(op.result)
            if problems:
                op.error = "; ".join(problems[:3])
    for key, path, idx in rnd.csvs:
        digest = _digest(path)
        phase.digests[key] = digest
        if reference is not None and reference.get(key) != digest:
            for i in idx:
                if rnd.ops[i].error is None:
                    rnd.ops[i].error = f"digest mismatch for {key}"
    for op in rnd.ops:
        phase.attempted += 1
        if op.error is not None:
            phase.failed += 1
            if len(phase.errors) < 20:
                phase.errors.append(f"{op.kind}: {op.error}")


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def _load_digests(path: str) -> dict:
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _table_key(wl) -> str:
    return f"{wl.name}/{'tiny' if wl.tiny else 'full'}"


def record_digests(wl, path: str) -> dict:
    phase = Phase()
    run_phase(wl, phase, Speed(), rounds=wl.n_inputs, in_process=False, timed=False)
    if phase.failed:
        raise BenchError("refusing to record digests from failed ops: "
                         + "; ".join(phase.errors[:5]))
    table = _load_digests(path)
    table[_table_key(wl)] = dict(sorted(phase.digests.items()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    return {"recorded": len(phase.digests), "table": _table_key(wl), "ops": phase.attempted}


class Outcome:
    """What a run reports: metrics, op counts, and notes for the record."""

    def __init__(self, phases: List[Phase]):
        self.attempted = sum(p.attempted for p in phases)
        self.failed = sum(p.failed for p in phases)
        self.errors = [e for p in phases for e in p.errors]
        self.valid = True
        self.metrics: Dict[str, float] = {}
        self.record: Dict[str, object] = {}
        self.summary = ""


def end_to_end(wl, args, probes: SetupProbes, speed: Speed, reference) -> Outcome:
    # half the setup probes before the timed phase and half after, so that
    # setup_s samples the whole run
    n_probes = 2 if wl.tiny else SETUP_PROBES // 2
    probes.run(n_probes)
    warm, phase = Phase(), Phase()
    run_phase(wl, warm, speed, rounds=wl.warmup_rounds, start=wl.n_inputs - 1,
              in_process=False, reference=reference, timed=False)
    run_phase(wl, phase, speed, seconds=args.seconds, in_process=False, reference=reference)
    probes.run(n_probes)
    rss_kind = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_kind).ru_maxrss / 1024.0

    run_scale = speed.mean_factor()

    def metrics(scales: List[float], probe_scale: float) -> Dict[str, float]:
        t = _timings(phase, scales)
        return {
            "setup_s": probes.setup_s(probe_scale),
            "wall_s": statistics.median(t["walls"]),
            "throughput": phase.units / sum(t["walls"]),
            "op_p50_ms": statistics.median(t["latencies"]) * 1e3,
            "op_tail_ms": _percentile(t["latencies"], wl.tail_pct) * 1e3,
            "cpu_s": statistics.mean(t["cpus"]),
            "peak_rss_mb": peak_rss_mb,
        }

    out = Outcome([warm, phase])
    scales = [run_scale] * len(phase.walls) if wl.in_children else phase.scales
    out.metrics = metrics(scales, run_scale)
    n_ops = sum(len(lats) for lats in phase.latencies)
    beyond = n_ops - math.ceil(wl.tail_pct / 100.0 * n_ops)
    out.summary = (
        f"{wl.name}: {len(phase.walls)} rounds of {phase.units / len(phase.walls):g} "
        f"{wl.unit}, {n_ops} ops; op_tail_ms is p{wl.tail_pct} with {beyond} ops beyond it; "
        f"run speed scale {run_scale:.4f}; "
        f"failed_frac {out.failed / out.attempted:.4g} ({out.failed}/{out.attempted})")
    out.record = {"raw_metrics": metrics([1.0] * len(phase.walls), 1.0),
                  "calibration_s": speed.samples, "run_scale": run_scale,
                  "round_walls": phase.walls, "round_cpus": phase.cpus,
                  "round_scales": phase.scales}
    return out


# Functions that must record calls on the workload the prediction table maps
# them to; a traced run where one records none is invalid.
REQUIRED_CALLS = {
    "mc_classifiers": ("inference.detrend_local_linear", "inference.subsample_critical_value",
                       "inference.classify", "montecarlo.simulate_pe_paths",
                       "montecarlo.run_mc_pe", "montecarlo.run_mc_tf"),
    "closure_solvers": ("closure.solve_premium", "closure.solve_premium_bisection",
                        "closure.demand_at", "closure.fixed_point_scan",
                        "closure.monotone_path", "investment.allocate",
                        "investment.AllocationProblem.objective", "investment.allocate_ascent",
                        "transition.required_growth_endogenous"),
    "cli_artifacts": ("scenario.load_scenario", "cli.run_cli", "tables.build_table",
                      "tables.emit_csv", "inference.detrend_local_linear",
                      "inference.subsample_critical_value"),
}


def traced(wl, probes: SetupProbes, speed: Speed, reference, spans_path: str) -> Outcome:
    probes.run(2 if wl.tiny else SETUP_PROBES // 2)
    warm, untraced, traced_phase = Phase(), Phase(), Phase()
    run_phase(wl, warm, speed, rounds=1, start=wl.n_inputs - 1, in_process=True,
              reference=reference, timed=False)
    run_phase(wl, untraced, speed, rounds=wl.trace_rounds, in_process=True,
              reference=reference)
    tracer = Tracer()
    wl.tracer = tracer
    tracer.install()
    try:
        run_phase(wl, traced_phase, speed, rounds=wl.trace_rounds, in_process=True,
                  tracer=tracer, reference=reference)
    finally:
        tracer.uninstall()
        wl.tracer = None
    tracer.write_spans(spans_path)
    factor = statistics.mean(traced_phase.scales)
    out = Outcome([warm, untraced, traced_phase])
    out.metrics = {name: value * factor if name.endswith(".self_s") else value
                   for name, value in tracer.metrics().items()}
    out.metrics["cli.import_s"] = probes.import_s(speed.mean_factor())
    out.metrics["trace.overhead_frac"] = (
        statistics.median(_timings(traced_phase, traced_phase.scales)["walls"])
        / statistics.median(_timings(untraced, untraced.scales)["walls"]) - 1.0)
    missing = [n for n in REQUIRED_CALLS[wl.name] if tracer.calls(n) == 0]
    if missing:
        out.valid = False
        out.errors.append(f"traced functions with no calls: {missing}")
    out.summary = (f"{wl.name}: traced {wl.trace_rounds} rounds; overhead "
                   f"{out.metrics['trace.overhead_frac']:.3f}; speed scale {factor:.4f}; "
                   f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped; "
                   f"spans in {spans_path}")
    out.record = {"speed_scale": factor, "calibration_s": speed.samples}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--digests", default=DIGESTS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != REFERENCE_SEED:
        parser.error(f"--record-digests needs --seed {REFERENCE_SEED}")

    try:
        dr = _import_package()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record = _run_record(args, dr)
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    workdir = os.path.join(TMP_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(RUNS_DIR, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](dr, args.seed, args.tiny, workdir)
        if args.record_digests:
            print(json.dumps(record_digests(wl, args.digests)))
            return 0
        reference = None
        if args.seed == REFERENCE_SEED:
            reference = _load_digests(args.digests).get(_table_key(wl), {})
        scenario = os.path.join(workdir, "probe_scenario.ini")
        with open(scenario, "w", encoding="utf-8") as fh:
            fh.write(f"# setup probe scenario\nscenario.name = {args.workload}\n")
        speed = Speed()
        probes = SetupProbes(child_env(SRC), scenario, workdir, speed)
        if args.trace:
            out = traced(wl, probes, speed, reference,
                         os.path.join(RUNS_DIR, tag + ".spans.jsonl"))
        else:
            out = end_to_end(wl, args, probes, speed, reference)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in out.errors:
        print(f"bench: failed op: {err}", file=sys.stderr)
    result = {"correct": out.valid and out.failed == 0, "attempted": out.attempted,
              "failed": out.failed, "metrics": {}}
    units = per_layer_units() if args.trace else dict(END_TO_END_UNITS)
    for name, unit in units.items():
        result["metrics"][name] = {"value": out.metrics[name], "unit": unit}
    record.update(result=result, summary=out.summary, setup_probes_s=probes.setups,
                  import_probes_s=probes.imports, **out.record)
    with open(os.path.join(RUNS_DIR, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(out.summary)
    print(json.dumps(result))
    return 0 if out.valid else 1


if __name__ == "__main__":
    sys.exit(main())
