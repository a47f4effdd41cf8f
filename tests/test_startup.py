"""What a fresh process imports: the scalar commands start without numpy,
and the package's public names stay what they were before `montecarlo`
loaded lazily."""

import json
import subprocess
import sys

import pytest

import debtregime

# Runs each command of argv[1] (a JSON list) through `run_cli` in one process
# and prints, after each, the exit code and whether numpy is loaded; the first
# line covers `import debtregime` and the baseline scenario.
_PROBE = """
import contextlib, io, json, sys
import debtregime
debtregime.load_scenario(None)
print(json.dumps(["import debtregime; load_scenario(None)", 0, "numpy" in sys.modules]))
from debtregime.cli import run_cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(argv)
    print(json.dumps([" ".join(argv), code, "numpy" in sys.modules]))
"""

_NON_MC_TABLES = ("calibration", "stress_v2", "tier_pe", "tier_tf", "psi_countries")

# `from debtregime import *` and the public names of `dir(debtregime)` in a
# fresh process, as they were when every module loaded eagerly
_PUBLIC_NAMES = sorted([
    "AllocationProblem", "ClockSpec", "EconState", "FiscalResponse",
    "InvestmentBounds", "InvestmentInputs", "MCConfig", "MarginDistribution",
    "MeasurementVariant", "PremiumSolution", "PsiSpec", "RegimeParams", "Scenario",
    "SprintSpec", "SubsampleConfig", "TableArtifact", "ThetaLaw", "TierEnvelope",
    "TransitionSpec", "TwoLayerParams", "allocate", "build_table",
    "captive_threshold_shift", "check_scope", "classify", "clock", "closure",
    "comparative_statics", "compute_bounds", "core", "cumulative_upper_bound",
    "demand_at", "detrend_local_linear", "effective_deficit", "emit_csv", "envelope",
    "errors", "estimate_kappa", "extensions", "feasibility_label", "feedback_gain",
    "fixed_point_scan", "inference", "investment", "joint_feasibility",
    "load_scenario", "marginal_gain_sequence", "monotone_path", "montecarlo",
    "paradox_test", "pe_sensitivities", "psi_composite", "ratchet_gap",
    "reference_values", "repression_dividend", "required_growth_endogenous",
    "required_growth_exogenous", "run_mc_pe", "run_mc_tf", "scenario", "score_pe",
    "score_tf", "solve_premium", "sprint_cumulative_improvement",
    "stability_surplus", "step_debt", "step_debt_stochastic",
    "subsample_critical_value", "tables", "theta_step", "timing_feasible",
    "transition", "trend_growth_estimate",
])


def _probe(tmp_path, commands):
    out = str(tmp_path / "out")
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([["--out", out] + c for c in commands])],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    return [json.loads(line) for line in res.stdout.splitlines()]


def _series(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t,value\n" + "".join(f"{i},{0.01 + 0.001 * (i % 7)}\n" for i in range(48)))
    return str(path)


def test_scalar_commands_start_without_numpy(tmp_path):
    commands = [["scenario"], ["clock"], ["bounds"], ["closure"],
                ["closure", "--sweep", "stress_v2"], ["transition"]]
    commands += [["tables", "--only", t] for t in _NON_MC_TABLES]
    runs = _probe(tmp_path, commands)
    assert len(runs) == len(commands) + 1
    for label, code, numpy_loaded in runs:
        assert code == 0, label
        assert not numpy_loaded, f"{label} imported numpy"


@pytest.mark.parametrize("command", [["infer", "--series"], ["mc", "--reps", "2"]],
                         ids=["infer", "mc"])
def test_array_commands_import_numpy(tmp_path, command):
    if command[0] == "infer":
        command = command + [_series(tmp_path)]
    (_, _, at_import), (label, code, numpy_loaded) = _probe(tmp_path, [command])
    assert not at_import
    assert code == 0, label
    assert numpy_loaded, f"{label} ran without numpy"


def test_public_names_are_unchanged():
    # `dir` is listed before the star import loads `montecarlo`
    script = ("import debtregime, json\n"
              "listed = [n for n in dir(debtregime) if not n.startswith('_')]\n"
              "ns = {}\nexec('from debtregime import *', ns)\n"
              "print(json.dumps([listed, sorted(n for n in ns if not n.startswith('_'))]))")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    listed, starred = json.loads(res.stdout)
    assert listed == starred == _PUBLIC_NAMES
    assert sorted(debtregime.__all__) == _PUBLIC_NAMES
    for name in debtregime.__all__:
        getattr(debtregime, name)
    from debtregime import montecarlo

    assert debtregime.montecarlo is montecarlo
    assert (debtregime.MCConfig, debtregime.run_mc_pe, debtregime.run_mc_tf) == (
        montecarlo.MCConfig, montecarlo.run_mc_pe, montecarlo.run_mc_tf)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        debtregime.no_such_name


def test_table_margin_gain_and_path_without_numpy():
    # the table gain is a closed form: no array premium solve loads numpy
    code = """
import sys
from debtregime.closure import (MarginDistribution, ThetaLaw, TwoLayerParams, feedback_gain,
                                monotone_path)
from debtregime.core import EconState
dist = MarginDistribution(kind="table", knots=((0.0, 0.3), (0.02, 0.55), (0.06, 1.0)))
p = TwoLayerParams(theta=0.95, psi=0.9, z=0.03, phi_req=0.9, dist=dist)
law = ThetaLaw(kappa_theta=0.01, g0=0.5)
econ = EconState(b_prev=2.40, r_n=0.022, g_n=0.030, pi=0.027, d=0.020)
path = monotone_path(p, law, econ, 50)
assert {row["case"] for row in path["periods"]} >= {"a_interior", "c_stress"}
assert 0.0 < feedback_gain(p.with_theta(0.8), law) < 1.0
print("numpy" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
