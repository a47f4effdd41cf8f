import os
import subprocess
import sys

import numpy as np

from debtregime.cli import run_cli


def run(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "debtregime"] + args,
        cwd=cwd, capture_output=True, text=True,
    )


class TestExitCodes:
    def test_usage_error_is_exit_1(self, tmp_path):
        assert run(["frobnicate"], tmp_path).returncode == 1
        assert run([], tmp_path).returncode == 1

    def test_config_error_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("econ.nope = 1\n")
        res = run(["--config", str(bad), "scenario"], tmp_path)
        assert res.returncode == 2
        assert "econ.nope" in res.stderr

    def test_domain_error_is_exit_3(self, tmp_path):
        res = run(
            ["infer", "--series", str(tmp_path / "missing.csv")], tmp_path
        )
        assert res.returncode == 2  # unreadable series file is a config problem
        short = tmp_path / "short.csv"
        short.write_text("t,value\n" + "\n".join(f"{i},0.01" for i in range(6)))
        res2 = run(["infer", "--series", str(short)], tmp_path)
        assert res2.returncode == 3

    def test_non_finite_series_is_exit_3(self, tmp_path):
        series = tmp_path / "s.csv"
        values = ["nan" if i == 30 else f"{0.01 + 0.001 * i}" for i in range(48)]
        series.write_text("t,value\n" + "\n".join(f"{i},{v}" for i, v in enumerate(values)))
        res = run(["--out", "o", "infer", "--series", str(series)], tmp_path)
        assert res.returncode == 3
        assert not (tmp_path / "o" / "envelope_bands.csv").exists()

    def test_non_finite_scenario_value_is_exit_2(self, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("closure.z = nan\n")
        res = run(["--config", str(cfg), "--out", "o", "closure"], tmp_path)
        assert res.returncode == 2
        assert "closure.z" in res.stderr
        assert not (tmp_path / "o" / "closure.csv").exists()

    def test_success_is_exit_0(self, tmp_path):
        assert run(["scenario"], tmp_path).returncode == 0


class TestSubcommands:
    def test_scenario_writes_report(self, tmp_path):
        res = run(["--out", "o", "scenario"], tmp_path)
        assert res.returncode == 0
        assert (tmp_path / "o" / "scenario_report.csv").exists()
        assert "closure case = a_interior" in res.stdout

    def test_clock_bounds_closure_transition(self, tmp_path):
        for cmd, outfile in [
            ("clock", "clock.csv"), ("bounds", "bounds.csv"),
            ("closure", "closure.csv"), ("transition", "transition.csv"),
        ]:
            res = run(["--out", "o", cmd], tmp_path)
            assert res.returncode == 0, res.stderr
            assert (tmp_path / "o" / outfile).exists()

    def test_closure_sweep_emits_stress_grid(self, tmp_path):
        res = run(["--out", "o", "closure", "--sweep", "stress_v2"], tmp_path)
        assert res.returncode == 0
        text = (tmp_path / "o" / "stress_v2.csv").read_text()
        header = [l for l in text.split("\n") if not l.startswith("#")][0]
        assert header == "scenario,theta,z,phi_d0,rho_star,required_dg,label,paper_rho_ref"
        assert text.count("\n") >= 7

    def test_infer_on_series(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = "\n".join(
            f"{i},{0.03 + 0.002 * rng.standard_normal():.6f}" for i in range(40)
        )
        series = tmp_path / "scores.csv"
        series.write_text("t,value\n" + rows + "\n")
        res = run(["--out", "o", "infer", "--series", str(series)], tmp_path)
        assert res.returncode == 0, res.stderr
        text = (tmp_path / "o" / "envelope_bands.csv").read_text()
        header = [l for l in text.split("\n") if not l.startswith("#")][0]
        assert header == "t,lower,upper,c_lower,c_upper,label"

    def test_tables_emits_all(self, tmp_path):
        res = run(["--out", "o", "tables", "--reps", "8"], tmp_path)
        assert res.returncode == 0, res.stderr
        names = sorted(os.listdir(tmp_path / "o"))
        assert names == [
            "calibration.csv", "mc_pe.csv", "mc_tf.csv", "psi_countries.csv",
            "stress_v2.csv", "tier_pe.csv", "tier_tf.csv",
        ]

    def test_run_cli_inprocess(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["--out", "o", "clock"]) == 0
        assert run_cli(["definitely-not-a-command"]) == 1
