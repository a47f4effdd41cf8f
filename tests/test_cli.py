import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

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

    def test_block_len_outside_block_grid_is_exit_2(self, tmp_path):
        cfg = tmp_path / "block.cfg"
        cfg.write_text("inference.block_len = 5\n")
        res = run(["--config", str(cfg), "--out", "o", "mc", "--reps", "4"], tmp_path)
        assert res.returncode == 2
        assert "block_grid" in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("horizons, named", [("", "at least one"),
                                                 ("3.8, 15.0, 20.0", "20.0"),
                                                 ("0.5, 3.8, 7.5", "0.5")])
    def test_horizon_outside_the_sample_is_exit_2(self, tmp_path, horizons, named):
        cfg = tmp_path / "horizons.cfg"
        cfg.write_text(f"mc.evaluation_horizons = {horizons}\n")
        res = run(["--config", str(cfg), "--out", "o", "mc", "--reps", "8",
                   "--experiment", "pe"], tmp_path)
        assert res.returncode == 2
        assert named in res.stderr
        assert not (tmp_path / "o" / "mc_pe.csv").exists()


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


# Scenario files for the artifact pins: a table margin with a custom sweep
# (one row of which fails to close), and a hard-failure state with a paused
# clock, no exponential clock and a depreciation outside its window.
_TABLE_MARGIN_CFG = """\
scenario.name = table_margin
econ.b_prev = 2.1
closure.dist = table
closure.dist_knots = 0.0:0.3, 0.02:0.5, 0.04:0.8, 0.06:1.0
sweep.mygrid.baseline_2026 = closure.theta=0.65,closure.z=0.02
sweep.mygrid.low = closure.theta=0.60,closure.z=0.015
sweep.mygrid.high = closure.theta=0.45,closure.z=0.035
sweep.mygrid.fail = closure.theta=0.3
"""
_HARD_FAILURE_CFG = """\
scenario.name = hard_failure
closure.theta = 0.3
closure.dist = table
closure.dist_knots = 0.0:0.3, 0.03:0.6, 0.06:1.0
regime.kappa = 0.0
regime.kappa_exp = none
regime.de = 0.01
"""
_CONFIGS = {"baseline": None, "table_margin": _TABLE_MARGIN_CFG,
            "hard_failure": _HARD_FAILURE_CFG}
_ARTIFACT_COMMANDS = {
    "scenario": ["scenario"],
    "clock": ["clock"],
    "bounds": ["bounds"],
    "closure": ["closure"],
    "sweep_stress_v2": ["closure", "--sweep", "stress_v2"],
    "transition": ["transition"],
    **{f"tables_{t}": ["tables", "--only", t]
       for t in ("calibration", "stress_v2", "tier_pe", "tier_tf", "psi_countries")},
}

# (config, command) -> SHA-256 prefixes of (stdout, the one CSV written): every
# CLI artifact and summary is pinned byte for byte.
_ARTIFACT_DIGESTS = {
    ('baseline', 'bounds'): ('82100a5250871373', 'db6f36b1fe3b2f95'),
    ('baseline', 'clock'): ('be0b19f07fc6e4b6', '59a4eb51143ed365'),
    ('baseline', 'closure'): ('8f63adaa031cbdea', 'c2724a611caab5ac'),
    ('baseline', 'scenario'): ('79360de5bc0ea5ce', 'c8fd3a0b52dab344'),
    ('baseline', 'sweep_stress_v2'): ('2d21b1ba21c5c195', '75de057716852238'),
    ('baseline', 'tables_calibration'): ('45e1dc9c70d59008', 'f76c5d01abbfb307'),
    ('baseline', 'tables_psi_countries'): ('4b53de498d1097e7', '3c36b03d7666f318'),
    ('baseline', 'tables_stress_v2'): ('2d21b1ba21c5c195', '75de057716852238'),
    ('baseline', 'tables_tier_pe'): ('b4f2c083f7384634', '150949e229cdca82'),
    ('baseline', 'tables_tier_tf'): ('1e193c83ed829b36', '1762ca0da750cce9'),
    ('baseline', 'transition'): ('c7f44910cf2456fe', 'd89430d7ec58576b'),
    ('hard_failure', 'bounds'): ('82100a5250871373', 'd2dffa5ea652394b'),
    ('hard_failure', 'clock'): ('44e846aad8932c7a', '25594d119b1014bb'),
    ('hard_failure', 'closure'): ('3e97444301e34868', 'e58418ea79304253'),
    ('hard_failure', 'scenario'): ('be24570ba443178b', '82e7ebe3c7f75b4a'),
    ('hard_failure', 'sweep_stress_v2'): ('2d21b1ba21c5c195', '6d0064a0b5de52d0'),
    ('hard_failure', 'tables_calibration'): ('45e1dc9c70d59008', '12c42b10589c2fa6'),
    ('hard_failure', 'tables_psi_countries'): ('4b53de498d1097e7', '9aa3582f1f9615ce'),
    ('hard_failure', 'tables_stress_v2'): ('2d21b1ba21c5c195', '6d0064a0b5de52d0'),
    ('hard_failure', 'tables_tier_pe'): ('b4f2c083f7384634', '69d912fb00281eee'),
    ('hard_failure', 'tables_tier_tf'): ('1e193c83ed829b36', '7c3c6a57c5d197be'),
    ('hard_failure', 'transition'): ('888a72c14d5bf3ee', '49e867da8071edd3'),
    ('table_margin', 'bounds'): ('be8463b8a3492803', 'c3c087e7659bbe99'),
    ('table_margin', 'clock'): ('be0b19f07fc6e4b6', '4843f51422953b0d'),
    ('table_margin', 'closure'): ('eb483ac35e0dea8c', '5a5ab6ef94ccc385'),
    ('table_margin', 'scenario'): ('cf5c100b1c883a04', '187cbe4b19f4e048'),
    ('table_margin', 'sweep_stress_v2'): ('2d21b1ba21c5c195', '3901ea06d03f137d'),
    ('table_margin', 'tables_calibration'): ('45e1dc9c70d59008', '80db75015a8b7027'),
    ('table_margin', 'tables_psi_countries'): ('4b53de498d1097e7', 'e5524bfaac940d3a'),
    ('table_margin', 'tables_stress_v2'): ('2d21b1ba21c5c195', '3901ea06d03f137d'),
    ('table_margin', 'tables_tier_pe'): ('b4f2c083f7384634', '458f4f7cb681e7a1'),
    ('table_margin', 'tables_tier_tf'): ('1e193c83ed829b36', 'e40d21fd4f3d934f'),
    ('table_margin', 'transition'): ('5b8320af3b16e0f2', 'fca5e9b8404c2997'),
}


def _run_inprocess(tmp_path, monkeypatch, capsys, config, argv):
    monkeypatch.chdir(tmp_path)
    base = ["--out", "o"]
    if _CONFIGS[config] is not None:
        (tmp_path / "s.cfg").write_text(_CONFIGS[config])
        base = ["--config", "s.cfg"] + base
    capsys.readouterr()
    code = run_cli(base + argv)
    out = capsys.readouterr().out
    files = sorted((tmp_path / "o").iterdir()) if (tmp_path / "o").exists() else []
    return code, out, files


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestArtifactPins:
    @pytest.mark.parametrize("config", sorted(_CONFIGS))
    @pytest.mark.parametrize("command", sorted(_ARTIFACT_COMMANDS))
    def test_artifact_bytes(self, tmp_path, monkeypatch, capsys, config, command):
        code, out, files = _run_inprocess(
            tmp_path, monkeypatch, capsys, config, _ARTIFACT_COMMANDS[command]
        )
        assert code == 0
        assert len(files) == 1
        got = (_sha(out.encode()), _sha(files[0].read_bytes()))
        assert got == _ARTIFACT_DIGESTS[(config, command)], (config, command, got)

    def test_custom_sweep_is_the_stress_grid(self, tmp_path, monkeypatch, capsys):
        # a scenario's own sweep gets the stress grid's columns and its full
        # metadata; only the table id differs
        code, out, files = _run_inprocess(
            tmp_path, monkeypatch, capsys, "table_margin", ["closure", "--sweep", "mygrid"]
        )
        assert code == 0
        assert out == "wrote o/mygrid.csv\n".replace("/", os.sep)
        lines = files[0].read_text().splitlines(keepends=True)
        body = "".join(l for l in lines if not l.startswith("#"))
        assert _sha(body.encode()) == "805318cb9276c144"
        code, _, _ = _run_inprocess(
            tmp_path, monkeypatch, capsys, "table_margin", ["closure", "--sweep", "stress_v2"]
        )
        assert code == 0
        stress_meta = [l for l in (tmp_path / "o" / "stress_v2.csv").read_text()
                       .splitlines(keepends=True) if l.startswith("#")]
        assert [l for l in lines if l.startswith("#")] == [
            l.replace("stress_v2", "mygrid") if l.startswith("# table_id") else l
            for l in stress_meta
        ]

    def test_unknown_sweep_is_exit_2(self, tmp_path, monkeypatch, capsys):
        code, _, files = _run_inprocess(
            tmp_path, monkeypatch, capsys, "baseline", ["closure", "--sweep", "nope"]
        )
        assert code == 2
        assert files == []
