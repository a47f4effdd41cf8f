import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from debtregime.cli import run_cli
from debtregime.errors import ConfigError
from debtregime.scenario import _SCHEMA, load_scenario
from test_readme import _block  # README's fenced example blocks


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

    @pytest.mark.parametrize("command, csv", [(["scenario"], "scenario_report.csv"),
                                              (["mc", "--reps", "4"], "mc_pe.csv")])
    def test_none_on_a_required_key_is_exit_2(self, tmp_path, command, csv):
        # `none` must not reach the solvers, where it ends in a TypeError
        cfg = tmp_path / "none.cfg"
        cfg.write_text("econ.pi = none\n")
        res = run(["--config", str(cfg), "--out", "o"] + command, tmp_path)
        assert res.returncode == 2
        assert "line 1: econ.pi expects a number, got 'none'" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o" / csv).exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["mc", "tables"])
    def test_seed_outside_64_bits_is_exit_2(self, tmp_path, seed, command):
        # `_rep_rng` masks the key to 64 bits: 2**64 would give seed 0's rows
        res = run([f"--seed={seed}", "--out", "o", command, "--reps", "4"], tmp_path)
        assert res.returncode == 2
        assert "seed must lie in [0, 2**64)" in res.stderr
        assert not (tmp_path / "o").exists()  # `tables` writes none of its CSVs

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
# CLI artifact and summary is pinned byte for byte (recorded with Python 3.11
# and numpy 2.4.6).
_ARTIFACT_DIGESTS = {
    ('baseline', 'bounds'): ('82100a5250871373', '43e04662627658f7'),
    ('baseline', 'clock'): ('be0b19f07fc6e4b6', '324216953cf0b4d2'),
    ('baseline', 'closure'): ('8f63adaa031cbdea', 'bbf29c4d3a5fb9e3'),
    ('baseline', 'scenario'): ('79360de5bc0ea5ce', '4aeb9ec5065fc1de'),
    ('baseline', 'sweep_stress_v2'): ('2d21b1ba21c5c195', '436f901ce1e9cc27'),
    ('baseline', 'tables_calibration'): ('45e1dc9c70d59008', '62bafa9c90b1480d'),
    ('baseline', 'tables_psi_countries'): ('4b53de498d1097e7', 'c1452462d0969b2d'),
    ('baseline', 'tables_stress_v2'): ('2d21b1ba21c5c195', '436f901ce1e9cc27'),
    ('baseline', 'tables_tier_pe'): ('b4f2c083f7384634', '791db864bf6a552f'),
    ('baseline', 'tables_tier_tf'): ('1e193c83ed829b36', '00b0de718df77b42'),
    ('baseline', 'transition'): ('c7f44910cf2456fe', '0427c8a61adba45d'),
    ('hard_failure', 'bounds'): ('82100a5250871373', '9dc36cdaa4843f6b'),
    ('hard_failure', 'clock'): ('44e846aad8932c7a', '15d34509ebcda91a'),
    ('hard_failure', 'closure'): ('3e97444301e34868', '7a44da1f0b30fb7d'),
    ('hard_failure', 'scenario'): ('be24570ba443178b', 'a476180408aa973f'),
    ('hard_failure', 'sweep_stress_v2'): ('2d21b1ba21c5c195', '179c0a56c836890f'),
    ('hard_failure', 'tables_calibration'): ('45e1dc9c70d59008', '6bd7636e2fd574d9'),
    ('hard_failure', 'tables_psi_countries'): ('4b53de498d1097e7', '4dd4b6d7054e413d'),
    ('hard_failure', 'tables_stress_v2'): ('2d21b1ba21c5c195', '179c0a56c836890f'),
    ('hard_failure', 'tables_tier_pe'): ('b4f2c083f7384634', 'ba9485444eedde42'),
    ('hard_failure', 'tables_tier_tf'): ('1e193c83ed829b36', 'ea4f11207544387b'),
    ('hard_failure', 'transition'): ('888a72c14d5bf3ee', 'a19ec76e76e22464'),
    ('table_margin', 'bounds'): ('be8463b8a3492803', '0fbe3f1bee495366'),
    ('table_margin', 'clock'): ('be0b19f07fc6e4b6', '8b939e1e212ac52e'),
    ('table_margin', 'closure'): ('b02b2ab33b935d99', 'f41c6493f0b3a082'),
    ('table_margin', 'scenario'): ('cf5c100b1c883a04', '46326f91691618ff'),
    ('table_margin', 'sweep_stress_v2'): ('2d21b1ba21c5c195', 'e0e09c575e2f2a07'),
    ('table_margin', 'tables_calibration'): ('45e1dc9c70d59008', '189b5c1f9fed95c6'),
    ('table_margin', 'tables_psi_countries'): ('4b53de498d1097e7', '9fa0854eeabd8bba'),
    ('table_margin', 'tables_stress_v2'): ('2d21b1ba21c5c195', 'e0e09c575e2f2a07'),
    ('table_margin', 'tables_tier_pe'): ('b4f2c083f7384634', 'a276927d658c7115'),
    ('table_margin', 'tables_tier_tf'): ('1e193c83ed829b36', 'd7d2d956de60bd9c'),
    ('table_margin', 'transition'): ('8c0fb53b6526311f', '431813b01ec9fe45'),
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


# `infer` pins: three admissible readings on one shared quarterly axis, in
# both modes, at the baseline window and at a 12-period window.
_INFER_CONFIGS = {"baseline": None, "window_12": "inference.window_h = 12\n"}
_INFER_DIGESTS = {
    ('baseline', 'PE'): ('659ecdbeaabc181e', '20d0c060512a2cda'),
    ('baseline', 'TF'): ('3ed2363613fea5c0', 'b844411c38236f90'),
    ('window_12', 'PE'): ('659ecdbeaabc181e', '0d3c2686c6f44e59'),
    ('window_12', 'TF'): ('3ed2363613fea5c0', '794afb6778011176'),
}


def _write_readings(tmp_path, n=80):
    """Three readings of one score: a slow cycle through zero plus AR(1)
    noise, shifted apart by reading.  Returns the file names."""
    rng = np.random.default_rng(11)
    t = (2005.0 + np.arange(n) / 4.0).tolist()
    eps = rng.normal(0.0, 0.002, n)
    ar = np.zeros(n)
    for i in range(1, n):
        ar[i] = 0.8 * ar[i - 1] + eps[i]
    base = 0.006 * np.sin(2.0 * np.pi * np.arange(n) / 40.0) + ar
    names = []
    for j, shift in enumerate((0.0, -0.003, 0.003)):
        name = f"s{j}.csv"
        rows = "".join(f"{ti!r},{v:.10g}\n" for ti, v in zip(t, (base + shift).tolist()))
        (tmp_path / name).write_text("t,value\n" + rows)
        names.append(name)
    return names


def _infer(tmp_path, monkeypatch, capsys, names, mode="PE", config=None):
    monkeypatch.chdir(tmp_path)
    argv = ["--out", "o"]
    if config is not None:
        (tmp_path / "s.cfg").write_text(config)
        argv = ["--config", "s.cfg"] + argv
    argv += ["infer", "--mode", mode]
    for name in names:
        argv += ["--series", name]
    capsys.readouterr()
    code = run_cli(argv)
    return code, capsys.readouterr(), tmp_path / "o" / "envelope_bands.csv"


class TestInferPins:
    @pytest.mark.parametrize("config", sorted(_INFER_CONFIGS))
    @pytest.mark.parametrize("mode", ["PE", "TF"])
    def test_envelope_bands_bytes(self, tmp_path, monkeypatch, capsys, config, mode):
        names = _write_readings(tmp_path)
        code, out, csv = _infer(tmp_path, monkeypatch, capsys, names, mode,
                                _INFER_CONFIGS[config])
        assert code == 0, out.err
        # the readings cross zero: every label of the mode shows up
        labels = {line.rsplit(",", 1)[1] for line in csv.read_text().splitlines()[6:]}
        assert len(labels) == 4, labels
        got = (_sha(out.out.encode()), _sha(csv.read_bytes()))
        assert got == _INFER_DIGESTS[(config, mode)], (config, mode, got)


def test_infer_over_a_negative_zero_series_writes_positive_zero_bands(
        tmp_path, monkeypatch, capsys):
    # 30 periods of -0, then 0: every band cell is the zero half-width,
    # written as 0, not -0
    rows = "".join(f"{i},-0\n" for i in range(30)) + "30,0\n"
    (tmp_path / "negzero.csv").write_text("t,value\n" + rows)
    code, out, csv = _infer(tmp_path, monkeypatch, capsys, ["negzero.csv"])
    assert code == 0, out.err
    banded = [line.split(",") for line in csv.read_text().splitlines()
              if line[:1].isdigit() and not line.endswith("insufficient-window")]
    assert len(banded) == 31 - 23
    assert {(row[3], row[4]) for row in banded} == {("0", "0")}


class TestOneCheckedPath:
    """Each CLI input has one checked path: a sweep entry parses like the
    same line of the file, and `infer` reads one shared finite time axis."""

    def _config(self, tmp_path, monkeypatch, capsys, text, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.cfg").write_text(text)
        capsys.readouterr()
        code = run_cli(["--config", "s.cfg", "--out", "o"] + argv)
        return code, capsys.readouterr().err

    def test_sweep_entry_obeys_the_unit_rule(self, tmp_path, monkeypatch, capsys):
        code, err = self._config(tmp_path, monkeypatch, capsys,
                                 "sweep.g.a = closure.theta=1.5\n", ["scenario"])
        assert code == 2
        assert "line 1: closure.theta = 1.5 must lie in [0, 1]" in err
        assert not (tmp_path / "o").exists()

    def test_sweep_entry_obeys_the_kind(self, tmp_path, monkeypatch, capsys):
        code, err = self._config(tmp_path, monkeypatch, capsys,
                                 "sweep.g.a = mc.T=30.5,closure.theta=0.6\n",
                                 ["closure", "--sweep", "g"])
        assert code == 2
        assert "line 1: mc.T expects an integer, got '30.5'" in err
        assert not (tmp_path / "o" / "g.csv").exists()

    def test_sweep_entry_parses_like_the_file_line(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("sweep.g.a = closure.theta=0.6, mc.T=30, closure.r_rep=none\n")
        assert load_scenario(str(path)).sweep_rows("g") == [
            ("a", {"closure.theta": 0.6, "mc.T": 30, "closure.r_rep": None})
        ]
        path.write_text("sweep.g.a = closure.z=2%\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario(str(path))
        assert str(exc.value) == "line 1: closure.z expects a number, got '2%'"

    def test_unit_violation_in_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("# percent instead of fraction\necon.pi = 2.7\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario(str(path))
        assert str(exc.value).startswith("line 2: econ.pi = 2.7 violates the rate unit")

    @pytest.mark.parametrize("t", ["shifted", "short", "one_stamp"])
    def test_infer_rejects_series_on_another_time_axis(self, tmp_path, monkeypatch,
                                                       capsys, t):
        names = _write_readings(tmp_path, n=40)
        other = {"shifted": [100.0 + i for i in range(40)],
                 "short": [2005.0 + i / 4.0 for i in range(30)],
                 "one_stamp": [2005.0 + i / 4.0 + (i == 35) for i in range(40)]}[t]
        rows = (tmp_path / names[0]).read_text().splitlines()[1:]
        (tmp_path / "other.csv").write_text("t,value\n" + "".join(
            f"{ti!r},{row.split(',')[1]}\n" for ti, row in zip(other, rows)))
        code, out, csv = _infer(tmp_path, monkeypatch, capsys, names[:2] + ["other.csv"])
        assert code == 2
        assert "other.csv" in out.err and "s0.csv" in out.err
        assert not csv.exists()

    @pytest.mark.parametrize("t", ["descending", "all_equal"])
    def test_infer_rejects_a_time_axis_that_is_not_increasing(self, tmp_path, monkeypatch,
                                                               capsys, t):
        # the detrend and the trailing band windows read the rows in order
        names = _write_readings(tmp_path, n=40)
        stamps = {"descending": [39.0 - i for i in range(40)], "all_equal": [0.0] * 40}[t]
        for name in names:
            rows = (tmp_path / name).read_text().splitlines()[1:]
            (tmp_path / name).write_text("t,value\n" + "".join(
                f"{ti!r},{row.split(',')[1]}\n" for ti, row in zip(stamps, rows)))
        code, out, csv = _infer(tmp_path, monkeypatch, capsys, names)
        assert code == 2
        assert "series file s0.csv has a t column that is not strictly increasing" in out.err
        assert not csv.exists()

    @pytest.mark.parametrize("row", ["2006.25,0.001,0.5", "2006.25"])
    def test_infer_rejects_a_row_without_two_fields(self, tmp_path, monkeypatch, capsys,
                                                    row):
        names = _write_readings(tmp_path, n=40)
        lines = (tmp_path / names[1]).read_text().splitlines()
        lines[5] = row
        (tmp_path / names[1]).write_text("\n".join(lines) + "\n")
        code, out, csv = _infer(tmp_path, monkeypatch, capsys, names)
        assert code == 2
        assert f"series file s1.csv, line 6: expected t,value — got {row!r}" in out.err
        assert not csv.exists()

    def test_infer_rejects_a_headerless_series(self, tmp_path, monkeypatch, capsys):
        # the first line used to be dropped as the header without a look, so
        # a headerless 40-row file classified 39 periods with exit 0
        names = _write_readings(tmp_path, n=40)
        lines = (tmp_path / names[2]).read_text().splitlines()
        (tmp_path / names[2]).write_text("# no header\n" + "\n".join(lines[1:]) + "\n")
        code, out, csv = _infer(tmp_path, monkeypatch, capsys, names)
        assert code == 2
        want = f"series file s2.csv, line 2: expected a t,value header, got {lines[1]!r}"
        assert want in out.err
        assert not csv.exists()

    def test_infer_names_the_file_of_a_malformed_number(self, tmp_path, monkeypatch,
                                                        capsys):
        names = _write_readings(tmp_path, n=40)
        lines = (tmp_path / names[1]).read_text().splitlines()
        lines[5] = "2006.0,abc"
        (tmp_path / names[1]).write_text("\n".join(lines) + "\n")
        code, out, csv = _infer(tmp_path, monkeypatch, capsys, names[:2])
        assert code == 2
        assert ("series file s1.csv, line 6: malformed number in series row "
                "'2006.0,abc'") in out.err
        assert not csv.exists()

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", [0, 2])
    def test_infer_rejects_a_non_finite_time_stamp(self, tmp_path, monkeypatch, capsys,
                                                   stamp, where):
        names = _write_readings(tmp_path, n=40)
        lines = (tmp_path / names[where]).read_text().splitlines()
        lines[34] = f"{stamp},{lines[34].split(',')[1]}"  # period 33 of 40
        (tmp_path / names[where]).write_text("\n".join(lines) + "\n")
        code, out, csv = _infer(tmp_path, monkeypatch, capsys, names)
        assert code == 3
        assert names[where] in out.err
        assert not csv.exists()


# Cells that may hold inf: a paused clock, and the endogenous threshold and
# required growth under hard failure (a key in the row, or the column)
_INF_SENTINELS = {"T_linear", "T_exp", "clock_linear", "clock_exponential",
                  "threshold_endogenous", "delta_g_min_endogenous", "required_dg"}


@pytest.mark.parametrize("config", sorted(_CONFIGS) + ["readme_example"])
def test_every_csv_holds_finite_cells_except_documented_sentinels(
        tmp_path, monkeypatch, capsys, config):
    # README's one nan exception: the bands of the first window_h - 1
    # periods of `infer`, which have no full window
    monkeypatch.chdir(tmp_path)
    text = _block("### Scenario files") if config == "readme_example" else _CONFIGS[config]
    base = []
    if text is not None:
        (tmp_path / "s.cfg").write_text(text)
        base = ["--config", "s.cfg"]
    names = _write_readings(tmp_path)[:2]
    series = ["--series", names[0], "--series", names[1]]
    commands = [["scenario"], ["clock"], ["bounds"], ["closure"],
                ["closure", "--sweep", "stress_v2"], ["transition"],
                ["tables", "--reps", "4"], ["mc", "--reps", "4"],
                ["infer", "--mode", "PE", *series], ["infer", "--mode", "TF", *series]]
    if text is not None and "sweep.mygrid." in text:
        commands.append(["closure", "--sweep", "mygrid"])
    saw_inf = False
    for k, argv in enumerate(commands):
        assert run_cli(base + ["--out", f"o{k}"] + argv) == 0, (argv, capsys.readouterr())
        csvs = sorted((tmp_path / f"o{k}").iterdir())
        assert csvs, argv
        for path in csvs:
            lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
            assert rows, (argv, path.name)
            for row in rows:
                assert len(row) == len(header), (argv, path.name, row)
                for j, cell in enumerate(row):
                    where = (argv, path.name, row, header[j])
                    if cell in ("inf", "-inf"):
                        assert cell == "inf" and _INF_SENTINELS & {header[j], *row[:j]}, where
                        saw_inf = True
                    elif cell.lower() in ("nan", "-nan", "none"):
                        assert (path.name == "envelope_bands.csv" and cell == "nan"
                                and header[j] in ("c_lower", "c_upper")
                                and row[-1] == "insufficient-window"), where
    # the hard-failure scenario reaches both sentinels; the others reach the
    # required-growth one only in a stress or sweep row that fails to close
    assert saw_inf or config != "hard_failure"


# Each numeric closure.*, transition.* and econ.* key at both ends of its unit
# rule (rate [-1, 1], share [0, 1], num the largest finite magnitudes), alone,
# on a uniform and on a table margin.
_EXTREMES = {"rate": (-1.0, 1.0), "share": (0.0, 1.0),
             "num": (-sys.float_info.max, sys.float_info.max)}
_EXTREME_KEYS = sorted(key for key, (_, kind) in _SCHEMA.items()
                       if key.split(".")[0] in ("closure", "transition", "econ")
                       and kind.rstrip("?") in _EXTREMES)


@pytest.mark.parametrize("key", _EXTREME_KEYS)
def test_unit_rule_extremes_end_in_a_documented_exit(tmp_path, monkeypatch, capsys, key):
    # exit 0, 2 (configuration) or 3 (numeric or domain), never 1, and never
    # a CSV cell that reads nan
    monkeypatch.chdir(tmp_path)
    assert len(_EXTREME_KEYS) == 25
    margins = ("", "closure.dist = table\nclosure.dist_knots = 0.0:0.3, 0.02:0.5, 0.04:0.8, 0.06:1.0\n")
    k = 0
    for value in _EXTREMES[_SCHEMA[key][1].rstrip("?")]:
        for margin in margins:
            (tmp_path / "s.cfg").write_text(f"{margin}{key} = {value!r}\n")
            for command in ("scenario", "closure", "transition"):
                k += 1
                code = run_cli(["--config", "s.cfg", "--out", f"o{k}", command])
                where = (key, value, bool(margin), command, capsys.readouterr())
                assert code in (0, 2, 3), where
                for path in (tmp_path / f"o{k}").glob("*.csv"):
                    cells = [cell.strip().lower() for line in path.read_text().splitlines()
                             if not line.startswith("#") for cell in line.split(",")]
                    assert not {"nan", "-nan"} & set(cells), where


# The four `fiscal.*` keys that no command read were deleted from the schema:
# a file line or a sweep entry that sets one is an unknown key.
_DELETED_KEYS = {"fiscal.mode": "general", "fiscal.d0": "0.03", "fiscal.b_ref": "2.0",
                 "fiscal.table": "1.5:0.01, 3.0:0.04"}


@pytest.mark.parametrize("key", sorted(_DELETED_KEYS))
def test_deleted_fiscal_keys_are_unknown(tmp_path, monkeypatch, capsys, key):
    monkeypatch.chdir(tmp_path)
    value = _DELETED_KEYS[key].split(",")[0]
    for text, message in ((f"{key} = {_DELETED_KEYS[key]}", f"unknown key {key!r}"),
                          (f"sweep.g.a = {key}={value}", f"unknown sweep key {key!r}")):
        (tmp_path / "s.cfg").write_text(f"# comment\n{text}\n")
        capsys.readouterr()
        assert run_cli(["--config", "s.cfg", "--out", "o", "scenario"]) == 2, text
        assert f"line 2: {message}" in capsys.readouterr().err, text
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--threads", "8"], ["--threads=8"]])
def test_removed_threads_option_is_a_usage_error(tmp_path, monkeypatch, argv):
    # `--threads` changed no run and was deleted; the spaced form leaves `8`
    # where the command belongs, the joined form is an unrecognized argument
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv + ["--out", "o", "scenario"]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["scenario"], ["closure"], ["tables", "--only", "calibration"]])
def test_negative_fiscal_gamma_fails_at_load(tmp_path, monkeypatch, capsys, argv):
    # the paradox test's slope: the rule ran in a view that no command needs,
    # and without it `tables` wrote paradox_derivative = -1.8
    monkeypatch.chdir(tmp_path)
    for text in ("fiscal.gamma = -0.01", "sweep.g.a = fiscal.gamma=-0.01"):
        (tmp_path / "s.cfg").write_text(f"# comment\n{text}\n")
        capsys.readouterr()
        assert run_cli(["--config", "s.cfg", "--out", "o"] + argv) == 3, text
        err = capsys.readouterr().err
        assert "domain error: line 2: fiscal.gamma: gamma must be >= 0, got -0.01" in err, text
        assert not (tmp_path / "o").exists()


def _mc_body(tmp_path, monkeypatch, text, out):
    """The non-`#` lines of `mc --reps 8`'s CSVs under the scenario `text`."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{out}.cfg").write_text(text)
    assert run_cli(["--config", f"{out}.cfg", "--out", out, "mc", "--reps", "8"]) == 0
    return {p.name: [l for l in p.read_text().splitlines() if not l.startswith("#")]
            for p in sorted((tmp_path / out).iterdir())}


def test_closure_law_reaches_the_monte_carlo(tmp_path, monkeypatch):
    # the Monte Carlo read its own mc.g0, so closure.g0 moved only the hash
    base = _mc_body(tmp_path, monkeypatch, "", "base")
    moved = _mc_body(tmp_path, monkeypatch, "closure.g0 = 0.5\n", "g0")
    assert sorted(moved) == sorted(base) == ["mc_pe.csv", "mc_tf.csv"]
    assert moved["mc_pe.csv"] != base["mc_pe.csv"]


@pytest.mark.parametrize("key, value, named", [
    ("mc.sd_theta", -0.001, "sd_theta"), ("mc.sd_z", -0.001, "sd_z"),
    ("mc.tf_sd", -0.001, "tf_sd"), ("mc.sigma_theta_obs", -0.01, "sigma_theta_obs"),
    ("mc.tf_g_spread", -0.001, "tf_g_spread"), ("transition.m", -0.01, "tf_m"),
    ("closure.kappa_theta", -0.01, "kappa_theta"), ("closure.g0", -0.1, "g0"),
    ("closure.eps_cap", 0.0, "eps_cap"),
])
def test_negative_monte_carlo_scale_is_exit_3(tmp_path, monkeypatch, capsys, key, value,
                                              named):
    # a negative scale used to reach numpy and end in a traceback with exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.cfg").write_text(f"{key} = {value}\n")
    capsys.readouterr()
    assert run_cli(["--config", "s.cfg", "--out", "o", "mc", "--reps", "2"]) == 3
    assert f"{named} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, named", [
    ("mc.sd_theta", -0.001, "sd_theta must be >= 0"), ("mc.sd_z", -0.001, "sd_z must be >= 0"),
    ("mc.tf_sd", -0.001, "tf_sd must be >= 0"),
    ("mc.sigma_theta_obs", -0.01, "sigma_theta_obs must be >= 0"),
    ("mc.tf_g_spread", -0.001, "tf_g_spread must be >= 0"),
    ("transition.m", -0.01, "tf_m must be >= 0"),
    ("closure.kappa_theta", -0.01, "kappa_theta must be >= 0"),
    ("closure.g0", -0.1, "g0 must be >= 0"), ("closure.eps_cap", 0.0, "eps_cap must be > 0"),
    ("mc.dead_zone", -0.01, "dead_zone must be >= 0"),
])
@pytest.mark.parametrize("argv", [["scenario"], ["closure"], ["mc", "--reps", "50"]])
def test_monte_carlo_rules_fail_at_load(tmp_path, monkeypatch, capsys, key, value, named,
                                        argv):
    # these files used to load, so `scenario` and `closure` exited 0 on them;
    # a negative dead zone also ran `mc` and wrote a single-threshold warning
    # rate of 0 at every horizon
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.cfg").write_text(f"# comment\n{key} = {value}\n")
    capsys.readouterr()
    assert run_cli(["--config", "s.cfg", "--out", "o"] + argv) == 3
    assert f"domain error: line 2: {key}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["clock"], ["scenario"], ["transition"],
                                  ["tables", "--only", "calibration"]])
def test_zero_threshold_gives_an_infinite_exponential_clock(tmp_path, monkeypatch, capsys,
                                                            argv):
    # log(phi / 0) used to raise ZeroDivisionError, a traceback with exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.cfg").write_text("regime.phi_bar = 0\n")
    assert run_cli(["--config", "s.cfg", "--out", "o"] + argv) == 0
    rows = [l.split(",") for p in (tmp_path / "o").iterdir()
            for l in p.read_text().splitlines() if not l.startswith("#")]
    exp_rows = [row for row in rows if {"T_exp", "clock_exponential"} & set(row)]
    assert all("inf" in row for row in exp_rows), exp_rows
    assert exp_rows or argv == ["transition"]  # the transition table has no clock row
