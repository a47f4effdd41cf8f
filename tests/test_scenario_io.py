import math
from dataclasses import fields

import numpy as np
import pytest

from debtregime.cli import run_cli
from debtregime.closure import ThetaLaw, TwoLayerParams
from debtregime.core import EconState, FiscalResponse, RegimeParams
from debtregime.errors import ConfigError
from debtregime.extensions import ClockSpec, estimate_kappa
from debtregime.inference import SubsampleConfig
from debtregime.investment import InvestmentInputs
from debtregime.montecarlo import MCConfig
from debtregime.scenario import (
    _SCHEMA,
    DEFAULTS,
    _check_units,
    load_scenario,
    load_series_csv,
)
from debtregime.tables import (
    TABLE_IDS,
    TableArtifact,
    _fmt,
    build_table,
    emit_csv,
    scenario_report,
)
from debtregime.transition import TransitionSpec


class TestLoadScenario:
    def test_empty_file_gives_baseline_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        sc = load_scenario(str(path))
        econ = sc.econ_state()
        assert econ.b_prev == 2.40
        assert econ.pi == 0.027
        p = sc.two_layer()
        assert (p.theta, p.psi, p.z, p.c_bar, p.phi_req) == (0.65, 0.97, 0.02, 0.06, 0.85)
        rg = sc.regime_params()
        assert (rg.phi, rg.phi_bar, rg.kappa) == (0.88, 0.85, 0.01)

    def test_none_path_is_baseline(self):
        assert load_scenario(None).values == dict(DEFAULTS)

    def test_override_and_comments(self, tmp_path):
        path = tmp_path / "mon.cfg"
        path.write_text(
            "# monitoring-concept run\n"
            "econ.b_prev = 1.574   # narrower instrument-level ratio\n"
            "closure.z = 0.03\n"
        )
        sc = load_scenario(str(path))
        assert sc.econ_state().b_prev == 1.574
        assert sc.two_layer().z == 0.03

    def test_core_is_an_unknown_section(self, tmp_path, capsys):
        # `core.` was once an alias for `econ.`; each setting now has one key
        path = tmp_path / "alias.cfg"
        path.write_text("# old alias\ncore.b_prev = 1.574\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario(str(path))
        assert str(exc.value) == "line 2: unknown key 'core.b_prev'"
        out = tmp_path / "o"
        assert run_cli(["--config", str(path), "--out", str(out), "scenario"]) == 2
        assert "line 2: unknown key 'core.b_prev'" in capsys.readouterr().err
        assert not out.exists()

    def test_knots_without_a_table_margin_rejected(self, tmp_path, capsys):
        # the knots used to be ignored, and the run went on the uniform margin
        path = tmp_path / "knots.cfg"
        path.write_text("closure.dist_knots = 0.0:0.3, 0.03:0.6, 0.06:1.0\n")
        with pytest.raises(ConfigError, match="closure.dist_knots"):
            load_scenario(str(path))
        out = tmp_path / "o"
        assert run_cli(["--config", str(path), "--out", str(out), "closure"]) == 2
        assert "closure.dist_knots" in capsys.readouterr().err
        assert not out.exists()
        path.write_text("closure.dist = table\n" + path.read_text())
        assert load_scenario(str(path)).two_layer().dist.kind == "table"

    def test_unknown_key_lists_the_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("econ.b_prevv = 2.0\n")
        with pytest.raises(ConfigError, match="econ.b_prevv"):
            load_scenario(str(path))

    def test_unit_violation_names_field_and_bound(self, tmp_path):
        path = tmp_path / "units.cfg"
        path.write_text("econ.pi = 2.7\n")  # percent instead of fraction
        with pytest.raises(ConfigError, match="econ.pi"):
            load_scenario(str(path))
        path.write_text("closure.theta = 1.4\n")
        with pytest.raises(ConfigError, match=r"closure.theta.*\[0, 1\]"):
            load_scenario(str(path))

    def test_malformed_numeric_reports_line(self, tmp_path):
        path = tmp_path / "num.cfg"
        path.write_text("econ.b_prev = 2.40\neconpi = oops\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_scenario(str(path))
        path.write_text("econ.pi = zero\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_scenario(str(path))

    def test_non_finite_values_name_key_and_line(self, tmp_path):
        path = tmp_path / "nf.cfg"
        for line in ("closure.z = nan", "econ.b_prev = inf", "closure.r_rep = -inf",
                     "investment.mu = 1e400", "mc.evaluation_horizons = 3.8, nan",
                     "closure.dist_knots = 0:0, 0.03:nan, 0.06:1",
                     "closure.eps_cap = nan", "sweep.g.a = closure.theta=nan"):
            key = line.split(" = ")[0]
            if key.startswith("sweep."):
                key = "closure.theta"
            path.write_text("# comment\n" + line + "\n")
            with pytest.raises(ConfigError, match=rf"line 2: {key} must be a finite number"):
                load_scenario(str(path))
        # the one key whose default is infinite keeps accepting inf
        path.write_text("closure.eps_cap = inf\n")
        assert load_scenario(str(path)).theta_law().eps_cap == float("inf")

    def test_sweep_rows(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "sweep.mygrid.low = closure.theta=0.60,closure.z=0.02\n"
            "sweep.mygrid.high = closure.theta=0.45,closure.z=0.035\n"
        )
        sc = load_scenario(str(path))
        rows = sc.sweep_rows("mygrid")
        assert [name for name, _ in rows] == ["low", "high"]
        assert rows[0][1]["closure.theta"] == 0.60
        assert sc.sweep_rows("stress_v2")[0][0] == "baseline_2026"
        with pytest.raises(ConfigError):
            sc.sweep_rows("nope")

    def test_with_overrides_validates(self):
        sc = load_scenario(None)
        sc2 = sc.with_overrides({"closure.theta": 0.55})
        assert sc2.two_layer().theta == 0.55
        assert sc.two_layer().theta == 0.65  # original untouched
        with pytest.raises(ConfigError):
            sc.with_overrides({"closure.thetaa": 0.5})

    def test_fiscal_table_pairs(self, tmp_path):
        path = tmp_path / "fr.cfg"
        path.write_text(
            "fiscal.mode = general\n"
            "fiscal.table = 2.0:0.018, 2.4:0.020, 2.8:0.026\n"
        )
        fr = load_scenario(str(path)).fiscal_response()
        assert fr.table == ((2.0, 0.018), (2.4, 0.020), (2.8, 0.026))

    def test_r_rep_defaults_to_nominal_rate(self, tmp_path):
        sc = load_scenario(None)
        assert sc.r_rep() == sc.econ_state().r_n
        path = tmp_path / "rr.cfg"
        path.write_text("closure.r_rep = 0.015\n")
        assert load_scenario(str(path)).r_rep() == 0.015

    def test_config_hash_stable_and_sensitive(self):
        sc = load_scenario(None)
        assert sc.config_hash() == load_scenario(None).config_hash()
        assert sc.config_hash() != sc.with_overrides({"econ.d": 0.021}).config_hash()


def _is_float(v, lo=-math.inf, hi=math.inf):
    return isinstance(v, float) and lo <= v <= hi


# the rule each kind's values obey once parsed
_KIND_RULES = {
    "rate": lambda v: _is_float(v, -1.0, 1.0),
    "share": lambda v: _is_float(v, 0.0, 1.0),
    "num": _is_float,
    "int": lambda v: type(v) is int,
    "ints": lambda v: isinstance(v, tuple) and all(type(x) is int for x in v),
    "nums": lambda v: isinstance(v, tuple) and all(_is_float(x) for x in v),
    "pairs": lambda v: isinstance(v, tuple) and all(
        isinstance(p, tuple) and len(p) == 2 and all(_is_float(x) for x in p) for p in v
    ),
    "text": lambda v: isinstance(v, str),
}
_OPTIONAL_KEYS = {"closure.r_rep", "regime.kappa_exp"}
# one malformed value per kind, and the message it must give
_MALFORMED = [
    ("rate", "econ.pi", "2.7%", "expects a number, got '2.7%'"),
    ("rate?", "closure.r_rep", "nil", "expects a number, got 'nil'"),
    ("share", "closure.theta", "high", "expects a number, got 'high'"),
    ("num", "econ.b_prev", "2,4", "expects a number, got '2,4'"),
    ("int", "mc.T", "60.5", "expects an integer, got '60.5'"),
    ("ints", "inference.block_grid", "4, six", "expects integers, got '4, six'"),
    ("nums", "mc.evaluation_horizons", "3.8; 7.5", "expects numbers, got '3.8; 7.5'"),
    ("pairs", "fiscal.table", "2.0-0.018", "expects x:y pairs, got '2.0-0.018'"),
    ("pairs", "closure.dist_knots", "0:0, 0.03:x", "has a malformed number in '0.03:x'"),
]
_VIEWS = [("econ_state", EconState, "econ"), ("regime_params", RegimeParams, "regime"),
          ("clock_spec", ClockSpec, "regime"), ("theta_law", ThetaLaw, "closure"),
          ("subsample_config", SubsampleConfig, "inference")]


class TestSchema:
    def test_defaults_obey_their_kind(self):
        assert DEFAULTS == {key: default for key, (default, _) in _SCHEMA.items()}
        assert {kind.rstrip("?") for _, kind in _SCHEMA.values()} == set(_KIND_RULES)
        assert {k for k, (_, kind) in _SCHEMA.items() if kind.endswith("?")} == _OPTIONAL_KEYS
        for key, (default, kind) in _SCHEMA.items():
            if default is None:
                assert key in _OPTIONAL_KEYS
                continue
            assert _KIND_RULES[kind.rstrip("?")](default), key
            _check_units(key, default)

    def test_library_defaults_are_the_baseline_scenario(self):
        # the baseline calibration is written twice, as the dataclass defaults
        # and in _SCHEMA; the two copies must agree
        sc = load_scenario(None)
        econ = sc.econ_state()
        assert sc.mc_config(seed=42) == MCConfig()
        assert sc.two_layer() == TwoLayerParams()
        assert sc.regime_params() == RegimeParams()
        assert sc.subsample_config() == SubsampleConfig()
        assert sc.theta_law() == ThetaLaw()
        assert sc.fiscal_response() == FiscalResponse()
        assert sc.investment_inputs() == InvestmentInputs(state=econ, regime=RegimeParams())
        assert sc.transition_spec() == TransitionSpec(state=econ, closure=TwoLayerParams())

    def test_monte_carlo_reads_the_scheduled_phi_req(self, tmp_path):
        # the affine required-absorption schedule has one home, `two_layer`
        path = tmp_path / "schedule.cfg"
        path.write_text("econ.b_prev = 2.6\nclosure.phi_req_db = 0.1\n")
        sc = load_scenario(str(path))
        assert sc.mc_config(42).phi_req == sc.two_layer().phi_req == 0.87

    def test_monte_carlo_reads_one_key_per_setting(self, tmp_path):
        # the core-share law, the band level and the safety margin used to have
        # their own mc.* keys, and the Monte Carlo's law had no cap
        path = tmp_path / "one_key.cfg"
        path.write_text("closure.kappa_theta = 0.01\nclosure.g0 = 0.5\n"
                        "closure.eps_cap = 0.02\ninference.alpha = 0.05\ntransition.m = 0.004\n")
        sc = load_scenario(str(path))
        cfg = sc.mc_config(42)
        law = sc.theta_law()
        assert (cfg.kappa_theta, cfg.g0, cfg.eps_cap) == (law.kappa_theta, law.g0, law.eps_cap)
        assert (law.kappa_theta, law.g0, law.eps_cap) == (0.01, 0.5, 0.02)
        assert (cfg.alpha, cfg.tf_m) == (0.05, 0.004)
        assert cfg.alpha == sc.subsample_config().alpha
        assert cfg.tf_m == sc.transition_spec().m
        assert not {"mc.kappa_theta", "mc.g0", "mc.alpha", "mc.tf_m"} & set(_SCHEMA)

    def test_unit_rules_by_kind(self):
        rates = [k for k, (_, kind) in _SCHEMA.items() if kind.rstrip("?") == "rate"]
        shares = [k for k, (_, kind) in _SCHEMA.items() if kind == "share"]
        assert (len(rates), len(shares)) == (36, 12)
        for key in rates:
            with pytest.raises(ConfigError, match="rate unit convention"):
                _check_units(key, 1.5)
        for key in shares:
            with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
                _check_units(key, -0.1)
        for key in set(_SCHEMA) - set(rates) - set(shares):
            _check_units(key, 1.5)  # no unit rule

    @pytest.mark.parametrize("kind, key, text, message", _MALFORMED)
    def test_each_kind_rejects_a_malformed_value(self, tmp_path, capsys, kind, key,
                                                 text, message):
        assert _SCHEMA[key][1] == kind
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\n\n{key} = {text}\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario(str(path))
        assert str(exc.value) == f"line 3: {key} {message}"
        out = tmp_path / "o"
        assert run_cli(["--config", str(path), "--out", str(out), "scenario"]) == 2
        assert f"line 3: {key} {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, cls, section", _VIEWS)
    def test_view_sections_supply_every_field(self, method, cls, section):
        names = [f.name for f in fields(cls)]
        assert all(f"{section}.{name}" in DEFAULTS for name in names)
        # a distinct value per float field, decreasing so that phi > phi_bar
        sc = load_scenario(None).with_overrides(
            {f"{section}.{name}": 0.001 * (len(names) - i) for i, name in enumerate(names)
             if _SCHEMA[f"{section}.{name}"][1] != "int"}
        )
        view = getattr(sc, method)()
        assert type(view) is cls
        assert all(getattr(view, n) == sc.get(f"{section}.{n}") for n in names)

    def test_none_only_on_the_optional_keys(self, tmp_path):
        path = tmp_path / "none.cfg"
        for key, (_, kind) in _SCHEMA.items():
            path.write_text(f"{key} = none\n")
            if key in _OPTIONAL_KEYS:
                assert load_scenario(str(path)).get(key) is None
            elif kind != "text":  # on a text key, none is just that text
                with pytest.raises(ConfigError, match=rf"line 1: {key} expects"):
                    load_scenario(str(path))
        path.write_text("closure.r_rep = NULL\nregime.kappa_exp = Null\n")
        sc = load_scenario(str(path))
        assert sc.r_rep() == sc.econ_state().r_n
        assert sc.regime_params().kappa_exp is None
        path.write_text("scenario.name = none\n")
        assert load_scenario(str(path)).name == "none"
        path.write_text("econ.pi = none\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario(str(path))
        assert str(exc.value) == "line 1: econ.pi expects a number, got 'none'"


class TestEmitCsv:
    def test_format_contract(self, tmp_path):
        art = TableArtifact(
            "demo", ("name", "value"),
            [("pi", 0.0271828182845), ("none_cell", None), ("flag", True)],
            {"seed": 42},
        )
        path = tmp_path / "demo.csv"
        emit_csv(art, str(path))
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "# table_id: demo"
        assert lines[1] == "# seed: 42"
        assert lines[2] == "name,value"
        assert lines[3] == "pi,0.0271828"  # 6 significant digits
        assert lines[4] == "none_cell,"
        assert lines[5] == "flag,true"
        assert "\r" not in text

    @pytest.mark.parametrize("value, text", [
        (None, ""), (True, "true"), (False, "false"), (0.0, "0"), (-0.0, "-0"),
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        (np.float64(-1234567.891), "-1.23457e+06"), (12345678, "12345678"),
        (np.int64(-7), "-7"), ("baseline", "baseline"),
    ])
    def test_cell_format(self, value, text):
        assert _fmt(value) == text

    def test_empty_rows_header_only(self, tmp_path):
        art = TableArtifact("empty", ("a", "b"), [], {"seed": 1})
        path = tmp_path / "empty.csv"
        emit_csv(art, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[-1] == "a,b"

    def test_byte_identical_across_emissions(self, tmp_path):
        sc = load_scenario(None)
        art = build_table("stress_v2", sc, seed=42)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(art, str(p1))
        emit_csv(build_table("stress_v2", sc, seed=42), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_series_round_trip(self, tmp_path):
        # an emitted series is loadable by the estimator and the infer input
        t = np.arange(12.0)
        phi = 0.93 - 0.002 * t
        art = TableArtifact(
            "series", ("t", "value"), list(zip(t, phi)), {"seed": 0}
        )
        path = tmp_path / "series.csv"
        emit_csv(art, str(path))
        ts, vs = load_series_csv(str(path))
        assert ts == pytest.approx(list(t))
        out = estimate_kappa(list(zip(ts, vs)))
        assert out["slope_full"] == pytest.approx(-0.002, abs=1e-9)

    def test_series_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0,abc\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_series_csv(str(path))
        path.write_text("t,value\n")
        with pytest.raises(ConfigError, match="no data rows"):
            load_series_csv(str(path))


class TestGoldenTables:
    def test_all_table_ids_build(self):
        sc = load_scenario(None)
        for tid in TABLE_IDS:
            art = build_table(tid, sc, seed=42, n_reps=10)
            assert art.table_id == tid
            assert art.metadata["seed"] == 42
            assert "config_hash" in art.metadata
            assert len(art.rows) > 0

    def test_stress_v2_schema(self):
        sc = load_scenario(None)
        art = build_table("stress_v2", sc, seed=42)
        assert art.columns == (
            "scenario", "theta", "z", "phi_d0", "rho_star",
            "required_dg", "label", "paper_rho_ref",
        )
        assert len(art.rows) == 6
        byname = {r[0]: r for r in art.rows}
        ext = byname["external_stress"]
        assert ext[3] == pytest.approx(0.8196, abs=5e-5)   # phi_d0
        assert ext[4] == pytest.approx(0.505714, abs=1e-4)  # engine premium, %
        assert ext[7] == pytest.approx(0.39, abs=1e-12)     # published reference, %
        assert byname["baseline_2026"][6] == "Conditional"
        assert byname["severe"][6] == "Infeasible"

    def test_calibration_headline_numbers(self):
        sc = load_scenario(None)
        art = build_table("calibration", sc, seed=42)
        vals = {r[0]: r[1] for r in art.rows}
        assert vals["sprint_cumulative_improvement"] == pytest.approx(2.4, abs=1e-9)
        assert vals["annual_repression_dividend"] == pytest.approx(1.2, abs=1e-9)
        assert vals["x_max_safe"] == pytest.approx(-0.08, abs=1e-9)
        assert vals["clock_linear"] == pytest.approx(3.0, abs=1e-9)

    def test_psi_table_ordering(self):
        sc = load_scenario(None)
        art = build_table("psi_countries", sc, seed=42)
        for scheme in ("equal", "monetary_heavy", "absorption_heavy", "fx_deemphasized"):
            vals = {r[1]: r[8] for r in art.rows if r[0] == scheme}
            assert vals["japan"] > vals["italy"] > vals["greece"]

    def test_scenario_report_sections(self):
        sc = load_scenario(None)
        art = scenario_report(sc, seed=42)
        sections = {r[0] for r in art.rows}
        assert sections == {
            "recursion", "stability", "scope", "clock", "bounds",
            "closure", "transition",
        }
        vals = {(r[0], r[1]): r[2] for r in art.rows}
        assert vals[("recursion", "b_next")] == pytest.approx(2.4008, abs=1e-9)
        assert vals[("closure", "case")] == "a_interior"
