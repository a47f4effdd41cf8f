import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from debtregime.cli import run_cli
from debtregime.closure import ThetaLaw, TwoLayerParams, solve_premium, theta_step
from debtregime.core import (
    EconState,
    FiscalResponse,
    RegimeParams,
    check_scope,
    stability_surplus,
    step_debt,
)
from debtregime.errors import ConfigError, DomainError, EngineError
from debtregime.extensions import ClockSpec, clock, estimate_kappa
from debtregime.inference import SubsampleConfig, score_tf, subsample_critical_value
from debtregime.investment import InvestmentInputs, compute_bounds
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
    _transition_test,
    build_table,
    emit_csv,
    scenario_report,
)
from debtregime.transition import (
    TransitionSpec,
    joint_feasibility,
    required_growth_endogenous,
    required_growth_exogenous,
)


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
        assert (rg.phi, rg.phi_bar, sc.clock_spec().kappa) == (0.88, 0.85, 0.01)

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

    @pytest.mark.parametrize("line, error, named", [
        ("transition.m = -0.01", DomainError, "line 3: transition.m: tf_m must be >= 0"),
        ("mc.dead_zone = -0.01", DomainError, "line 3: mc.dead_zone: dead_zone must be >= 0"),
        ("inference.block_len = 5", ConfigError,
         "line 3: inference.block_len: block_len 5 must be an entry of block_grid"),
        ("mc.evaluation_horizons = 3.8, 20", ConfigError,
         "line 3: mc.evaluation_horizons: evaluation horizon 20.0 must lie within"),
        # a rule on a key the file leaves at its default names the key alone
        ("inference.window_h = 70", DomainError, "mc.T: T must be at least window_h"),
    ])
    def test_monte_carlo_rules_name_the_key_and_line(self, tmp_path, line, error, named):
        # `MCConfig`'s rules run at load, on the values `mc_config` passes,
        # so every command fails on them, not only the Monte Carlo ones
        path = tmp_path / "mc.cfg"
        path.write_text(f"# comment\nscenario.name = bad\n{line}\n")
        with pytest.raises(error, match=re.escape(named)):
            load_scenario(str(path))

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
    pytest.param("pairs", "closure.dist_knots", "2.0-0.018",
                 "expects x:y pairs, got '2.0-0.018'", id="pairs-no-colon"),
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
        assert sc.get("fiscal.gamma") == FiscalResponse().gamma
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
        assert (len(rates), len(shares)) == (34, 12)
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
        assert sc.clock_spec().kappa_exp is None
        path.write_text("scenario.name = none\n")
        assert load_scenario(str(path)).name == "none"
        path.write_text("econ.pi = none\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario(str(path))
        assert str(exc.value) == "line 1: econ.pi expects a number, got 'none'"


# A base on which every key is live: with b and psi off the phi_req anchor
# (2.40, 0.97) the phi_req slopes multiply nonzero gaps, and with de > e_bar
# and alpha > 0 the depreciation terms do too.
_LIVE_BASE = "econ.b_prev = 2.1\nclosure.psi = 0.95\nregime.de = 0.01\nregime.alpha = 0.1\n"
_MARGINS = {"uniform": "",
            "table": "closure.dist = table\n"
                     "closure.dist_knots = 0.0:0.3, 0.02:0.5, 0.04:0.8, 0.06:1.0\n"}
# other values where 0.9 times the base value would break a rule (phi above
# phi_bar, d_psi <= 0) or move no label
_OTHER_VALUES = {"regime.phi": "0.9", "closure.phi_req_dpsi": "-0.01",
                 "closure.dist_knots": "0.0:0.3, 0.03:0.6, 0.06:1.0",
                 "transition.mu_hi": "0.5", "transition.x_max_label": "0.5"}


def _other_value(key, value):
    """A valid value of `key` other than `value`, as a file writes it."""
    kind = _SCHEMA[key][1].rstrip("?")
    if key in _OTHER_VALUES:
        return _OTHER_VALUES[key]
    if kind == "text":  # closure.dist
        return "table" if value == "uniform" else "uniform"
    if kind == "int":
        return str(value + 2)
    if kind == "ints":
        return ", ".join(map(str, value[:-1] + (value[-1] + 2,)))
    if kind == "nums":
        return ", ".join(repr(0.9 * v) for v in value)
    if value is None or value == math.inf:
        return "0.02"
    return repr(0.9 * value if value else 0.01)


def _outputs(sc):
    """Everything but the Monte Carlo runs that a scenario can reach."""
    tables = [build_table(t, sc, 42).rows
              for t in ("calibration", "stress_v2", "tier_pe", "tier_tf", "psi_countries")]
    return repr((scenario_report(sc, 42).rows, tables, clock(sc.clock_spec()),
                 compute_bounds(sc.investment_inputs()), solve_premium(sc.two_layer()),
                 _transition_test(sc), sc.mc_config(42), sc.subsample_config()))


@pytest.mark.parametrize("margin", sorted(_MARGINS))
def test_every_key_reaches_an_output(tmp_path, margin):
    # a key whose every valid value leaves every output as it is does no
    # work; another value must move an output or fail the load (exit 2 or 3).
    # `scenario.name` is exempt: only the `scenario` command prints it
    path = tmp_path / "s.cfg"
    path.write_text(_LIVE_BASE + _MARGINS[margin])
    base = load_scenario(str(path))
    want = _outputs(base)
    dead = []
    for key in sorted(set(_SCHEMA) - {"scenario.name"}):
        path.write_text(_LIVE_BASE + _MARGINS[margin]
                        + f"{key} = {_other_value(key, base.get(key))}\n")
        try:
            sc = load_scenario(str(path))
        except (ConfigError, DomainError):
            continue
        if _outputs(sc) == want:
            dead.append(key)
    assert dead == []


_REMAINDER = [math.sin(1.7 * i) + 0.01 * i for i in range(48)]


def _views_and_consumers(sc):
    """{class: (its view of `sc`, the outputs of its consumers at a view)},
    every other input held at `sc`'s."""
    st, rg, inputs = sc.econ_state(), sc.regime_params(), sc.investment_inputs()
    spec = sc.transition_spec()
    dg = required_growth_exogenous(spec)["delta_g_min"]
    assert dg > 0.0  # else the financing test never reads mu
    # both feasibility tests hold with equality, so a move either way flips one
    spec = replace(spec, x_max_operational=dg / spec.mu, T_star=spec.T_invest)
    return {
        EconState: (st, lambda v: (step_debt(v), stability_surplus(v, rg))),
        RegimeParams: (rg, lambda v: (stability_surplus(st, v), check_scope(v),
                                      compute_bounds(replace(inputs, regime=v)))),
        ClockSpec: (sc.clock_spec(), clock),
        TwoLayerParams: (sc.two_layer(), solve_premium),
        ThetaLaw: (sc.theta_law(),
                   lambda v: [theta_step(0.5, v, eps) for eps in (-0.01, 0.01, 0.05)]),
        InvestmentInputs: (inputs, compute_bounds),
        TransitionSpec: (spec, lambda v: (
            required_growth_exogenous(v), required_growth_endogenous(v),
            joint_feasibility(v, dg), score_tf(v))),
        SubsampleConfig: (sc.subsample_config(),
                          lambda v: subsample_critical_value(_REMAINDER, v)),
    }


def _field_candidates(value):
    """Other values of a field, below and above `value`."""
    if isinstance(value, tuple):
        return [tuple(f * v for v in value) for f in (0.9, 1.1)]
    if value is None or value == 0 or value == math.inf:
        return [0.01, 0.02]
    if isinstance(value, int):
        return [value - 2, value + 2]
    return [0.9 * value, 1.1 * value]


@pytest.mark.parametrize("cls", [EconState, RegimeParams, ClockSpec, TwoLayerParams, ThetaLaw,
                                 InvestmentInputs, TransitionSpec, SubsampleConfig],
                         ids=lambda cls: cls.__name__)
def test_every_view_field_reaches_an_output(tmp_path, cls):
    # the dataclass counterpart of the key test: a field that no consumer
    # reads restates an input held elsewhere (RegimeParams carried the clock
    # rates that ClockSpec carries).  Nested views are covered by their class
    path = tmp_path / "s.cfg"
    path.write_text(_LIVE_BASE + "closure.g0 = 0.5\n")
    base, outputs = _views_and_consumers(load_scenario(str(path)))[cls]
    want = repr(outputs(base))
    dead = []
    for f in fields(cls):
        value = getattr(base, f.name)
        if is_dataclass(value):
            continue
        moved = False
        for other in _field_candidates(value):
            try:
                view = replace(base, **{f.name: other})
            except (ConfigError, DomainError):
                continue
            moved = moved or repr(outputs(view)) != want
        if not moved:
            dead.append(f.name)
    assert dead == []


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

    @pytest.mark.parametrize("bad", [0, 2])
    def test_wrong_row_width_raises_and_writes_nothing(self, tmp_path, bad):
        rows = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        rows[bad] = ("x", 1.0, None)
        path = tmp_path / "wide.csv"
        with pytest.raises(EngineError, match=r"^row width 3 != column count 2$"):
            emit_csv(TableArtifact("wide", ("name", "value"), rows), str(path))
        assert not path.exists()

    def test_missing_directory_raises(self, tmp_path):
        path = tmp_path / "missing" / "demo.csv"
        art = TableArtifact("demo", ("name",), [("a",)])
        with pytest.raises(EngineError, match=r"^cannot write .*missing/demo\.csv: "):
            emit_csv(art, str(path))
        assert not path.parent.exists()

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
