"""Scenario configuration: line-oriented `section.key = value` files with
`#` comments, validated against a closed schema with March-2026 baseline
defaults.  An empty file is the baseline scenario.

Lists are comma-separated; `none` (or `null`) is accepted only by the two
optional keys, `closure.r_rep` (unset means `econ.r_n`) and
`regime.kappa_exp`; sweep rows are declared as
`sweep.<name>.<row> = key=value,key=value`, each entry parsed and checked
as the same `key = value` line would be.  Every parse, finiteness and unit
error names its line.  Each setting has one key: the Monte Carlo reads its
core-share law from `closure`, its band level from `inference.alpha` and its
safety margin from `transition.m`, so the `mc.` keys hold only the draws,
counts and readings of its own harness.  The seed is not a scenario key:
`Scenario.mc_config(seed)` (the CLI's `--seed`) takes an integer in
[0, 2**64).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from .closure import MarginDistribution, ThetaLaw, TwoLayerParams, phi_req_affine
from .core import EconState, FiscalResponse, RegimeParams
from .errors import ConfigError
from .extensions import ClockSpec
from .inference import SubsampleConfig
from .investment import InvestmentInputs
from .transition import TransitionSpec

__all__ = ["Scenario", "load_scenario", "load_series_csv", "DEFAULTS"]


# Each key's default and kind.  The kind fixes the parse and the unit rule:
# rate (a fraction in [-1, 1]), share (in [0, 1]), num (any finite number),
# int, ints and nums (comma-separated), pairs (comma-separated x:y) or text.
# A trailing `?` marks an optional key, which also accepts none/null.
_SCHEMA: Dict[str, Tuple[object, str]] = {
    "scenario.name": ("baseline", "text"),
    # one period's macro-fiscal observables
    "econ.b_prev": (2.40, "num"),
    "econ.r_n": (0.022, "rate"),
    "econ.g_n": (0.030, "rate"),
    "econ.pi": (0.027, "rate"),
    "econ.d": (0.020, "rate"),
    "econ.s": (0.0, "rate"),
    # repression / scope parameters
    "regime.epsilon": (0.005, "rate"),
    "regime.g_star": (0.030, "rate"),
    "regime.phi": (0.88, "share"),
    "regime.phi_bar": (0.85, "share"),
    "regime.kappa": (0.01, "rate"),
    "regime.kappa_exp": (0.01, "rate?"),
    "regime.de": (0.0, "rate"),
    "regime.e_bar": (0.0, "rate"),
    "regime.alpha": (0.0, "num"),
    "regime.beta": (0.0, "num"),
    # fiscal response
    "fiscal.mode": ("constant", "text"),
    "fiscal.d0": (0.020, "rate"),
    "fiscal.gamma": (0.0, "rate"),
    "fiscal.b_ref": (2.40, "num"),
    "fiscal.table": ((), "pairs"),
    # two-layer closure
    "closure.theta": (0.65, "share"),
    "closure.psi": (0.97, "share"),
    "closure.z": (0.02, "rate"),
    "closure.c_bar": (0.06, "rate"),
    "closure.phi_req": (0.85, "share"),
    "closure.dist": ("uniform", "text"),
    "closure.dist_knots": ((), "pairs"),
    "closure.r_rep": (None, "rate?"),  # defaults to econ.r_n
    "closure.kappa_theta": (0.0, "rate"),
    "closure.g0": (0.0, "num"),
    "closure.eps_cap": (math.inf, "num"),
    "closure.phi_req_db": (0.0, "num"),
    "closure.phi_req_dpsi": (0.0, "num"),
    "closure.phi_req_dz": (0.0, "num"),
    # investment bounds
    "investment.mu": (0.05, "rate"),
    "investment.lambda": (0.5, "share"),
    "investment.m": (0.0, "rate"),
    "investment.delta_bar": (0.0, "rate"),
    "investment.demo_lo": (0.005, "rate"),
    "investment.demo_hi": (0.008, "rate"),
    "investment.shock_size": (0.01, "rate"),
    # transition thresholds and labels
    "transition.g_new": (0.030, "rate"),
    "transition.rho_bar": (0.0, "rate"),
    "transition.m": (0.0, "rate"),
    "transition.T_invest": (2.0, "num"),
    "transition.x_max_label": (0.16, "num"),
    "transition.mu_lo": (0.02, "rate"),
    "transition.mu_hi": (0.08, "rate"),
    # inference bands
    "inference.window_h": (24, "int"),
    "inference.block_len": (6, "int"),
    "inference.alpha": (0.10, "share"),
    "inference.block_grid": ((4, 6, 8), "ints"),
    # Monte Carlo harness
    "mc.n_reps": (500, "int"),
    "mc.T": (60, "int"),
    "mc.sigma_theta_obs": (0.02, "rate"),
    "mc.rho_theta": (0.8, "share"),
    "mc.sd_theta": (0.005, "rate"),
    "mc.rho_z": (0.9, "share"),
    "mc.sd_z": (0.0025, "rate"),
    "mc.stress_prob": (0.05, "share"),
    "mc.stress_size": (0.0075, "rate"),
    "mc.stress_decay": (0.9, "share"),
    "mc.evaluation_horizons": ((3.8, 7.5, 11.2, 15.0), "nums"),
    "mc.theta_reading_shift": (0.02, "rate"),
    "mc.dead_zone": (0.01, "rate"),
    "mc.tf_g_spread": (0.015, "rate"),
    "mc.tf_sd": (0.001, "rate"),
    "mc.tf_rho": (0.8, "share"),
}
DEFAULTS: Dict[str, object] = {key: default for key, (default, _) in _SCHEMA.items()}

# Built-in stress sweep over (core share, outside-option spread); the row
# order fixes the emitted table order.
STRESS_V2_ROWS: Tuple[Tuple[str, Dict[str, float]], ...] = (
    ("baseline_2026", {"closure.theta": 0.65, "closure.z": 0.020}),
    ("core_erosion_1", {"closure.theta": 0.60, "closure.z": 0.020}),
    ("core_erosion_2", {"closure.theta": 0.55, "closure.z": 0.020}),
    ("external_stress", {"closure.theta": 0.65, "closure.z": 0.030}),
    ("combined", {"closure.theta": 0.55, "closure.z": 0.030}),
    ("severe", {"closure.theta": 0.45, "closure.z": 0.035}),
)


def _finite(key: str, value: float, lineno: int) -> float:
    """Reject NaN for every key, and +-inf unless the key's default is itself
    infinite (so that no solver ever sees a non-finite number)."""
    if math.isnan(value) or (math.isinf(value) and DEFAULTS[key] != math.inf):
        raise ConfigError(f"line {lineno}: {key} must be a finite number, got {value!r}")
    return value


def _pair(key: str, item: str, lineno: int) -> Tuple[float, float]:
    if ":" not in item:
        raise ConfigError(f"line {lineno}: {key} expects x:y pairs, got {item!r}")
    a, b = item.split(":", 1)
    try:
        pair = (float(a), float(b))
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {key} has a malformed number in {item!r}"
        ) from None
    return tuple(_finite(key, v, lineno) for v in pair)


def _parse_value(key: str, text: str, lineno: int):
    """Parse and check one raw value by the key's kind in `_SCHEMA`: the one
    parser for file lines and sweep entries alike, so every error names the line."""
    kind = _SCHEMA[key][1]
    text = text.strip()
    if kind.endswith("?") and text.lower() in ("none", "null"):
        return None
    kind = kind.rstrip("?")
    if kind == "text":
        return text
    items = [t.strip() for t in text.split(",") if t.strip()]
    if kind == "pairs":
        return tuple(_pair(key, item, lineno) for item in items)
    try:
        if kind in ("int", "ints"):
            return int(text) if kind == "int" else tuple(int(t) for t in items)
        value = tuple(float(t) for t in items) if kind == "nums" else float(text)
    except ValueError:
        what = {"int": "an integer", "ints": "integers", "nums": "numbers"}.get(kind, "a number")
        raise ConfigError(f"line {lineno}: {key} expects {what}, got {text!r}") from None
    if kind == "nums":
        return tuple(_finite(key, v, lineno) for v in value)
    _check_units(key, _finite(key, value, lineno), f"line {lineno}: ")
    return value


def _check_units(key: str, value, where: str = "") -> None:
    """The rate and share unit rules; `where` is a file's `line N: ` prefix."""
    kind = _SCHEMA[key][1].rstrip("?")
    if not isinstance(value, (int, float)):
        return
    if kind == "rate" and math.isfinite(value) and not (-1.0 <= value <= 1.0):
        raise ConfigError(
            f"{where}{key} = {value} violates the rate unit convention "
            f"(fractions in [-1, 1]; 0.008 means 0.8%/yr)"
        )
    if kind == "share" and not (0.0 <= value <= 1.0):
        raise ConfigError(f"{where}{key} = {value} must lie in [0, 1]")


@dataclass
class Scenario:
    """A fully resolved configuration: flat values plus named sweep rows."""

    values: Dict[str, object]
    sweeps: Dict[str, List[Tuple[str, Dict[str, object]]]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return str(self.values["scenario.name"])

    def get(self, key: str):
        return self.values[key]

    def with_overrides(self, overrides: Dict[str, object]) -> "Scenario":
        merged = dict(self.values)
        for k, v in overrides.items():
            if k not in DEFAULTS:
                raise ConfigError(f"unknown override key {k!r}")
            _check_units(k, v)
            merged[k] = v
        return Scenario(values=merged, sweeps=self.sweeps)

    def config_hash(self) -> str:
        lines = [f"{k}={self.values[k]!r}" for k in sorted(self.values)]
        for name in sorted(self.sweeps):
            for row_name, ov in self.sweeps[name]:
                lines.append(f"sweep.{name}.{row_name}={sorted(ov.items())!r}")
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        return digest[:12]

    # ---- typed views -------------------------------------------------

    def _view(self, cls, section: str):
        """The dataclass `cls`, each field read from the key `section.<field>`."""
        return cls(**{f.name: self.values[f"{section}.{f.name}"] for f in fields(cls)})

    def econ_state(self) -> EconState:
        return self._view(EconState, "econ")

    def regime_params(self) -> RegimeParams:
        return self._view(RegimeParams, "regime")

    def clock_spec(self) -> ClockSpec:
        return self._view(ClockSpec, "regime")

    def fiscal_response(self) -> FiscalResponse:
        v = self.values
        return FiscalResponse(
            mode=v["fiscal.mode"], d0=v["fiscal.d0"], gamma=v["fiscal.gamma"],
            b_ref=v["fiscal.b_ref"],
            table=v["fiscal.table"] if v["fiscal.table"] else None,
        )

    def two_layer(self) -> TwoLayerParams:
        v = self.values
        if v["closure.dist"] == "uniform":
            if v["closure.dist_knots"]:
                raise ConfigError("closure.dist_knots is set but closure.dist is uniform; "
                                  "knots need closure.dist = table")
            dist = MarginDistribution()
        else:
            dist = MarginDistribution(kind="table", knots=tuple(v["closure.dist_knots"]))
        phi_req = phi_req_affine(
            base=v["closure.phi_req"], b=v["econ.b_prev"],
            psi=v["closure.psi"], z=v["closure.z"],
            d_b=v["closure.phi_req_db"], d_psi=v["closure.phi_req_dpsi"],
            d_z=v["closure.phi_req_dz"],
        )
        return TwoLayerParams(
            theta=v["closure.theta"], psi=v["closure.psi"], z=v["closure.z"],
            c_bar=v["closure.c_bar"], phi_req=phi_req, dist=dist,
        )

    def theta_law(self) -> ThetaLaw:
        return self._view(ThetaLaw, "closure")

    def r_rep(self) -> float:
        v = self.values["closure.r_rep"]
        return self.values["econ.r_n"] if v is None else v

    def investment_inputs(self) -> InvestmentInputs:
        v = self.values
        return InvestmentInputs(
            state=self.econ_state(), regime=self.regime_params(),
            mu=v["investment.mu"], lam=v["investment.lambda"],
            m=v["investment.m"], delta_bar=v["investment.delta_bar"],
            delta_demo=(v["investment.demo_lo"], v["investment.demo_hi"]),
            shock_size=v["investment.shock_size"],
        )

    def transition_spec(
        self, x_max_operational: float = 0.0, T_star: float = math.inf
    ) -> TransitionSpec:
        v = self.values
        return TransitionSpec(
            state=self.econ_state(), g_new=v["transition.g_new"],
            rho_bar=v["transition.rho_bar"], m=v["transition.m"],
            closure=self.two_layer(), mu=v["investment.mu"],
            x_max_operational=x_max_operational,
            T_invest=v["transition.T_invest"], T_star=T_star,
            g_star_baseline=v["regime.g_star"],
        )

    def subsample_config(self) -> SubsampleConfig:
        return self._view(SubsampleConfig, "inference")

    def mc_config(self, seed: int, n_reps: Optional[int] = None) -> MCConfig:
        """Each `mc.<name>` key sets the field of that name (a list as a
        tuple); every other field reads the one key that states its setting:
        the operating point from `closure`, `econ` and `regime`, `phi_req` as
        `two_layer` computes it, the core-share law as `theta_law` carries it,
        the band settings from `inference` and the safety margin `tf_m` from
        `transition.m`."""
        from .montecarlo import MCConfig

        v = self.values
        mc = {key[len("mc."):]: tuple(x) if _SCHEMA[key][1] == "nums" else x
              for key, x in v.items() if key.startswith("mc.")}
        if n_reps is not None:
            mc["n_reps"] = n_reps
        law = self.theta_law()
        return MCConfig(
            **mc, seed=seed,
            theta0=v["closure.theta"], z0=v["closure.z"], psi=v["closure.psi"],
            c_bar=v["closure.c_bar"], phi_req=self.two_layer().phi_req,
            pi=v["econ.pi"], r_rep=self.r_rep(),
            kappa_theta=law.kappa_theta, g0=law.g0, eps_cap=law.eps_cap,
            alpha=v["inference.alpha"], window_h=v["inference.window_h"],
            block_len=v["inference.block_len"], block_grid=tuple(v["inference.block_grid"]),
            tf_b_baseline=v["econ.b_prev"], tf_g_star=v["regime.g_star"],
            tf_d0=v["econ.d"], tf_m=v["transition.m"],
        )

    def sweep_rows(self, name: str) -> List[Tuple[str, Dict[str, object]]]:
        if name in self.sweeps:
            return self.sweeps[name]
        if name == "stress_v2":
            return list(STRESS_V2_ROWS)
        raise ConfigError(f"unknown sweep {name!r}")


def _parse_sweep_value(text: str, lineno: int) -> Dict[str, object]:
    """One sweep row's `key=value` entries, each parsed as its own file line."""
    overrides: Dict[str, object] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(
                f"line {lineno}: sweep row entries must be key=value, got {item!r}"
            )
        k, val = item.split("=", 1)
        k = k.strip()
        if k not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown sweep key {k!r}")
        overrides[k] = _parse_value(k, val, lineno)
    return overrides


def _read_lines(path: str, what: str) -> List[str]:
    """The lines of a UTF-8 text file; an unreadable file is a `ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def load_scenario(path: Optional[str] = None) -> Scenario:
    """Load and validate a scenario file; None or an empty file yields the
    March-2026 baseline defaults."""
    values = dict(DEFAULTS)
    sweeps: Dict[str, List[Tuple[str, Dict[str, object]]]] = {}
    if path is not None:
        for lineno, raw in enumerate(_read_lines(path, "scenario"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
            key, text = (s.strip() for s in line.split("=", 1))
            if key.startswith("sweep."):
                parts = key.split(".")
                if len(parts) != 3:
                    raise ConfigError(
                        f"line {lineno}: sweep keys look like sweep.<name>.<row>"
                    )
                _, sweep_name, row_name = parts
                sweeps.setdefault(sweep_name, []).append(
                    (row_name, _parse_sweep_value(text, lineno))
                )
                continue
            if key not in DEFAULTS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, text, lineno)
    scenario = Scenario(values=values, sweeps=sweeps)
    # fail fast on invariant violations in the typed views
    scenario.econ_state()
    scenario.regime_params()
    scenario.fiscal_response()
    scenario.two_layer()
    scenario.theta_law()
    scenario.investment_inputs()
    scenario.subsample_config()
    return scenario


def load_series_csv(path: str) -> Tuple[List[float], List[float]]:
    """Read a two-column `t,value` series CSV (header required, `#` metadata
    lines ignored).  A first line that reads as two numbers is data, not a
    header, and every data row holds exactly two numbers; either fault is a
    `ConfigError` naming the file and the line.  Returns (t, value) lists."""
    ts: List[float] = []
    vs: List[float] = []
    header_seen = False
    for lineno, raw in enumerate(_read_lines(path, "series"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            numbers = [float(p) for p in parts]
        except ValueError:
            numbers = None
        where = f"series file {path}, line {lineno}"
        if not header_seen:
            header_seen = True  # first non-comment line is the header
            if numbers is not None and len(numbers) == 2:
                raise ConfigError(f"{where}: expected a t,value header, got {line!r}")
            continue
        if len(parts) != 2:
            raise ConfigError(f"{where}: expected t,value — got {line!r}")
        if numbers is None:
            raise ConfigError(f"{where}: malformed number in series row {line!r}")
        ts.append(numbers[0])
        vs.append(numbers[1])
    if not ts:
        raise ConfigError(f"series file {path} has no data rows")
    return ts, vs
