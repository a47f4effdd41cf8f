"""Scenario configuration: line-oriented `section.key = value` files with
`#` comments, validated against a closed schema with March-2026 baseline
defaults.  An empty file is the baseline scenario.

Lists are comma-separated; booleans are true/false; sweep rows are declared
as `sweep.<name>.<row> = key=value,key=value`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .closure import MarginDistribution, ThetaLaw, TwoLayerParams, phi_req_affine
from .core import EconState, FiscalResponse, RegimeParams
from .errors import ConfigError
from .extensions import ClockSpec
from .inference import SubsampleConfig
from .investment import InvestmentInputs
from .montecarlo import MCConfig
from .transition import TransitionSpec

__all__ = ["Scenario", "load_scenario", "load_series_csv", "DEFAULTS"]


def _norm_key(key: str) -> str:
    # `core.` is an accepted alias for the econ block
    if key.startswith("core."):
        return "econ." + key[len("core.") :]
    return key


DEFAULTS: Dict[str, object] = {
    "scenario.name": "baseline",
    # one period's macro-fiscal observables
    "econ.b_prev": 2.40,
    "econ.r_n": 0.022,
    "econ.g_n": 0.030,
    "econ.pi": 0.027,
    "econ.d": 0.020,
    "econ.s": 0.0,
    # repression / scope parameters
    "regime.epsilon": 0.005,
    "regime.g_star": 0.030,
    "regime.phi": 0.88,
    "regime.phi_bar": 0.85,
    "regime.kappa": 0.01,
    "regime.kappa_exp": 0.01,
    "regime.de": 0.0,
    "regime.e_bar": 0.0,
    "regime.alpha": 0.0,
    "regime.beta": 0.0,
    "regime.psi_mon": 1.0,
    "regime.psi_abs": 0.93,
    "regime.psi_fx": 1.0,
    # fiscal response
    "fiscal.mode": "constant",
    "fiscal.d0": 0.020,
    "fiscal.gamma": 0.0,
    "fiscal.b_ref": 2.40,
    "fiscal.table": (),
    # two-layer closure
    "closure.theta": 0.65,
    "closure.psi": 0.97,
    "closure.z": 0.02,
    "closure.c_bar": 0.06,
    "closure.phi_req": 0.85,
    "closure.dist": "uniform",
    "closure.dist_knots": (),
    "closure.r_rep": None,  # defaults to econ.r_n
    "closure.kappa_theta": 0.0,
    "closure.g0": 0.0,
    "closure.eps_cap": math.inf,
    "closure.phi_req_db": 0.0,
    "closure.phi_req_dpsi": 0.0,
    "closure.phi_req_dz": 0.0,
    # investment bounds
    "investment.mu": 0.05,
    "investment.lambda": 0.5,
    "investment.m": 0.0,
    "investment.delta_bar": 0.0,
    "investment.demo_lo": 0.005,
    "investment.demo_hi": 0.008,
    "investment.shock_size": 0.01,
    # transition thresholds and labels
    "transition.g_new": 0.030,
    "transition.rho_bar": 0.0,
    "transition.m": 0.0,
    "transition.T_invest": 2.0,
    "transition.x_max_label": 0.16,
    "transition.mu_lo": 0.02,
    "transition.mu_hi": 0.08,
    # inference bands
    "inference.window_h": 24,
    "inference.block_len": 6,
    "inference.alpha": 0.10,
    "inference.block_grid": (4, 6, 8),
    # Monte Carlo harness
    "mc.n_reps": 500,
    "mc.T": 60,
    "mc.alpha": 0.10,
    "mc.sigma_theta_obs": 0.02,
    "mc.rho_theta": 0.8,
    "mc.sd_theta": 0.005,
    "mc.kappa_theta": 0.0,
    "mc.g0": 0.0,
    "mc.rho_z": 0.9,
    "mc.sd_z": 0.0025,
    "mc.stress_prob": 0.05,
    "mc.stress_size": 0.0075,
    "mc.stress_decay": 0.9,
    "mc.evaluation_horizons": (3.8, 7.5, 11.2, 15.0),
    "mc.theta_reading_shift": 0.02,
    "mc.dead_zone": 0.01,
    "mc.tf_g_spread": 0.015,
    "mc.tf_sd": 0.001,
    "mc.tf_rho": 0.8,
    "mc.tf_m": 0.0,
}

# Unit discipline: rates are fractions in [-1, 1], shares live in [0, 1].
_RATE_KEYS = {
    "econ.r_n", "econ.g_n", "econ.pi", "econ.d", "econ.s",
    "regime.epsilon", "regime.g_star", "regime.kappa", "regime.kappa_exp",
    "regime.de", "regime.e_bar",
    "fiscal.d0", "fiscal.gamma",
    "closure.z", "closure.c_bar", "closure.r_rep", "closure.kappa_theta",
    "investment.mu", "investment.m", "investment.delta_bar",
    "investment.demo_lo", "investment.demo_hi", "investment.shock_size",
    "transition.g_new", "transition.rho_bar", "transition.m",
    "transition.mu_lo", "transition.mu_hi",
    "mc.sigma_theta_obs", "mc.sd_theta", "mc.kappa_theta", "mc.sd_z",
    "mc.stress_size", "mc.tf_g_spread", "mc.tf_sd", "mc.tf_m",
    "mc.dead_zone", "mc.theta_reading_shift",
}
_SHARE_KEYS = {
    "regime.phi", "regime.phi_bar",
    "regime.psi_mon", "regime.psi_abs", "regime.psi_fx",
    "closure.theta", "closure.psi", "closure.phi_req",
    "investment.lambda",
    "mc.stress_prob", "mc.stress_decay", "mc.rho_theta", "mc.rho_z",
    "mc.tf_rho", "mc.alpha", "inference.alpha",
}

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
    default = DEFAULTS[key]
    inf_ok = isinstance(default, float) and math.isinf(default)
    if math.isnan(value) or (math.isinf(value) and not inf_ok):
        raise ConfigError(f"line {lineno}: {key} must be a finite number, got {value!r}")
    return value


def _parse_scalar(key: str, text: str, lineno: int):
    """Parse one raw value according to the default's type for the key."""
    default = DEFAULTS[key]
    text = text.strip()
    if text.lower() in ("none", "null"):
        return None
    if isinstance(default, bool):
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        raise ConfigError(f"line {lineno}: {key} expects true/false, got {text!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} expects an integer, got {text!r}"
            ) from None
    if isinstance(default, float) or default is None:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} expects a number, got {text!r}"
            ) from None
        return _finite(key, value, lineno)
    if isinstance(default, tuple):
        if not text:
            return ()
        items = [t.strip() for t in text.split(",") if t.strip()]
        if key in ("fiscal.table", "closure.dist_knots"):
            pairs = []
            for item in items:
                if ":" not in item:
                    raise ConfigError(
                        f"line {lineno}: {key} expects x:y pairs, got {item!r}"
                    )
                a, b = item.split(":", 1)
                try:
                    pair = (float(a), float(b))
                except ValueError:
                    raise ConfigError(
                        f"line {lineno}: {key} has a malformed number in {item!r}"
                    ) from None
                pairs.append(tuple(_finite(key, v, lineno) for v in pair))
            return tuple(pairs)
        if key == "inference.block_grid":
            try:
                return tuple(int(t) for t in items)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} expects integers, got {text!r}"
                ) from None
        try:
            values = tuple(float(t) for t in items)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} expects numbers, got {text!r}"
            ) from None
        return tuple(_finite(key, v, lineno) for v in values)
    return text  # plain string


def _check_units(key: str, value) -> None:
    if value is None or not isinstance(value, (int, float)):
        return
    if key in _RATE_KEYS and math.isfinite(value) and not (-1.0 <= value <= 1.0):
        raise ConfigError(
            f"{key} = {value} violates the rate unit convention "
            f"(fractions in [-1, 1]; 0.008 means 0.8%/yr)"
        )
    if key in _SHARE_KEYS and not (0.0 <= value <= 1.0):
        raise ConfigError(f"{key} = {value} must lie in [0, 1]")


@dataclass
class Scenario:
    """A fully resolved configuration: flat values plus named sweep rows."""

    values: Dict[str, object]
    sweeps: Dict[str, List[Tuple[str, Dict[str, float]]]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return str(self.values["scenario.name"])

    def get(self, key: str):
        return self.values[key]

    def with_overrides(self, overrides: Dict[str, object]) -> "Scenario":
        merged = dict(self.values)
        for k, v in overrides.items():
            nk = _norm_key(k)
            if nk not in DEFAULTS:
                raise ConfigError(f"unknown override key {k!r}")
            _check_units(nk, v)
            merged[nk] = v
        return Scenario(values=merged, sweeps=self.sweeps)

    def config_hash(self) -> str:
        lines = [f"{k}={self.values[k]!r}" for k in sorted(self.values)]
        for name in sorted(self.sweeps):
            for row_name, ov in self.sweeps[name]:
                lines.append(f"sweep.{name}.{row_name}={sorted(ov.items())!r}")
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        return digest[:12]

    # ---- typed views -------------------------------------------------

    def econ_state(self) -> EconState:
        v = self.values
        return EconState(
            b_prev=v["econ.b_prev"], r_n=v["econ.r_n"], g_n=v["econ.g_n"],
            pi=v["econ.pi"], d=v["econ.d"], s=v["econ.s"],
        )

    def regime_params(self) -> RegimeParams:
        v = self.values
        return RegimeParams(
            epsilon=v["regime.epsilon"], g_star=v["regime.g_star"],
            phi=v["regime.phi"], phi_bar=v["regime.phi_bar"],
            kappa=v["regime.kappa"], de=v["regime.de"], e_bar=v["regime.e_bar"],
            alpha=v["regime.alpha"], beta=v["regime.beta"],
            psi_mon=v["regime.psi_mon"], psi_abs=v["regime.psi_abs"],
            psi_fx=v["regime.psi_fx"], kappa_exp=v["regime.kappa_exp"],
        )

    def clock_spec(self) -> ClockSpec:
        v = self.values
        return ClockSpec(
            phi=v["regime.phi"], phi_bar=v["regime.phi_bar"],
            kappa=v["regime.kappa"], kappa_exp=v["regime.kappa_exp"],
        )

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
            dist = MarginDistribution()
        else:
            dist = MarginDistribution(kind="table", knots=tuple(v["closure.dist_knots"]))
        phi_req = v["closure.phi_req"]
        if v["closure.phi_req_db"] or v["closure.phi_req_dpsi"] or v["closure.phi_req_dz"]:
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
        v = self.values
        return ThetaLaw(
            kappa_theta=v["closure.kappa_theta"], g0=v["closure.g0"],
            eps_cap=v["closure.eps_cap"],
        )

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
        v = self.values
        return SubsampleConfig(
            window_h=v["inference.window_h"], block_len=v["inference.block_len"],
            alpha=v["inference.alpha"], block_grid=tuple(v["inference.block_grid"]),
        )

    def mc_config(self, seed: int, n_reps: Optional[int] = None) -> MCConfig:
        v = self.values
        return MCConfig(
            n_reps=n_reps if n_reps is not None else v["mc.n_reps"],
            T=v["mc.T"], alpha=v["mc.alpha"], seed=seed,
            sigma_theta_obs=v["mc.sigma_theta_obs"],
            theta0=v["closure.theta"], rho_theta=v["mc.rho_theta"],
            sd_theta=v["mc.sd_theta"], kappa_theta=v["mc.kappa_theta"],
            g0=v["mc.g0"],
            z0=v["closure.z"], rho_z=v["mc.rho_z"], sd_z=v["mc.sd_z"],
            stress_prob=v["mc.stress_prob"], stress_size=v["mc.stress_size"],
            stress_decay=v["mc.stress_decay"],
            psi=v["closure.psi"], c_bar=v["closure.c_bar"],
            phi_req=v["closure.phi_req"], pi=v["econ.pi"], r_rep=self.r_rep(),
            evaluation_horizons=tuple(v["mc.evaluation_horizons"]),
            window_h=v["inference.window_h"], block_len=v["inference.block_len"],
            block_grid=tuple(v["inference.block_grid"]),
            theta_reading_shift=v["mc.theta_reading_shift"],
            dead_zone=v["mc.dead_zone"],
            tf_b_baseline=v["econ.b_prev"], tf_b_monitoring=1.574,
            tf_g_star=v["regime.g_star"], tf_g_spread=v["mc.tf_g_spread"],
            tf_pi0=v["econ.pi"], tf_d0=v["econ.d"], tf_rho=v["mc.tf_rho"],
            tf_sd=v["mc.tf_sd"], tf_m=v["mc.tf_m"],
        )

    def sweep_rows(self, name: str) -> List[Tuple[str, Dict[str, float]]]:
        if name in self.sweeps:
            return self.sweeps[name]
        if name == "stress_v2":
            return list(STRESS_V2_ROWS)
        raise ConfigError(f"unknown sweep {name!r}")


def _parse_sweep_value(text: str, lineno: int) -> Dict[str, float]:
    overrides: Dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(
                f"line {lineno}: sweep row entries must be key=value, got {item!r}"
            )
        k, val = item.split("=", 1)
        k = _norm_key(k.strip())
        if k not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown sweep key {k!r}")
        try:
            value = float(val.strip())
        except ValueError:
            raise ConfigError(
                f"line {lineno}: malformed number {val.strip()!r} in sweep row"
            ) from None
        overrides[k] = _finite(k, value, lineno)
    return overrides


def load_scenario(path: Optional[str] = None) -> Scenario:
    """Load and validate a scenario file; None or an empty file yields the
    March-2026 baseline defaults."""
    values = dict(DEFAULTS)
    sweeps: Dict[str, List[Tuple[str, Dict[str, float]]]] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
            key, text = (s.strip() for s in line.split("=", 1))
            key = _norm_key(key)
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
            value = _parse_scalar(key, text, lineno)
            _check_units(key, value)
            values[key] = value
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
    lines ignored).  Returns (t, value) lists."""
    ts: List[float] = []
    vs: List[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read series file {path}: {exc}") from exc
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True  # first non-comment line is the header
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ConfigError(f"line {lineno}: expected t,value — got {line!r}")
        try:
            ts.append(float(parts[0]))
            vs.append(float(parts[1]))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: malformed number in series row {line!r}"
            ) from None
    if not ts:
        raise ConfigError(f"series file {path} has no data rows")
    return ts, vs
