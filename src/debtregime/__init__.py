"""Deterministic engine for debt-regime diagnostics under a captive domestic
bond market: debt recursion and stability accounting, closed-form dynamic
extensions, investment bounds, complementarity pricing of the sovereign
premium, transition-feasibility thresholds, and conservative set-valued
regime inference with a seeded Monte Carlo harness.
"""

from ._version import __version__
from .core import (
    EconState,
    FiscalResponse,
    RegimeParams,
    check_scope,
    effective_deficit,
    stability_surplus,
    step_debt,
    step_debt_stochastic,
)
from .extensions import (
    ClockSpec,
    PsiSpec,
    SprintSpec,
    captive_threshold_shift,
    clock,
    estimate_kappa,
    marginal_gain_sequence,
    paradox_test,
    psi_composite,
    ratchet_gap,
    repression_dividend,
    sprint_cumulative_improvement,
    timing_feasible,
)
from .investment import (
    AllocationProblem,
    InvestmentBounds,
    InvestmentInputs,
    allocate,
    compute_bounds,
    cumulative_upper_bound,
)
from .closure import (
    MarginDistribution,
    PremiumSolution,
    ThetaLaw,
    TwoLayerParams,
    comparative_statics,
    demand_at,
    feedback_gain,
    fixed_point_scan,
    monotone_path,
    pe_sensitivities,
    solve_premium,
    theta_step,
)
from .transition import (
    TransitionSpec,
    feasibility_label,
    joint_feasibility,
    required_growth_endogenous,
    required_growth_exogenous,
)
from .inference import (
    MeasurementVariant,
    SubsampleConfig,
    TierEnvelope,
    classify,
    detrend_local_linear,
    envelope,
    score_pe,
    score_tf,
    subsample_critical_value,
    trend_growth_estimate,
)
from .scenario import Scenario, load_scenario
from .tables import TableArtifact, build_table, emit_csv

# `montecarlo` is the one module that imports numpy at import time (every other
# module imports it inside the functions that build arrays), so its names load
# on first access (PEP 562) and the scalar commands start without numpy
_MONTECARLO_NAMES = ("MCConfig", "run_mc_pe", "run_mc_tf")

__all__ = [
    "closure", "core", "errors", "extensions", "inference", "investment",
    "montecarlo", "reference_values", "scenario", "tables", "transition",
    "EconState", "FiscalResponse", "RegimeParams", "check_scope",
    "effective_deficit", "stability_surplus", "step_debt", "step_debt_stochastic",
    "ClockSpec", "PsiSpec", "SprintSpec", "captive_threshold_shift", "clock",
    "estimate_kappa", "marginal_gain_sequence", "paradox_test", "psi_composite",
    "ratchet_gap", "repression_dividend", "sprint_cumulative_improvement",
    "timing_feasible",
    "AllocationProblem", "InvestmentBounds", "InvestmentInputs", "allocate",
    "compute_bounds", "cumulative_upper_bound",
    "MarginDistribution", "PremiumSolution", "ThetaLaw", "TwoLayerParams",
    "comparative_statics", "demand_at", "feedback_gain", "fixed_point_scan",
    "monotone_path", "pe_sensitivities", "solve_premium", "theta_step",
    "TransitionSpec", "feasibility_label", "joint_feasibility",
    "required_growth_endogenous", "required_growth_exogenous",
    "MeasurementVariant", "SubsampleConfig", "TierEnvelope", "classify",
    "detrend_local_linear", "envelope", "score_pe", "score_tf",
    "subsample_critical_value", "trend_growth_estimate",
    *_MONTECARLO_NAMES,
    "Scenario", "load_scenario", "TableArtifact", "build_table", "emit_csv",
]


def __getattr__(name):
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        from importlib import import_module

        montecarlo = import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
