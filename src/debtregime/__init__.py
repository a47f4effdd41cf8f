"""Deterministic engine for debt-regime diagnostics under a captive domestic
bond market: debt recursion and stability accounting, closed-form dynamic
extensions, investment bounds, complementarity pricing of the sovereign
premium, transition-feasibility thresholds, and conservative set-valued
regime inference with a seeded Monte Carlo harness.

Every public module and name loads on first access (PEP 562), so `import
debtregime` runs no submodule and starts without numpy.
"""

from importlib import import_module as _import_module

from ._version import __version__

# each public module and the names the package re-exports from it
_EXPORTS = {
    "core": ("EconState", "FiscalResponse", "RegimeParams", "check_scope",
             "effective_deficit", "stability_surplus", "step_debt",
             "step_debt_stochastic"),
    "errors": (),
    "extensions": ("ClockSpec", "PsiSpec", "SprintSpec", "captive_threshold_shift",
                   "clock", "estimate_kappa", "marginal_gain_sequence", "paradox_test",
                   "psi_composite", "ratchet_gap", "repression_dividend",
                   "sprint_cumulative_improvement", "timing_feasible"),
    "investment": ("AllocationProblem", "InvestmentBounds", "InvestmentInputs",
                   "allocate", "compute_bounds", "cumulative_upper_bound"),
    "closure": ("MarginDistribution", "PremiumSolution", "ThetaLaw", "TwoLayerParams",
                "comparative_statics", "demand_at", "feedback_gain", "fixed_point_scan",
                "monotone_path", "pe_sensitivities", "solve_premium", "theta_step"),
    "transition": ("TransitionSpec", "feasibility_label", "joint_feasibility",
                   "required_growth_endogenous", "required_growth_exogenous"),
    "inference": ("MeasurementVariant", "SubsampleConfig", "TierEnvelope", "classify",
                  "detrend_local_linear", "envelope", "score_pe", "score_tf",
                  "subsample_critical_value", "trend_growth_estimate"),
    "montecarlo": ("MCConfig", "run_mc_pe", "run_mc_tf"),
    "reference_values": (),
    "scenario": ("Scenario", "load_scenario"),
    "tables": ("TableArtifact", "build_table", "emit_csv"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
