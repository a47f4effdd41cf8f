"""Published reference values rendered alongside engine output for
side-by-side comparison.  Never asserted by tests and never fed back into
any computation: the engine recomputes everything from its equations, and
where the two disagree the table shows both.
"""

# Stress-grid reference column: row name -> published premium (fraction/yr).
STRESS_V2_RHO_REF = {
    "baseline_2026": 0.0,
    "core_erosion_1": 0.0014,
    "core_erosion_2": 0.0044,
    "external_stress": 0.0039,
    "combined": 0.0117,
    "severe": 0.0218,
}

# Tier-widening illustration for the boundary score: reading -> published
# score (fraction).
TIER_PE_SCORE_REF = {
    "tier1_baseline": 0.03,
    "tier2_core_erosion_1": -0.01,
    "tier2_external_stress": -0.03,
}
