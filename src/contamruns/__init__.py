"""Runs with at most one failure of each of two types in trinary trials:
closed forms, exact oracles, O(N) scans, and Monte Carlo experiments."""

__version__ = "0.1.0"

from .analytic import (
    AccompanyingLaw,
    AlphaBreakdown,
    ExpansionTerms,
    accompanying_cdf,
    alpha_correction,
    cfk_bounds,
    cfk_condition_check,
    conditional_discrepancy,
    conditional_survival,
    exponent_l,
    h_function_terms,
    joint_survival_aggregated,
    joint_survival_casewise,
    m_of_n,
    theorem1_limit_cdf,
    window_probability,
)
from .model import (
    DerivedConstants,
    Outcome,
    SizeError,
    TrialDistribution,
    ValidationError,
    derive_constants,
    is_window_valid,
)
from .montecarlo import (
    EmpiricalDistribution,
    ExperimentConfig,
    ExperimentResult,
    run_hitting_experiment,
    run_longest_experiment,
    simulate_sequence,
    sup_distance,
    sup_distance_lattice,
    sup_distance_step,
)
from .oracle import (
    dp_longest_cdf,
    enumerate_conditional,
    enumerate_event,
    joint_survival_by_enumeration,
    longest_cdf_by_enumeration,
    window_probability_by_enumeration,
)
from .scan import first_hitting, longest_run

__all__ = [name for name in dir() if not name.startswith("_")]
