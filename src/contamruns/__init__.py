"""Runs with at most one failure of each of two types in trinary trials:
closed forms, exact oracles, O(N) scans, and Monte Carlo experiments."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analytic import (
    AccompanyingLaw,
    AlphaBreakdown,
    ExpansionTerms,
    accompanying_cdf,
    alpha_correction,
    cfk_bounds,
    conditional_survival,
    exponent_l,
    h_function_terms,
    joint_survival_aggregated,
    m_of_n,
    sandwich,
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
)
from .montecarlo import (
    EmpiricalDistribution,
    ExperimentConfig,
    ExperimentResult,
    run_hitting_experiment,
    run_longest_experiment,
    sup_distance,
    sup_distance_lattice,
    sup_distance_step,
)
from .oracle import (
    dp_longest_cdf,
    enumerate_conditional,
    joint_survival_by_enumeration,
    window_probability_by_enumeration,
)
from .scan import first_hitting, longest_run

# the functions and classes above; importing them also binds their submodules here
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
