"""Runs with at most one failure of each of two types in trinary trials:
closed forms, exact oracles, O(N) scans, and Monte Carlo experiments."""

__version__ = "0.1.0"

import importlib as _importlib

# submodule -> the public functions and classes it defines.  Each name is
# imported on its first access (PEP 562), so that the closed forms
# (analytic, model) load without numpy; only montecarlo, oracle and scan
# import it.  A submodule is reached as contamruns.<module>.
_EXPORTS = {
    "analytic": (
        "AccompanyingLaw", "AlphaBreakdown", "ExpansionTerms", "accompanying_cdf",
        "alpha_correction", "cfk_bounds", "conditional_survival", "joint_survival_aggregated",
        "m_of_n", "sandwich", "theorem1_limit_cdf", "window_probability",
    ),
    "model": (
        "DerivedConstants", "Outcome", "SizeError", "TrialDistribution", "ValidationError",
        "derive_constants",
    ),
    "montecarlo": (
        "EmpiricalDistribution", "ExperimentResult", "run_hitting_experiment",
        "run_longest_experiment", "sup_distance", "sup_distance_lattice", "sup_distance_step",
    ),
    "oracle": (
        "dp_longest_cdf", "enumerate_conditional", "joint_survival_by_enumeration",
        "window_probability_by_enumeration",
    ),
    "scan": ("first_hitting", "longest_run"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
