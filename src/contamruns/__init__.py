"""Runs with at most one failure of each of two types in trinary trials:
closed forms, exact oracles, O(N) scans, and Monte Carlo experiments."""

__version__ = "0.1.0"

import importlib as _importlib

# submodule -> the public names it defines.  Each name resolves on every
# access (PEP 562) through its submodule, imported on first use, and is
# never cached here, so it reads the submodule's current binding.  The
# closed forms (analytic, model) load without numpy; only montecarlo,
# oracle and scan import it.  A submodule is reached as contamruns.<module>.
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
        "EmpiricalDistribution", "ExperimentResult", "RNG_SCHEME_ID", "run_hitting_experiment",
        "run_longest_experiment", "sup_distance", "sup_distance_lattice", "sup_distance_step",
    ),
    "oracle": ("dp_longest_cdf",),
    "scan": ("first_hitting", "longest_run"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here, so later lookups find it in globals
    source = globals().get(module) or _importlib.import_module(f"{__name__}.{module}")
    return source if module == name else getattr(source, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
