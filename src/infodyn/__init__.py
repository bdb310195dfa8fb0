"""Information-theoretic tools for causality, reduced-order modeling, and
control of discrete-time dynamical systems.

The public names below are imported from their modules on first use, so
`import infodyn` (and each CLI command) compiles only the modules it runs.
"""

import importlib

# each public name of the package, by the module that defines it
_NAMES = {
    "causality": ("CausalityMap", "FluxReport", "causality_map", "correlation_map", "flux_report",
                  "flux_report_from_pmf", "flux_reports", "information_flux"),
    "control": ("ControllerParams", "ControlTarget", "build_auxiliary_target",
                "channel_capacity", "classify_loop", "controllability", "kl_objective",
                "missing_information", "noisy_observability_bound", "observability",
                "optimize_controller"),
    "descent": ("OptimizationTrace",),
    "discretization": ("PartitionSpec", "SymbolSeries", "discretize", "estimate_joint_pmf"),
    "infocore": ("co_information", "conditional_entropy", "conditional_mutual_information",
                 "entropy", "kl_divergence", "mutual_information"),
    "modeling": ("ModelAssessment", "ModelParams", "expected_error_lower_bound",
                 "fano_error_probability_bound", "kl_fit", "ml_equivalence_check",
                 "pinsker_statistical_bound"),
    "pmf": ("JointPMF", "marginalize"),
    "signals": ("SignalMatrix", "read_csv", "write_csv"),
    "systems": ("LinearPlant", "NumericalBlowup", "SystemSpec", "simulate", "symbolic_map_suite"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
