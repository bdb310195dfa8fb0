"""Information-theoretic tools for causality, reduced-order modeling, and
control of discrete-time dynamical systems."""

from .causality import (
    CausalityMap,
    FluxQuery,
    FluxReport,
    causality_map,
    correlation_map,
    flux_report,
    flux_report_from_pmf,
    flux_reports,
    information_flux,
    information_leak,
)
from .control import (
    ControllerParams,
    ControlTarget,
    build_auxiliary_target,
    channel_capacity,
    classify_loop,
    controllability,
    kl_objective,
    missing_information,
    noisy_observability_bound,
    observability,
    optimize_controller,
)
from .descent import OptimizationTrace
from .discretization import PartitionSpec, SymbolSeries, discretize, estimate_joint_pmf
from .infocore import (
    co_information,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    kl_divergence,
    mutual_information,
)
from .modeling import (
    ModelAssessment,
    ModelParams,
    expected_error_lower_bound,
    fano_error_probability_bound,
    kl_fit,
    ml_equivalence_check,
    pinsker_statistical_bound,
)
from .pmf import JointPMF, condition, marginalize
from .signals import SignalMatrix, read_csv, write_csv
from .systems import (
    LinearPlant,
    NumericalBlowup,
    SystemSpec,
    simulate,
    symbolic_map_suite,
)

__version__ = "0.1.0"
