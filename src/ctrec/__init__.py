"""Cross-temporal forecast reconciliation toolkit.

Builds cross-sectional and temporal hierarchy structures, combines them
into full cross-temporal constraint systems, and reconciles incoherent
base forecasts by optimal least-squares projection, by bottom-up
aggregation, or by two-step/iterative heuristics, with a covariance
estimator menu and a rolling-origin evaluation harness.
"""

from .covariance import (
    CS_KINDS,
    OCT_KINDS,
    T_KINDS,
    CovarianceModel,
    ResidualTableau,
    cross_sectional_cov,
    cross_temporal_cov,
    sample_mse,
    shrink,
    temporal_cov,
)
from .crosstemporal import (
    CrossTemporalStructure,
    bottom_up,
    build_cross_temporal,
    coherence_report,
    commutation_matrix,
    validate_raw_kernel,
)
from .errors import (
    BenchmarkZero,
    CtrecError,
    DegenerateSample,
    DimensionMismatch,
    EmptySelection,
    InvalidEntry,
    InvalidInput,
    NonConvergence,
    NotAFactor,
    OrderingMismatch,
    RaggedEdge,
    SingularCovariance,
    SingularSystem,
)
from .evaluation import (
    ErrorCube,
    accuracy_index,
    avg_rel_index,
    avgrel_table,
    error_cube,
    relative_index,
    rolling_harness,
)
from .heuristics import HeuristicConfig, iterative, ka_two_step
from .hierarchy import (
    CrossSectionalStructure,
    build_cross_sectional,
    coherent_subspace_check,
    deduplicate_nodes,
)
from .reconcile import (
    ReconciliationResult,
    project,
    project_structural,
    reconciled_covariance,
    reconcile_cross_sectional,
    reconcile_cross_sectional_tableau,
    reconcile_cross_temporal,
    reconcile_temporal,
)
from .synthgen import NoiseSpec, generate_coherent, naive_base_forecasts
from .tableau import ForecastTableau
from .temporal import (
    TemporalStructure,
    aggregate_series,
    build_full_temporal_kernel,
    build_temporal,
)

__version__ = "0.1.0"

__all__ = [
    "CS_KINDS",
    "T_KINDS",
    "OCT_KINDS",
    "CovarianceModel",
    "ResidualTableau",
    "cross_sectional_cov",
    "cross_temporal_cov",
    "sample_mse",
    "shrink",
    "temporal_cov",
    "CrossTemporalStructure",
    "bottom_up",
    "build_cross_temporal",
    "coherence_report",
    "commutation_matrix",
    "validate_raw_kernel",
    "BenchmarkZero",
    "CtrecError",
    "DegenerateSample",
    "DimensionMismatch",
    "EmptySelection",
    "InvalidEntry",
    "InvalidInput",
    "NonConvergence",
    "NotAFactor",
    "OrderingMismatch",
    "RaggedEdge",
    "SingularCovariance",
    "SingularSystem",
    "ErrorCube",
    "accuracy_index",
    "avg_rel_index",
    "avgrel_table",
    "error_cube",
    "relative_index",
    "rolling_harness",
    "HeuristicConfig",
    "iterative",
    "ka_two_step",
    "CrossSectionalStructure",
    "build_cross_sectional",
    "coherent_subspace_check",
    "deduplicate_nodes",
    "ReconciliationResult",
    "project",
    "project_structural",
    "reconciled_covariance",
    "reconcile_cross_sectional",
    "reconcile_cross_sectional_tableau",
    "reconcile_cross_temporal",
    "reconcile_temporal",
    "NoiseSpec",
    "generate_coherent",
    "naive_base_forecasts",
    "ForecastTableau",
    "TemporalStructure",
    "aggregate_series",
    "build_full_temporal_kernel",
    "build_temporal",
]
