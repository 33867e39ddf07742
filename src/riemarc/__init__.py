"""Cubic-regularized optimization on matrix manifolds.

The package provides an adaptive cubic-regularization driver with exact
or sub-sampled oracles, a trust-region baseline, the manifold geometry
they run on, a joint-diagonalization objective on the Stiefel manifold,
and a small benchmark harness with a CLI.
"""

from .arc import (
    EigPolicy,
    IterationRecord,
    Outcome,
    RunTrace,
    SolverConfig,
    StopRule,
    run,
    should_terminate,
    write_trace_csv,
)
from .errors import (
    ContractError,
    MissingEigenEstimateError,
    PlanError,
    SingularRetractionError,
    StaleSampleError,
    ZeroGradientError,
)
from .jointdiag import (
    JDInstance,
    JointDiagObjective,
    generate_instance,
    load_instance,
    save_instance,
)
from .manifolds import Euclidean, Manifold, Point, Stiefel, Tangent, sym
from .objectives import CosineSum, QuadraticSum, SaddleQuartic, SeparableObjective
from .oracles import (
    OracleBundle,
    OracleCounters,
    OracleMode,
    SampleSizeParams,
    concentration_trial,
    required_sample_sizes,
)
from .subproblem import (
    CubicModel,
    MinEigResult,
    SubsolverOptions,
    SubsolverResult,
    cauchy_point,
    eigen_point,
    min_eig_estimate,
    solve_subproblem,
)
from .trust_region import TrustRegionConfig, run_trust_region, tr_subproblem

__all__ = [
    "CosineSum",
    "ContractError",
    "CubicModel",
    "EigPolicy",
    "Euclidean",
    "IterationRecord",
    "JDInstance",
    "JointDiagObjective",
    "Manifold",
    "MinEigResult",
    "MissingEigenEstimateError",
    "OracleBundle",
    "OracleCounters",
    "OracleMode",
    "Outcome",
    "PlanError",
    "Point",
    "QuadraticSum",
    "RunTrace",
    "SaddleQuartic",
    "SampleSizeParams",
    "SeparableObjective",
    "SingularRetractionError",
    "SolverConfig",
    "StaleSampleError",
    "Stiefel",
    "StopRule",
    "SubsolverOptions",
    "SubsolverResult",
    "Tangent",
    "TrustRegionConfig",
    "ZeroGradientError",
    "cauchy_point",
    "concentration_trial",
    "eigen_point",
    "generate_instance",
    "load_instance",
    "min_eig_estimate",
    "required_sample_sizes",
    "run",
    "run_trust_region",
    "save_instance",
    "should_terminate",
    "solve_subproblem",
    "sym",
    "tr_subproblem",
    "write_trace_csv",
]
