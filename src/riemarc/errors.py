"""Exception types shared across the package."""


class ContractError(ValueError):
    """An input violates a documented precondition (shape, feasibility,
    base-point mismatch, or an out-of-range parameter)."""


class SingularRetractionError(RuntimeError):
    """The retraction argument produced a rank-deficient matrix, so no
    orthonormal factor exists."""


class StaleSampleError(RuntimeError):
    """A sub-sampled oracle was queried before the per-iteration sample
    was fixed with ``begin_iteration``."""


class ZeroGradientError(ValueError):
    """A sub-problem was posed with a zero gradient and no direction of
    negative curvature, so no descent step exists."""


class MissingEigenEstimateError(RuntimeError):
    """The second-order termination test needs a smallest-eigenvalue
    estimate that was not computed."""


class PlanError(ValueError):
    """A benchmark plan file is malformed or inconsistent."""
