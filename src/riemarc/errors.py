"""Exception types; a broken precondition raises ``ContractError``."""


class ContractError(ValueError):
    """An input or a call breaks a documented precondition: a shape,
    feasibility, base point, parameter range, or the order of calls."""


class SingularRetractionError(RuntimeError):
    """The retraction argument produced a rank-deficient matrix, so no
    orthonormal factor exists."""


class PlanError(ValueError):
    """A benchmark plan file is malformed or inconsistent."""
