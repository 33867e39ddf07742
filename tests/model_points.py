"""The cubic model's value and the sub-solver's two closed-form
candidates as stand-alone steps, shared by the sub-solver tests and the
acceptance checklist."""

from riemarc.errors import ContractError
from riemarc.manifolds import Tangent
from riemarc.subproblem import CubicModel, _cauchy_candidate, _eigen_candidate


def model_value(model: CubicModel, eta: Tangent) -> float:
    """Evaluate ``m`` at a tangent vector (one Hessian product)."""
    g_eta = model.manifold.inner(model.gradient, eta)
    h_eta = model.manifold.inner(model.hvp(eta), eta)
    nrm = model.manifold.norm(eta)
    return g_eta + 0.5 * h_eta + (model.sigma / 3.0) * nrm**3


def cauchy_point(model: CubicModel) -> tuple[Tangent, float]:
    """Exact minimizer of ``m`` along ``-G`` and its model value.

    Uses a single Hessian product. Raises ``ContractError`` when the
    gradient vanishes, since no gradient direction exists.
    """
    gnorm = model.manifold.norm(model.gradient)
    if gnorm == 0.0:
        raise ContractError("Cauchy point undefined for a zero gradient")
    return _cauchy_candidate(model, gnorm)


def eigen_point(
    model: CubicModel, v: Tangent, curvature: float
) -> tuple[Tangent, float]:
    """Exact minimizer of ``m`` along a negative-curvature direction.

    ``v`` must be unit norm with Rayleigh quotient ``curvature < 0``. The
    step is ``beta* s v`` where ``s`` flips ``v`` against the gradient
    (``+1`` on a perpendicular gradient) and ``beta*`` is the positive
    root of ``sigma b^2 + curvature b + s <G, v> = 0``, which satisfies
    ``beta* >= |curvature| / sigma``.
    """
    return _eigen_candidate(model, v, curvature)
