"""Approximate minimization of the cubic-regularized model

    m(eta) = <G, eta> + 0.5 <H[eta], eta> + (sigma/3) ||eta||^3

over the tangent space at the current iterate.

The solver returns a step and its model value: the better of two
closed-form candidates, each with its value in closed form, optionally
polished by a bounded number of gradient steps on ``m``:

* the Cauchy point ``-alpha* G``, where ``alpha*`` is the unique positive
  root of ``sigma ||G||^3 a^2 + <G, H[G]> a - ||G||^2 = 0`` (the exact
  minimizer of ``m`` along the negative gradient), and
* an eigen step ``beta* s v`` along an estimated direction ``v`` of most
  negative curvature, with ``s`` chosen so the linear term is not
  ascending and ``beta*`` the exact minimizer of ``m`` along ``s v``.

By construction the returned value never exceeds the Cauchy value, and
never exceeds the eigen value when negative curvature was detected. The
caller supplies the curvature estimate: ``min_eig_estimate`` runs
Lanczos iteration on the Hessian operator restricted to the tangent
space, with full reorthogonalization, to the fixed relative residual
tolerance ``LANCZOS_TOL`` within a budget of one iteration per tangent
dimension, and the outer driver passes the probe it already ran for its
stop test. Without a probe only the Cauchy point is a candidate. A zero
gradient without detected negative curvature raises ``ContractError``.

The Lanczos and refinement loops run on plain arrays, the Lanczos basis
as the rows of one matrix; a vector becomes a ``Tangent`` only as an
``hvp`` argument, the returned step or the returned Ritz vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError
from .manifolds import Manifold, Point, Tangent

# Curvature counts as negative only below this relative threshold, so
# roundoff-scale negative Ritz values do not trigger eigen steps.
NEGATIVE_CURVATURE_REL_TOL = 1e-10

# Lanczos stops once the Ritz residual is below this fraction of
# max(1, largest Ritz value magnitude).
LANCZOS_TOL = 1e-6


@dataclass
class CubicModel:
    """Cubic-regularized local model of the objective at the point
    ``gradient.base``, where the sub-solver builds every step.

    ``hvp`` must be a linear operator on tangent vectors at that point.
    With inexact oracles it is the sub-sampled Hessian fixed for the
    current outer iteration.
    """

    gradient: Tangent
    hvp: Callable[[Tangent], Tangent]
    sigma: float
    manifold: Manifold

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ContractError(f"sigma must be positive and finite, got {self.sigma}")


def _positive_quadratic_root(a: float, b: float, c: float) -> float:
    """Larger root of ``a t^2 + b t - c = 0`` with ``a > 0``, ``c >= 0``,
    so non-negative, computed in the cancellation-free form."""
    disc = math.sqrt(b * b + 4.0 * a * c)
    if b > 0.0:
        return 2.0 * c / (b + disc)
    return (disc - b) / (2.0 * a)


def _cauchy_candidate(model: CubicModel, gnorm: float) -> tuple[Tangent, float]:
    """Cauchy step and its model value, in closed form because the step
    is a multiple of ``-G``, of norm ``gnorm > 0``. One Hessian product."""
    g = model.gradient
    ghg = model.manifold.inner(model.hvp(g), g)
    alpha = _positive_quadratic_root(model.sigma * gnorm**3, ghg, gnorm**2)
    eta = Tangent(-alpha * g.data, g.base)
    h_eta = alpha**2 * ghg
    m_val = -alpha * gnorm**2 + 0.5 * h_eta + (model.sigma / 3.0) * (alpha * gnorm) ** 3
    return eta, m_val


@dataclass
class MinEigResult:
    """Smallest-eigenvalue estimate of the Hessian on the tangent space.

    ``value`` is the Rayleigh quotient of the returned unit vector, so it
    upper-bounds the true smallest eigenvalue. ``op_norm_est`` is the
    largest Ritz value magnitude seen, a lower bound on the operator
    norm used for relative thresholds. ``converged`` is always true,
    since the iteration budget is the tangent dimension.
    """

    value: float
    vector: Tangent
    converged: bool
    iterations: int
    op_norm_est: float


def min_eig_estimate(
    manifold: Manifold,
    base: Point,
    hvp: Callable[[Tangent], Tangent],
    *,
    seed: int | np.random.Generator = 0,
) -> MinEigResult:
    """Lanczos estimate of the smallest eigenvalue of ``hvp`` restricted
    to the tangent space at ``base``.

    Iterates with full reorthogonalization until the Ritz residual drops
    below ``LANCZOS_TOL * max(1, |ritz|_max)``, or until the Krylov space
    becomes invariant or spans the tangent space (the estimate is then
    exact up to roundoff), so at most ``intrinsic_dim`` times.
    """
    dim = manifold.intrinsic_dim
    if dim < 1:
        raise ContractError("tangent space must have dimension >= 1")

    shape = base.shape
    basis = np.empty((dim, shape[0] * shape[1]))
    basis[0] = manifold.random_tangent(base, seed).data.ravel()
    alphas: list[float] = []
    betas: list[float] = []
    op_norm = 0.0

    for j in range(dim):
        q = basis[j]
        w = hvp(Tangent(q.reshape(shape), base)).data.flatten()
        alphas.append(float(q @ w))
        # Full reorthogonalization against the basis so far: two
        # classical Gram-Schmidt passes, which subsume the three-term
        # recurrence's subtractions along q_j and q_{j-1}.
        for _ in range(2):
            w -= (basis[: j + 1] @ w) @ basis[: j + 1]
        beta_j = float(np.linalg.norm(w))

        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        evals, evecs = np.linalg.eigh(tri)
        ritz_weights = evecs[:, 0]
        op_norm = max(op_norm, float(np.max(np.abs(evals))))
        residual = beta_j * abs(float(ritz_weights[-1]))

        # Stop on a small residual, or once the Krylov space is invariant
        # or spans the tangent space.
        if (
            residual <= LANCZOS_TOL * max(1.0, op_norm)
            or beta_j <= 1e-12 * max(1.0, op_norm)
            or j + 1 == dim
        ):
            break
        betas.append(beta_j)
        basis[j + 1] = w / beta_j

    vec = ritz_weights @ basis[: len(alphas)]
    vec /= np.linalg.norm(vec)
    v = Tangent(vec.reshape(shape), base)
    # Report the exact Rayleigh quotient of the returned vector so the
    # upper-bound guarantee holds regardless of Lanczos state.
    rayleigh = manifold.inner(hvp(v), v)
    return MinEigResult(
        value=rayleigh,
        vector=v,
        converged=True,
        iterations=len(alphas),
        op_norm_est=max(op_norm, abs(rayleigh)),
    )


def _eigen_candidate(
    model: CubicModel, v: Tangent, curvature: float
) -> tuple[Tangent, float]:
    """Eigen step and its model value, free because the step is a
    multiple of the unit vector ``v`` whose Rayleigh quotient is
    ``curvature``. No Hessian product needed."""
    if not curvature < 0.0:
        raise ContractError(f"eigen step needs negative curvature, got {curvature}")
    gv = model.manifold.inner(model.gradient, v)
    s = 1.0 if gv == 0.0 else -math.copysign(1.0, gv)
    lin = s * gv  # <= 0
    beta = _positive_quadratic_root(model.sigma, curvature, -lin)
    eta = Tangent(beta * s * v.data, model.gradient.base)
    h_eta = beta**2 * curvature
    m_val = beta * lin + 0.5 * h_eta + (model.sigma / 3.0) * beta**3
    return eta, m_val


@dataclass
class SubsolverResult:
    """Chosen step with the model values of every candidate.

    ``m_val <= cauchy_m`` always holds, and ``m_val <= eigen_m`` holds
    whenever negative curvature was detected.
    """

    step: Tangent
    m_val: float
    cauchy_m: float
    eigen_m: float | None


def _refine(
    model: CubicModel,
    eta: np.ndarray,
    h_eta_vec: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, float]:
    """Normalized gradient descent on ``m`` with Armijo backtracking.

    Keeps ``H[eta]`` updated through linearity, so each step costs one
    Hessian product. Returns the final iterate and its model value,
    which is monotonically non-increasing across accepted steps.
    """
    g = model.gradient.data
    sigma = model.sigma
    g_eta = float(np.vdot(g, eta))
    h_eta = float(np.vdot(h_eta_vec, eta))
    nrm2 = float(np.vdot(eta, eta))
    m_cur = g_eta + 0.5 * h_eta + (sigma / 3.0) * nrm2 ** 1.5

    for _ in range(steps):
        nrm = math.sqrt(nrm2)
        grad_m = g + h_eta_vec + sigma * nrm * eta
        gm = float(np.linalg.norm(grad_m))
        if gm <= 1e-12 * max(1.0, abs(m_cur)):
            break
        d = grad_m / gm
        hd = model.hvp(Tangent(d, model.gradient.base)).data
        # Scalars for evaluating m(eta - t d) without further products.
        gd = float(np.vdot(g, d))
        cross = float(np.vdot(h_eta_vec, d)) + float(np.vdot(hd, eta))
        hdd = float(np.vdot(hd, d))
        ed = float(np.vdot(eta, d))

        def phi(t: float) -> float:
            quad = h_eta - t * cross + t * t * hdd
            lin = g_eta - t * gd
            n2 = max(nrm2 - 2.0 * t * ed + t * t, 0.0)
            return lin + 0.5 * quad + (sigma / 3.0) * n2 ** 1.5

        t = gm / (abs(hdd) + 2.0 * sigma * (nrm + 1.0))
        for _ in range(40):
            if phi(t) <= m_cur - 1e-4 * t * gm:
                break
            t *= 0.5
        else:  # no sufficient decrease within 40 halvings
            break
        eta = eta - t * d
        h_eta_vec = h_eta_vec - t * hd
        g_eta = g_eta - t * gd
        h_eta = h_eta - t * cross + t * t * hdd
        nrm2 = max(nrm2 - 2.0 * t * ed + t * t, 0.0)
        m_cur = g_eta + 0.5 * h_eta + (sigma / 3.0) * nrm2 ** 1.5

    return eta, m_cur


def solve_subproblem(
    model: CubicModel,
    probe: MinEigResult | None = None,
    *,
    refine_steps: int = 0,
) -> SubsolverResult:
    """Approximately minimize the cubic model over the tangent space.

    ``probe`` is a curvature estimate at ``model.gradient.base``, where
    every returned step is based (for example the one used by the outer
    termination test); without one, the eigen step is not a candidate.
    ``refine_steps`` bounds the normalized gradient steps on ``m`` that
    polish the winning candidate (0 disables refinement). The candidate
    with the lower model value wins, and the Cauchy point wins a tie.
    Raises ``ContractError`` when the gradient is zero and no negative
    curvature is detected, since the caller should have terminated.
    """
    gnorm = model.manifold.norm(model.gradient)
    candidates = [_cauchy_candidate(model, gnorm)] if gnorm > 0.0 else []
    cauchy_m = candidates[0][1] if candidates else 0.0

    eigen_m: float | None = None
    if probe is not None and probe.value < -NEGATIVE_CURVATURE_REL_TOL * max(
        1.0, probe.op_norm_est
    ):
        candidates.append(_eigen_candidate(model, probe.vector, probe.value))
        eigen_m = candidates[-1][1]

    if not candidates:
        raise ContractError(
            "zero gradient without detected negative curvature, nothing to solve"
        )

    # ``min`` keeps the first of equal values, the Cauchy point.
    best, best_m = min(candidates, key=lambda candidate: candidate[1])

    if refine_steps > 0:
        h_best = model.hvp(best).data
        eta, m_ref = _refine(model, best.data, h_best, refine_steps)
        if m_ref < best_m:
            best = Tangent(eta, model.gradient.base)
            best_m = m_ref

    return SubsolverResult(step=best, m_val=best_m, cauchy_m=cauchy_m, eigen_m=eigen_m)
