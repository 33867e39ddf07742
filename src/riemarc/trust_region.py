"""Inexact Riemannian trust-region baseline.

Solves the quadratic model ``q(eta) = <G, eta> + 0.5 <H[eta], eta>``
inside the ball ``||eta|| <= delta`` with truncated conjugate gradients
(Steihaug-Toint): negative curvature or leaving the ball exits through
the boundary, and the residual test stops at
``||r|| <= ||G|| min(CG_KAPPA, ||G||^CG_THETA)`` with ``CG_KAPPA = 0.1``
and ``CG_THETA = 0.5``. CG runs at most ``intrinsic_dim`` iterations,
where exact arithmetic would have converged, on plain ``d x r`` arrays:
only the argument of each Hessian product and the returned step are
wrapped as ``Tangent``. The radius grows to
``min(gamma delta, 10 delta0)`` on success and shrinks to
``delta / gamma`` on rejection.

``TrustRegionConfig`` is this step rule; ``run_trust_region`` runs it in
the cubic driver's outer loop (``arc._drive``), so sampling, the
curvature probe, the stop test, the exact-objective ratio and the
bookkeeping are shared. The sub-sampled variant is the ``ssrtr``
benchmark solver. Its trace rows are the cubic driver's
``IterationRecord``s, which hold the radius as their ``weight``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arc import DriverConfig, RunTrace, TrialStep, _drive
from .errors import ContractError
from .manifolds import Manifold, Point, Tangent
from .objectives import SeparableObjective
from .subproblem import _positive_quadratic_root, min_eig_estimate

CG_KAPPA = 0.1
CG_THETA = 0.5


@dataclass
class TrustRegionConfig(DriverConfig):
    """Parameters of the trust-region rule, which reads no probe."""

    reads_probe = False
    delta0: float = 1.0

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.delta0 < math.inf:
            raise ContractError(f"delta0 must be positive and finite, got {self.delta0}")

    def radius_cap(self) -> float:
        return 10.0 * self.delta0

    def initial_weight(self) -> float:
        return self.delta0

    def step(self, grad, hvp, weight, manifold, probe) -> TrialStep:
        sub = tr_subproblem(grad, hvp, weight, manifold)
        return sub.step, sub.model_val, None

    def next_weight(self, weight: float, success: bool) -> float:
        if success:
            return min(self.gamma * weight, self.radius_cap())
        return weight / self.gamma


@dataclass
class TrSubproblemResult:
    step: Tangent
    model_val: float
    boundary: bool
    iterations: int


def _boundary_step(eta: np.ndarray, p: np.ndarray, delta: float) -> float:
    """Positive ``t`` with ``||eta + t p|| = delta``, for ``||eta|| <= delta``."""
    pp = float(np.vdot(p, p))
    ep = float(np.vdot(eta, p))
    ee = float(np.vdot(eta, eta))
    return _positive_quadratic_root(pp, 2.0 * ep, delta * delta - ee)


def tr_subproblem(
    grad: Tangent,
    hvp: Callable[[Tangent], Tangent],
    delta: float,
    manifold: Manifold,
) -> TrSubproblemResult:
    """Steihaug-Toint truncated CG on the quadratic model.

    Returns the zero step for a zero gradient. The returned step always
    satisfies the Cauchy decrease of the quadratic model.
    """
    if delta <= 0.0:
        raise ContractError(f"radius must be positive, got {delta}")
    base = grad.base
    r = grad.data
    r_norm2 = float(np.vdot(r, r))
    r0_norm = math.sqrt(r_norm2)
    if r0_norm == 0.0:
        zero = Tangent(np.zeros_like(r), base)
        return TrSubproblemResult(zero, 0.0, False, 0)
    tol = r0_norm * min(CG_KAPPA, r0_norm**CG_THETA)
    eta = np.zeros_like(r)
    h_eta = np.zeros_like(r)
    p = -r

    boundary = False
    iterations = 0
    for _ in range(manifold.intrinsic_dim):
        hp = hvp(Tangent(p, base)).data
        php = float(np.vdot(p, hp))
        iterations += 1
        # Negative curvature, or a full step leaving the ball, exits
        # through the boundary.
        alpha = r_norm2 / php if php > 0.0 else 0.0
        cand = eta + alpha * p
        if php <= 0.0 or float(np.linalg.norm(cand)) >= delta:
            t = _boundary_step(eta, p, delta)
            eta = eta + t * p
            h_eta = h_eta + t * hp
            boundary = True
            break
        eta = cand
        h_eta = h_eta + alpha * hp
        r = r + alpha * hp
        r_norm2_next = float(np.vdot(r, r))
        if math.sqrt(r_norm2_next) <= tol:
            break
        beta = r_norm2_next / r_norm2
        r_norm2 = r_norm2_next
        p = -r + beta * p

    model_val = float(np.vdot(grad.data, eta)) + 0.5 * float(np.vdot(h_eta, eta))
    step = Tangent(eta, base)
    return TrSubproblemResult(step, model_val, boundary, iterations)


def run_trust_region(
    objective: SeparableObjective, x0: Point, cfg: TrustRegionConfig
) -> RunTrace:
    """Run the trust-region driver from ``x0``."""
    return _drive(objective, x0, cfg, min_eig_estimate)
