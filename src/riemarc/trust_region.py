"""Inexact Riemannian trust-region baseline.

Solves the quadratic model ``q(eta) = <G, eta> + 0.5 <H[eta], eta>``
inside the ball ``||eta|| <= delta`` with truncated conjugate gradients
(Steihaug-Toint): negative curvature or leaving the ball exits through
the boundary, and the residual test stops at
``||r|| <= ||G|| min(CG_KAPPA, ||G||^CG_THETA)`` with ``CG_KAPPA = 0.1``
and ``CG_THETA = 0.5``. CG runs at most ``intrinsic_dim`` iterations,
where exact arithmetic would have converged. The radius grows to
``min(gamma delta, delta_max)`` on success and shrinks to
``delta / gamma`` on rejection.

``TrustRegionConfig`` is this step rule; ``run_trust_region`` runs it in
the cubic driver's outer loop (``arc._drive``), so sampling, the
curvature probe, the stop test, the exact-objective ratio and the
bookkeeping are shared. The sub-sampled variant is the ``ssrtr``
benchmark solver. Traces share the cubic driver's row format with the
radius stored in the ``sigma`` slot and written under the name
``delta``.
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
from .subproblem import min_eig_estimate

CG_KAPPA = 0.1
CG_THETA = 0.5


@dataclass
class TrustRegionConfig(DriverConfig):
    """Parameters of the trust-region rule."""

    radius_column = "delta"

    delta0: float = 1.0
    delta_max: float | None = None  # defaults to 10 * delta0

    def validate(self) -> None:
        super().validate()
        if not self.delta0 > 0.0:
            raise ContractError(f"delta0 must be positive, got {self.delta0}")
        if self.delta_max is not None and self.delta_max < self.delta0:
            raise ContractError("delta_max must be at least delta0")

    def radius_cap(self) -> float:
        return 10.0 * self.delta0 if self.delta_max is None else self.delta_max

    def initial_weight(self) -> float:
        return self.delta0

    def step(self, grad, hvp, weight, x, manifold, probe) -> TrialStep:
        sub = tr_subproblem(grad, hvp, weight, manifold)
        return sub.step, sub.model_val, None

    def next_weight(self, weight: float, success: bool) -> tuple[float, bool]:
        if success:
            return min(self.gamma * weight, self.radius_cap()), False
        return weight / self.gamma, False

    def weight_bounds(self) -> dict[str, float]:
        return {"delta_max": self.radius_cap()}


@dataclass
class TrSubproblemResult:
    step: Tangent
    model_val: float
    g_eta: float
    h_eta: float
    boundary: bool
    iterations: int


def _boundary_step(
    manifold: Manifold, eta: Tangent, p: Tangent, delta: float
) -> float:
    """Positive ``t`` with ``||eta + t p|| = delta``."""
    pp = manifold.inner(p, p)
    ep = manifold.inner(eta, p)
    ee = manifold.inner(eta, eta)
    disc = math.sqrt(max(ep * ep + pp * (delta * delta - ee), 0.0))
    if ep <= 0.0:
        return (disc - ep) / pp
    return (delta * delta - ee) / (ep + disc)


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
    eta = manifold.zero_tangent(base)
    h_eta = manifold.zero_tangent(base)
    r = grad
    r_norm2 = manifold.inner(r, r)
    r0_norm = math.sqrt(r_norm2)
    if r0_norm == 0.0:
        return TrSubproblemResult(eta, 0.0, 0.0, 0.0, False, 0)
    tol = r0_norm * min(CG_KAPPA, r0_norm**CG_THETA)
    p = manifold.tangent(base, -r.data, check=False)

    boundary = False
    iterations = 0
    for _ in range(manifold.intrinsic_dim):
        hp = hvp(p)
        php = manifold.inner(p, hp)
        iterations += 1
        # Negative curvature, or a full step leaving the ball, exits
        # through the boundary.
        alpha = r_norm2 / php if php > 0.0 else 0.0
        cand = eta.data + alpha * p.data
        if php <= 0.0 or float(np.linalg.norm(cand)) >= delta:
            t = _boundary_step(manifold, eta, p, delta)
            eta = manifold.tangent(base, eta.data + t * p.data, check=False)
            h_eta = manifold.tangent(base, h_eta.data + t * hp.data, check=False)
            boundary = True
            break
        eta = manifold.tangent(base, cand, check=False)
        h_eta = manifold.tangent(base, h_eta.data + alpha * hp.data, check=False)
        r = manifold.tangent(base, r.data + alpha * hp.data, check=False)
        r_norm2_next = manifold.inner(r, r)
        if math.sqrt(r_norm2_next) <= tol:
            r_norm2 = r_norm2_next
            break
        beta = r_norm2_next / r_norm2
        r_norm2 = r_norm2_next
        p = manifold.tangent(base, -r.data + beta * p.data, check=False)

    g_eta = manifold.inner(grad, eta)
    h_eta_scalar = manifold.inner(h_eta, eta)
    model_val = g_eta + 0.5 * h_eta_scalar
    return TrSubproblemResult(eta, model_val, g_eta, h_eta_scalar, boundary, iterations)


def run_trust_region(
    objective: SeparableObjective, x0: Point, cfg: TrustRegionConfig
) -> RunTrace:
    """Run the trust-region driver from ``x0``."""
    return _drive(objective, x0, cfg, min_eig_estimate)
