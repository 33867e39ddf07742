"""Outer driver shared by adaptive cubic regularization and trust region.

Each outer iteration fixes the oracle samples, forms the inexact
gradient and Hessian operator, probes the curvature with Lanczos when
``EigPolicy`` asks for it, tests termination, asks the step rule for a
trial step, and accepts or rejects the trial point by the ratio

    rho = (f(x) - f(retract(x, eta))) / (-m(eta))

computed with the exact full objective in every oracle mode. Acceptance
(``rho >= rho_threshold``) moves the iterate; rejection keeps it, and
the next iteration's exact queries at the same ``Point`` are answered by
the oracle bundle from what it already holds, uncharged.

The probe runs only where its estimate is read, as ``runs_probe``
says, and before the stop test. ``StopRule.OPTIMALITY`` reads it at
gradient norms up to ``eps_g``, ``StopRule.GRAD_SQUARED`` never, and
the step rule only where its config's ``reads_probe`` is true: the
cubic rule's, not the trust region's. A run's oracle totals therefore
exceed its last trace row only by the terminating iteration's gradient,
plus its probe under ``OPTIMALITY``.

Both methods run this one loop and differ only in the step rule their
config supplies: the initial weight, the step from the local model, and
the weight update. The cubic rule of ``SolverConfig``
approximately minimizes the cubic model with regularization weight
sigma, divides sigma by gamma on acceptance and multiplies it by gamma
on rejection, and clamps sigma below at ``SIGMA_MIN``. The trust-region
rule of ``trust_region.TrustRegionConfig`` uses the radius as its
weight.

Three cubic variants are named after their oracle modes: ``racr``
(exact gradient and Hessian), ``sracr`` (exact gradient, sub-sampled
Hessian) and ``ssracr`` (both sub-sampled). A run's ``RunTrace`` holds
its rows, which the harness, ``bench``, writes under their field names.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

from .errors import ContractError, SingularRetractionError
from .manifolds import Point, Tangent
from .objectives import SeparableObjective
from .oracles import PURPOSE_LANCZOS, KeyedStream, OracleBundle, OracleMode
from .subproblem import CubicModel, MinEigResult, min_eig_estimate, solve_subproblem

SIGMA_MIN = 1e-12


class StopRule(Enum):
    """Outer termination test.

    ``OPTIMALITY`` stops when ``||G_k|| <= eps_g`` and the estimated
    smallest Hessian eigenvalue is at least ``-eps_h``. ``GRAD_SQUARED``
    stops when ``||G_k||^2 <= tau``, matching the benchmark protocol.
    """

    OPTIMALITY = "optimality"
    GRAD_SQUARED = "grad_squared"


class EigPolicy(Enum):
    """When to run the Lanczos curvature estimate.

    ``ON_SMALL_GRADIENT`` runs it only once the gradient norm falls to
    the level where the second-order test or an eigen step could matter.
    ``EVERY_ITERATION`` runs it on every iteration if the step rule
    reads it. Under ``StopRule.GRAD_SQUARED`` that level is the stop
    level, so ``ON_SMALL_GRADIENT`` never runs it, and
    ``EVERY_ITERATION`` skips the terminating iteration.
    """

    ON_SMALL_GRADIENT = "on_small_gradient"
    EVERY_ITERATION = "every_iteration"


class Outcome(Enum):
    OPTIMALITY_REACHED = "optimality_reached"
    MAX_ITERS = "max_iters"
    SUBSOLVER_FAILURE = "subsolver_failure"
    NUMERICAL_FAILURE = "numerical_failure"


_VARIANT_MODES = {
    "racr": OracleMode.EXACT,
    "sracr": OracleMode.SUBSAMPLED_HESSIAN,
    "ssracr": OracleMode.SUBSAMPLED_BOTH,
}


# A step rule's trial step: ``(eta, m(eta), reg)``. ``reg`` is the term
# the model adds to its quadratic part ``<G, eta> + 0.5 <H[eta], eta>``
# where ``RunTrace.l_hat`` applies, else None.
TrialStep = tuple[Tangent, float, "float | None"]


@dataclass
class DriverConfig:
    """Parameters both step rules share: tolerances, the acceptance
    threshold, the weight factor gamma, oracles, stop rule and probe.

    A subclass adds its step rule's fields and supplies the rule's
    methods:

    * ``initial_weight()``: sigma0 or delta0;
    * ``step(grad, hvp, weight, manifold, probe) -> TrialStep``: the
      trial step at ``grad.base``, its model value, and the model's
      regularization term, or None wherever ``RunTrace.l_hat`` does not
      apply: the trust-region rule, or a cubic rule with a sampled oracle;
    * ``next_weight(weight, success) -> weight``.
    """

    # Whether ``step`` reads the probe. Unannotated, so no sidecar key.
    reads_probe = True

    eps_g: float = 1e-2
    eps_h: float = 1e-1
    rho_threshold: float = 0.9
    gamma: float = 2.0
    mode: OracleMode = OracleMode.EXACT
    grad_sample_size: int | None = None
    hess_sample_size: int | None = None
    seed: int = 0
    stop_rule: StopRule = StopRule.OPTIMALITY
    tau: float = 1e-3
    eig_policy: EigPolicy = EigPolicy.ON_SMALL_GRADIENT
    max_iters: int | None = None

    def validate(self) -> None:
        if not 0.0 < self.eps_g < 1.0:
            raise ContractError(f"eps_g must lie in (0, 1), got {self.eps_g}")
        if not 0.0 < self.eps_h < 1.0:
            raise ContractError(f"eps_h must lie in (0, 1), got {self.eps_h}")
        if not 0.0 < self.rho_threshold < 1.0:
            raise ContractError(
                f"rho_threshold must lie in (0, 1), got {self.rho_threshold}"
            )
        if not 1.0 < self.gamma < math.inf:
            raise ContractError(f"gamma must be finite and exceed 1, got {self.gamma}")
        if not 0.0 < self.tau < math.inf:
            raise ContractError(f"tau must be positive and finite, got {self.tau}")
        if self.max_iters is not None and self.max_iters < 0:
            raise ContractError("max_iters must be non-negative")
        if type(self.seed) is not int or self.seed < 0:
            raise ContractError(f"seed must be a non-negative int, got {self.seed!r}")

    def iteration_budget(self) -> int:
        """Explicit cap, or ``50 max(eps_g^-2, eps_h^-3)`` capped at 1e6."""
        if self.max_iters is not None:
            return self.max_iters
        budget = 50.0 * max(self.eps_g**-2, self.eps_h**-3)
        return int(min(budget, 1e6))


@dataclass
class SolverConfig(DriverConfig):
    """Parameters of the cubic-regularization rule. ``refine_steps``
    (at most 20) bounds the gradient steps that polish the sub-problem
    step."""

    sigma0: float = 1e-3
    refine_steps: int = 0

    def validate(self) -> None:
        super().validate()
        if not SIGMA_MIN <= self.sigma0 < math.inf:
            raise ContractError(
                f"sigma0 must lie in [{SIGMA_MIN}, inf), got {self.sigma0}"
            )
        if not 0 <= self.refine_steps <= 20:
            raise ContractError(
                f"refine_steps must lie in [0, 20], got {self.refine_steps}"
            )

    @classmethod
    def for_variant(cls, name: str, **kwargs) -> "SolverConfig":
        """Config preset for ``racr``, ``sracr`` or ``ssracr``."""
        key = name.lower()
        if key not in _VARIANT_MODES:
            raise ContractError(
                f"unknown variant {name!r}, expected one of {sorted(_VARIANT_MODES)}"
            )
        return cls(mode=_VARIANT_MODES[key], **kwargs)

    def initial_weight(self) -> float:
        return self.sigma0

    def step(self, grad, hvp, weight, manifold, probe) -> TrialStep:
        model = CubicModel(grad, hvp, weight, manifold)
        result = solve_subproblem(model, probe=probe, refine_steps=self.refine_steps)
        exact = self.grad_sample_size is None and self.hess_sample_size is None
        reg = (weight / 3.0) * manifold.norm(result.step) ** 3 if exact else None
        return result.step, result.m_val, reg

    def next_weight(self, weight: float, success: bool) -> float:
        if not success:
            return self.gamma * weight
        return max(weight / self.gamma, SIGMA_MIN)


@dataclass(frozen=True)
class IterationRecord:
    """One trace row: ``weight`` is sigma or the radius, counters cumulative."""

    k: int
    f: float
    grad_norm: float
    weight: float
    model_val: float
    rho: float
    success: bool
    lambda_min: float | None
    grad_evals: int
    hess_evals: int
    millis: float


@dataclass
class RunTrace:
    """Full record of one solver run.

    ``l_hat`` estimates the Hessian Lipschitz constant as the largest
    ``2 |f(R(eta)) - f(x) - <G, eta> - 0.5 <H[eta], eta>| / ||eta||^3``
    over the run's trial steps. It is None unless the cubic rule ran
    with an exact gradient and an exact Hessian. ``failure`` says what
    ended a ``NUMERICAL_FAILURE`` run, and is None on any other.
    """

    records: list[IterationRecord]
    outcome: Outcome
    final_point: Point
    final_f: float
    grad_evals: int
    hess_evals: int
    objective_evals: int
    l_hat: float | None = None
    failure: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def n_success(self) -> int:
        return sum(1 for rec in self.records if rec.success)


def should_terminate(
    grad_norm: float, lambda_est: float | None, cfg: DriverConfig
) -> bool:
    """Outer stopping test on the current inexact quantities."""
    if cfg.stop_rule is StopRule.GRAD_SQUARED:
        return grad_norm**2 <= cfg.tau
    if grad_norm > cfg.eps_g:
        return False
    if lambda_est is None:
        raise ContractError(
            "second-order termination test reached without an eigenvalue estimate"
        )
    return lambda_est >= -cfg.eps_h


def predicts_decrease(model_val: float, f: float) -> bool:
    """The driver's decrease test of a trial step's model value at an
    iterate of objective ``f``; failing it ends a run as a sub-solver failure."""
    return model_val < -1e-16 * max(1.0, abs(f))


def runs_probe(grad_norm: float, cfg: DriverConfig) -> bool:
    """Whether the driver probes the curvature at an iterate with this
    gradient norm: where the stop test or the step rule reads it. The
    optimality test reads it up to ``eps_g``; the squared-gradient test
    never, and stops at that level, so there only ``EVERY_ITERATION``
    probes, where the run goes on. That policy needs ``cfg.reads_probe``."""
    every = cfg.reads_probe and cfg.eig_policy is EigPolicy.EVERY_ITERATION
    if cfg.stop_rule is StopRule.OPTIMALITY:
        return every or grad_norm <= cfg.eps_g
    return not should_terminate(grad_norm, None, cfg) and every


def run(objective: SeparableObjective, x0: Point, cfg: SolverConfig) -> RunTrace:
    """Run the cubic-regularization driver from ``x0`` until termination
    or the budget."""
    return _drive(objective, x0, cfg, min_eig_estimate)


def _drive(
    objective: SeparableObjective,
    x0: Point,
    cfg: DriverConfig,
    probe_curvature: Callable[..., MinEigResult],
) -> RunTrace:
    """The outer loop behind ``run`` and ``trust_region.run_trust_region``.

    ``probe_curvature`` is ``subproblem.min_eig_estimate`` as the calling
    entry point's module names it.
    """
    cfg.validate()
    manifold = objective.manifold
    bundle = OracleBundle(
        objective,
        cfg.mode,
        grad_sample_size=cfg.grad_sample_size,
        hess_sample_size=cfg.hess_sample_size,
        seed=cfg.seed,
    )
    lanczos_stream = KeyedStream(cfg.seed, PURPOSE_LANCZOS)
    x = manifold.point(x0.data)
    weight = cfg.initial_weight()
    f_x = bundle.objective_value(x)
    l_hat: float | None = None
    records: list[IterationRecord] = []
    outcome = Outcome.MAX_ITERS
    failure: str | None = None
    budget = cfg.iteration_budget()
    if not math.isfinite(f_x):
        failure = "non-finite objective at the start point"
        budget = 0

    k = 0
    while k < budget:
        t_start = time.perf_counter()
        bundle.begin_iteration(k)
        hvp = partial(bundle.inexact_hvp, x)
        grad = bundle.inexact_gradient(x)
        grad_norm = manifold.norm(grad)
        if not math.isfinite(grad_norm):
            failure = "non-finite gradient norm"
            break

        probe: MinEigResult | None = None
        if runs_probe(grad_norm, cfg):
            probe = probe_curvature(manifold, x, hvp, seed=lanczos_stream.at(k))

        lambda_est = probe.value if probe is not None else None
        if should_terminate(grad_norm, lambda_est, cfg):
            outcome = Outcome.OPTIMALITY_REACHED
            break

        try:
            eta, m_val, reg = cfg.step(grad, hvp, weight, manifold, probe)
            if not predicts_decrease(m_val, f_x):
                outcome = Outcome.SUBSOLVER_FAILURE
                break
            x_trial = manifold.retract(x, eta)
            f_trial = bundle.objective_value(x_trial)
        except OverflowError:
            failure = "trial step beyond the float range"
            break
        except SingularRetractionError:
            failure = "singular retraction of the trial step"
            break
        if not math.isfinite(f_trial):
            failure = "non-finite trial objective"
            break
        rho = (f_x - f_trial) / (-m_val)
        success = rho >= cfg.rho_threshold

        if reg is not None and reg > 0.0:
            # Third-order remainder of the exact quadratic model, m - reg,
            # along the actual trajectory, an empirical Hessian Lipschitz
            # constant. A positive reg has a positive ||eta||^3.
            remainder = abs(f_trial - f_x - (m_val - reg))
            sample = 2.0 * remainder / manifold.norm(eta) ** 3
            l_hat = sample if l_hat is None else max(l_hat, sample)

        millis = (time.perf_counter() - t_start) * 1e3
        records.append(
            IterationRecord(
                k=k,
                f=f_x,
                grad_norm=grad_norm,
                weight=weight,
                model_val=m_val,
                rho=rho,
                success=success,
                lambda_min=lambda_est,
                grad_evals=bundle.counters.grad_evals,
                hess_evals=bundle.counters.hess_evals,
                millis=millis,
            )
        )

        if success:
            x = x_trial
            f_x = f_trial
        weight = cfg.next_weight(weight, success)
        k += 1

    return RunTrace(
        records=records,
        outcome=outcome if failure is None else Outcome.NUMERICAL_FAILURE,
        final_point=x,
        final_f=f_x,
        l_hat=l_hat,
        failure=failure,
        **vars(bundle.counters),
    )
