"""Outer driver shared by adaptive cubic regularization and trust region.

Each outer iteration fixes the oracle samples, forms the inexact
gradient and Hessian operator, tests termination, asks the step rule
for a trial step, and accepts or rejects the trial point by the ratio

    rho = (f(x) - f(retract(x, eta))) / (-m(eta))

computed with the exact full objective in every oracle mode. Acceptance
(``rho >= rho_threshold``) moves the iterate; rejection keeps it.

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
Hessian) and ``ssracr`` (both sub-sampled).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Iterable, TextIO

import numpy as np

from .errors import ContractError, MissingEigenEstimateError
from .manifolds import Point, Tangent
from .objectives import SeparableObjective
from .oracles import OracleBundle, OracleMode
from .subproblem import CubicModel, MinEigResult, min_eig_estimate, solve_subproblem

SIGMA_MIN = 1e-12

# Seed stream purposes 0 and 1 belong to the oracle bundle.
_PURPOSE_LANCZOS = 2

TRACE_COLUMNS = (
    "k",
    "f",
    "grad_norm",
    "sigma",
    "model_val",
    "rho",
    "success",
    "lambda_min",
    "grad_evals",
    "hess_evals",
    "millis",
)


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
    ``EVERY_ITERATION`` runs it unconditionally.
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


# A step rule's trial step: ``(eta, m(eta), taylor)``. ``taylor`` is
# ``(<G, eta>, <H[eta], eta>, ||eta||)`` when the rule tracks the
# empirical Hessian Lipschitz constant ``RunTrace.l_hat``, else None.
TrialStep = tuple[Tangent, float, "tuple[float, float, float] | None"]


@dataclass
class DriverConfig:
    """Parameters both step rules share: tolerances, the acceptance
    threshold, the weight factor gamma, oracles, stop rule and probe.

    A subclass adds its step rule's fields, names the weight's trace
    column in ``radius_column``, and supplies the rule's methods:

    * ``initial_weight()``: sigma0 or delta0;
    * ``step(grad, hvp, weight, x, manifold, probe) -> TrialStep``;
    * ``next_weight(weight, success) -> (weight, clamped)``;
    * ``weight_bounds()``: the resolved bound of the weight update,
      keyed as the run sidecar records it.
    """

    radius_column = "sigma"

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
    lanczos_tol: float = 1e-6
    lanczos_max_iters: int | None = None
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
        if not self.gamma > 1.0:
            raise ContractError(f"gamma must exceed 1, got {self.gamma}")
        if not self.tau > 0.0:
            raise ContractError(f"tau must be positive, got {self.tau}")
        if not self.lanczos_tol > 0.0:
            raise ContractError(f"lanczos_tol must be positive, got {self.lanczos_tol}")
        if self.lanczos_max_iters is not None and self.lanczos_max_iters < 1:
            raise ContractError(
                f"lanczos_max_iters must be at least 1, got {self.lanczos_max_iters}"
            )
        if self.max_iters is not None and self.max_iters < 0:
            raise ContractError("max_iters must be non-negative")

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
        if not self.sigma0 > 0.0:
            raise ContractError(f"sigma0 must be positive, got {self.sigma0}")
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

    def step(self, grad, hvp, weight, x, manifold, probe) -> TrialStep:
        model = CubicModel(grad, hvp, weight, x, manifold)
        result = solve_subproblem(model, probe=probe, refine_steps=self.refine_steps)
        taylor = (result.g_eta, result.h_eta, result.step_norm)
        return result.step, result.m_val, taylor

    def next_weight(self, weight: float, success: bool) -> tuple[float, bool]:
        if not success:
            return self.gamma * weight, False
        next_sigma = weight / self.gamma
        if next_sigma < SIGMA_MIN:
            return SIGMA_MIN, True
        return next_sigma, False

    def weight_bounds(self) -> dict[str, float]:
        return {"sigma_min": SIGMA_MIN}


@dataclass(frozen=True)
class IterationRecord:
    """One row of a run trace. Counter fields are cumulative."""

    k: int
    f: float
    grad_norm: float
    sigma: float
    model_val: float
    rho: float
    success: bool
    lambda_min: float | None
    grad_evals: int
    hess_evals: int
    millis: float


@dataclass
class RunTrace:
    """Full record of one solver run."""

    records: list[IterationRecord]
    outcome: Outcome
    final_point: Point
    final_f: float
    grad_evals: int
    hess_evals: int
    objective_evals: int
    l_hat: float | None = None
    sigma_clamped_iterations: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def n_success(self) -> int:
        return sum(1 for rec in self.records if rec.success)

    @property
    def n_fail(self) -> int:
        return sum(1 for rec in self.records if not rec.success)


def should_terminate(
    grad_norm: float, lambda_est: float | None, cfg: DriverConfig
) -> bool:
    """Outer stopping test on the current inexact quantities."""
    if cfg.stop_rule is StopRule.GRAD_SQUARED:
        return grad_norm**2 <= cfg.tau
    if grad_norm > cfg.eps_g:
        return False
    if lambda_est is None:
        raise MissingEigenEstimateError(
            "second-order termination test reached without an eigenvalue estimate"
        )
    return lambda_est >= -cfg.eps_h


def _small_gradient_threshold(cfg: DriverConfig) -> float:
    if cfg.stop_rule is StopRule.GRAD_SQUARED:
        return math.sqrt(cfg.tau)
    return cfg.eps_g


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
    x = manifold.point(x0.data)
    weight = cfg.initial_weight()
    f_x = bundle.objective_value(x)
    exact_hessian = cfg.mode is OracleMode.EXACT
    l_hat: float | None = None
    records: list[IterationRecord] = []
    clamped: list[int] = []
    outcome = Outcome.MAX_ITERS
    budget = cfg.iteration_budget()
    small_grad = _small_gradient_threshold(cfg)

    k = 0
    while k < budget:
        t_start = time.perf_counter()
        bundle.begin_iteration(k)
        hvp = partial(bundle.inexact_hvp, x)
        grad = bundle.inexact_gradient(x)
        grad_norm = manifold.norm(grad)

        probe: MinEigResult | None = None
        if cfg.eig_policy is EigPolicy.EVERY_ITERATION or grad_norm <= small_grad:
            probe = probe_curvature(
                manifold,
                x,
                hvp,
                tol=cfg.lanczos_tol,
                max_iters=cfg.lanczos_max_iters,
                seed=np.random.default_rng([cfg.seed, k, _PURPOSE_LANCZOS]),
            )

        lambda_est = probe.value if probe is not None else None
        if should_terminate(grad_norm, lambda_est, cfg):
            outcome = Outcome.OPTIMALITY_REACHED
            break

        eta, m_val, taylor = cfg.step(grad, hvp, weight, x, manifold, probe)
        if not m_val < -1e-16 * max(1.0, abs(f_x)):
            outcome = Outcome.SUBSOLVER_FAILURE
            break

        x_trial = manifold.retract(x, eta)
        f_trial = bundle.objective_value(x_trial)
        if not (math.isfinite(f_trial) and math.isfinite(f_x)):
            outcome = Outcome.NUMERICAL_FAILURE
            break
        rho = (f_x - f_trial) / (-m_val)
        success = rho >= cfg.rho_threshold

        if exact_hessian and taylor is not None and taylor[2] > 0.0:
            # Third-order remainder of the exact quadratic model along the
            # actual trajectory, an empirical Hessian Lipschitz constant.
            g_eta, h_eta, step_norm = taylor
            remainder = abs(f_trial - f_x - g_eta - 0.5 * h_eta)
            sample = 2.0 * remainder / step_norm**3
            l_hat = sample if l_hat is None else max(l_hat, sample)

        millis = (time.perf_counter() - t_start) * 1e3
        records.append(
            IterationRecord(
                k=k,
                f=f_x,
                grad_norm=grad_norm,
                sigma=weight,
                model_val=m_val,
                rho=rho,
                success=success,
                lambda_min=lambda_est,
                grad_evals=bundle.counters.grad_components,
                hess_evals=bundle.counters.hess_components,
                millis=millis,
            )
        )

        if success:
            x = x_trial
            f_x = f_trial
        weight, was_clamped = cfg.next_weight(weight, success)
        if was_clamped:
            clamped.append(k)
        k += 1

    return RunTrace(
        records=records,
        outcome=outcome,
        final_point=x,
        final_f=f_x,
        grad_evals=bundle.counters.grad_components,
        hess_evals=bundle.counters.hess_components,
        objective_evals=bundle.counters.objective_components,
        l_hat=l_hat,
        sigma_clamped_iterations=clamped,
    )


def _format_value(value: float | int | bool | None) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_trace_rows(
    records: Iterable[IterationRecord], stream: TextIO, *, sigma_name: str = "sigma"
) -> None:
    """Write records as CSV with the fixed column order. ``sigma_name``
    lets trust-region traces label the radius column ``delta``."""
    header = [c if c != "sigma" else sigma_name for c in TRACE_COLUMNS]
    stream.write(",".join(header) + "\n")
    for rec in records:
        row = [_format_value(getattr(rec, c)) for c in TRACE_COLUMNS]
        stream.write(",".join(row) + "\n")


def write_trace_csv(trace: RunTrace, path, *, sigma_name: str = "sigma") -> None:
    with open(path, "w", encoding="utf-8") as stream:
        write_trace_rows(trace.records, stream, sigma_name=sigma_name)
