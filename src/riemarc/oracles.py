"""Exact and sub-sampled first and second order oracles.

An ``OracleBundle`` wraps a finite-sum objective and serves the gradient
and Hessian-vector products a solver iteration needs, either exactly or
as uniform with-replacement sub-sample averages

    G = (1/|S_g|) sum_{i in S_g} grad f_i(x)
    H[eta] = (1/|S_H|) sum_{i in S_H} hess f_i(x)[eta].

Both index sets are drawn once per outer iteration via
``begin_iteration`` and reused for every query inside that iteration.
Sampling streams are keyed by ``(seed, iteration, purpose)`` so that
replaying an iteration reproduces its samples bit for bit regardless of
evaluation order, and so that the Hessian stream does not depend on
whether the gradient was sampled. Each purpose's ``KeyedStream`` jumps
to iteration ``k`` in place, so no iteration builds a generator.

Exact quantities do not depend on the iteration, so the bundle answers
a repeated exact query from the answer it already holds: the exact
gradient keyed on the ``Point`` object, and every exact HVP taken there
keyed on its ``Tangent`` object, until a query arrives at another point.
After a rejected step the driver queries the unchanged iterate again,
and gets back the same gradient object and its Hessian product. The
counters count only the component evaluations that reach the objective,
so such an iteration charges no gradient batch, and no Hessian batch
for the Cauchy product ``H[G]``. Sampled oracles draw afresh every
iteration and are never reused.

``required_sample_sizes`` computes sizes under which the sample averages
match the exact quantities to accuracy ``delta_g`` and ``delta_h`` with
probability at least ``1 - delta`` each, given uniform component bounds:

    |S_g| >= (32 K_g^2 ln(1/delta) + 1/4) / delta_g^2
    |S_H| >= (32 K_h^2 ln(1/delta) + 1/4) / delta_h^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ContractError, StaleSampleError
from .manifolds import Point, Tangent
from .objectives import SeparableObjective

_PURPOSE_GRADIENT = 0
_PURPOSE_HESSIAN = 1


class OracleMode(Enum):
    EXACT = "exact"
    SUBSAMPLED_HESSIAN = "subsampled_hessian"
    SUBSAMPLED_BOTH = "subsampled_both"


@dataclass
class OracleCounters:
    """Cumulative component-evaluation counts."""

    grad_components: int = 0
    hess_components: int = 0
    objective_components: int = 0


# ``PCG64.jumped(k)`` advances the state by ``k`` times this step.
_PCG64_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


class KeyedStream:
    """Draws keyed on ``(seed, k, purpose)``: ``at(k)`` resets one shared
    generator to ``PCG64(SeedSequence([seed, purpose])).jumped(k)``, so
    any ``k`` replays in any order."""

    def __init__(self, seed: int, purpose: int):
        self._bits = np.random.PCG64(np.random.SeedSequence([seed, purpose]))
        self._start = self._bits.state
        self._generator = np.random.Generator(self._bits)

    def at(self, k: int) -> np.random.Generator:
        self._bits.state = self._start
        self._bits.advance(k * _PCG64_JUMP % 2**128)
        return self._generator


class OracleBundle:
    """Per-run oracle state: mode, sample sizes, RNG seed and counters."""

    def __init__(
        self,
        objective: SeparableObjective,
        mode: OracleMode = OracleMode.EXACT,
        *,
        grad_sample_size: int | None = None,
        hess_sample_size: int | None = None,
        seed: int = 0,
    ):
        check_sample_sizes(mode, objective.n, grad_sample_size, hess_sample_size)
        self.objective = objective
        self.mode = mode
        self.grad_sample_size = grad_sample_size
        self.hess_sample_size = hess_sample_size
        self.seed = int(seed)
        self.counters = OracleCounters()
        self._grad_stream = KeyedStream(self.seed, _PURPOSE_GRADIENT)
        self._hess_stream = KeyedStream(self.seed, _PURPOSE_HESSIAN)
        self._iteration: int | None = None
        self._grad_idx: np.ndarray | None = None
        self._hess_idx: np.ndarray | None = None
        # Exact answers at ``_at``: its gradient, and (eta, H[eta]) pairs
        # by ``id(eta)``, each holding its key alive. Points and tangents
        # hold read-only copies, so one object always has one value.
        self._at: Point | None = None
        self._exact_grad: Tangent | None = None
        self._exact_hvps: dict[int, tuple[Tangent, Tangent]] = {}

    def _exact_answers_at(self, x: Point) -> None:
        if x is not self._at:
            self._at = x
            self._exact_grad = None
            self._exact_hvps = {}

    def begin_iteration(self, k: int) -> None:
        """Fix the sample index sets used for iteration ``k``."""
        if k < 0:
            raise ContractError("iteration index must be non-negative")
        n = self.objective.n
        self._iteration = int(k)
        if self.mode is OracleMode.SUBSAMPLED_BOTH:
            rng = self._grad_stream.at(k)
            self._grad_idx = rng.integers(0, n, size=self.grad_sample_size)
        else:
            self._grad_idx = None
        if self.mode is not OracleMode.EXACT:
            rng = self._hess_stream.at(k)
            self._hess_idx = rng.integers(0, n, size=self.hess_sample_size)
        else:
            self._hess_idx = None

    def inexact_gradient(self, x: Point) -> Tangent:
        """Gradient estimate for the current iteration's sample. Called
        before any ``begin_iteration``, it fixes iteration 0 first."""
        if self._iteration is None:
            self.begin_iteration(0)
        if self._grad_idx is not None:
            g = self.objective.gradient(x, self._grad_idx)
            self.counters.grad_components += self._grad_idx.size
            return g
        self._exact_answers_at(x)
        if self._exact_grad is None:
            self._exact_grad = self.objective.gradient(x)
            self.counters.grad_components += self.objective.n
        return self._exact_grad

    def inexact_hvp(self, x: Point, eta: Tangent) -> Tangent:
        """Hessian-vector estimate on the current iteration's sample."""
        if self._iteration is None:
            raise StaleSampleError(
                "Hessian oracle queried before begin_iteration fixed the sample"
            )
        if self._hess_idx is not None:
            h = self.objective.hess_vec(x, eta, self._hess_idx)
            self.counters.hess_components += self._hess_idx.size
            return h
        self._exact_answers_at(x)
        held = self._exact_hvps.get(id(eta))
        if held is None:
            held = (eta, self.objective.hess_vec(x, eta))
            self.counters.hess_components += self.objective.n
            self._exact_hvps[id(eta)] = held
        return held[1]

    def objective_value(self, x: Point) -> float:
        """Exact full objective, used for acceptance ratios in all modes."""
        self.counters.objective_components += self.objective.n
        return self.objective.value(x)


def check_sample_sizes(
    mode: OracleMode,
    n: int,
    grad_sample_size: int | None,
    hess_sample_size: int | None,
) -> None:
    """Raise ``ContractError`` unless every oracle ``mode`` samples has a
    sample size in ``[1, n]``."""
    sizes = []
    if mode is OracleMode.SUBSAMPLED_BOTH:
        sizes.append(("gradient", grad_sample_size))
    if mode is not OracleMode.EXACT:
        sizes.append(("Hessian", hess_sample_size))
    for name, size in sizes:
        if size is None:
            raise ContractError(f"{name} sample size required in this mode")
        if not 1 <= size <= n:
            raise ContractError(f"{name} sample size must lie in [1, {n}], got {size}")


@dataclass(frozen=True)
class SampleSizeParams:
    """Inputs of the sample-size bounds.

    ``k_grad`` and ``k_hess`` are uniform bounds on the component
    gradient norms and component Hessian operator norms, ``delta`` is
    the per-oracle failure probability and ``delta_g``, ``delta_h`` the
    target accuracies.
    """

    k_grad: float
    k_hess: float
    delta: float
    delta_g: float
    delta_h: float

    def validate(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ContractError(f"delta must lie in (0, 1), got {self.delta}")
        if self.k_grad < 0.0 or self.k_hess < 0.0:
            raise ContractError("component bounds must be non-negative")
        if self.delta_g <= 0.0 or self.delta_h <= 0.0:
            raise ContractError("target accuracies must be positive")


def required_sample_sizes(params: SampleSizeParams) -> tuple[int, int]:
    """Smallest integer sample sizes satisfying the concentration bounds."""
    params.validate()
    log_term = math.log(1.0 / params.delta)
    ng = (32.0 * params.k_grad**2 * log_term + 0.25) / params.delta_g**2
    nh = (32.0 * params.k_hess**2 * log_term + 0.25) / params.delta_h**2
    return int(math.ceil(ng)), int(math.ceil(nh))

