"""Exact and sub-sampled first and second order oracles.

An ``OracleBundle`` wraps a finite-sum objective and serves the gradient
and Hessian-vector products a solver iteration needs, either exactly or
as uniform with-replacement sub-sample averages

    G = (1/|S_g|) sum_{i in S_g} grad f_i(x)
    H[eta] = (1/|S_H|) sum_{i in S_H} hess f_i(x)[eta].

The mode names the sampled oracles, and ``check_sample_sizes`` is the
one rule: a sampled size is an ``int`` in ``[1, n]``, an exact one None.
Both index sets are drawn once per outer iteration via
``begin_iteration`` and reused for every query inside that iteration.
Sampling streams are keyed by ``(seed, iteration, purpose)`` so that
replaying an iteration reproduces its samples bit for bit regardless of
evaluation order, and so that the Hessian stream does not depend on
whether the gradient was sampled. Each purpose's ``KeyedStream`` jumps
to iteration ``k`` in place, so no iteration builds a generator.

A query repeated at the same ``Point`` with the same index-set objects
is answered from what the bundle holds, uncharged: its last gradient
``G`` and ``H[G]``. Every other query is evaluated and charged. An
exact index set is None in every iteration and a sampled one a new
array in each, so only exact answers carry over a rejected step. Either
query before the first ``begin_iteration`` raises ``ContractError``.

``required_sample_sizes`` computes sizes under which the sample averages
match the exact quantities to accuracy ``delta_g`` and ``delta_h`` with
probability at least ``1 - delta`` each, given uniform component bounds:

    |S_g| >= (32 K_g^2 ln(1/delta) + 1/4) / delta_g^2
    |S_H| >= (32 K_h^2 ln(1/delta) + 1/4) / delta_h^2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError
from .manifolds import Point, Tangent
from .objectives import SeparableObjective

# Keyed-stream purposes: the bundle's gradient and Hessian samples, and
# the driver's Lanczos start vectors.
PURPOSE_GRADIENT, PURPOSE_HESSIAN, PURPOSE_LANCZOS = 0, 1, 2


class OracleMode(Enum):
    EXACT = "exact"
    SUBSAMPLED_HESSIAN = "subsampled_hessian"
    SUBSAMPLED_BOTH = "subsampled_both"


@dataclass
class OracleCounters:
    """Cumulative component-evaluation counts, named as ``RunTrace`` names them."""

    grad_evals: int = 0
    hess_evals: int = 0
    objective_evals: int = 0


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
        self.grad_sample_size = grad_sample_size
        self.hess_sample_size = hess_sample_size
        self.seed = int(seed)
        self.counters = OracleCounters()
        self._grad_stream = KeyedStream(self.seed, PURPOSE_GRADIENT)
        self._hess_stream = KeyedStream(self.seed, PURPOSE_HESSIAN)
        self._iteration: int | None = None
        self._grad_idx: np.ndarray | None = None
        self._hess_idx: np.ndarray | None = None
        # The last G and H[G], each after its key of held objects. Points
        # and tangents hold read-only copies, so one key has one value.
        self._grad_key, self._grad = (None, None), None
        self._hg_key, self._hg = (None, None, None), None

    def _check_begun(self) -> None:
        if self._iteration is None:
            raise ContractError("oracle queried before begin_iteration")

    def _size(self, idx: np.ndarray | None) -> int:
        """Components an oracle on index set ``idx`` charges."""
        return self.objective.n if idx is None else idx.size

    def begin_iteration(self, k: int) -> None:
        """Fix the sample index sets used for iteration ``k``."""
        if k < 0:
            raise ContractError("iteration index must be non-negative")
        self._iteration = int(k)
        self._grad_idx = self._draw(self._grad_stream, self.grad_sample_size)
        self._hess_idx = self._draw(self._hess_stream, self.hess_sample_size)

    def _draw(self, stream: KeyedStream, size: int | None) -> np.ndarray | None:
        """This iteration's indices for an oracle of ``size``, None if exact."""
        if size is None:
            return None
        return stream.at(self._iteration).integers(0, self.objective.n, size=size)

    def inexact_gradient(self, x: Point) -> Tangent:
        """Gradient estimate for the current iteration's sample."""
        self._check_begun()
        key = (x, self._grad_idx)
        if not _same(key, self._grad_key):
            self._grad = self.objective.gradient(x, self._grad_idx)
            self.counters.grad_evals += self._size(self._grad_idx)
            self._grad_key = key
        return self._grad

    def inexact_hvp(self, x: Point, eta: Tangent) -> Tangent:
        """Hessian-vector estimate on the current iteration's sample."""
        self._check_begun()
        key = (x, eta, self._hess_idx)
        if _same(key, self._hg_key):
            return self._hg
        h = self.objective.hess_vec(x, eta, self._hess_idx)
        self.counters.hess_evals += self._size(self._hess_idx)
        if eta is self._grad:
            self._hg_key, self._hg = key, h
        return h

    def objective_value(self, x: Point) -> float:
        """Exact full objective, used for acceptance ratios in all modes."""
        self.counters.objective_evals += self.objective.n
        return self.objective.value(x)


def _same(key: tuple, held: tuple) -> bool:
    """Whether two keys hold the same objects, position by position."""
    return all(map(operator.is_, key, held))


def check_sample_sizes(
    mode: OracleMode,
    n: int,
    grad_sample_size: int | None,
    hess_sample_size: int | None,
) -> None:
    """The one sampling rule, for the bundle and ``verify`` alike: raise
    ``ContractError`` unless each oracle ``mode`` samples has an ``int``
    size (not a ``bool``) in ``[1, n]`` and each exact one the size None,
    as every reader assumes."""
    samples = (mode is OracleMode.SUBSAMPLED_BOTH, mode is not OracleMode.EXACT)
    sizes = zip(("gradient", "Hessian"), (grad_sample_size, hess_sample_size), samples)
    for name, size, sampled in sizes:
        if not sampled and size is not None:
            raise ContractError(f"exact {name} oracle has no sample size, got {size!r}")
        if sampled and type(size) is not int:
            raise ContractError(f"{name} sample size must be an int, got {size!r}")
        if sampled and not 1 <= size <= n:
            raise ContractError(f"{name} sample size must lie in [1, {n}], got {size}")


def required_sample_sizes(
    *, k_grad: float, k_hess: float, delta: float, delta_g: float, delta_h: float
) -> tuple[int, int]:
    """Smallest integer sample sizes satisfying the concentration bounds.

    ``k_grad`` and ``k_hess`` are uniform bounds on the component
    gradient norms and component Hessian operator norms, ``delta`` is
    the per-oracle failure probability and ``delta_g``, ``delta_h`` the
    target accuracies.
    """
    if not 0.0 < delta < 1.0:
        raise ContractError(f"delta must lie in (0, 1), got {delta}")
    if k_grad < 0.0 or k_hess < 0.0:
        raise ContractError("component bounds must be non-negative")
    if delta_g <= 0.0 or delta_h <= 0.0:
        raise ContractError("target accuracies must be positive")
    log_term = math.log(1.0 / delta)
    ng = (32.0 * k_grad**2 * log_term + 0.25) / delta_g**2
    nh = (32.0 * k_hess**2 * log_term + 0.25) / delta_h**2
    return int(math.ceil(ng)), int(math.ceil(nh))

