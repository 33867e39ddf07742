"""The finite-sum objective ``f(x) = (1/n) sum_i f_i(x)`` on a manifold,
as the solvers and oracles see it.

Implementations expose batched component evaluation so that sub-sampled
oracles can average any index set in one vectorized pass. Gradients and
Hessian-vector products are Riemannian, projected onto the tangent space
of the embedded manifold. ``jointdiag.JointDiagObjective`` is the
package's implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import ContractError
from .manifolds import Manifold, Point, Tangent


class SeparableObjective(ABC):
    """Average of ``n`` smooth components on a fixed manifold.

    ``idx`` arguments take an integer array of component indices (repeats
    allowed, as drawn by sampling with replacement) or ``None`` for the
    full average over all components.
    """

    manifold: Manifold
    n: int

    @abstractmethod
    def value(self, x: Point, idx: np.ndarray | None = None) -> float:
        """Mean of ``f_i(x)`` over ``idx``."""

    @abstractmethod
    def gradient(self, x: Point, idx: np.ndarray | None = None) -> Tangent:
        """Mean Riemannian gradient of the selected components."""

    @abstractmethod
    def hess_vec(self, x: Point, xi: Tangent, idx: np.ndarray | None = None) -> Tangent:
        """Mean Riemannian Hessian-vector product of the selected
        components, applied to ``xi``."""

    def _check_idx(self, idx: np.ndarray | None) -> np.ndarray | None:
        if idx is None:
            return None
        idx = np.asarray(idx, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ContractError("index set must be a non-empty 1-d array")
        if idx.min() < 0 or idx.max() >= self.n:
            raise ContractError("component index out of range")
        return idx
