"""Euclidean test geometry and finite-sum test families.

They exercise the solvers against dense reference computations:

* ``Euclidean(d)``: column vectors (``r = 1``), identity projection and
  additive retraction.
* ``QuadraticSum``: components ``f_i = 0.5 x^T A_i x + b_i^T x``.
* ``SaddleQuartic``: quadratic components plus a shared quartic term,
  coercive but indefinite at the origin, so second-order behaviour near
  a saddle can be observed.
* ``CosineSum``: components ``cos(a_i^T x + phi_i)`` with globally
  bounded component gradients and Hessians, which makes the sample-size
  constants computable exactly.
"""

import numpy as np

from riemarc.errors import ContractError
from riemarc.manifolds import Manifold, Point, Tangent
from riemarc.objectives import SeparableObjective


class Euclidean(Manifold):
    """Flat space of ``d x 1`` column vectors under the trace metric."""

    def __init__(self, d: int):
        if d < 1:
            raise ContractError(f"dimension must be positive, got {d}")
        self.d = int(d)
        self.r = 1

    @property
    def intrinsic_dim(self) -> int:
        return self.d

    def feasibility_residual(self, data: np.ndarray) -> float:
        return 0.0

    def project(self, x: Point, w: np.ndarray) -> Tangent:
        return Tangent(w, x)

    def retract(self, x: Point, xi: Tangent) -> Point:
        if not np.array_equal(xi.base.data, x.data):
            raise ContractError("tangent vector is not based at x")
        return Point(x.data + xi.data)

    def _random_point_data(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((self.d, 1))

    def __repr__(self) -> str:
        return f"Euclidean(d={self.d})"


def _flat(x: Point) -> np.ndarray:
    return x.data[:, 0]


class QuadraticSum(SeparableObjective):
    """Components ``f_i(x) = 0.5 x^T A_i x + b_i^T x`` on Euclidean space."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ContractError(f"expected (n, d, d) matrices, got {a.shape}")
        if b.shape != a.shape[:2]:
            raise ContractError(f"expected (n, d) offsets, got {b.shape}")
        self.a = (a + np.transpose(a, (0, 2, 1))) / 2.0
        self.b = b
        self.n = a.shape[0]
        self.manifold = Euclidean(a.shape[1])

    def value(self, x: Point, idx: np.ndarray | None = None) -> float:
        idx = self._check_idx(idx)
        v = _flat(x)
        a = self.a if idx is None else self.a[idx]
        b = self.b if idx is None else self.b[idx]
        quad = 0.5 * np.einsum("p,mpq,q->m", v, a, v)
        return float(np.mean(quad + b @ v))

    def gradient(self, x: Point, idx: np.ndarray | None = None) -> Tangent:
        idx = self._check_idx(idx)
        v = _flat(x)
        a = self.a if idx is None else self.a[idx]
        b = self.b if idx is None else self.b[idx]
        g = a.mean(axis=0) @ v + b.mean(axis=0)
        return Tangent(g.reshape(-1, 1), x)

    def hess_vec(self, x: Point, xi: Tangent, idx: np.ndarray | None = None) -> Tangent:
        idx = self._check_idx(idx)
        a = self.a if idx is None else self.a[idx]
        h = a.mean(axis=0) @ xi.data[:, 0]
        return Tangent(h.reshape(-1, 1), x)

    @classmethod
    def random(cls, n: int, d: int, seed: int, *, definite: bool = True) -> "QuadraticSum":
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(n):
            m = rng.standard_normal((d, d))
            s = (m + m.T) / 2.0
            if definite:
                s = s @ s.T / d + np.eye(d)
            mats.append(s)
        b = rng.standard_normal((n, d))
        return cls(np.stack(mats), b)


class SaddleQuartic(SeparableObjective):
    """Components ``f_i(x) = 0.5 x^T A_i x + b_i^T x + (w/4) sum_j x_j^4``.

    With ``mean(A_i)`` indefinite and ``mean(b_i) = 0`` the origin is a
    strict saddle of the average, while the quartic term keeps the
    objective coercive.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, quartic_weight: float = 1.0):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ContractError(f"expected (n, d, d) matrices, got {a.shape}")
        if b.shape != a.shape[:2]:
            raise ContractError(f"expected (n, d) offsets, got {b.shape}")
        if quartic_weight <= 0:
            raise ContractError("quartic weight must be positive")
        self.a = (a + np.transpose(a, (0, 2, 1))) / 2.0
        self.b = b
        self.w = float(quartic_weight)
        self.n = a.shape[0]
        self.manifold = Euclidean(a.shape[1])

    def value(self, x: Point, idx: np.ndarray | None = None) -> float:
        idx = self._check_idx(idx)
        v = _flat(x)
        a = self.a if idx is None else self.a[idx]
        b = self.b if idx is None else self.b[idx]
        quad = 0.5 * np.einsum("p,mpq,q->m", v, a, v)
        quart = 0.25 * self.w * float(np.sum(v**4))
        return float(np.mean(quad + b @ v)) + quart

    def gradient(self, x: Point, idx: np.ndarray | None = None) -> Tangent:
        idx = self._check_idx(idx)
        v = _flat(x)
        a = self.a if idx is None else self.a[idx]
        b = self.b if idx is None else self.b[idx]
        g = a.mean(axis=0) @ v + b.mean(axis=0) + self.w * v**3
        return Tangent(g.reshape(-1, 1), x)

    def hess_vec(self, x: Point, xi: Tangent, idx: np.ndarray | None = None) -> Tangent:
        idx = self._check_idx(idx)
        v = _flat(x)
        u = xi.data[:, 0]
        a = self.a if idx is None else self.a[idx]
        h = a.mean(axis=0) @ u + 3.0 * self.w * (v**2) * u
        return Tangent(h.reshape(-1, 1), x)

    @classmethod
    def random(
        cls,
        n: int,
        d: int,
        seed: int,
        *,
        negative_eigs: int = 2,
        spread: float = 0.5,
        quartic_weight: float = 1.0,
    ) -> "SaddleQuartic":
        """Random instance whose mean quadratic term has ``negative_eigs``
        eigenvalues equal to -1 and the rest equal to +1."""
        if not 0 <= negative_eigs <= d:
            raise ContractError("negative_eigs must lie in [0, d]")
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = np.ones(d)
        eigs[:negative_eigs] = -1.0
        mean_a = q @ np.diag(eigs) @ q.T
        noise = rng.standard_normal((n, d, d)) * spread
        a = mean_a[None, :, :] + (noise + np.transpose(noise, (0, 2, 1))) / 2.0
        # Recenter so the mean is exactly the designed matrix.
        a = a - a.mean(axis=0)[None, :, :] + mean_a[None, :, :]
        b = rng.standard_normal((n, d)) * spread
        b = b - b.mean(axis=0)[None, :]
        return cls(a, b, quartic_weight)


class CosineSum(SeparableObjective):
    """Components ``f_i(x) = cos(a_i^T x + phi_i)`` on Euclidean space.

    ``||grad f_i|| <= ||a_i||`` and ``||hess f_i|| <= ||a_i||^2`` hold
    everywhere, so ``component_gradient_bound`` is exact.
    """

    def __init__(self, a: np.ndarray, phase: np.ndarray | None = None):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ContractError(f"expected (n, d) frequencies, got {a.shape}")
        self.a = a
        self.phase = np.zeros(a.shape[0]) if phase is None else np.asarray(phase, float)
        if self.phase.shape != (a.shape[0],):
            raise ContractError("phase must have one entry per component")
        self.n = a.shape[0]
        self.manifold = Euclidean(a.shape[1])

    def value(self, x: Point, idx: np.ndarray | None = None) -> float:
        idx = self._check_idx(idx)
        a = self.a if idx is None else self.a[idx]
        ph = self.phase if idx is None else self.phase[idx]
        return float(np.mean(np.cos(a @ _flat(x) + ph)))

    def gradient(self, x: Point, idx: np.ndarray | None = None) -> Tangent:
        idx = self._check_idx(idx)
        a = self.a if idx is None else self.a[idx]
        ph = self.phase if idx is None else self.phase[idx]
        s = np.sin(a @ _flat(x) + ph)
        g = -(s @ a) / a.shape[0]
        return Tangent(g.reshape(-1, 1), x)

    def hess_vec(self, x: Point, xi: Tangent, idx: np.ndarray | None = None) -> Tangent:
        idx = self._check_idx(idx)
        a = self.a if idx is None else self.a[idx]
        ph = self.phase if idx is None else self.phase[idx]
        c = np.cos(a @ _flat(x) + ph)
        av = a @ xi.data[:, 0]
        h = -((c * av) @ a) / a.shape[0]
        return Tangent(h.reshape(-1, 1), x)

    def component_gradient_bound(self) -> float:
        return float(np.max(np.linalg.norm(self.a, axis=1)))

    def component_hessian_bound(self) -> float:
        return float(np.max(np.sum(self.a**2, axis=1)))

    @classmethod
    def random(cls, n: int, d: int, seed: int, *, scale: float = 1.0) -> "CosineSum":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d)) * scale / np.sqrt(d)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return cls(a, phase)
