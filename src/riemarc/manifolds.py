"""Matrix-manifold primitives used by the solvers.

Points and tangent vectors are dense ``d x r`` float64 arrays wrapped in
small immutable records so that the two roles cannot be confused. Every
manifold here is a Riemannian submanifold of a matrix space equipped with
the trace inner product ``<eta, xi> = trace(eta^T xi)``.

The concrete geometry is ``Stiefel(d, r)``: matrices with orthonormal
columns, ``{X in R^{d x r} : X^T X = I}``. The tangent space at ``U`` is
``{xi : xi^T U + U^T xi = 0}``, the projection is ``W - U sym(U^T W)``,
and the retraction is the orthogonal factor of the thin QR decomposition
with the sign convention ``diag(R) >= 0``, by Cholesky-QR, since the Gram
``(U + xi)^T (U + xi) = I + xi^T xi``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, SingularRetractionError

# Absolute residual tolerance for manifold membership checks.
FEASIBILITY_TOL = 1e-10

# Feasibility drift beyond this bound after a retraction triggers one
# re-orthonormalization pass. Cholesky-QR drifts by about
# ``(1 + ||xi||_2^2) eps``, which passes FEASIBILITY_TOL near
# ``||xi||_2 = 700``, so steps longer than about 70 take the second pass.
REORTH_DRIFT_TOL = 1e-12


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part ``(a + a^T) / 2`` of a square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"sym expects a square matrix, got shape {a.shape}")
    return (a + a.T) / 2.0


def _as_matrix(data: np.ndarray) -> np.ndarray:
    arr = np.array(data, dtype=float, copy=True)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ContractError(f"expected a 2-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Point:
    """A point on a manifold, stored as a read-only ``d x r`` array."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_matrix(self.data))

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


@dataclass(frozen=True)
class Tangent:
    """A tangent vector attached to the point it was constructed at."""

    data: np.ndarray
    base: Point = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_matrix(self.data))
        if self.data.shape != self.base.shape:
            raise ContractError(
                f"tangent shape {self.data.shape} does not match base "
                f"point shape {self.base.shape}"
            )


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class Manifold(ABC):
    """Common interface for the geometries used by the solvers."""

    d: int
    r: int

    @property
    @abstractmethod
    def intrinsic_dim(self) -> int:
        """Dimension of the tangent space."""

    @abstractmethod
    def feasibility_residual(self, data: np.ndarray) -> float:
        """How far an ambient matrix is from lying on the manifold."""

    @abstractmethod
    def project(self, x: Point, w: np.ndarray) -> Tangent:
        """Orthogonal projection of an ambient matrix onto the tangent
        space at ``x``, with respect to the trace inner product."""

    @abstractmethod
    def retract(self, x: Point, xi: Tangent) -> Point:
        """Map a tangent vector back to the manifold. First-order: the
        retraction of ``0`` is ``x`` itself and its differential at ``0``
        is the identity."""

    # -- construction and validation -------------------------------------

    def point(self, data: np.ndarray) -> Point:
        p = Point(data)
        if p.shape != (self.d, self.r):
            raise ContractError(
                f"expected a {self.d} x {self.r} point, got {p.shape}"
            )
        if not np.all(np.isfinite(p.data)):
            raise ContractError("point contains non-finite entries")
        res = self.feasibility_residual(p.data)
        if res > FEASIBILITY_TOL:
            raise ContractError(
                f"point is off the manifold, feasibility residual {res:.3e}"
            )
        return p

    # -- metric ----------------------------------------------------------

    def inner(self, eta: Tangent, xi: Tangent) -> float:
        """Trace inner product of two tangent vectors at the same base."""
        if eta.base is not xi.base and not np.array_equal(eta.base.data, xi.base.data):
            raise ContractError("tangent vectors have different base points")
        return float(np.vdot(eta.data, xi.data))

    def norm(self, xi: Tangent) -> float:
        return float(np.linalg.norm(xi.data))

    # -- randomness --------------------------------------------------------

    def random_point(self, seed: int | np.random.Generator) -> Point:
        rng = _rng(seed)
        return self.point(self._random_point_data(rng))

    def random_tangent(self, x: Point, seed: int | np.random.Generator) -> Tangent:
        """A unit-norm tangent vector drawn by projecting a Gaussian
        ambient matrix. Deterministic for a fixed integer seed."""
        rng = _rng(seed)
        for _ in range(100):
            w = rng.standard_normal((self.d, self.r))
            t = self.project(x, w)
            nrm = self.norm(t)
            if nrm > 1e-8:
                return Tangent(t.data / nrm, x)
        raise RuntimeError("failed to draw a non-degenerate tangent vector")

    @abstractmethod
    def _random_point_data(self, rng: np.random.Generator) -> np.ndarray: ...


def qr_orthonormal_factor(y: np.ndarray) -> np.ndarray:
    """Orthonormal factor of the thin QR decomposition of ``y``, with the
    columns signed so that ``diag(R) >= 0``. Raises if ``y`` is
    numerically rank deficient, since the factor is then not unique."""
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r)
    if np.min(np.abs(diag)) <= 1e-13 * max(1.0, float(np.linalg.norm(y))):
        raise SingularRetractionError(
            "matrix is numerically rank deficient, no unique orthonormal factor"
        )
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs


def cholesky_qr_factor(y: np.ndarray) -> np.ndarray:
    """``qr_orthonormal_factor(y)`` as ``y R^{-1}`` with ``R^T R = y^T y``,
    accurate to about ``cond(y)^2 eps``. Raises when the Gram is not
    numerically positive definite."""
    gram = y.T @ y
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularRetractionError("Gram matrix is not positive definite") from exc
    if lower.diagonal().min() ** 2 <= 1e-14 * gram.trace():
        raise SingularRetractionError(
            "matrix is numerically rank deficient, no unique orthonormal factor"
        )
    return np.linalg.solve(lower, y.T).T


class Stiefel(Manifold):
    """Stiefel manifold of ``d x r`` matrices with orthonormal columns."""

    def __init__(self, d: int, r: int):
        if r < 1 or d < r:
            raise ContractError(f"need 1 <= r <= d, got d={d}, r={r}")
        self.d = int(d)
        self.r = int(r)

    @property
    def intrinsic_dim(self) -> int:
        return self.d * self.r - self.r * (self.r + 1) // 2

    def feasibility_residual(self, data: np.ndarray) -> float:
        gram = data.T @ data
        return float(np.linalg.norm(gram - np.eye(self.r)))

    def project(self, x: Point, w: np.ndarray) -> Tangent:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.d, self.r):
            raise ContractError(
                f"expected a {self.d} x {self.r} ambient matrix, got {w.shape}"
            )
        data = w - x.data @ sym(x.data.T @ w)
        return Tangent(data, x)

    def retract(self, x: Point, xi: Tangent) -> Point:
        """QR retraction ``qf(U + xi)``, by Cholesky-QR.

        The zero tangent returns ``x`` unchanged. If the orthonormal
        factor drifts off the manifold beyond ``REORTH_DRIFT_TOL`` it is
        re-orthonormalized once before being returned. The result passes
        the checks of ``point``, with its feasibility residual computed
        once.
        """
        if xi.base is not x and not np.array_equal(xi.base.data, x.data):
            raise ContractError("tangent vector is not based at x")
        if not xi.data.any():
            return x
        q = cholesky_qr_factor(x.data + xi.data)
        res = self.feasibility_residual(q)
        if res > REORTH_DRIFT_TOL:
            q = cholesky_qr_factor(q)
            res = self.feasibility_residual(q)
        if not np.isfinite(q).all():
            raise ContractError("point contains non-finite entries")
        if res > FEASIBILITY_TOL:
            raise ContractError(
                f"point is off the manifold, feasibility residual {res:.3e}"
            )
        return Point(q)

    def _random_point_data(self, rng: np.random.Generator) -> np.ndarray:
        return qr_orthonormal_factor(rng.standard_normal((self.d, self.r)))

    def __repr__(self) -> str:
        return f"Stiefel(d={self.d}, r={self.r})"
