"""Joint approximate diagonalization of symmetric matrices on the
Stiefel manifold.

Given symmetric ``d x d`` matrices ``C_1 .. C_n``, find ``U`` with
orthonormal columns maximizing the diagonal energy of the congruences
``U^T C_i U``, that is, minimize

    f(U) = -(1/n) sum_i || ddiag(U^T C_i U) ||_F^2

where ``ddiag`` keeps the diagonal of a square matrix and zeroes the
rest. The Euclidean component gradients are

    egrad f_i(U) = -4 C_i U ddiag(U^T C_i U),

the Riemannian gradient is the tangent projection of their mean, and
the Riemannian Hessian follows from differentiating the projected
gradient field and projecting again.

``generate_instance`` draws a family sharing one random orthogonal
congruence, ``C_i = Q D_i Q^T + noise * sym(E_i)`` with positive
diagonal ``D_i`` and Gaussian ``E_i``. At ``noise = 0`` every component
is exactly diagonalized by ``Q``, so all component gradients vanish at
the optimum; the noise level controls how far the family is from being
jointly diagonalizable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .manifolds import Point, Stiefel, Tangent, qr_orthonormal_factor, sym
from .objectives import SeparableObjective

SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class JDInstance:
    """A problem instance: the matrix family and its generation record."""

    c: np.ndarray  # (n, d, d), symmetric
    r: int
    seed: int
    noise: float

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ContractError(f"expected (n, d, d) matrices, got {c.shape}")
        if not 1 <= self.r <= c.shape[1]:
            raise ContractError(f"need 1 <= r <= d, got r={self.r}, d={c.shape[1]}")
        asym = np.abs(c - np.transpose(c, (0, 2, 1))).max(initial=0.0)
        if asym > SYMMETRY_TOL:
            raise ContractError(
                f"input matrices are asymmetric beyond tolerance, {asym:.3e}"
            )
        # Symmetrize exactly so downstream identities hold to the bit.
        c = (c + np.transpose(c, (0, 2, 1))) / 2.0
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def d(self) -> int:
        return self.c.shape[1]


def generate_instance(
    n: int, d: int, r: int, seed: int, noise: float = 1e-3
) -> JDInstance:
    """Draw an instance with a shared planted congruence."""
    if n < 1:
        raise ContractError(f"need at least one matrix, got n={n}")
    if noise < 0.0:
        raise ContractError(f"noise must be non-negative, got {noise}")
    rng = np.random.default_rng([seed, 3])
    q = qr_orthonormal_factor(rng.standard_normal((d, d)))
    diags = rng.uniform(1.0, 2.0, size=(n, d))
    e = rng.standard_normal((n, d, d))
    c = np.einsum("pj,mj,qj->mpq", q, diags, q)
    c += noise * (e + np.transpose(e, (0, 2, 1))) / 2.0
    return JDInstance(c=c, r=r, seed=seed, noise=noise)


def save_instance(instance: JDInstance, path) -> None:
    """Serialize an instance to a compressed numpy archive."""
    np.savez_compressed(
        path,
        c=instance.c,
        r=np.array(instance.r),
        seed=np.array(instance.seed),
        noise=np.array(instance.noise),
    )


def load_instance(path) -> JDInstance:
    """Load an instance, revalidating symmetry."""
    with np.load(path) as data:
        return JDInstance(
            c=data["c"],
            r=int(data["r"]),
            seed=int(data["seed"]),
            noise=float(data["noise"]),
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _PointMemo:
    """What ``value``, ``gradient`` and every ``hess_vec`` share at one
    point ``U`` and index set: ``C[idx]``, ``C U`` and the diagonals of
    ``U^T C U``, plus the Euclidean gradient and ``sym(U^T egrad)``,
    computed on first use. Every cached array is read-only."""

    def __init__(self, x: Point, idx: np.ndarray | None, c: np.ndarray):
        self.x = x
        self.idx = None if idx is None else _readonly(idx.copy())
        self.c = _readonly(c)
        self.cu = _readonly(c @ x.data)
        self.diag = _readonly(np.einsum("pj,mpj->mj", x.data, self.cu))
        self._egrad: np.ndarray | None = None
        self._sym_u_egrad: np.ndarray | None = None

    def matches(self, x: Point, idx) -> bool:
        if self.x is not x:
            return False
        if self.idx is None or idx is None:
            return self.idx is idx
        return np.array_equal(self.idx, idx)

    def egrad(self) -> np.ndarray:
        if self._egrad is None:
            self._egrad = _readonly(
                -4.0 * np.einsum("mpj,mj->pj", self.cu, self.diag) / self.c.shape[0]
            )
        return self._egrad

    def sym_u_egrad(self) -> np.ndarray:
        if self._sym_u_egrad is None:
            self._sym_u_egrad = _readonly(sym(self.x.data.T @ self.egrad()))
        return self._sym_u_egrad

    def egrad_derivative(self, xi: Tangent) -> np.ndarray:
        """Directional derivative of the Euclidean gradient along ``xi``."""
        u = self.x.data
        v = xi.data
        cu = self.cu
        cv = self.c @ v
        diag_vu = np.einsum("pj,mpj->mj", v, cu)
        diag_uv = np.einsum("pj,mpj->mj", u, cv)
        out = (
            np.einsum("mpj,mj->pj", cv, self.diag)
            + np.einsum("mpj,mj->pj", cu, diag_vu)
            + np.einsum("mpj,mj->pj", cu, diag_uv)
        )
        return -4.0 * out / self.c.shape[0]


class JointDiagObjective(SeparableObjective):
    """Finite-sum diagonalization objective on ``Stiefel(d, r)``.

    The objective keeps a one-entry memo of ``_PointMemo``, keyed on the
    ``Point`` object and a copy of the index set's contents, so the
    gradient and the HVPs of one iteration, and the exact gradient at a
    point whose objective value was just taken, reuse ``C U`` instead of
    recomputing it. Each method evaluates the same expressions in the
    same order as without the memo, so results are bit-identical to a
    fresh objective's. The oracle bundle still charges every call its
    full component count.
    """

    def __init__(self, instance: JDInstance):
        self.instance = instance
        self.n = instance.n
        self.manifold = Stiefel(instance.d, instance.r)
        self._memo: _PointMemo | None = None

    def _at(self, x: Point, idx: np.ndarray | None) -> _PointMemo:
        memo = self._memo
        if memo is None or not memo.matches(x, idx):
            idx = self._check_idx(idx)
            c = self.instance.c if idx is None else self.instance.c[idx]
            memo = self._memo = _PointMemo(x, idx, c)
        return memo

    def value(self, x: Point, idx: np.ndarray | None = None) -> float:
        diag = self._at(x, idx).diag
        return float(-np.mean(np.sum(diag**2, axis=1)))

    def euclidean_gradient(self, x: Point, idx: np.ndarray | None = None) -> np.ndarray:
        """Mean Euclidean gradient, a read-only ambient ``d x r`` matrix."""
        return self._at(x, idx).egrad()

    def euclidean_gradient_derivative(
        self, x: Point, xi: Tangent, idx: np.ndarray | None = None
    ) -> np.ndarray:
        """Directional derivative of the mean Euclidean gradient at ``x``
        along ``xi``, an ambient ``d x r`` matrix."""
        return self._at(x, idx).egrad_derivative(xi)

    def gradient(self, x: Point, idx: np.ndarray | None = None) -> Tangent:
        return self.manifold.project(x, self.euclidean_gradient(x, idx))

    def hess_vec(self, x: Point, xi: Tangent, idx: np.ndarray | None = None) -> Tangent:
        """Riemannian Hessian-vector product.

        Differentiates the projected gradient field
        ``U -> egrad(U) - U sym(U^T egrad(U))`` along ``xi`` and projects
        the result back onto the tangent space.
        """
        memo = self._at(x, idx)
        u = x.data
        eg = memo.egrad()
        deg = memo.egrad_derivative(xi)
        w = (
            deg
            - xi.data @ memo.sym_u_egrad()
            - u @ sym(xi.data.T @ eg)
            - u @ sym(u.T @ deg)
        )
        return self.manifold.project(x, w)

