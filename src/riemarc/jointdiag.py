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

The full average depends on the data only through the ``d^2 x d^2``
moment matrix ``M = (1/n) sum_i vec(C_i) vec(C_i)^T``. Writing
``A_j = (1/n) sum_i (u_j^T C_i u_j) C_i``, the row ``vec(u_j u_j^T)^T M``
reshaped to ``d x d``, the value is ``-sum_j u_j^T A_j u_j`` and column
``j`` of the mean Euclidean gradient is ``-4 A_j u_j``. Its derivative
along ``V`` is ``-4 (A_j v_j + 2 B_j u_j)``, where ``B_j`` contracts
``M`` with ``vec(u_j v_j^T)``. The objective takes this route for the
full batch when ``d^2 < n`` and the direct one otherwise.

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


def _columnwise(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ``d x r`` matrix whose column ``j`` is ``a[j] @ w[:, j]``."""
    return np.einsum("jpq,qj->pj", a, w)


class _PointMemo:
    """What ``value``, ``gradient`` and every ``hess_vec`` share at one
    point ``U`` and index set: the kernel's per-point arrays, plus the
    Euclidean gradient and ``sym(U^T egrad)``, computed on first use.
    Subclasses supply the kernel. Every cached array is read-only."""

    def __init__(self, x: Point, idx: np.ndarray | None):
        self.x = x
        self.idx = None if idx is None else _readonly(idx.copy())
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
            self._egrad = _readonly(self._mean_egrad())
        return self._egrad

    def sym_u_egrad(self) -> np.ndarray:
        if self._sym_u_egrad is None:
            self._sym_u_egrad = _readonly(sym(self.x.data.T @ self.egrad()))
        return self._sym_u_egrad


class _DirectMemo(_PointMemo):
    """Kernel over the matrices themselves, ``C`` or ``C[idx]``: it keeps
    ``C U`` and the diagonals of ``U^T C U``."""

    def __init__(self, x: Point, idx: np.ndarray | None, c: np.ndarray):
        super().__init__(x, idx)
        self.c = _readonly(c)
        self.cu = _readonly(c @ x.data)
        self.diag = _readonly(np.einsum("pj,mpj->mj", x.data, self.cu))

    def value(self) -> float:
        return float(-np.mean(np.sum(self.diag**2, axis=1)))

    def _mean_egrad(self) -> np.ndarray:
        return -4.0 * np.einsum("mpj,mj->pj", self.cu, self.diag) / self.c.shape[0]

    def egrad_derivative(self, xi: Tangent) -> np.ndarray:
        """Directional derivative of the Euclidean gradient along ``xi``."""
        cv = self.c @ xi.data
        # ddiag(U^T C V) = ddiag(V^T C U) for symmetric C.
        diag_vu = np.einsum("pj,mpj->mj", xi.data, self.cu)
        out = np.einsum("mpj,mj->pj", cv, self.diag) + 2.0 * np.einsum(
            "mpj,mj->pj", self.cu, diag_vu
        )
        return -4.0 * out / self.c.shape[0]


class _MomentMemo(_PointMemo):
    """Full-batch kernel through the moment matrix
    ``M = (1/n) sum_m vec(C_m) vec(C_m)^T``. It keeps
    ``A_j = (1/n) sum_m (u_j^T C_m u_j) C_m``, the row
    ``vec(u_j u_j^T)^T M`` reshaped to ``d x d``, for every column ``j``."""

    def __init__(self, x: Point, moments: np.ndarray):
        super().__init__(x, None)
        self.moments = moments
        self.a = _readonly(self._contract(x.data))

    def _contract(self, w: np.ndarray) -> np.ndarray:
        """``vec(u_j w_j^T)^T M`` reshaped to ``d x d``, for every ``j``."""
        d, r = w.shape
        outer = np.einsum("pj,qj->jpq", self.x.data, w).reshape(r, d * d)
        return (outer @ self.moments).reshape(r, d, d)

    def value(self) -> float:
        u = self.x.data
        return float(-np.sum(u * _columnwise(self.a, u)))

    def _mean_egrad(self) -> np.ndarray:
        return -4.0 * _columnwise(self.a, self.x.data)

    def egrad_derivative(self, xi: Tangent) -> np.ndarray:
        """Directional derivative of the Euclidean gradient along ``xi``:
        column ``j`` is ``-4 (A_j v_j + 2 B_j u_j)``, where ``B_j`` is the
        contraction of ``M`` with ``vec(u_j v_j^T)``."""
        b = self._contract(xi.data)
        return -4.0 * (_columnwise(self.a, xi.data) + 2.0 * _columnwise(b, self.x.data))


class JointDiagObjective(SeparableObjective):
    """Finite-sum diagonalization objective on ``Stiefel(d, r)``.

    Full-batch calls read the data only through the ``d^2 x d^2`` moment
    matrix ``M = (1/n) sum_m vec(C_m) vec(C_m)^T`` when ``d^2 < n``, that
    is, when ``M`` is smaller than the matrices it summarizes; a call then
    costs ``r d^4`` flops instead of ``n d^2 r``. ``M`` is built on the
    first such call and kept. Other instances, and every sampled index
    set, take the direct kernel over ``C`` or ``C[idx]``.

    The objective keeps a one-entry memo, keyed on the ``Point`` object
    and a copy of the index set's contents, so the gradient and the HVPs
    of one iteration, and the exact gradient at a point whose objective
    value was just taken, reuse the kernel's per-point arrays instead of
    recomputing them. Results are bit-identical to a fresh objective's.
    The oracle bundle still charges every call its full component count.
    """

    def __init__(self, instance: JDInstance):
        self.instance = instance
        self.n = instance.n
        self.manifold = Stiefel(instance.d, instance.r)
        self._memo: _PointMemo | None = None
        self._moments: np.ndarray | None = None

    def _moment_matrix(self) -> np.ndarray:
        if self._moments is None:
            cf = self.instance.c.reshape(self.n, -1)
            self._moments = _readonly(cf.T @ cf / self.n)
        return self._moments

    def _at(self, x: Point, idx: np.ndarray | None) -> _PointMemo:
        memo = self._memo
        if memo is None or not memo.matches(x, idx):
            idx = self._check_idx(idx)
            if idx is None and self.instance.d**2 < self.n:
                memo = _MomentMemo(x, self._moment_matrix())
            else:
                c = self.instance.c if idx is None else self.instance.c[idx]
                memo = _DirectMemo(x, idx, c)
            self._memo = memo
        return memo

    def value(self, x: Point, idx: np.ndarray | None = None) -> float:
        return self._at(x, idx).value()

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

