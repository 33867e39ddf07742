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

Writing ``A_j = (1/|S|) sum_{i in S} (u_j^T C_i u_j) C_i`` for an index
set ``S``, the value is ``-sum_j u_j^T A_j u_j`` and column ``j`` of the
mean Euclidean gradient is ``-4 A_j u_j``. Its derivative along ``V`` is
``-4 (A_j v_j + 2 B_j u_j)``, where ``B_j`` is formed like ``A_j`` with
``u_j^T C_i v_j`` in place of ``u_j^T C_i u_j``. The Hessian-vector
product is ``P_U(D egrad[xi] - xi sym(U^T egrad))``.

One kernel forms every ``A_j`` and ``B_j`` from the rows
``vec(u_j w_j^T)``. Since each ``C_i`` is symmetric, an instance stores
the family only as packed rows of its ``t = d(d+1)/2`` upper-triangle
entries, in the one order that ``_layout(d)`` states and caches per
``d``, and the kernel contracts the rows ``C_S`` of a sampled set as
``((W C_S^T) C_S) / |S|``, two matrix products, with ``W`` the packed
form of the rows ``vec(u_j w_j^T)``. The full average depends on the
data only through the packed ``t x t`` moment matrix ``G = C^T C / n``
of all ``n`` rows; when ``t < n`` the full batch reads ``W G``, one
product, and otherwise contracts all packed rows like a sampled set.

``generate_instance`` draws a family sharing one random orthogonal
congruence, ``C_i = Q D_i Q^T + noise * sym(E_i)`` with positive
diagonal ``D_i`` and Gaussian ``E_i``. At ``noise = 0`` every component
is exactly diagonalized by ``Q``, so all component gradients vanish at
the optimum; the noise level controls how far the family is from being
jointly diagonalizable. It draws ``Q``, then every ``D_i``, then the
``t`` independent entries of every ``sym(E_i)`` as packed rows ``Z``,
and returns ``D W + Z S``: row ``j`` of ``W`` holds the packed entries
``q_pj q_qj`` of ``q_j q_j^T``, and ``S`` scales a diagonal entry by
``noise`` and an off-diagonal one by ``noise / sqrt(2)``, the standard
deviations of ``noise * (E_i + E_i^T) / 2``. Matrices from elsewhere
enter through ``JDInstance.from_matrices(c, r)``. An instance holds the
packed rows and ``r`` only: the rows' width fixes ``d``, and the seed
and noise it was drawn with are the run sidecar's record.
``check_instance`` is the one instance rule, ``n >= 1``,
``1 <= r <= d`` and ``0 <= noise < inf``, of the builder,
``JDInstance``, the benchmark plan and ``verify``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .manifolds import Point, Stiefel, Tangent, qr_orthonormal_factor, sym
from .objectives import SeparableObjective

SYMMETRY_TOL = 1e-8


def check_instance(n: int, d: int, r: int, noise: float = 0.0) -> None:
    """The instance rule: at least one matrix, ``1 <= r <= d`` and a noise
    level in ``[0, inf)``. Raises ``ContractError`` naming the broken part."""
    if n < 1:
        raise ContractError(f"need at least one matrix, got n={n}")
    if not 1 <= r <= d:
        raise ContractError(f"need 1 <= r <= d, got r={r}, d={d}")
    if not 0.0 <= noise < math.inf:
        raise ContractError(f"noise must be finite and non-negative, got {noise}")


@functools.cache
def _layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only packed layout ``(i, j, expand, fold)`` of symmetric
    ``d x d`` matrices. Packed entry ``k`` is entry ``(i[k], j[k])`` of the
    upper triangle, row by row. Entries ``(p, q)`` and ``(q, p)`` of a
    vec'd matrix share packed position ``expand[p d + q]``, and ``fold``
    adds them: ``(vec(X) @ fold) . packed(C) = vec(X) . vec(C)``."""
    i, j = np.triu_indices(d)
    expand = np.empty((d, d), dtype=np.intp)
    expand[i, j] = expand[j, i] = np.arange(i.size)
    expand = expand.reshape(-1)
    fold = (expand[:, None] == np.arange(i.size)).astype(float)
    return _readonly(i), _readonly(j), _readonly(expand), _readonly(fold)


@dataclass(frozen=True)
class JDInstance:
    """A problem instance: the matrix family and the rank ``r``.

    ``rows`` holds the family as read-only ``(n, t)`` packed rows, the
    upper-triangle entries of each ``C_m`` in ``_layout(d)`` order,
    under ``check_instance``. The width ``t`` fixes ``d`` through
    ``t = d(d+1)/2``; a width that is no such number is rejected. A
    read-only array that owns its memory is kept as it is; any other is
    copied, so the caller's array is never frozen or shared."""

    rows: np.ndarray  # (n, d(d+1)/2)
    r: int

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.flags.writeable or not rows.flags.owndata:
            rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or self.d * (self.d + 1) // 2 != rows.shape[1]:
            raise ContractError(f"expected (n, d(d+1)/2) packed rows, got {rows.shape}")
        check_instance(self.n, self.d, self.r)

    @classmethod
    def from_matrices(cls, c, r: int) -> JDInstance:
        """An instance of the symmetric ``(n, d, d)`` stack ``c``. Entries
        must be finite; a stack asymmetric only by roundoff, up to
        ``SYMMETRY_TOL``, is symmetrized exactly."""
        c = np.asarray(c, dtype=float)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ContractError(f"expected (n, d, d) matrices, got {c.shape}")
        if not np.isfinite(c).all():
            raise ContractError("input matrices have non-finite entries")
        i, j, _, _ = _layout(c.shape[1])
        upper, lower = c[:, i, j], c[:, j, i]
        asym = np.abs(upper - lower).max(initial=0.0)
        if asym > SYMMETRY_TOL:
            raise ContractError(f"input matrices are asymmetric by {asym:.3e}")
        return cls(rows=upper if asym == 0.0 else (upper + lower) / 2.0, r=r)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return (math.isqrt(8 * self.rows.shape[1] + 1) - 1) // 2


def generate_instance(
    n: int, d: int, r: int, seed: int, noise: float = 1e-3
) -> JDInstance:
    """Draw an instance with a shared planted congruence."""
    check_instance(n, d, r, noise)
    rng = np.random.default_rng([seed, 3])
    q = qr_orthonormal_factor(rng.standard_normal((d, d)))
    diags = rng.uniform(1.0, 2.0, size=(n, d))
    # The packed noise Z S, then the noiseless D W added in place. The
    # array is the builder's own, so JDInstance keeps it without a copy.
    i, j, _, _ = _layout(d)
    rows = rng.standard_normal((n, i.size))
    rows *= np.where(i == j, noise, noise / math.sqrt(2.0))
    rows += diags @ (q[i] * q[j]).T
    rows.setflags(write=False)
    return JDInstance(rows=rows, r=r)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _columnwise(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ``d x r`` matrix whose column ``j`` is ``a[j] @ w[:, j]``."""
    return np.einsum("jpq,qj->pj", a, w)


class _PointMemo:
    """What ``value``, ``gradient`` and every ``hess_vec`` share at one
    point ``U`` and index set ``S``: ``A_j`` for every column ``j``, the
    Euclidean gradient, and ``sym(U^T egrad)`` on first use. The full
    batch reads the packed moment matrix ``moments`` when one is given;
    any other set contracts ``rows``, the packed rows of ``C[S]``. Both
    pack through the layout's ``fold`` and unpack through its
    ``expand``. Every cached array is read-only."""

    def __init__(
        self,
        x: Point,
        idx: np.ndarray | None,
        rows: np.ndarray,
        moments: np.ndarray | None,
        expand: np.ndarray,
        fold: np.ndarray,
    ):
        self.x = x
        self.idx = None if idx is None else _readonly(idx.copy())
        self.rows, self.moments = rows, moments
        self.expand, self.fold = expand, fold
        self.a = _readonly(self.contract(x.data))
        self.egrad = _readonly(-4.0 * _columnwise(self.a, x.data))
        self._sym_u_egrad: np.ndarray | None = None

    def matches(self, x: Point, idx) -> bool:
        if self.x is not x:
            return False
        if self.idx is None or idx is None:
            return self.idx is idx
        return np.array_equal(self.idx, idx)

    def contract(self, w: np.ndarray) -> np.ndarray:
        """``(1/|S|) sum_{i in S} (u_j^T C_i w_j) C_i`` for every column
        ``j``, an ``(r, d, d)`` stack, from the rows ``vec(u_j w_j^T)``."""
        u = self.x.data
        d, r = u.shape
        outer = (u.T[:, :, None] * w.T[:, None, :]).reshape(r, d * d)
        packed = outer @ self.fold
        if self.moments is None:
            packed = (packed @ self.rows.T) @ self.rows / len(self.rows)
        else:
            packed = packed @ self.moments
        return packed[:, self.expand].reshape(r, d, d)

    def value(self) -> float:
        # Column j of egrad is -4 A_j u_j, so the value
        # -sum_j u_j^T A_j u_j is a quarter of <U, egrad>.
        return float(np.vdot(self.x.data, self.egrad)) / 4.0

    def sym_u_egrad(self) -> np.ndarray:
        if self._sym_u_egrad is None:
            self._sym_u_egrad = _readonly(sym(self.x.data.T @ self.egrad))
        return self._sym_u_egrad

    def egrad_derivative(self, xi: Tangent) -> np.ndarray:
        """Directional derivative of the Euclidean gradient along ``xi``:
        column ``j`` is ``-4 (A_j v_j + 2 B_j u_j)``, where ``B_j`` is the
        contraction with ``vec(u_j v_j^T)``."""
        b = self.contract(xi.data)
        return -4.0 * (_columnwise(self.a, xi.data) + 2.0 * _columnwise(b, self.x.data))


class JointDiagObjective(SeparableObjective):
    """Finite-sum diagonalization objective on ``Stiefel(d, r)``.

    Construction reads nothing of the family's rows and takes the
    packed layout of its ``d`` from the shared cache. When ``t < n``, so that
    ``G`` is smaller than the family, the first full-batch call forms and keeps
    it, and a call costs ``r d^2 t + r t^2`` flops instead of ``r d^2 t + 2 r n t``.

    The objective keeps a one-entry memo, keyed on the ``Point`` object
    and a copy of the index set's contents, so the gradient and the HVPs
    of one iteration, and the exact gradient at a point whose objective
    value was just taken, reuse the per-point arrays instead of
    recomputing them. Results are bit-identical to a fresh objective's.
    This memo saves work but not oracle calls: the oracle bundle charges
    every call that reaches the objective its full component count. The
    bundle itself answers a repeated exact ``G`` or ``H[G]`` at an
    unchanged iterate, so such a query never reaches the objective and is
    not charged.
    """

    def __init__(self, instance: JDInstance):
        self.instance = instance
        self.n, self.d = instance.n, instance.d
        self.manifold = Stiefel(self.d, instance.r)
        self._rows = instance.rows
        _, _, self._expand, self._fold = _layout(self.d)
        self._moments: np.ndarray | None = None
        self._memo: _PointMemo | None = None

    def _at(self, x: Point, idx: np.ndarray | None) -> _PointMemo:
        memo = self._memo
        if memo is None or not memo.matches(x, idx):
            idx = self._check_idx(idx)
            rows, moments = self._rows, None
            if idx is not None:
                rows = _readonly(rows[idx])
            elif rows.shape[1] < self.n:
                if self._moments is None:
                    self._moments = _readonly(rows.T @ rows / self.n)
                moments = self._moments
            memo = _PointMemo(x, idx, rows, moments, self._expand, self._fold)
            self._memo = memo
        return memo

    def value(self, x: Point, idx: np.ndarray | None = None) -> float:
        return self._at(x, idx).value()

    def euclidean_gradient(self, x: Point, idx: np.ndarray | None = None) -> np.ndarray:
        """Mean Euclidean gradient, a read-only ambient ``d x r`` matrix."""
        return self._at(x, idx).egrad

    def gradient(self, x: Point, idx: np.ndarray | None = None) -> Tangent:
        return self.manifold.project(x, self.euclidean_gradient(x, idx))

    def hess_vec(self, x: Point, xi: Tangent, idx: np.ndarray | None = None) -> Tangent:
        """Riemannian Hessian-vector product
        ``P_U(D egrad(U)[xi] - xi sym(U^T egrad(U)))``.

        This is the derivative of the projected gradient field
        ``U -> egrad(U) - U sym(U^T egrad(U))`` along ``xi``, projected
        onto the tangent space. Its two terms of the form ``U S`` with
        ``S`` symmetric are left out, because the projection
        ``P_U(W) = W - U sym(U^T W)`` maps them to zero.
        """
        memo = self._at(x, idx)
        w = memo.egrad_derivative(xi) - xi.data @ memo.sym_u_egrad()
        return self.manifold.project(x, w)
