"""Geometry checks: membership residuals, projections, retractions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemarc import manifolds
from riemarc.errors import ContractError, SingularRetractionError
from riemarc.manifolds import (
    FEASIBILITY_TOL,
    Point,
    Stiefel,
    Tangent,
    cholesky_qr_factor,
    qr_orthonormal_factor,
    sym,
)

from euclidean import Euclidean


def test_sym_basics():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = sym(a)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == 1.0
    with pytest.raises(ContractError):
        sym(np.zeros((2, 3)))


def test_point_data_is_readonly_copy():
    raw = np.ones((3, 2))
    p = Point(raw)
    raw[0, 0] = 5.0
    assert p.data[0, 0] == 1.0
    with pytest.raises(ValueError):
        p.data[0, 0] = 2.0


def test_tangent_shape_must_match_base():
    base = Point(np.ones((3, 2)))
    with pytest.raises(ContractError):
        Tangent(np.ones((2, 2)), base)


def test_point_rejects_an_array_of_three_dimensions():
    with pytest.raises(ContractError, match=r"expected a 2-d array, got shape \(2, 2, 2\)"):
        Point(np.zeros((2, 2, 2)))


def test_one_dim_inputs_become_columns():
    p = Point(np.arange(4.0))
    assert p.shape == (4, 1)


def test_euclidean_basics():
    man = Euclidean(3)
    assert man.intrinsic_dim == 3
    x = man.random_point(0)
    xi = man.random_tangent(x, 1)
    assert abs(man.norm(xi) - 1.0) < 1e-12
    y = man.retract(x, xi)
    assert np.allclose(y.data, x.data + xi.data)
    assert man.feasibility_residual(x.data) == 0.0


def test_euclidean_rejects_bad_dim():
    with pytest.raises(ContractError):
        Euclidean(0)


def test_inner_requires_matching_base():
    man = Euclidean(3)
    x = man.random_point(0)
    y = man.random_point(1)
    xi = man.random_tangent(x, 2)
    zeta = man.random_tangent(y, 3)
    with pytest.raises(ContractError):
        man.inner(xi, zeta)


def test_qr_factor_sign_convention():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.standard_normal((7, 4))
        q = qr_orthonormal_factor(y)
        assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-12
        r = q.T @ y
        assert np.all(np.diagonal(r) >= 0.0)
        # Column span is preserved.
        assert np.linalg.norm(y - q @ r) < 1e-10 * np.linalg.norm(y)


def test_qr_factor_fixes_orthonormal_input():
    rng = np.random.default_rng(3)
    q = qr_orthonormal_factor(rng.standard_normal((6, 3)))
    assert np.allclose(qr_orthonormal_factor(q), q, atol=1e-13)


def test_qr_factor_rejects_rank_deficient():
    y = np.zeros((4, 2))
    y[:, 0] = 1.0
    with pytest.raises(SingularRetractionError):
        qr_orthonormal_factor(y)


def test_stiefel_dims():
    assert Stiefel(5, 3).intrinsic_dim == 9
    assert Stiefel(10, 10).intrinsic_dim == 45
    assert Stiefel(43, 20).intrinsic_dim == 650
    with pytest.raises(ContractError):
        Stiefel(3, 4)


def test_stiefel_random_point_feasible_and_deterministic():
    man = Stiefel(8, 3)
    x = man.random_point(5)
    assert man.feasibility_residual(x.data) <= FEASIBILITY_TOL
    y = man.random_point(5)
    assert np.array_equal(x.data, y.data)


def test_stiefel_point_validation():
    man = Stiefel(4, 2)
    with pytest.raises(ContractError):
        man.point(np.ones((4, 2)))
    with pytest.raises(ContractError):
        man.point(np.full((4, 2), np.nan))
    with pytest.raises(ContractError):
        man.point(np.eye(3)[:, :2])  # wrong shape


def test_stiefel_projection_properties():
    man = Stiefel(9, 4)
    rng = np.random.default_rng(11)
    x = man.random_point(rng)
    for _ in range(10):
        w = rng.standard_normal((9, 4))
        t = man.project(x, w)
        residual = np.linalg.norm(t.data.T @ x.data + x.data.T @ t.data)
        assert residual <= 1e-10 * max(1.0, np.linalg.norm(t.data))
        # Idempotent.
        t2 = man.project(x, t.data)
        assert np.allclose(t2.data, t.data, atol=1e-13)
        # Orthogonal: the removed part is normal to every tangent vector.
        normal = w - t.data
        probe = man.random_tangent(x, rng)
        assert abs(np.tensordot(normal, probe.data)) < 1e-10


def test_stiefel_projection_rejects_a_wrong_shaped_matrix():
    man = Stiefel(3, 2)
    x = man.random_point(0)
    with pytest.raises(ContractError, match=r"expected a 3 x 2 ambient matrix, got \(2, 3\)"):
        man.project(x, np.zeros((2, 3)))


def test_stiefel_retract_zero_is_identity():
    man = Stiefel(6, 3)
    x = man.random_point(2)
    y = man.retract(x, Tangent(np.zeros((6, 3)), x))
    assert y is x


def test_stiefel_retract_feasible():
    man = Stiefel(12, 5)
    rng = np.random.default_rng(4)
    x = man.random_point(rng)
    for scale in (1e-3, 1.0, 50.0):
        xi_data = scale * man.random_tangent(x, rng).data
        y = man.retract(x, Tangent(xi_data, x))
        assert man.feasibility_residual(y.data) <= FEASIBILITY_TOL


def test_stiefel_retract_first_order():
    """||R(t xi) - (x + t xi)|| must shrink like t^2."""
    man = Stiefel(7, 3)
    x = man.random_point(9)
    xi = man.random_tangent(x, 10)
    errs = []
    for t in (1e-2, 1e-3, 1e-4):
        y = man.retract(x, Tangent(t * xi.data, x))
        errs.append(np.linalg.norm(y.data - (x.data + t * xi.data)) / t)
    assert errs[1] <= 10.0 * errs[0] * 1e-1 + 1e-14
    assert errs[2] <= 10.0 * errs[1] * 1e-1 + 1e-14


def test_stiefel_retract_rejects_foreign_tangent():
    man = Stiefel(5, 2)
    x = man.random_point(0)
    z = man.random_point(1)
    xi = man.random_tangent(z, 2)
    with pytest.raises(ContractError):
        man.retract(x, xi)


def test_stiefel_retract_returns_the_read_only_qr_factor():
    man = Stiefel(10, 10)
    x = man.random_point(5)
    xi = Tangent(0.1 * man.random_tangent(x, 6).data, x)
    y = man.retract(x, xi)
    assert np.array_equal(y.data, cholesky_qr_factor(x.data + xi.data))
    assert not y.data.flags.writeable


def test_stiefel_retract_rechecks_its_factor(monkeypatch):
    """A factor that stays off the manifold after the one
    re-orthonormalization, or is not finite, is rejected."""
    man = Stiefel(4, 2)
    x = man.random_point(7)
    xi = man.random_tangent(x, 8)
    monkeypatch.setattr(manifolds, "cholesky_qr_factor", lambda y: 2.0 * y)
    with pytest.raises(ContractError, match="off the manifold"):
        man.retract(x, xi)
    monkeypatch.setattr(
        manifolds, "cholesky_qr_factor", lambda y: np.full_like(y, np.nan)
    )
    with pytest.raises(ContractError, match="non-finite"):
        man.retract(x, xi)


@st.composite
def _tangent_steps(draw):
    """A Stiefel point and a tangent step of 2-norm between 1e-8 and 1e3,
    either a projected Gaussian or a projected rank-one matrix, whose
    2-norm equals its Frobenius norm and so drifts the most."""
    d = draw(st.integers(1, 12))
    r = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    man = Stiefel(d, r)
    x = man.random_point(rng)
    if draw(st.booleans()):
        w = rng.standard_normal((d, r))
    else:
        w = np.outer(rng.standard_normal(d), rng.standard_normal(r))
    xi = man.project(x, w).data
    norm = np.linalg.norm(xi, 2)
    if norm < 1e-8:
        xi, norm = np.zeros((d, r)), 0.0
    else:
        xi = xi * (10.0 ** draw(st.floats(-8.0, 3.0)) / norm)
        norm = np.linalg.norm(xi, 2)
    return man, x, Tangent(xi, x), norm


@settings(max_examples=300, deadline=None)
@given(_tangent_steps())
def test_retraction_is_feasible_and_matches_householder(case):
    """Cholesky-QR of ``U + xi`` lands on the manifold within
    ``FEASIBILITY_TOL`` and matches the sign-fixed Householder factor to
    ``16 (1 + ||xi||_2^2) eps``, the rounding bound of a Gram
    ``I + xi^T xi``."""
    man, x, xi, norm = case
    y = man.retract(x, xi)
    assert man.feasibility_residual(y.data) <= FEASIBILITY_TOL
    reference = qr_orthonormal_factor(x.data + xi.data)
    bound = 16.0 * (1.0 + norm**2) * np.finfo(float).eps
    assert np.max(np.abs(y.data - reference)) <= bound


@pytest.mark.parametrize("kind", ["zero column", "repeated column", "rank one"])
def test_cholesky_factor_rejects_rank_deficient(kind):
    y = np.random.default_rng(11).standard_normal((6, 3))
    if kind == "zero column":
        y[:, 1] = 0.0
    elif kind == "repeated column":
        y[:, 2] = y[:, 0]
    else:
        y = np.outer(y[:, 0], [1.0, -2.0, 0.5])
    with pytest.raises(SingularRetractionError):
        cholesky_qr_factor(y)


def test_stiefel_retract_raises_on_a_rank_deficient_argument():
    """A step that is not tangent can cancel a column of ``U``."""
    man = Stiefel(5, 2)
    x = man.random_point(3)
    step = np.zeros((5, 2))
    step[:, 0] = -x.data[:, 0]
    with pytest.raises(SingularRetractionError):
        man.retract(x, Tangent(step, x))


def test_random_tangent_unit_norm():
    man = Stiefel(6, 4)
    x = man.random_point(3)
    xi = man.random_tangent(x, 7)
    assert abs(man.norm(xi) - 1.0) < 1e-12
    again = man.random_tangent(x, 7)
    assert np.array_equal(xi.data, again.data)


def test_square_stiefel_tangent_space_is_skew():
    man = Stiefel(4, 4)
    x = man.random_point(1)
    xi = man.random_tangent(x, 2)
    omega = x.data.T @ xi.data
    assert np.linalg.norm(omega + omega.T) < 1e-12
