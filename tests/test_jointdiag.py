"""Joint diagonalization on the Stiefel manifold: gradients, Hessians,
planted optima, serialization."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemarc.errors import ContractError
from riemarc.jointdiag import JDInstance, JointDiagObjective, _layout, generate_instance
from riemarc.manifolds import Point, Tangent, qr_orthonormal_factor, sym

EPS = np.finfo(float).eps


def _matrices(inst) -> np.ndarray:
    """The symmetric ``(n, d, d)`` stack that an instance's packed rows
    stand for."""
    i, j = np.triu_indices(inst.d)
    c = np.empty((inst.n, inst.d, inst.d))
    c[:, i, j] = inst.rows
    c[:, j, i] = inst.rows
    return c


def _fd_riemannian_gradient(obj, x, h=1e-6):
    """Directional finite differences against random tangent probes."""
    man = obj.manifold
    rng = np.random.default_rng(0)
    grad = obj.gradient(x)
    for _ in range(5):
        xi = man.random_tangent(x, rng)
        plus = obj.value(man.retract(x, Tangent(h * xi.data, x)))
        minus = obj.value(man.retract(x, Tangent(-h * xi.data, x)))
        fd = (plus - minus) / (2.0 * h)
        assert fd == pytest.approx(man.inner(grad, xi), rel=1e-5, abs=1e-7)


def _fd_hessian_apply(obj, x, xi, t=1e-6):
    """Central difference of the ambient projected-gradient field, then a
    final tangent projection. Matches the Hessian on the tangent space."""
    man = obj.manifold

    def field(u_mat):
        pt = Point(u_mat)
        eg = obj.euclidean_gradient(pt)
        return eg - u_mat @ sym(u_mat.T @ eg)

    plus = field(x.data + t * xi.data)
    minus = field(x.data - t * xi.data)
    return man.project(x, (plus - minus) / (2.0 * t))


def test_generate_instance_is_deterministic():
    a = generate_instance(12, 4, 3, seed=5)
    b = generate_instance(12, 4, 3, seed=5)
    assert np.array_equal(a.rows, b.rows)
    c = generate_instance(12, 4, 3, seed=6)
    assert not np.array_equal(a.rows, c.rows)


def test_single_matrix_single_column_value():
    inst = JDInstance.from_matrices(np.array([[[3.0]]]), r=1)
    obj = JointDiagObjective(inst)
    x = obj.manifold.point(np.array([[1.0]]))
    assert obj.value(x) == -9.0


def test_hand_computed_euclidean_gradient():
    # C = diag(1, 0), U = e1: U^T C U = 1, egrad = -4 C U ddiag = (-4, 0).
    inst = JDInstance.from_matrices(np.diag([1.0, 0.0])[None], r=1)
    obj = JointDiagObjective(inst)
    x = obj.manifold.point(np.array([[1.0], [0.0]]))
    eg = obj.euclidean_gradient(x)
    assert np.allclose(eg, [[-4.0], [0.0]], atol=1e-15)
    # e1 is a critical point of the restricted problem.
    assert obj.manifold.norm(obj.gradient(x)) <= 1e-15


def test_gradient_scaling_is_quadratic_in_data():
    inst = generate_instance(6, 4, 2, seed=7, noise=0.5)
    scaled = dataclasses.replace(inst, rows=3.0 * inst.rows)
    obj = JointDiagObjective(inst)
    obj3 = JointDiagObjective(scaled)
    x = obj.manifold.random_point(8)
    np.testing.assert_allclose(
        obj3.euclidean_gradient(x), 9.0 * obj.euclidean_gradient(x), rtol=1e-13
    )
    assert obj3.value(x) == pytest.approx(9.0 * obj.value(x), rel=1e-13)


# One instance per full-batch route: with d^2 >= n the kernel contracts
# the packed rows directly, with d^2 < n it reads the moment matrix.
_KERNELS = pytest.mark.parametrize("kernel", ["direct", "moment"])


@_KERNELS
def test_riemannian_gradient_matches_finite_differences(kernel):
    n = {"direct": 8, "moment": 60}[kernel]
    inst = generate_instance(n, 5, 3, seed=9, noise=0.3)
    obj = JointDiagObjective(inst)
    x = obj.manifold.random_point(10)
    _fd_riemannian_gradient(obj, x)


@_KERNELS
def test_hessian_matches_finite_differences(kernel):
    n = {"direct": 7, "moment": 50}[kernel]
    inst = generate_instance(n, 5, 3, seed=11, noise=0.4)
    obj = JointDiagObjective(inst)
    man = obj.manifold
    rng = np.random.default_rng(12)
    x = man.random_point(rng)
    for _ in range(5):
        xi = man.random_tangent(x, rng)
        got = obj.hess_vec(x, xi)
        want = _fd_hessian_apply(obj, x, xi)
        scale = max(1.0, float(np.abs(want.data).max()))
        assert np.abs(got.data - want.data).max() / scale < 1e-4


def test_hessian_is_symmetric_bilinear_form():
    inst = generate_instance(6, 4, 3, seed=13, noise=0.2)
    obj = JointDiagObjective(inst)
    man = obj.manifold
    rng = np.random.default_rng(14)
    x = man.random_point(rng)
    for _ in range(10):
        xi = man.random_tangent(x, rng)
        eta = man.random_tangent(x, rng)
        a = man.inner(obj.hess_vec(x, xi), eta)
        b = man.inner(obj.hess_vec(x, eta), xi)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_planted_family_is_exactly_solved_at_zero_noise():
    n, d, seed = 10, 5, 15
    rng = np.random.default_rng([seed, 3])
    q = qr_orthonormal_factor(rng.standard_normal((d, d)))
    diags = rng.uniform(1.0, 2.0, size=(n, d))
    inst = generate_instance(n, d, d, seed=seed, noise=0.0)

    obj = JointDiagObjective(inst)
    u_star = obj.manifold.point(q)
    # Objective equals minus the mean squared diagonal energy.
    assert obj.value(u_star) == pytest.approx(
        -float(np.mean(np.sum(diags**2, axis=1))), rel=1e-12
    )
    assert obj.manifold.norm(obj.gradient(u_star)) <= 1e-10
    # Every component gradient vanishes individually.
    for i in range(n):
        gi = obj.gradient(u_star, np.array([i]))
        assert obj.manifold.norm(gi) <= 1e-10

    # Sub-frames of the planted basis solve the restricted problem too.
    inst_r = generate_instance(n, d, 3, seed=seed, noise=0.0)
    obj_r = JointDiagObjective(inst_r)
    u_sub = obj_r.manifold.point(q[:, :3])
    assert obj_r.manifold.norm(obj_r.gradient(u_sub)) <= 1e-10


def test_signed_permutation_invariance():
    inst = generate_instance(9, 4, 4, seed=16, noise=0.7)
    obj = JointDiagObjective(inst)
    x = obj.manifold.random_point(17)
    perm = np.zeros((4, 4))
    for j, (p, s) in enumerate(zip((2, 0, 3, 1), (1.0, -1.0, -1.0, 1.0))):
        perm[p, j] = s
    y = obj.manifold.point(x.data @ perm)
    # Permuting the columns reorders the sum over them, so the two values
    # may differ in the last bits.
    assert math.isclose(obj.value(y), obj.value(x), rel_tol=4 * EPS, abs_tol=0.0)


def test_asymmetric_input_rejected_but_roundoff_accepted():
    c = np.stack([np.eye(3), np.diag([2.0, 1.0, 0.5])])
    bad = c.copy()
    bad[0, 0, 1] += 1e-6
    with pytest.raises(ContractError):
        JDInstance.from_matrices(bad, r=2)

    slightly = c.copy()
    slightly[1, 0, 2] += 1e-9
    inst = JDInstance.from_matrices(slightly, r=2)
    # The pair (0, 2), (2, 0) is averaged, so packed entry 2 of C_1 is
    # the mean of the two.
    assert inst.rows[1, 2] == (slightly[1, 0, 2] + slightly[1, 2, 0]) / 2.0
    assert np.array_equal(
        _matrices(inst), (slightly + np.transpose(slightly, (0, 2, 1))) / 2.0
    )
    assert not inst.rows.flags.writeable


def test_from_matrices_of_the_expanded_rows_returns_the_same_rows():
    inst = generate_instance(7, 5, 3, seed=31, noise=0.4)
    back = JDInstance.from_matrices(_matrices(inst), r=3)
    assert np.array_equal(back.rows, inst.rows)
    assert (back.d, back.n) == (inst.d, inst.n)


def save_instance(instance: JDInstance, path) -> None:
    """Serialize an instance to a compressed numpy archive."""
    np.savez_compressed(
        path,
        rows=instance.rows,
        r=np.array(instance.r),
    )


def load_instance(path) -> JDInstance:
    """Load an instance, revalidating its shape."""
    with np.load(path) as data:
        return JDInstance(rows=data["rows"], r=int(data["r"]))


def test_instance_roundtrip(tmp_path):
    inst = generate_instance(5, 4, 2, seed=18, noise=0.05)
    path = tmp_path / "family.npz"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.rows, inst.rows)
    assert back.d == inst.d
    assert back.r == inst.r


def test_component_subset_average():
    inst = generate_instance(6, 3, 2, seed=19, noise=0.2)
    obj = JointDiagObjective(inst)
    x = obj.manifold.random_point(20)
    idx = np.array([1, 4, 4])
    singles = [obj.value(x, np.array([i])) for i in (1, 4, 4)]
    assert obj.value(x, idx) == pytest.approx(np.mean(singles), rel=1e-13)
    g = obj.gradient(x, idx).data
    g_avg = np.mean([obj.gradient(x, np.array([i])).data for i in (1, 4, 4)], axis=0)
    np.testing.assert_allclose(g, g_avg, atol=1e-14)


def _term_by_term_reference(n, d, seed, noise):
    """The family built term by term from the same draws: ``Q``, the
    diagonals, then the packed noise ``Z``; one einsum for the noiseless
    part, and entry ``(p, q)`` of ``noise * sym(E)`` set to ``noise * z``
    on the diagonal and ``noise / sqrt(2) * z`` off it, in both halves."""
    rng = np.random.default_rng([seed, 3])
    q = qr_orthonormal_factor(rng.standard_normal((d, d)))
    diags = rng.uniform(1.0, 2.0, size=(n, d))
    z = rng.standard_normal((n, d * (d + 1) // 2))
    noise_part = np.empty((n, d, d))
    for k, (a, b) in enumerate(zip(*np.triu_indices(d))):
        scale = noise if a == b else noise / math.sqrt(2.0)
        noise_part[:, a, b] = noise_part[:, b, a] = scale * z[:, k]
    return np.einsum("pj,mj,qj->mpq", q, diags, q) + noise_part


@st.composite
def _instance_args(draw):
    d = draw(st.integers(1, 8))
    return (
        draw(st.integers(1, 60)),
        d,
        draw(st.integers(1, d)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.one_of(st.sampled_from([0.0, 1e-3]), st.floats(0.0, 5.0))),
    )


@settings(max_examples=80, deadline=None)
@given(_instance_args())
def test_generated_family_is_exactly_symmetric_and_matches_the_reference(args):
    """The packed rows are read-only, the same for the same seed, and
    stand for a family that differs from the term-by-term build by
    rounding only; every ``C_m`` they stand for is symmetric by
    construction. Each noiseless entry is a sum of ``d`` terms
    ``D_mj q_pj q_qj`` whose magnitudes add up to at most 2, so two
    product and summation orders differ by about ``2 d`` ulps of an
    entry of size 1, plus one ulp from adding the noise, and
    ``max|C| >= 1`` but for rare draws. Over 3000 random draws the gap
    stayed under half of this bound."""
    n, d, r, seed, noise = args
    inst = generate_instance(n, d, r, seed=seed, noise=noise)
    assert inst.rows.shape == (n, d * (d + 1) // 2)
    assert not inst.rows.flags.writeable
    again = generate_instance(n, d, r, seed=seed, noise=noise)
    assert np.array_equal(inst.rows, again.rows)
    want = _term_by_term_reference(n, d, seed, noise)
    ulp = np.spacing(np.abs(want).max())
    assert np.abs(_matrices(inst) - want).max() <= (2 * d + 1) * ulp


def test_noise_has_the_variances_of_noise_times_sym_e():
    """``noise * (E + E^T) / 2`` has variance ``noise^2`` on the diagonal
    and ``noise^2 / 2`` off it. The same seed at ``noise = 0`` draws the
    same ``Q`` and diagonals, so the difference is the noise part; each
    sample variance of ``N`` normals has standard error
    ``var * sqrt(2 / (N - 1))``, and each must lie within 5 of them."""
    n, d, noise = 20000, 4, 0.3
    part = generate_instance(n, d, 2, seed=32, noise=noise).rows
    part = part - generate_instance(n, d, 2, seed=32, noise=0.0).rows
    i, j = np.triu_indices(d)
    for on_diagonal, var in [(True, noise**2), (False, noise**2 / 2.0)]:
        sample = part[:, (i == j) == on_diagonal].ravel()
        stderr = var * math.sqrt(2.0 / (sample.size - 1))
        assert abs(np.var(sample) - var) <= 5.0 * stderr
        assert abs(np.mean(sample)) <= 5.0 * math.sqrt(var / sample.size)


@pytest.mark.parametrize("given_as", ["exact", "roundoff", "read_only_view"])
def test_instance_never_freezes_or_shares_the_callers_array(given_as):
    """An exactly symmetric array, one symmetric up to roundoff, and a
    read-only view of a writable array: the instance holds its own
    read-only rows, and the caller's array stays writable and unchanged.
    The same holds for packed rows handed to ``JDInstance`` itself."""
    c = _matrices(generate_instance(5, 3, 2, seed=30, noise=0.3))
    if given_as == "roundoff":
        c[1, 0, 2] += 1e-12
    before = c.copy()
    given = c
    if given_as == "read_only_view":
        given = c.view()
        given.setflags(write=False)
    inst = JDInstance.from_matrices(given, r=2)
    assert c.flags.writeable
    assert np.array_equal(c, before)
    assert not inst.rows.flags.writeable
    assert not np.shares_memory(inst.rows, c)
    c[0, 0, 0] += 1.0
    assert inst.rows[0, 0] == before[0, 0, 0]

    rows = np.array(inst.rows)
    if given_as == "read_only_view":
        rows = rows.view()
        rows.setflags(write=False)
    direct = JDInstance(rows=rows, r=2)
    assert not np.shares_memory(direct.rows, rows)
    assert not direct.rows.flags.writeable


def test_generation_validation():
    with pytest.raises(ContractError):
        generate_instance(0, 3, 2, seed=0)
    # Shapes are checked before anything is drawn.
    for d, r in [(0, 1), (5, 0), (3, 4)]:
        with pytest.raises(ContractError, match="1 <= r <= d"):
            generate_instance(5, d, r, seed=1)
    with pytest.raises(ContractError):
        generate_instance(3, 3, 2, seed=0, noise=-0.1)
    with pytest.raises(ContractError):
        JDInstance.from_matrices(np.zeros((2, 3, 3)), r=4)
    with pytest.raises(ContractError):
        JDInstance.from_matrices(np.zeros((2, 3, 2)), r=1)
    # A width that is no triangular number, or rows that are not a
    # matrix, fix no d.
    for shape in [(2, 5), (2, 2), (6,), (1, 2, 3)]:
        with pytest.raises(ContractError, match=r"expected \(n, d\(d\+1\)/2\)"):
            JDInstance(rows=np.zeros(shape), r=1)
    # A triangular width fixes d, and r is checked against it.
    assert JDInstance(rows=np.zeros((2, 6)), r=3).d == 3
    with pytest.raises(ContractError, match="1 <= r <= d"):
        JDInstance(rows=np.zeros((2, 6)), r=4)


@pytest.mark.parametrize("d", range(1, 13))
def test_layout_folds_vec_products_onto_packed_entries(d):
    """``fold`` carries ``vec(X) . vec(C)`` onto the packed entries of a
    symmetric ``C``, ``expand`` gives ``(p, q)`` and ``(q, p)`` one packed
    position, and the cached arrays are read-only."""
    i, j, expand, fold = _layout(d)
    assert np.array_equal(np.stack([i, j]), np.triu_indices(d))
    rng = np.random.default_rng(d)
    x = rng.standard_normal((d, d))
    c = sym(rng.standard_normal((d, d)))
    got = (x.reshape(-1) @ fold) @ c[np.triu_indices(d)]
    want = x.reshape(-1) @ c.reshape(-1)
    assert abs(got - want) <= 8 * EPS * (np.abs(x) * np.abs(c)).sum()
    square = expand.reshape(d, d)
    assert np.array_equal(square, square.T)
    assert np.array_equal(square[i, j], np.arange(i.size))
    for a in (i, j, expand, fold):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[-1]


def test_objectives_of_one_d_share_one_layout():
    a = JointDiagObjective(generate_instance(6, 4, 2, seed=1))
    b = JointDiagObjective(generate_instance(30, 4, 4, seed=2))
    c = JointDiagObjective(generate_instance(6, 5, 2, seed=1))
    assert a._expand is b._expand is _layout(4)[2]
    assert a._fold is b._fold is _layout(4)[3]
    assert c._fold is not a._fold and c._fold.shape == (25, 15)


@pytest.mark.parametrize("n", [6, 30])
def test_a_dropped_objective_is_freed_by_refcount(n):
    """Neither the memo nor the moment matrix refers back to the
    objective, so dropping it frees it, its memo and its arrays at once,
    without the cycle collector."""
    obj = JointDiagObjective(generate_instance(n, 4, 2, seed=3, noise=0.2))
    x = obj.manifold.random_point(4)
    obj.hess_vec(x, obj.manifold.random_tangent(x, 5))
    obj.gradient(x, np.array([0, 2]))
    ref = weakref.ref(obj)
    gc.disable()
    try:
        del obj
        assert ref() is None
    finally:
        gc.enable()


def test_empty_family_rejected():
    with pytest.raises(ContractError, match="at least one matrix"):
        JDInstance.from_matrices(np.zeros((0, 3, 3)), r=2)
    with pytest.raises(ContractError, match="at least one matrix"):
        JDInstance(rows=np.zeros((0, 6)), r=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_noise_and_entries_rejected(bad):
    with pytest.raises(ContractError, match="noise"):
        generate_instance(5, 3, 2, seed=0, noise=bad)
    # One entry on the diagonal, one off it: NaN and infinite entries
    # defeat a tolerance comparison, so they are rejected first.
    for at in [(1, 2, 2), (0, 0, 1)]:
        c = np.stack([np.eye(3)] * 2)
        c[at] = c[at[0], at[2], at[1]] = bad
        with pytest.raises(ContractError, match="non-finite"):
            JDInstance.from_matrices(c, r=2)


# -- the moment-matrix kernel ----------------------------------------------


def _packed_width(d: int) -> int:
    return d * (d + 1) // 2


@st.composite
def _moment_instances(draw):
    d = draw(st.integers(2, 6))
    r = draw(st.integers(1, d))
    n = draw(st.integers(_packed_width(d) + 1, d * d + 60))
    noise = draw(st.sampled_from([0.0, 1e-3, 0.3, 2.0]))
    return generate_instance(n, d, r, seed=draw(st.integers(0, 2**16)), noise=noise)


@settings(max_examples=60, deadline=None)
@given(_moment_instances(), st.integers(0, 2**16))
def test_moment_kernel_matches_the_direct_kernel(inst, seed):
    """With t < n the full batch goes through the moment matrix, and the
    index set ``arange(n)`` through the packed rows. They agree to 1e-11
    of the largest Euclidean entry; the projected results can be orders
    of magnitude smaller than the ambient ones they come from, so the
    tolerance scales with the latter."""
    obj = JointDiagObjective(inst)
    x = obj.manifold.random_point(seed)
    xi = obj.manifold.random_tangent(x, seed + 1)
    every = np.arange(obj.n)
    assert obj.value(x) == pytest.approx(obj.value(x, every), rel=1e-11, abs=0.0)
    eg = obj.euclidean_gradient(x, every)
    deg = obj._at(x, every).egrad_derivative(xi)
    scale = max(np.abs(eg).max(), np.abs(deg).max())
    pairs = [
        (obj.euclidean_gradient(x), eg),
        (obj._at(x, None).egrad_derivative(xi), deg),
        (obj.gradient(x).data, obj.gradient(x, every).data),
        (obj.hess_vec(x, xi).data, obj.hess_vec(x, xi, every).data),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-11 * scale


def _dense_reference(c, u, v):
    """Value, Euclidean gradient, its derivative along ``v`` and the
    Riemannian HVP, averaged over the stack ``c``, from the per-component
    products ``C_i U`` and ``C_i V`` and the four-term HVP."""
    n = len(c)
    cu = c @ u
    diag = np.einsum("pj,mpj->mj", u, cu)
    value = float(-np.mean(np.sum(diag**2, axis=1)))
    eg = -4.0 * np.einsum("mpj,mj->pj", cu, diag) / n
    # ddiag(U^T C V) = ddiag(V^T C U) for symmetric C.
    diag_vu = np.einsum("pj,mpj->mj", v, cu)
    deg = (
        -4.0
        * (np.einsum("mpj,mj->pj", c @ v, diag) + 2.0 * np.einsum("mpj,mj->pj", cu, diag_vu))
        / n
    )
    w = deg - v @ sym(u.T @ eg) - u @ sym(v.T @ eg) - u @ sym(u.T @ deg)
    return value, eg, deg, w - u @ sym(u.T @ w)


@st.composite
def _kernel_cases(draw):
    """An instance, a point, a tangent and an index set: the full batch on
    either side of the moment rule, or a sampled set with a repeat.
    Stiefel(1, 1) has no tangent vectors, so ``d >= 2``."""
    d = draw(st.integers(2, 6))
    r = draw(st.integers(1, d))
    route = draw(st.sampled_from(["rows", "moments", "sampled"]))
    t = _packed_width(d)
    if route == "rows":
        n = draw(st.integers(1, t))
    else:
        n = draw(st.integers(t + 1, d * d + 40))
    noise = draw(st.sampled_from([0.0, 1e-3, 0.3, 2.0]))
    inst = generate_instance(n, d, r, seed=draw(st.integers(0, 2**16)), noise=noise)
    idx = None
    if route == "sampled":
        drawn = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        idx = np.array(drawn + drawn[:1])
    return inst, draw(st.integers(0, 2**16)), idx


@settings(max_examples=80, deadline=None)
@given(_kernel_cases())
def test_kernel_matches_the_dense_per_component_reference(case):
    """The packed kernel and the moment route agree with the formulas
    over ``C[idx]`` to 1e-11 of the largest Euclidean entry, and the
    two-term projected HVP with the four-term one."""
    inst, seed, idx = case
    obj = JointDiagObjective(inst)
    x = obj.manifold.random_point(seed)
    xi = obj.manifold.random_tangent(x, seed + 1)
    c = _matrices(inst) if idx is None else _matrices(inst)[idx]
    value, eg, deg, hv = _dense_reference(c, x.data, xi.data)
    assert obj.value(x, idx) == pytest.approx(value, rel=1e-11, abs=0.0)
    scale = max(np.abs(eg).max(), np.abs(deg).max())
    pairs = [
        (obj.euclidean_gradient(x, idx), eg),
        (obj._at(x, idx).egrad_derivative(xi), deg),
        (obj.gradient(x, idx).data, obj.manifold.project(x, eg).data),
        (obj.hess_vec(x, xi, idx).data, hv),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-11 * scale


class _ShapeOnly:
    """Stands in for a family's array with nothing but its shape."""

    def __init__(self, shape):
        self.shape = shape


def test_constructing_the_objective_does_not_touch_the_family():
    """Construction reads nothing of the packed rows, so it does no work
    that grows with ``n``: an objective over rows that are a bare shape
    constructs, and only its first oracle call fails on them."""
    inst = generate_instance(30, 4, 2, seed=40, noise=0.3)
    object.__setattr__(inst, "rows", _ShapeOnly(inst.rows.shape))
    obj = JointDiagObjective(inst)
    x = obj.manifold.random_point(41)
    with pytest.raises(AttributeError):
        obj.value(x)


@pytest.mark.parametrize("n, d", [(6, 4), (15, 5)])
def test_direct_kernel_serves_the_full_batch_when_t_reaches_n(n, d):
    """With ``t = d(d+1)/2 >= n`` the full batch contracts the packed rows
    exactly as the all-rows sample does, and forms no moment matrix."""
    obj = JointDiagObjective(generate_instance(n, d, 3, seed=26, noise=0.3))
    x = obj.manifold.random_point(27)
    xi = obj.manifold.random_tangent(x, 28)
    every = np.arange(n)
    assert obj.value(x) == obj.value(x, every)
    assert np.array_equal(obj.gradient(x).data, obj.gradient(x, every).data)
    assert np.array_equal(obj.hess_vec(x, xi).data, obj.hess_vec(x, xi, every).data)
    assert obj._moments is None


def test_moment_matrix_serves_the_full_batch_when_t_is_below_n():
    """At ``t < n <= d^2`` (here t = 15, n = 20, d^2 = 25) the full batch
    reads the packed ``t x t`` moment matrix, formed on the first
    full-batch call and not at construction or by a sampled call, and
    matches the all-rows sample to 1e-12 relative."""
    n, d = 20, 5
    obj = JointDiagObjective(generate_instance(n, d, 3, seed=26, noise=0.3))
    assert obj._moments is None
    x = obj.manifold.random_point(27)
    xi = obj.manifold.random_tangent(x, 28)
    every = np.arange(n)

    def oracles(idx):
        return obj.value(x, idx), obj.gradient(x, idx).data, obj.hess_vec(x, xi, idx).data

    want = oracles(every)
    assert obj._moments is None
    got = oracles(None)
    t = _packed_width(d)
    assert obj._moments.shape == (t, t)
    assert not obj._moments.flags.writeable
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


# -- the per-point memo ------------------------------------------------------

_MEMO_INSTANCE = generate_instance(40, 5, 3, seed=21, noise=0.3)

_MEMO_CALLS = st.tuples(
    st.sampled_from(["value", "gradient", "hess_vec", "mutate"]),
    st.integers(0, 1),
    st.sampled_from(["full", "fixed", "mutable"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_MEMO_CALLS, min_size=1, max_size=30))
def test_memo_matches_a_fresh_objective_bit_for_bit(calls):
    """Any interleaving of value, gradient and HVP calls over two points,
    the full set and two sampled sets, one of them overwritten in place
    between calls, returns exactly what a memo-free objective returns."""
    obj = JointDiagObjective(_MEMO_INSTANCE)
    man = obj.manifold
    points = [man.random_point(22), man.random_point(23)]
    sets = {"full": None, "fixed": np.array([3, 3, 17, 0, 39]), "mutable": np.arange(5)}
    for method, which_point, which_set, seed in calls:
        if method == "mutate":
            sets["mutable"][:] = np.random.default_rng(seed).integers(0, 40, size=5)
            continue
        x = points[which_point]
        idx = sets[which_set]
        args = (x, man.random_tangent(x, seed)) if method == "hess_vec" else (x,)
        got = getattr(obj, method)(*args, idx)
        fresh = JointDiagObjective(_MEMO_INSTANCE)
        want = getattr(fresh, method)(*args, None if idx is None else idx.copy())
        if method != "value":
            got, want = got.data, want.data
        assert np.array_equal(got, want)


def test_memo_sees_an_index_set_overwritten_in_place():
    obj = JointDiagObjective(_MEMO_INSTANCE)
    x = obj.manifold.random_point(24)
    idx = np.array([1, 2, 3])
    before = obj.gradient(x, idx).data
    idx[:] = [4, 5, 6]
    after = obj.gradient(x, idx).data
    assert not np.array_equal(before, after)
    fresh = JointDiagObjective(_MEMO_INSTANCE)
    assert np.array_equal(after, fresh.gradient(x, np.array([4, 5, 6])).data)


def test_memo_hands_out_read_only_arrays():
    obj = JointDiagObjective(_MEMO_INSTANCE)
    x = obj.manifold.random_point(25)
    eg = obj.euclidean_gradient(x, np.array([0, 7]))
    with pytest.raises(ValueError):
        eg += 1.0
    # The failed write left the memo intact.
    fresh = JointDiagObjective(_MEMO_INSTANCE)
    assert np.array_equal(eg, fresh.euclidean_gradient(x, np.array([0, 7])))
