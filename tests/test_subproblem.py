"""Cubic-model sub-solver: closed-form steps, Lanczos probe, refinement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemarc import subproblem
from riemarc.errors import ContractError
from riemarc.jointdiag import JointDiagObjective, generate_instance
from riemarc.manifolds import Stiefel, Tangent
from riemarc.subproblem import CubicModel, min_eig_estimate, solve_subproblem
from riemarc.trust_region import tr_subproblem

from euclidean import Euclidean, QuadraticSum
from model_points import cauchy_point, eigen_point, model_value


def _euclidean_model(g_vec, h_mat, sigma):
    man = Euclidean(len(g_vec))
    x = man.point(np.zeros((len(g_vec), 1)))
    g = Tangent(np.asarray(g_vec, float).reshape(-1, 1), x)
    h = np.asarray(h_mat, float)

    def hvp(eta):
        return Tangent(h @ eta.data, x)

    return CubicModel(g, hvp, sigma, x, man), man, x


def _probe(model, seed):
    """The Lanczos probe a driver passes to ``solve_subproblem``."""
    return min_eig_estimate(model.manifold, model.base, model.hvp, seed=seed)


def _grid_min_1d(model, direction, lo=0.0, hi=3.0, step=1e-5):
    man = model.manifold
    d = direction.data
    gd = man.inner(model.gradient, direction)
    hd = man.inner(model.hvp(direction), direction)
    nd = man.norm(direction)
    alphas = np.arange(lo, hi + step, step)
    vals = alphas * gd + 0.5 * alphas**2 * hd + (model.sigma / 3.0) * (alphas * nd) ** 3
    return float(vals.min())


def test_model_requires_positive_sigma():
    model, _, _ = _euclidean_model([1.0, 0.0], np.eye(2), 1.0)
    with pytest.raises(ContractError):
        CubicModel(model.gradient, model.hvp, 0.0, model.base, model.manifold)
    with pytest.raises(ContractError):
        CubicModel(model.gradient, model.hvp, math.inf, model.base, model.manifold)


def test_cauchy_point_zero_quadratic_term():
    # <G, HG> = 0 with unit gradient and sigma = 1 gives alpha = 1 and
    # model value -2/3 exactly.
    model, man, _ = _euclidean_model([1.0, 0.0], np.diag([0.0, 1.0]), 1.0)
    eta, m_val = cauchy_point(model)
    assert man.norm(eta) == pytest.approx(1.0, abs=1e-15)
    assert m_val == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert eta.data[0, 0] == pytest.approx(-1.0, abs=1e-15)


def test_cauchy_point_identity_hessian():
    # alpha solves a^2 + a - 1 = 0, the inverse golden ratio.
    model, man, _ = _euclidean_model([1.0, 0.0], np.eye(2), 1.0)
    eta, m_val = cauchy_point(model)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert man.norm(eta) == pytest.approx(golden, abs=1e-14)
    expected = -golden + 0.5 * golden**2 + golden**3 / 3.0
    assert m_val == pytest.approx(expected, abs=1e-14)


def test_cauchy_point_is_line_minimizer():
    rng = np.random.default_rng(0)
    for trial in range(10):
        d = int(rng.integers(2, 7))
        g = rng.standard_normal(d)
        h = rng.standard_normal((d, d))
        h = (h + h.T) / 2.0
        sigma = float(rng.uniform(0.05, 5.0))
        model, man, x = _euclidean_model(g, h, sigma)
        eta, m_val = cauchy_point(model)
        direction = Tangent(-g.reshape(-1, 1) / np.linalg.norm(g), x)
        grid = _grid_min_1d(model, direction, hi=max(3.0, 2.0 * man.norm(eta)))
        assert m_val <= grid + 1e-9
        assert abs(model_value(model, eta) - m_val) < 1e-10


def test_cauchy_point_rejects_zero_gradient():
    model, _, _ = _euclidean_model([0.0, 0.0], np.eye(2), 1.0)
    with pytest.raises(ContractError, match="Cauchy point undefined for a zero gradient"):
        cauchy_point(model)


def test_eigen_point_orthogonal_gradient():
    # <G, v> = 0, curvature -1, sigma 1: beta = 1 and m = -1/6.
    model, man, x = _euclidean_model([1.0, 0.0], np.diag([1.0, -1.0]), 1.0)
    v = Tangent(np.array([[0.0], [1.0]]), x)
    eta, m_val = eigen_point(model, v, -1.0)
    assert man.norm(eta) == pytest.approx(1.0, abs=1e-15)
    assert m_val == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_eigen_point_descending_sign_and_grid():
    # <G, v> = 0.5 flips the step against the gradient; the minimizer of
    # -b/2 - b^2/2 + b^3/3 over b >= 0 is (1 + sqrt(3)) / 2.
    model, man, x = _euclidean_model([0.5, 0.0], np.diag([-1.0, 1.0]), 1.0)
    v = Tangent(np.array([[1.0], [0.0]]), x)
    eta, m_val = eigen_point(model, v, -1.0)
    assert eta.data[0, 0] < 0.0
    beta = (1.0 + math.sqrt(3.0)) / 2.0
    assert man.norm(eta) == pytest.approx(beta, abs=1e-14)
    betas = np.arange(0.0, 3.0, 1e-5)
    grid = np.min(-0.5 * betas - 0.5 * betas**2 + betas**3 / 3.0)
    assert m_val <= grid + 1e-9


def test_eigen_point_step_norm_lower_bound():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        g = rng.standard_normal(d)
        h = rng.standard_normal((d, d))
        h = (h + h.T) / 2.0 - 2.0 * np.eye(d)
        sigma = float(rng.uniform(0.1, 3.0))
        model, man, x = _euclidean_model(g, h, sigma)
        evals, evecs = np.linalg.eigh(h)
        assert evals[0] < 0.0
        v = Tangent(evecs[:, :1], x)
        eta, m_val = eigen_point(model, v, float(evals[0]))
        assert man.norm(eta) >= abs(evals[0]) / sigma - 1e-12
        assert m_val < 0.0


def test_eigen_point_rejects_nonnegative_curvature():
    model, man, x = _euclidean_model([1.0, 0.0], np.eye(2), 1.0)
    v = Tangent(np.array([[0.0], [1.0]]), x)
    with pytest.raises(ContractError):
        eigen_point(model, v, 0.0)


def test_eigen_point_vanishes_as_sigma_grows():
    model, man, x = _euclidean_model([0.0, 0.0], np.diag([-1.0, 1.0]), 1e8)
    v = Tangent(np.array([[1.0], [0.0]]), x)
    eta, _ = eigen_point(model, v, -1.0)
    assert man.norm(eta) <= 1e-7


def test_min_eig_frozen_diagonal():
    man = Euclidean(2)
    x = man.point(np.zeros((2, 1)))
    h = np.diag([2.0, -1.0])

    def hvp(eta):
        return Tangent(h @ eta.data, x)

    got = min_eig_estimate(man, x, hvp, seed=0)
    assert got.converged
    assert got.value == pytest.approx(-1.0, abs=1e-10)
    assert abs(abs(got.vector.data[1, 0]) - 1.0) < 1e-8


def _tangent_basis(man, x):
    """Orthonormal basis of the tangent space at ``x`` as columns over
    the flattened ambient space, from the projection's unit eigenvectors."""
    m = x.data.size
    proj = np.column_stack(
        [man.project(x, e.reshape(x.shape)).data.ravel() for e in np.eye(m)]
    )
    weights, vecs = np.linalg.eigh((proj + proj.T) / 2.0)
    return vecs[:, weights > 0.5]


def test_min_eig_rayleigh_bound_on_seeded_dense_operators():
    rng = np.random.default_rng(2)
    for _ in range(15):
        d = int(rng.integers(2, 12))
        h = rng.standard_normal((d, d))
        h = (h + h.T) / 2.0
        man = Euclidean(d)
        x = man.point(np.zeros((d, 1)))

        def hvp(eta, h=h, man=man, x=x):
            return Tangent(h @ eta.data, x)

        got = min_eig_estimate(man, x, hvp, seed=rng)
        dense = float(np.linalg.eigvalsh(h)[0])
        # Rayleigh quotients never undershoot the true minimum.
        assert got.value >= dense - 1e-12
        assert got.value <= dense + 1e-6 * max(1.0, got.op_norm_est)
        assert got.iterations <= d


@settings(max_examples=80, deadline=None)
@given(
    shape=st.integers(2, 11).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))),
    rank=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_eig_rayleigh_upper_bound_and_accuracy(shape, rank, seed):
    """On Euclidean space (``r = 0``) and on Stiefel(d, r), ``r < d``
    included, for a dense symmetric operator (``rank = 0``) or a low-rank
    one whose Krylov space becomes invariant within ``rank + 1`` steps,
    the estimate is the Rayleigh quotient of its unit vector: never below
    the smallest eigenvalue on the tangent space, and within the Lanczos
    tolerance of it."""
    d, r = shape
    man = Euclidean(d) if r == 0 else Stiefel(d, r)
    rng = np.random.default_rng(seed)
    x = man.random_point(rng)
    m = x.data.size
    if rank == 0:
        a = rng.standard_normal((m, m))
        a = (a + a.T) / 2.0
    else:
        u = rng.standard_normal((m, rank))
        a = (u * rng.uniform(-3.0, 3.0, rank)) @ u.T

    def hvp(eta):
        return man.project(x, (a @ eta.data.ravel()).reshape(x.shape))

    q = _tangent_basis(man, x)
    assert q.shape[1] == man.intrinsic_dim
    dense = float(np.linalg.eigvalsh(a if r == 0 else q.T @ a @ q)[0])

    got = min_eig_estimate(man, x, hvp, seed=rng)
    scale = max(1.0, got.op_norm_est)
    assert np.linalg.norm(got.vector.data) == pytest.approx(1.0, abs=1e-12)
    assert got.value == pytest.approx(man.inner(hvp(got.vector), got.vector), abs=1e-12 * scale)
    # Rayleigh quotients never undershoot the true minimum. A low-rank
    # operator's norm reaches about 30 here, and on Stiefel the minimum
    # is taken over a computed tangent basis, so there the roundoff
    # allowance scales with the operator norm.
    undershoot = 1e-12 if r == 0 and rank == 0 else 1e-12 * scale
    assert got.value >= dense - undershoot
    assert got.value <= dense + 1e-6 * scale
    assert got.iterations <= man.intrinsic_dim
    if rank:
        assert got.iterations <= rank + 1


def test_sub_solvers_wrap_only_the_vectors_they_pass_or_return(monkeypatch):
    """Beyond the random start, a truncated-CG step and a Lanczos probe
    build one ``Tangent`` per ``hvp`` argument plus the vectors they
    return; every intermediate vector stays a plain array. The probe's
    Ritz vector is the argument of its last call, for the Rayleigh
    quotient."""
    man = Stiefel(6, 3)
    rng = np.random.default_rng(4)
    x = man.random_point(rng)
    b = rng.standard_normal((18, 18))
    a = b @ b.T / 18.0 + np.eye(18)
    g = man.project(x, rng.standard_normal((6, 3)))
    args, products, built = [], [], []

    def hvp(eta):
        args.append(eta)
        products.append(man.project(x, (a @ eta.data.ravel()).reshape(6, 3)))
        return products[-1]

    init = Tangent.__post_init__

    def counting_init(self):
        init(self)
        built.append(self)

    monkeypatch.setattr(Tangent, "__post_init__", counting_init)

    def solver_built():
        return [id(t) for t in built if all(t is not p for p in products)]

    step = tr_subproblem(g, hvp, 1e3, man)
    assert step.iterations == len(args) > 1 and not step.boundary
    assert solver_built() == [*map(id, args), id(step.step)]

    man.random_tangent(x, 5)
    start = len(built)
    args.clear()
    probe = min_eig_estimate(man, x, hvp, seed=5)
    assert probe.iterations + 1 == len(args)
    assert solver_built()[start:] == [*map(id, args)]
    assert args[-1] is probe.vector


def test_min_eig_deterministic_for_seed():
    man = Euclidean(6)
    x = man.point(np.zeros((6, 1)))
    h = np.diag(np.linspace(-2.0, 3.0, 6))

    def hvp(eta):
        return Tangent(h @ eta.data, x)

    a = min_eig_estimate(man, x, hvp, seed=9)
    b = min_eig_estimate(man, x, hvp, seed=9)
    assert a.value == b.value
    assert np.array_equal(a.vector.data, b.vector.data)


def test_min_eig_needs_a_tangent_space_of_positive_dimension():
    man = Stiefel(1, 1)
    x = man.point(np.ones((1, 1)))
    with pytest.raises(ContractError, match="tangent space must have dimension >= 1"):
        min_eig_estimate(man, x, lambda eta: eta)


def test_min_eig_on_stiefel_tangent_space():
    """Against a dense eigensolve of the Hessian restricted to an
    orthonormal basis of the tangent space."""
    inst = generate_instance(6, 4, 2, seed=3, noise=0.5)
    obj = JointDiagObjective(inst)
    man = obj.manifold
    x = man.random_point(4)

    # Orthonormal tangent basis by projecting coordinate matrices.
    basis = []
    for p in range(4):
        for q in range(2):
            w = np.zeros((4, 2))
            w[p, q] = 1.0
            t = man.project(x, w).data
            for b in basis:
                t = t - np.tensordot(b, t) * b
            nrm = np.linalg.norm(t)
            if nrm > 1e-8:
                basis.append(t / nrm)
    assert len(basis) == man.intrinsic_dim

    def hvp(eta):
        return obj.hess_vec(x, eta)

    dense = np.zeros((len(basis), len(basis)))
    for j, bj in enumerate(basis):
        hb = hvp(Tangent(bj, x)).data
        for i, bi in enumerate(basis):
            dense[i, j] = np.tensordot(bi, hb)
    lam_true = float(np.linalg.eigvalsh((dense + dense.T) / 2.0)[0])

    got = min_eig_estimate(man, x, hvp, seed=5)
    assert got.value >= lam_true - 1e-10
    assert got.value <= lam_true + 1e-5 * max(1.0, got.op_norm_est)


def test_solve_subproblem_a4_invariant():
    rng = np.random.default_rng(6)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        g = rng.standard_normal(d) * rng.uniform(0.01, 2.0)
        h = rng.standard_normal((d, d))
        h = (h + h.T) / 2.0
        sigma = float(rng.uniform(0.05, 4.0))
        model, man, x = _euclidean_model(g, h, sigma)
        res = solve_subproblem(model, probe=_probe(model, int(rng.integers(1_000_000))))
        assert res.m_val <= res.cauchy_m + 1e-15
        if res.eigen_m is not None:
            assert res.m_val <= res.eigen_m + 1e-15
        assert res.m_val < 0.0
        # The reported value describes the returned step.
        direct = model_value(model, res.step)
        assert res.m_val == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_solve_subproblem_grid_cross_check():
    """On a 2-D instance the chosen value must not be worse than a dense
    grid search by more than the grid resolution."""
    model, man, x = _euclidean_model([1.0, 0.0], np.diag([1.0, -2.0]), 1.0)
    res = solve_subproblem(model, probe=_probe(model, 0), refine_steps=20)

    xs = np.arange(-3.0, 3.0, 1e-3)
    ys = np.arange(-3.0, 3.0, 1e-3)
    best = np.inf
    for x_chunk in np.array_split(xs, 12):
        gx, gy = np.meshgrid(x_chunk, ys, indexing="ij")
        n3 = (gx**2 + gy**2) ** 1.5
        vals = gx + 0.5 * (gx**2 - 2.0 * gy**2) + n3 / 3.0
        best = min(best, float(vals.min()))
    assert res.m_val <= 0.95 * best  # within 5 percent of the grid minimum
    assert res.m_val >= best - 1e-2  # and never meaningfully below it
    assert res.eigen_m is not None and res.eigen_m < res.cauchy_m


def test_small_gradient_strong_curvature_prefers_eigen():
    model, man, x = _euclidean_model([1e-2, 0.0], np.diag([1.0, -2.0]), 1.0)
    res = solve_subproblem(model, probe=_probe(model, 1))
    assert res.eigen_m is not None
    assert res.eigen_m < res.cauchy_m
    assert res.m_val == res.eigen_m
    # Step lies along the curvature direction.
    assert abs(res.step.data[0, 0]) < 1e-6 * abs(res.step.data[1, 0])


def test_positive_definite_path_has_no_eigen_value():
    model, man, x = _euclidean_model([1.0, 0.5], np.eye(2) * 2.0, 0.5)
    probe = _probe(model, 2)
    res = solve_subproblem(model, probe=probe)
    assert res.eigen_m is None
    assert probe.value > 0.0
    assert res.m_val == res.cauchy_m


def test_probe_disabled_skips_eigen():
    model, man, x = _euclidean_model([1.0, 0.0], np.diag([1.0, -2.0]), 1.0)
    res = solve_subproblem(model)
    assert res.eigen_m is None
    assert res.m_val == res.cauchy_m


def test_zero_gradient_negative_curvature_takes_eigen_step():
    model, man, x = _euclidean_model([0.0, 0.0], np.diag([1.0, -1.0]), 1.0)
    res = solve_subproblem(model, probe=_probe(model, 3))
    assert res.cauchy_m == 0.0
    assert res.eigen_m is not None and res.m_val == res.eigen_m
    assert res.m_val == pytest.approx(-1.0 / 6.0, abs=1e-12)


def test_a_tie_between_the_candidates_goes_to_the_cauchy_point(monkeypatch):
    """With the Cauchy and eigen candidates at one model value, the
    sub-solver returns the Cauchy step."""
    model, man, x = _euclidean_model([1.0, 0.0], np.diag([1.0, -2.0]), 1.0)
    cauchy = Tangent(np.array([[-1.0], [0.0]]), x)
    eigen = Tangent(np.array([[0.0], [1.0]]), x)
    monkeypatch.setattr(
        subproblem, "_cauchy_candidate", lambda model, gnorm: (cauchy, -0.5)
    )
    monkeypatch.setattr(
        subproblem, "_eigen_candidate", lambda model, v, curvature: (eigen, -0.5)
    )
    res = solve_subproblem(model, probe=_probe(model, 1))
    assert res.step is cauchy
    assert (res.m_val, res.cauchy_m, res.eigen_m) == (-0.5, -0.5, -0.5)


def test_zero_gradient_psd_raises():
    model, man, x = _euclidean_model([0.0, 0.0], np.eye(2), 1.0)
    with pytest.raises(
        ContractError,
        match="zero gradient without detected negative curvature, nothing to solve",
    ):
        solve_subproblem(model, probe=_probe(model, 4))


def test_scale_covariance():
    """(cG, cH, c sigma) leaves the step fixed and scales m by c."""
    rng = np.random.default_rng(7)
    g = rng.standard_normal(4)
    h = rng.standard_normal((4, 4))
    h = (h + h.T) / 2.0
    for c in (0.1, 7.0):
        m1, man, x = _euclidean_model(g, h, 1.3)
        m2, _, _ = _euclidean_model(c * g, c * h, c * 1.3)
        r1 = solve_subproblem(m1, probe=_probe(m1, 8))
        r2 = solve_subproblem(m2, probe=_probe(m2, 8))
        assert np.allclose(r1.step.data, r2.step.data, rtol=1e-10, atol=1e-12)
        assert r2.m_val == pytest.approx(c * r1.m_val, rel=1e-10)


def test_refinement_never_worse_and_monotone():
    rng = np.random.default_rng(9)
    improved = 0
    for _ in range(20):
        d = int(rng.integers(2, 8))
        g = rng.standard_normal(d)
        h = rng.standard_normal((d, d))
        h = (h + h.T) / 2.0
        sigma = float(rng.uniform(0.1, 2.0))
        model, man, x = _euclidean_model(g, h, sigma)
        probe = _probe(model, 10)
        plain = solve_subproblem(model, probe=probe)
        polished = solve_subproblem(model, probe=probe, refine_steps=20)
        assert polished.m_val <= plain.m_val + 1e-15
        assert polished.m_val <= polished.cauchy_m + 1e-15
        if not np.array_equal(polished.step.data, plain.step.data):  # refined
            improved += 1
            assert polished.m_val < plain.m_val
        # Model value still reported faithfully after refinement.
        assert model_value(model, polished.step) == pytest.approx(
            polished.m_val, rel=1e-9, abs=1e-12
        )
    assert improved > 10  # refinement should usually find something


def _line_model(sigma):
    """The cubic model at the origin of ``f(x) = x``, a 1-d ``QuadraticSum``
    with no curvature: ``m(eta) = eta + (sigma/3) |eta|^3``. Its ``hvp``
    lists the vectors it is applied to in the returned list."""
    family = QuadraticSum(np.zeros((1, 1, 1)), np.ones((1, 1)))
    x = family.manifold.point(np.zeros((1, 1)))
    products = []

    def hvp(eta):
        products.append(eta)
        return family.hess_vec(x, eta)

    return CubicModel(family.gradient(x), hvp, sigma, x, family.manifold), products


def test_refinement_stops_at_a_stationary_point_of_the_model():
    """In one dimension the Cauchy point, here ``-1`` exactly, minimizes
    the model, so refinement takes no step: the only products are the
    Cauchy point's and the one that starts the refinement."""
    model, products = _line_model(1.0)
    plain = solve_subproblem(model)
    products.clear()
    res = solve_subproblem(model, refine_steps=5)
    assert len(products) == 2
    assert res.step.data.tolist() == [[-1.0]]
    assert res.m_val == plain.m_val


def test_refinement_halves_a_step_that_overshoots():
    """Along a flat direction with a tiny sigma the first trial step from
    the origin, ``1 / (2 sigma)``, overshoots the model's minimizer at
    ``1 / sqrt(sigma)``. The Armijo test needs ``sigma t^2 / 3 <= 1 -
    1e-4``, ``t <= 1732``, which the ninth halving is the first to meet."""
    sigma = 1e-6
    model, _ = _line_model(sigma)
    zero = np.zeros((1, 1))
    eta, m_val = subproblem._refine(model, zero, zero, 1)
    assert eta.tolist() == [[-1.0 / (2.0 * sigma) / 2**9]]
    assert m_val == pytest.approx(model_value(model, Tangent(eta, model.base)))
    # Within 0.1% of the model's minimum, -2 / (3 sqrt(sigma)).
    assert -2.0 / (3.0 * math.sqrt(sigma)) < m_val < -666.0


def test_refinement_gives_up_after_forty_halvings():
    """With a far tinier sigma none of the forty trial steps
    ``1 / (2 sigma) / 2^j``, ``j < 40``, passes the Armijo test, so
    refinement stops and returns its start, after the one product of the
    direction it gave up on."""
    model, products = _line_model(1e-30)
    zero = np.zeros((1, 1))
    eta, m_val = subproblem._refine(model, zero, zero, 5)
    assert eta is zero
    assert m_val == 0.0
    assert len(products) == 1


def test_lemma_estimate_bounds_hold():
    """Decrease and step-norm lower bounds for both candidate steps,
    with dense reference quantities."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 11))
        g = rng.standard_normal(d) * rng.uniform(0.05, 3.0)
        h = rng.standard_normal((d, d))
        h = (h + h.T) / 2.0
        sigma = float(rng.uniform(0.05, 5.0))
        model, man, x = _euclidean_model(g, h, sigma)
        gnorm = np.linalg.norm(g)
        k_h = float(np.linalg.norm(h, 2))

        eta_c, m_c = cauchy_point(model)
        bound_c = (gnorm / (2.0 * math.sqrt(3.0))) * min(
            gnorm / k_h, math.sqrt(gnorm / sigma)
        )
        assert -m_c >= bound_c - 1e-10
        assert man.norm(eta_c) >= (
            math.sqrt(k_h**2 + 4.0 * sigma * gnorm) - k_h
        ) / (2.0 * sigma) - 1e-10

        evals, evecs = np.linalg.eigh(h)
        lam = float(evals[0])
        if lam < -1e-8:
            v = Tangent(evecs[:, :1], x)
            eta_e, m_e = eigen_point(model, v, lam)
            nu = 1.0  # exact eigenvector achieves the full ratio
            norm_e = man.norm(eta_e)
            bound_e = (nu * abs(lam) / 6.0) * max(
                norm_e**2, nu**2 * lam**2 / sigma**2
            )
            assert -m_e >= bound_e - 1e-10
            assert norm_e >= nu * abs(lam) / sigma - 1e-10
