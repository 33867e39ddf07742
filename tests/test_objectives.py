"""Finite-sum objectives and the sampling oracles on top of them."""

import math

import numpy as np
import pytest

from riemarc.arc import SolverConfig, run
from riemarc.errors import ContractError
from riemarc.manifolds import Tangent
from riemarc.oracles import OracleBundle, OracleMode, required_sample_sizes
from riemarc.trust_region import TrustRegionConfig, run_trust_region

from concentration import concentration_trial
from euclidean import CosineSum, QuadraticSum, SaddleQuartic


def _fd_gradient(objective, x, h=1e-6):
    man = objective.manifold
    d = x.data.size
    g = np.zeros(d)
    for i in range(d):
        e = np.zeros((d, 1))
        e[i] = h
        fp = objective.value(man.point(x.data + e))
        fm = objective.value(man.point(x.data - e))
        g[i] = (fp - fm) / (2.0 * h)
    return g


def test_quadratic_sum_matches_bruteforce():
    rng = np.random.default_rng(0)
    obj = QuadraticSum.random(5, 3, seed=1)
    x = obj.manifold.point(rng.standard_normal((3, 1)))
    v = x.data[:, 0]
    manual = np.mean(
        [0.5 * v @ obj.a[i] @ v + obj.b[i] @ v for i in range(5)]
    )
    assert abs(obj.value(x) - manual) < 1e-12

    g = obj.gradient(x).data[:, 0]
    manual_g = np.mean([obj.a[i] @ v + obj.b[i] for i in range(5)], axis=0)
    assert np.allclose(g, manual_g, atol=1e-12)

    xi = obj.manifold.random_tangent(x, 2)
    hv = obj.hess_vec(x, xi).data[:, 0]
    manual_h = np.mean([obj.a[i] @ xi.data[:, 0] for i in range(5)], axis=0)
    assert np.allclose(hv, manual_h, atol=1e-12)


def test_index_subsets_average_with_repeats():
    obj = QuadraticSum.random(6, 4, seed=3)
    x = obj.manifold.random_point(4)
    idx = np.array([2, 2, 5])
    g = obj.gradient(x, idx).data[:, 0]
    g2 = obj.gradient(x, np.array([2])).data[:, 0]
    g5 = obj.gradient(x, np.array([5])).data[:, 0]
    assert np.allclose(g, (2.0 * g2 + g5) / 3.0, atol=1e-12)


def test_index_validation():
    obj = QuadraticSum.random(4, 2, seed=0)
    x = obj.manifold.random_point(0)
    with pytest.raises(ContractError):
        obj.value(x, np.array([], dtype=int))
    with pytest.raises(ContractError):
        obj.value(x, np.array([4]))
    with pytest.raises(ContractError):
        obj.value(x, np.array([[0, 1]]))


def test_saddle_quartic_gradient_fd():
    obj = SaddleQuartic.random(8, 4, seed=5)
    x = obj.manifold.random_point(6)
    g = obj.gradient(x).data[:, 0]
    assert np.allclose(g, _fd_gradient(obj, x), atol=1e-5)


def test_saddle_quartic_origin_is_strict_saddle():
    obj = SaddleQuartic.random(10, 5, seed=7, negative_eigs=2)
    origin = obj.manifold.point(np.zeros((5, 1)))
    assert np.linalg.norm(obj.gradient(origin).data) < 1e-12
    mean_a = obj.a.mean(axis=0)
    evals = np.linalg.eigvalsh(mean_a)
    assert np.allclose(sorted(evals), [-1, -1, 1, 1, 1], atol=1e-10)


def test_saddle_quartic_hess_vec_fd():
    obj = SaddleQuartic.random(6, 3, seed=9)
    man = obj.manifold
    x = man.random_point(1)
    xi = man.random_tangent(x, 2)
    h = 1e-6
    gp = obj.gradient(man.point(x.data + h * xi.data)).data
    gm = obj.gradient(man.point(x.data - h * xi.data)).data
    fd = (gp - gm) / (2.0 * h)
    assert np.allclose(obj.hess_vec(x, xi).data, fd, atol=1e-5)


def test_cosine_sum_value_and_bounds():
    obj = CosineSum.random(30, 4, seed=11)
    x = obj.manifold.random_point(12)
    g = obj.gradient(x).data[:, 0]
    assert np.allclose(g, _fd_gradient(obj, x), atol=1e-6)

    kg = obj.component_gradient_bound()
    kh = obj.component_hessian_bound()
    assert kg == pytest.approx(np.max(np.linalg.norm(obj.a, axis=1)))
    # Every single-component gradient obeys the bound.
    for i in range(obj.n):
        gi = obj.gradient(x, np.array([i])).data
        assert np.linalg.norm(gi) <= kg + 1e-12
    assert kh >= kg**2 / obj.n  # loose sanity link between the two bounds


def test_exact_oracle_matches_objective():
    obj = QuadraticSum.random(7, 3, seed=13)
    x = obj.manifold.random_point(14)
    bundle = OracleBundle(obj, OracleMode.EXACT)
    bundle.begin_iteration(0)
    g = bundle.inexact_gradient(x)
    assert np.array_equal(g.data, obj.gradient(x).data)
    assert bundle.counters.grad_evals == 7
    xi = obj.manifold.random_tangent(x, 15)
    hv = bundle.inexact_hvp(x, xi)
    assert np.array_equal(hv.data, obj.hess_vec(x, xi).data)
    assert bundle.counters.hess_evals == 7
    f = bundle.objective_value(x)
    assert f == obj.value(x)
    assert bundle.counters.objective_evals == 7


def test_exact_bundle_holds_only_the_gradient_and_its_product():
    """At one iterate the exact bundle answers a repeated ``G`` and
    ``H[G]`` from what it holds, uncharged, and evaluates and charges
    every other product on each query. A query at another point drops
    both."""
    obj = QuadraticSum.random(7, 3, seed=13)
    x = obj.manifold.random_point(14)
    xi = obj.manifold.random_tangent(x, 15)
    bundle = OracleBundle(obj, OracleMode.EXACT)
    bundle.begin_iteration(0)
    g = bundle.inexact_gradient(x)
    hg = bundle.inexact_hvp(x, g)
    bundle.inexact_hvp(x, xi)
    bundle.inexact_hvp(x, xi)
    bundle.begin_iteration(1)
    assert bundle.inexact_gradient(x) is g
    assert bundle.inexact_hvp(x, g) is hg
    counters = bundle.counters
    assert (counters.grad_evals, counters.hess_evals) == (7, 21)

    bundle.inexact_gradient(obj.manifold.random_point(16))
    g_again = bundle.inexact_gradient(x)
    assert g_again is not g and np.array_equal(g_again.data, g.data)
    bundle.inexact_hvp(x, g_again)
    assert (counters.grad_evals, counters.hess_evals) == (21, 28)


def test_subsampled_bundle_is_deterministic_per_iteration():
    obj = CosineSum.random(50, 3, seed=17)
    x = obj.manifold.random_point(18)
    b1 = OracleBundle(
        obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=8, hess_sample_size=5, seed=23
    )
    b2 = OracleBundle(
        obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=8, hess_sample_size=5, seed=23
    )
    b1.begin_iteration(4)
    b2.begin_iteration(4)
    assert np.array_equal(b1.inexact_gradient(x).data, b2.inexact_gradient(x).data)
    xi = obj.manifold.random_tangent(x, 19)
    assert np.array_equal(b1.inexact_hvp(x, xi).data, b2.inexact_hvp(x, xi).data)
    # A different iteration draws a different sample.
    b2.begin_iteration(5)
    assert not np.array_equal(
        b1.inexact_gradient(x).data, b2.inexact_gradient(x).data
    )


def test_subsampled_counters_accumulate_sample_sizes():
    obj = CosineSum.random(40, 3, seed=21)
    x = obj.manifold.random_point(22)
    bundle = OracleBundle(
        obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=10, hess_sample_size=4, seed=0
    )
    bundle.begin_iteration(0)
    bundle.inexact_gradient(x)
    xi = obj.manifold.random_tangent(x, 23)
    bundle.inexact_hvp(x, xi)
    bundle.inexact_hvp(x, xi)
    assert bundle.counters.grad_evals == 10
    assert bundle.counters.hess_evals == 8


def test_hessian_sample_fixed_within_iteration():
    """The sampled Hessian must act as one fixed linear operator for the
    whole iteration, so products add up linearly."""
    obj = CosineSum.random(60, 4, seed=25)
    man = obj.manifold
    x = man.random_point(26)
    bundle = OracleBundle(
        obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=6, hess_sample_size=7, seed=1
    )
    bundle.begin_iteration(3)
    xi = man.random_tangent(x, 27)
    zeta = man.random_tangent(x, 28)
    both = Tangent(xi.data + zeta.data, x)
    lhs = bundle.inexact_hvp(x, both).data
    rhs = bundle.inexact_hvp(x, xi).data + bundle.inexact_hvp(x, zeta).data
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_hessian_stream_independent_of_gradient_sampling():
    """Sub-sampled Hessian draws agree between the Hessian-only mode and
    the fully sub-sampled mode for the same seed and iteration."""
    obj = CosineSum.random(80, 3, seed=29)
    x = obj.manifold.random_point(30)
    xi = obj.manifold.random_tangent(x, 31)
    hess_only = OracleBundle(
        obj, OracleMode.SUBSAMPLED_HESSIAN, hess_sample_size=9, seed=37
    )
    both = OracleBundle(
        obj,
        OracleMode.SUBSAMPLED_BOTH,
        grad_sample_size=11,
        hess_sample_size=9,
        seed=37,
    )
    for k in (0, 1, 5):
        hess_only.begin_iteration(k)
        both.begin_iteration(k)
        assert np.array_equal(
            hess_only.inexact_hvp(x, xi).data, both.inexact_hvp(x, xi).data
        )
    # And the Hessian-only mode serves the exact gradient.
    assert np.array_equal(
        hess_only.inexact_gradient(x).data, obj.gradient(x).data
    )


def test_gradient_before_begin_iteration_raises():
    """No query picks an iteration's sample for the caller, exact or not."""
    obj = CosineSum.random(20, 3, seed=33)
    x = obj.manifold.random_point(34)
    sizes = {
        OracleMode.EXACT: {},
        OracleMode.SUBSAMPLED_HESSIAN: {"hess_sample_size": 3},
        OracleMode.SUBSAMPLED_BOTH: {"grad_sample_size": 5, "hess_sample_size": 3},
    }
    for mode in OracleMode:
        bundle = OracleBundle(obj, mode, **sizes[mode])
        with pytest.raises(ContractError, match="oracle queried before begin_iteration"):
            bundle.inexact_gradient(x)
        assert bundle.counters.grad_evals == 0


def _jumped_indices(seed, purpose, k, n, size):
    bits = np.random.PCG64(np.random.SeedSequence([seed, purpose])).jumped(k)
    return np.random.Generator(bits).integers(0, n, size=size)


def test_samples_are_the_jumped_stream_of_each_purpose():
    """Iteration ``k`` draws its gradient sample (purpose 0) and Hessian
    sample (purpose 1) from ``PCG64(SeedSequence([seed, purpose]))``
    jumped ``k`` times, and replays exactly in any order."""
    obj = CosineSum.random(70, 3, seed=39)
    x = obj.manifold.random_point(40)
    xi = obj.manifold.random_tangent(x, 41)
    bundle = OracleBundle(
        obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=9, hess_sample_size=4, seed=43
    )
    seen = {}
    for k in (5, 2, 5, 0):
        bundle.begin_iteration(k)
        grad_idx = _jumped_indices(43, 0, k, 70, 9)
        hess_idx = _jumped_indices(43, 1, k, 70, 4)
        g = bundle.inexact_gradient(x).data
        h = bundle.inexact_hvp(x, xi).data
        assert np.array_equal(g, obj.gradient(x, grad_idx).data)
        assert np.array_equal(h, obj.hess_vec(x, xi, hess_idx).data)
        if k in seen:
            assert np.array_equal(g, seen[k][0]) and np.array_equal(h, seen[k][1])
        seen[k] = (g, h)
    assert not np.array_equal(seen[5][0], seen[2][0])


def test_begin_iteration_builds_no_generator(monkeypatch):
    obj = CosineSum.random(30, 3, seed=45)
    bundle = OracleBundle(
        obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=6, hess_sample_size=3, seed=47
    )

    def refuse(*args, **kwargs):
        raise AssertionError("begin_iteration built a generator")

    for name in ("default_rng", "Generator", "PCG64", "SeedSequence"):
        monkeypatch.setattr(np.random, name, refuse)
    for k in (0, 1, 7, 1):
        bundle.begin_iteration(k)


def test_hvp_before_begin_iteration_raises():
    obj = CosineSum.random(20, 3, seed=35)
    x = obj.manifold.random_point(36)
    xi = obj.manifold.random_tangent(x, 37)
    bundle = OracleBundle(obj, OracleMode.SUBSAMPLED_HESSIAN, hess_sample_size=3)
    with pytest.raises(ContractError, match="oracle queried before begin_iteration"):
        bundle.inexact_hvp(x, xi)


def test_begin_iteration_rejects_a_negative_index():
    bundle = OracleBundle(CosineSum.random(20, 3, seed=35), OracleMode.EXACT)
    with pytest.raises(ContractError, match="iteration index must be non-negative"):
        bundle.begin_iteration(-1)


def test_bundle_validates_sample_sizes():
    obj = CosineSum.random(10, 2, seed=39)
    with pytest.raises(ContractError):
        OracleBundle(obj, OracleMode.SUBSAMPLED_BOTH, hess_sample_size=2)
    with pytest.raises(ContractError):
        OracleBundle(
            obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=11, hess_sample_size=2
        )
    with pytest.raises(ContractError):
        OracleBundle(obj, OracleMode.SUBSAMPLED_HESSIAN, hess_sample_size=0)
    with pytest.raises(ContractError):
        OracleBundle(obj, OracleMode.SUBSAMPLED_HESSIAN)
    # A sampled size is an int, and a bool is not one.
    for size in (2.5, True, 3.0):
        with pytest.raises(ContractError, match="Hessian sample size must be an int"):
            OracleBundle(obj, OracleMode.SUBSAMPLED_HESSIAN, hess_sample_size=size)
    # An exact oracle's size is None, whatever its value would be.
    with pytest.raises(ContractError, match="exact gradient oracle"):
        OracleBundle(obj, OracleMode.EXACT, grad_sample_size=-3, hess_sample_size=10**9)
    with pytest.raises(ContractError, match="exact gradient oracle"):
        OracleBundle(
            obj, OracleMode.SUBSAMPLED_HESSIAN, grad_sample_size=0, hess_sample_size=2
        )
    # The entry points build their bundle from the config, so the same rule holds.
    x0 = obj.manifold.random_point(40)
    with pytest.raises(ContractError, match="exact Hessian oracle"):
        run(obj, x0, SolverConfig.for_variant("racr", hess_sample_size=5))
    with pytest.raises(ContractError, match="exact gradient oracle"):
        run_trust_region(obj, x0, TrustRegionConfig(grad_sample_size=3))


def test_required_sample_sizes_hand_value():
    ng, nh = required_sample_sizes(
        k_grad=1.0, k_hess=1.0, delta=0.01, delta_g=0.1, delta_h=0.1
    )
    assert ng == 14762
    assert nh == 14762
    # Formula check at a second point.
    ng2, nh2 = required_sample_sizes(
        k_grad=2.0, k_hess=0.5, delta=0.1, delta_g=0.2, delta_h=0.3
    )
    assert ng2 == math.ceil((32 * 4 * math.log(10) + 0.25) / 0.04)
    assert nh2 == math.ceil((32 * 0.25 * math.log(10) + 0.25) / 0.09)


def test_required_sample_sizes_monotone():
    base = dict(k_grad=1.0, k_hess=1.0, delta=0.05, delta_g=0.2, delta_h=0.2)
    tighter = base | {"delta_g": 0.1}
    assert required_sample_sizes(**tighter)[0] > required_sample_sizes(**base)[0]


def test_sample_size_params_validation():
    good = dict(k_grad=1.0, k_hess=1.0, delta=0.1, delta_g=0.1, delta_h=0.1)
    for bad, message in [
        ({"delta": 0.0}, r"delta must lie in \(0, 1\), got 0.0"),
        ({"k_grad": -1.0}, "component bounds must be non-negative"),
        ({"delta_g": 0.0}, "target accuracies must be positive"),
    ]:
        with pytest.raises(ContractError, match=message):
            required_sample_sizes(**good | bad)


def test_concentration_smoke():
    """Sampling at the computed size concentrates at the requested level."""
    obj = CosineSum.random(400, 3, seed=41)
    delta = 0.05
    delta_g = 0.5 * obj.component_gradient_bound()
    ng, _ = required_sample_sizes(
        k_grad=obj.component_gradient_bound(),
        k_hess=obj.component_hessian_bound(),
        delta=delta,
        delta_g=delta_g,
        delta_h=1.0,
    )
    size = min(ng, obj.n)
    bundle = OracleBundle(
        obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=size, hess_sample_size=1, seed=5
    )
    x = obj.manifold.random_point(42)
    rate = concentration_trial(obj, x, bundle, trials=200, delta_g=delta_g)
    assert rate >= 1.0 - delta
