"""Trust-region baseline: truncated CG sub-problem and driver laws."""

import numpy as np
import pytest

from riemarc.arc import SIGMA_MIN, Outcome, StopRule
from riemarc.errors import ContractError
from riemarc.jointdiag import JointDiagObjective, generate_instance
from riemarc.oracles import OracleMode
from riemarc.trust_region import (
    TrustRegionConfig,
    run_trust_region,
    tr_subproblem,
)

from euclidean import Euclidean, QuadraticSum, SaddleQuartic


def _euclidean_grad_hvp(g_vec, h_mat):
    man = Euclidean(len(g_vec))
    x = man.point(np.zeros((len(g_vec), 1)))
    g = man.tangent(x, np.asarray(g_vec, float).reshape(-1, 1), check=False)
    h = np.asarray(h_mat, float)

    def hvp(eta):
        return man.tangent(x, h @ eta.data, check=False)

    return man, x, g, hvp


def test_interior_newton_step():
    man, x, g, hvp = _euclidean_grad_hvp([1.0, 0.0], np.eye(2))
    res = tr_subproblem(g, hvp, 10.0, man)
    assert not res.boundary
    assert np.allclose(res.step.data, [[-1.0], [0.0]], atol=1e-12)
    assert res.model_val == pytest.approx(-0.5, abs=1e-12)


def test_boundary_step_exact_radius():
    man, x, g, hvp = _euclidean_grad_hvp([1.0, 0.0], np.eye(2))
    res = tr_subproblem(g, hvp, 0.5, man)
    assert res.boundary
    assert man.norm(res.step) == pytest.approx(0.5, abs=1e-12)
    assert res.step.data[0, 0] == pytest.approx(-0.5, abs=1e-12)


def test_negative_curvature_runs_to_boundary():
    man, x, g, hvp = _euclidean_grad_hvp([1.0, 0.0], np.diag([-2.0, 1.0]))
    res = tr_subproblem(g, hvp, 3.0, man)
    assert res.boundary
    assert man.norm(res.step) == pytest.approx(3.0, abs=1e-12)
    assert res.model_val < 0.0


def test_zero_gradient_returns_zero_step():
    man, x, g, hvp = _euclidean_grad_hvp([0.0, 0.0], np.eye(2))
    res = tr_subproblem(g, hvp, 1.0, man)
    assert res.iterations == 0
    assert man.norm(res.step) == 0.0
    assert res.model_val == 0.0


def test_subproblem_beats_cauchy_line_grid():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        g_vec = rng.standard_normal(d)
        h = rng.standard_normal((d, d))
        h = (h + h.T) / 2.0
        delta = float(rng.uniform(0.2, 3.0))
        man, x, g, hvp = _euclidean_grad_hvp(g_vec, h)
        res = tr_subproblem(g, hvp, delta, man)
        assert man.norm(res.step) <= delta + 1e-12
        # Grid search along the normalized steepest-descent ray.
        u = -g_vec / np.linalg.norm(g_vec)
        ts = np.linspace(0.0, delta, 20001)
        vals = ts * (g_vec @ u) + 0.5 * ts**2 * (u @ h @ u)
        assert res.model_val <= float(vals.min()) + 1e-9


def test_interior_solution_meets_residual_tolerance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        g_vec = rng.standard_normal(d) * 0.5
        m = rng.standard_normal((d, d))
        h = m @ m.T + np.eye(d)
        man, x, g, hvp = _euclidean_grad_hvp(g_vec, h)
        res = tr_subproblem(g, hvp, 100.0, man)
        if res.boundary:
            continue
        r_norm = np.linalg.norm(g_vec.reshape(-1, 1) + h @ res.step.data)
        g_norm = np.linalg.norm(g_vec)
        assert r_norm <= g_norm * min(0.1, g_norm**0.5) + 1e-12
        assert res.iterations <= man.intrinsic_dim


def test_reported_scalars_match_step():
    man, x, g, hvp = _euclidean_grad_hvp([1.0, -0.5, 0.2], np.diag([2.0, 1.0, -1.0]))
    res = tr_subproblem(g, hvp, 1.5, man)
    assert res.g_eta == pytest.approx(man.inner(g, res.step), abs=1e-12)
    direct_h = man.inner(hvp(res.step), res.step)
    assert res.h_eta == pytest.approx(direct_h, rel=1e-10, abs=1e-12)
    assert res.model_val == pytest.approx(res.g_eta + 0.5 * res.h_eta, abs=1e-12)


def test_subproblem_rejects_bad_radius():
    man, x, g, hvp = _euclidean_grad_hvp([1.0, 0.0], np.eye(2))
    with pytest.raises(ContractError):
        tr_subproblem(g, hvp, 0.0, man)


def test_driver_on_definite_quadratic():
    obj = QuadraticSum.random(25, 4, seed=2, definite=True)
    x0 = obj.manifold.random_point(3)
    cfg = TrustRegionConfig(seed=4)
    trace = run_trust_region(obj, x0, cfg)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert obj.manifold.norm(obj.gradient(trace.final_point)) <= cfg.eps_g
    assert trace.l_hat is None
    # No accepted row is followed by a radius at the cubic rule's floor.
    rows = trace.records
    assert not any(a.success and b.sigma == SIGMA_MIN for a, b in zip(rows, rows[1:]))


def test_driver_radius_recurrence_and_bookkeeping():
    obj = SaddleQuartic.random(20, 4, seed=5)
    x0 = obj.manifold.random_point(6)
    cfg = TrustRegionConfig(seed=7, delta0=0.25, max_iters=120)
    trace = run_trust_region(obj, x0, cfg)
    assert trace.iterations > 0
    cap = cfg.radius_cap()
    assert cap == 2.5
    for i, rec in enumerate(trace.records):
        assert rec.k == i
        assert rec.success == (rec.rho >= cfg.rho_threshold)
        assert rec.sigma <= cap
        if i == 0:
            assert rec.sigma == cfg.delta0
            continue
        last = trace.records[i - 1]
        if last.success:
            assert rec.sigma == min(cfg.gamma * last.sigma, cap)
            assert rec.f < last.f
        else:
            assert rec.sigma == last.sigma / cfg.gamma
            assert rec.f == last.f


def test_driver_respects_radius_cap():
    obj = SaddleQuartic.random(15, 3, seed=8)
    x0 = obj.manifold.random_point(9)
    cfg = TrustRegionConfig(seed=10, delta0=0.1, max_iters=40)
    trace = run_trust_region(obj, x0, cfg)
    assert trace.iterations > 0
    assert max(rec.sigma for rec in trace.records) <= cfg.radius_cap()


def test_config_validation():
    with pytest.raises(ContractError):
        TrustRegionConfig(delta0=0.0).validate()
    with pytest.raises(ContractError):
        TrustRegionConfig(gamma=1.0).validate()
    with pytest.raises(ContractError):
        TrustRegionConfig(max_iters=-2).validate()


def test_default_radius_cap():
    assert TrustRegionConfig(delta0=0.5).radius_cap() == 5.0


def test_subsampled_driver_on_joint_diagonalization():
    inst = generate_instance(200, 4, 4, seed=11, noise=1e-3)
    obj = JointDiagObjective(inst)
    x0 = obj.manifold.random_point(12)
    cfg = TrustRegionConfig(
        mode=OracleMode.SUBSAMPLED_BOTH,
        grad_sample_size=50,
        hess_sample_size=5,
        seed=13,
        stop_rule=StopRule.GRAD_SQUARED,
        tau=1e-3,
        max_iters=500,
    )
    trace = run_trust_region(obj, x0, cfg)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.final_f < obj.value(x0)
    for i in range(1, len(trace.records)):
        last = trace.records[i - 1]
        rec = trace.records[i]
        if last.success:
            assert rec.sigma == min(cfg.gamma * last.sigma, cfg.radius_cap())
        else:
            assert rec.sigma == last.sigma / cfg.gamma
