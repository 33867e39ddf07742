"""Adaptive cubic-regularization driver: trace laws, stopping, accounting."""

import csv
import io
import math

import numpy as np
import pytest

from riemarc.arc import (
    SIGMA_MIN,
    TRACE_COLUMNS,
    EigPolicy,
    Outcome,
    RunTrace,
    SolverConfig,
    StopRule,
    run,
    should_terminate,
    write_trace_csv,
    write_trace_rows,
)
from riemarc.errors import ContractError, MissingEigenEstimateError
from riemarc.objectives import QuadraticSum, SaddleQuartic
from riemarc.oracles import OracleMode
from riemarc.trust_region import TrustRegionConfig


def _check_trace_laws(trace: RunTrace, cfg: SolverConfig, *, grad_size, hess_size):
    """Structural invariants every stored run must satisfy exactly."""
    prev_grad = 0
    prev_hess = 0
    for i, rec in enumerate(trace.records):
        assert rec.k == i
        assert rec.success == (rec.rho >= cfg.rho_threshold)
        d_grad = rec.grad_evals - prev_grad
        d_hess = rec.hess_evals - prev_hess
        assert d_grad == grad_size
        assert d_hess > 0 and d_hess % hess_size == 0
        prev_grad, prev_hess = rec.grad_evals, rec.hess_evals
        if i == 0:
            assert rec.sigma == cfg.sigma0
            continue
        last = trace.records[i - 1]
        if last.success:
            expected = last.sigma / cfg.gamma
            if expected < SIGMA_MIN:
                expected = SIGMA_MIN
            assert rec.sigma == expected
            assert rec.f < last.f
        else:
            assert rec.sigma == cfg.gamma * last.sigma
            assert rec.f == last.f
    # The iteration that triggers termination evaluates its gradient (and
    # possibly a curvature probe) before breaking, so the run totals may
    # exceed the last record by exactly one batch.
    tail_grad = trace.grad_evals - prev_grad
    tail_hess = trace.hess_evals - prev_hess
    assert tail_grad in (0, grad_size)
    assert tail_hess >= 0 and tail_hess % hess_size == 0
    if trace.outcome is Outcome.MAX_ITERS:
        assert tail_grad == 0 and tail_hess == 0
    if trace.outcome is Outcome.OPTIMALITY_REACHED:
        assert tail_grad == grad_size
    assert trace.iterations == len(trace.records)
    assert trace.n_success + trace.n_fail == trace.iterations


def test_exact_run_on_definite_quadratic():
    obj = QuadraticSum.random(30, 4, seed=0, definite=True)
    x0 = obj.manifold.random_point(1)
    cfg = SolverConfig(seed=3)
    trace = run(obj, x0, cfg)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    final_grad = obj.manifold.norm(obj.gradient(trace.final_point))
    assert final_grad <= cfg.eps_g
    assert trace.final_f == pytest.approx(obj.value(trace.final_point), abs=1e-12)
    assert trace.final_f < obj.value(x0)
    _check_trace_laws(trace, cfg, grad_size=obj.n, hess_size=obj.n)


def test_exact_run_on_quartic_saddle():
    obj = SaddleQuartic.random(25, 5, seed=1)
    x0 = obj.manifold.point(np.full((5, 1), 0.05))
    cfg = SolverConfig(seed=4, eig_policy=EigPolicy.EVERY_ITERATION)
    trace = run(obj, x0, cfg)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert all(rec.lambda_min is not None for rec in trace.records)
    # Escaped the saddle: strictly below the origin value.
    assert trace.final_f < obj.value(obj.manifold.point(np.zeros((5, 1))))
    _check_trace_laws(trace, cfg, grad_size=obj.n, hess_size=obj.n)


def test_subsampled_runs_obey_counter_laws():
    # Low component dispersion keeps the sampled-gradient noise floor far
    # below sqrt(tau), so the sub-sampled runs still terminate cleanly.
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    base = m @ m.T + np.eye(4)
    a = np.tile(base, (60, 1, 1))
    b = rng.standard_normal(4) + 0.01 * rng.standard_normal((60, 4))
    obj = QuadraticSum(a, b)
    x0 = obj.manifold.random_point(2)
    for mode, g_size, h_size in (
        (OracleMode.SUBSAMPLED_HESSIAN, 60, 9),
        (OracleMode.SUBSAMPLED_BOTH, 15, 9),
    ):
        cfg = SolverConfig(
            mode=mode,
            grad_sample_size=15 if mode is OracleMode.SUBSAMPLED_BOTH else None,
            hess_sample_size=9,
            seed=5,
            stop_rule=StopRule.GRAD_SQUARED,
            tau=1e-2,
            max_iters=200,
        )
        trace = run(obj, x0, cfg)
        assert trace.outcome is Outcome.OPTIMALITY_REACHED
        assert trace.l_hat is None
        _check_trace_laws(trace, cfg, grad_size=g_size, hess_size=h_size)


def test_run_is_deterministic():
    obj = SaddleQuartic.random(20, 4, seed=6)
    x0 = obj.manifold.random_point(7)
    cfg = SolverConfig(
        mode=OracleMode.SUBSAMPLED_BOTH,
        grad_sample_size=5,
        hess_sample_size=2,
        seed=8,
        stop_rule=StopRule.GRAD_SQUARED,
        tau=1e-3,
        max_iters=300,
    )
    a = run(obj, x0, cfg)
    b = run(obj, x0, cfg)
    assert [r.f for r in a.records] == [r.f for r in b.records]
    assert [r.sigma for r in a.records] == [r.sigma for r in b.records]
    assert a.outcome is b.outcome
    assert np.array_equal(a.final_point.data, b.final_point.data)


def test_sigma_floor_is_recorded():
    obj = QuadraticSum.random(10, 3, seed=9, definite=True)
    x0 = obj.manifold.random_point(3)
    cfg = SolverConfig(sigma0=1e-12, seed=10)
    trace = run(obj, x0, cfg)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.sigma_clamped_iterations
    assert all(rec.sigma >= SIGMA_MIN for rec in trace.records)
    first = trace.sigma_clamped_iterations[0]
    assert trace.records[first].success
    _check_trace_laws(trace, cfg, grad_size=obj.n, hess_size=obj.n)


def test_should_terminate_frozen_examples():
    cfg = SolverConfig(eps_g=1e-2, eps_h=1e-1)
    assert should_terminate(0.0, 0.0, cfg)
    assert not should_terminate(cfg.eps_g / 2.0, -2.0 * cfg.eps_h, cfg)
    assert not should_terminate(2.0 * cfg.eps_g, None, cfg)
    with pytest.raises(MissingEigenEstimateError):
        should_terminate(cfg.eps_g / 2.0, None, cfg)

    sq = SolverConfig(stop_rule=StopRule.GRAD_SQUARED, tau=1e-3)
    assert should_terminate(0.03, None, sq)  # 9e-4 <= 1e-3
    assert not should_terminate(0.04, None, sq)  # 1.6e-3 > 1e-3


def test_variant_presets():
    assert SolverConfig.for_variant("racr").mode is OracleMode.EXACT
    assert SolverConfig.for_variant("sracr").mode is OracleMode.SUBSAMPLED_HESSIAN
    assert SolverConfig.for_variant("SSRACR").mode is OracleMode.SUBSAMPLED_BOTH
    assert SolverConfig.for_variant("racr", sigma0=0.5).sigma0 == 0.5
    with pytest.raises(ContractError):
        SolverConfig.for_variant("rtr")


def test_config_validation():
    with pytest.raises(ContractError):
        SolverConfig(eps_g=0.0).validate()
    with pytest.raises(ContractError):
        SolverConfig(eps_h=1.0).validate()
    with pytest.raises(ContractError):
        SolverConfig(rho_threshold=1.0).validate()
    with pytest.raises(ContractError):
        SolverConfig(gamma=1.0).validate()
    with pytest.raises(ContractError):
        SolverConfig(sigma0=0.0).validate()
    with pytest.raises(ContractError):
        SolverConfig(tau=-1.0).validate()
    with pytest.raises(ContractError):
        SolverConfig(tau=math.nan).validate()
    with pytest.raises(ContractError):
        SolverConfig(max_iters=-1).validate()


def test_refine_steps_bounds_validated():
    SolverConfig(refine_steps=20).validate()
    with pytest.raises(ContractError):
        SolverConfig(refine_steps=21).validate()
    with pytest.raises(ContractError):
        SolverConfig(refine_steps=-1).validate()


@pytest.mark.parametrize("cls", [SolverConfig, TrustRegionConfig])
@pytest.mark.parametrize(
    "field, bad",
    [("lanczos_tol", 0.0), ("lanczos_tol", math.nan), ("lanczos_max_iters", 0)],
)
def test_lanczos_settings_validated(cls, field, bad):
    """Both step rules reject a probe setting before the run starts, not
    at the first probe."""
    cls(lanczos_tol=1e-3, lanczos_max_iters=1).validate()
    with pytest.raises(ContractError, match=field):
        cls(**{field: bad}).validate()


def test_iteration_budget_formula():
    assert SolverConfig(eps_g=1e-2, eps_h=1e-1).iteration_budget() == 500_000
    assert SolverConfig(eps_g=1e-2, eps_h=1e-2).iteration_budget() == 1_000_000
    assert SolverConfig(max_iters=7).iteration_budget() == 7


def test_zero_budget_returns_immediately():
    obj = QuadraticSum.random(5, 3, seed=11, definite=True)
    x0 = obj.manifold.random_point(4)
    trace = run(obj, x0, SolverConfig(max_iters=0))
    assert trace.outcome is Outcome.MAX_ITERS
    assert trace.records == []
    assert trace.grad_evals == 0 and trace.hess_evals == 0
    assert trace.final_f == pytest.approx(obj.value(x0), abs=0.0)


def test_optimal_start_terminates_without_stepping():
    rng = np.random.default_rng(12)
    mats = []
    for _ in range(6):
        m = rng.standard_normal((3, 3))
        mats.append(m @ m.T + np.eye(3))
    obj = QuadraticSum(np.stack(mats), np.zeros((6, 3)))
    x0 = obj.manifold.point(np.zeros((3, 1)))
    trace = run(obj, x0, SolverConfig(seed=13))
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.iterations == 0
    assert np.array_equal(trace.final_point.data, x0.data)


def test_degenerate_model_reports_subsolver_failure():
    # Pure linear objective with an absurd regularizer: the best available
    # decrease is below the degeneracy threshold.
    obj = QuadraticSum(np.zeros((3, 2, 2)), np.tile([1.0, 0.0], (3, 1)))
    x0 = obj.manifold.point(np.zeros((2, 1)))
    trace = run(obj, x0, SolverConfig(sigma0=1e34, seed=14))
    assert trace.outcome is Outcome.SUBSOLVER_FAILURE
    assert trace.iterations == 0


def test_l_hat_tracks_third_order_behaviour():
    quad = QuadraticSum.random(12, 3, seed=15, definite=True)
    x0 = quad.manifold.random_point(5)
    t_quad = run(quad, x0, SolverConfig(seed=16))
    # A quadratic has no third-order remainder beyond roundoff.
    assert t_quad.l_hat is not None and t_quad.l_hat <= 1e-6

    quartic = SaddleQuartic.random(12, 3, seed=17)
    xq = quartic.manifold.random_point(6)
    t_quartic = run(quartic, xq, SolverConfig(seed=18))
    assert t_quartic.l_hat is not None and t_quartic.l_hat > 1e-3


def test_fail_count_and_sigma_cap_bounds():
    obj = SaddleQuartic.random(15, 4, seed=19)
    x0 = obj.manifold.random_point(8)
    cfg = SolverConfig(seed=20)
    trace = run(obj, x0, cfg)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.l_hat is not None and trace.l_hat > 0.0
    cap = max(cfg.sigma0, 2.0 * cfg.gamma * trace.l_hat) * 1.1
    assert max(rec.sigma for rec in trace.records) <= cap
    allowance = math.log(2.0 * cfg.gamma * trace.l_hat / cfg.sigma0, cfg.gamma)
    assert trace.n_fail <= trace.n_success + allowance


def test_trace_csv_roundtrip():
    obj = SaddleQuartic.random(10, 3, seed=21)
    x0 = obj.manifold.random_point(9)
    cfg = SolverConfig(seed=22, eig_policy=EigPolicy.EVERY_ITERATION, max_iters=25)
    trace = run(obj, x0, cfg)
    assert trace.iterations > 0

    buf = io.StringIO()
    write_trace_rows(trace.records, buf)
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == trace.iterations + 1
    for rec, row in zip(trace.records, rows[1:]):
        parsed = dict(zip(rows[0], row))
        assert int(parsed["k"]) == rec.k
        assert float(parsed["f"]) == rec.f  # repr round-trips exactly
        assert float(parsed["sigma"]) == rec.sigma
        assert float(parsed["rho"]) == rec.rho
        assert parsed["success"] == ("1" if rec.success else "0")
        if rec.lambda_min is None:
            assert parsed["lambda_min"] == ""
        else:
            assert float(parsed["lambda_min"]) == rec.lambda_min
        assert int(parsed["grad_evals"]) == rec.grad_evals


def test_trace_csv_sigma_column_renaming(tmp_path):
    obj = QuadraticSum.random(8, 3, seed=23, definite=True)
    x0 = obj.manifold.random_point(10)
    trace = run(obj, x0, SolverConfig(seed=24, max_iters=5))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, sigma_name="delta")
    header = path.read_text().splitlines()[0].split(",")
    assert "delta" in header and "sigma" not in header

