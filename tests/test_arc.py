"""Adaptive cubic-regularization driver: trace laws, stopping, accounting."""

import math
from functools import partial

import numpy as np
import pytest

from riemarc.arc import (
    SIGMA_MIN,
    EigPolicy,
    Outcome,
    RunTrace,
    SolverConfig,
    StopRule,
    run,
    runs_probe,
    should_terminate,
)
from riemarc.errors import ContractError
from riemarc.jointdiag import JointDiagObjective, generate_instance
from riemarc.oracles import OracleMode
from riemarc.trust_region import TrustRegionConfig, run_trust_region

from euclidean import QuadraticSum, SaddleQuartic


def _check_trace_laws(trace: RunTrace, cfg: SolverConfig, *, grad_size, hess_size):
    """Structural invariants every stored run must satisfy exactly."""
    # The bundle answers a repeated exact query at an iterate that did
    # not move: after a rejected row an exact gradient is charged
    # nothing, and so is the Cauchy product H[G] when it is the row's
    # only Hessian product (exact Hessian, no refinement, no probe).
    exact_grad = cfg.mode is not OracleMode.SUBSAMPLED_BOTH
    cauchy_only = cfg.mode is OracleMode.EXACT and cfg.refine_steps == 0

    def grad_step(moved):
        return grad_size if moved or not exact_grad else 0

    prev_grad = 0
    prev_hess = 0
    moved = True
    for i, rec in enumerate(trace.records):
        assert rec.k == i
        assert rec.success == (rec.rho >= cfg.rho_threshold)
        d_grad = rec.grad_evals - prev_grad
        d_hess = rec.hess_evals - prev_hess
        assert d_grad == grad_step(moved)
        if cauchy_only and not moved and rec.lambda_min is None:
            assert d_hess == 0
        else:
            assert d_hess > 0 and d_hess % hess_size == 0
        prev_grad, prev_hess = rec.grad_evals, rec.hess_evals
        moved = rec.success
        if i == 0:
            assert rec.weight == cfg.sigma0
            continue
        last = trace.records[i - 1]
        if last.success:
            expected = last.weight / cfg.gamma
            if expected < SIGMA_MIN:
                expected = SIGMA_MIN
            assert rec.weight == expected
            assert rec.f < last.f
        else:
            assert rec.weight == cfg.gamma * last.weight
            assert rec.f == last.f
    # The iteration that triggers termination evaluates its gradient before
    # breaking and writes no record. Under OPTIMALITY it also runs the
    # curvature probe its stop test reads; under GRAD_SQUARED the stop test
    # runs before the probe, so that iteration costs no Hessian batch.
    tail_grad = trace.grad_evals - prev_grad
    tail_hess = trace.hess_evals - prev_hess
    assert tail_grad in (0, grad_size)
    assert tail_hess >= 0 and tail_hess % hess_size == 0
    if trace.outcome is Outcome.MAX_ITERS:
        assert tail_grad == 0 and tail_hess == 0
    if trace.outcome is Outcome.OPTIMALITY_REACHED:
        assert tail_grad == grad_step(moved)
        if cfg.stop_rule is StopRule.GRAD_SQUARED:
            assert tail_hess == 0
        else:
            assert tail_hess > 0
    assert trace.iterations == len(trace.records)
    assert trace.n_success == sum(rec.success for rec in trace.records)


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


def _low_dispersion_quadratic() -> QuadraticSum:
    # Low component dispersion keeps the sampled-gradient noise floor far
    # below sqrt(tau), so the sub-sampled runs still terminate cleanly.
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    base = m @ m.T + np.eye(4)
    a = np.tile(base, (60, 1, 1))
    b = rng.standard_normal(4) + 0.01 * rng.standard_normal((60, 4))
    return QuadraticSum(a, b)


def test_subsampled_runs_obey_counter_laws():
    obj = _low_dispersion_quadratic()
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


@pytest.mark.parametrize("policy", list(EigPolicy))
@pytest.mark.parametrize("solver", ["racr", "sracr", "ssracr", "ssrtr"])
def test_gradient_stop_runs_no_terminal_probe(solver, policy):
    """Under GRAD_SQUARED the run's Hessian total is the last row's: the
    terminating iteration, which writes no row, runs no probe. Every
    other row probes under EVERY_ITERATION if the step rule reads the
    probe, which the trust region's does not."""
    obj = _low_dispersion_quadratic()
    x0 = obj.manifold.random_point(2)
    g_size, h_size = {
        "racr": (None, None),
        "sracr": (None, 9),
        "ssracr": (15, 9),
        "ssrtr": (15, 9),
    }[solver]
    common = dict(
        grad_sample_size=g_size,
        hess_sample_size=h_size,
        seed=25,
        stop_rule=StopRule.GRAD_SQUARED,
        tau=1e-2,
        eig_policy=policy,
        max_iters=200,
    )
    if solver == "ssrtr":
        cfg = TrustRegionConfig(mode=OracleMode.SUBSAMPLED_BOTH, **common)
        trace = run_trust_region(obj, x0, cfg)
    else:
        trace = run(obj, x0, SolverConfig.for_variant(solver, **common))
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.iterations > 0
    assert trace.hess_evals == trace.records[-1].hess_evals
    assert trace.grad_evals == trace.records[-1].grad_evals + (g_size or obj.n)
    probes = policy is EigPolicy.EVERY_ITERATION and solver != "ssrtr"
    assert all((rec.lambda_min is not None) is probes for rec in trace.records)


def test_optimality_stop_charges_its_terminal_probe():
    """Under OPTIMALITY the stop test reads the probe, so the terminating
    iteration still runs it and the run total exceeds the last row."""
    obj = QuadraticSum.random(30, 4, seed=0, definite=True)
    x0 = obj.manifold.random_point(1)
    trace = run(obj, x0, SolverConfig(seed=3))
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.iterations > 0
    tail = trace.hess_evals - trace.records[-1].hess_evals
    assert tail > 0 and tail % obj.n == 0


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
    assert [r.weight for r in a.records] == [r.weight for r in b.records]
    assert a.outcome is b.outcome
    assert np.array_equal(a.final_point.data, b.final_point.data)


def test_sigma_floor_is_recorded():
    obj = QuadraticSum.random(10, 3, seed=9, definite=True)
    x0 = obj.manifold.random_point(3)
    cfg = SolverConfig(sigma0=1e-12, seed=10)
    trace = run(obj, x0, cfg)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    # A clamp is an accepted row followed by a row at the floor.
    rows = trace.records
    assert any(a.success and b.weight == SIGMA_MIN for a, b in zip(rows, rows[1:]))
    assert all(rec.weight >= SIGMA_MIN for rec in trace.records)
    _check_trace_laws(trace, cfg, grad_size=obj.n, hess_size=obj.n)


def test_should_terminate_frozen_examples():
    cfg = SolverConfig(eps_g=1e-2, eps_h=1e-1)
    assert should_terminate(0.0, 0.0, cfg)
    assert not should_terminate(cfg.eps_g / 2.0, -2.0 * cfg.eps_h, cfg)
    assert not should_terminate(2.0 * cfg.eps_g, None, cfg)
    with pytest.raises(
        ContractError,
        match="second-order termination test reached without an eigenvalue estimate",
    ):
        should_terminate(cfg.eps_g / 2.0, None, cfg)

    sq = SolverConfig(stop_rule=StopRule.GRAD_SQUARED, tau=1e-3)
    assert should_terminate(0.03, None, sq)  # 9e-4 <= 1e-3
    assert not should_terminate(0.04, None, sq)  # 1.6e-3 > 1e-3


def test_gradient_stop_probes_only_on_every_iteration():
    """Under GRAD_SQUARED the small-gradient level is the stop level, so
    ON_SMALL_GRADIENT never probes, even where rounding puts a gradient
    norm at ``sqrt(tau)`` above the stop test: 0.1 ** 2 > 0.01."""
    for policy in EigPolicy:
        cfg = SolverConfig(stop_rule=StopRule.GRAD_SQUARED, tau=0.01, eig_policy=policy)
        assert not should_terminate(0.1, None, cfg)
        every = policy is EigPolicy.EVERY_ITERATION
        assert runs_probe(0.1, cfg) is every
        assert runs_probe(1e-3, cfg) is False
        assert runs_probe(10.0, cfg) is every


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


def test_sigma0_may_not_start_below_its_clamp():
    """``sigma0`` lies in ``[SIGMA_MIN, inf)``, the range the weight
    update keeps sigma in."""
    SolverConfig(sigma0=SIGMA_MIN).validate()
    with pytest.raises(ContractError, match=r"sigma0 must lie in \[1e-12, inf\)"):
        SolverConfig(sigma0=SIGMA_MIN / 10.0).validate()


@pytest.mark.parametrize(
    "cls, field, bad",
    [
        (SolverConfig, "sigma0", math.inf),
        (SolverConfig, "gamma", math.inf),
        (TrustRegionConfig, "gamma", math.inf),
        (TrustRegionConfig, "delta0", math.inf),
        (SolverConfig, "tau", math.inf),
    ],
)
def test_infinite_weights_rejected(cls, field, bad):
    """An infinite initial weight, weight factor or stop tolerance fails
    validation instead of the first step, a clamp or the first stop
    test."""
    with pytest.raises(ContractError, match=field):
        cls(**{field: bad}).validate()


@pytest.mark.parametrize("cls", [SolverConfig, TrustRegionConfig])
@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_seed_must_be_a_non_negative_integer(cls, seed):
    """A seed that is not a non-negative int fails validation, before a
    run hands it to numpy's ``SeedSequence``."""
    with pytest.raises(ContractError, match="seed must be a non-negative int"):
        cls(seed=seed).validate()


def test_refine_steps_bounds_validated():
    SolverConfig(refine_steps=20).validate()
    with pytest.raises(ContractError):
        SolverConfig(refine_steps=21).validate()
    with pytest.raises(ContractError):
        SolverConfig(refine_steps=-1).validate()


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


class _NanAwayFromStart(QuadraticSum):
    """A quadratic family whose value is NaN at every point but ``start``."""

    def __init__(self, family: QuadraticSum, start):
        super().__init__(family.a, family.b)
        self.start = start

    def value(self, x, idx=None):
        if np.array_equal(x.data, self.start.data):
            return super().value(x, idx)
        return math.nan


def test_non_finite_trial_objective_is_a_numerical_failure():
    """A trial point whose objective is not finite ends the run before
    its row as a numerical failure that names the trial objective, with
    the start point's objective and one objective charge per evaluation."""
    family = QuadraticSum.random(5, 3, seed=11, definite=True)
    x0 = family.manifold.random_point(4)
    obj = _NanAwayFromStart(family, x0)
    trace = run(obj, x0, SolverConfig(seed=15, max_iters=10))
    assert trace.outcome is Outcome.NUMERICAL_FAILURE
    assert trace.failure == "non-finite trial objective"
    assert trace.records == []
    assert trace.final_f == family.value(x0)
    assert np.array_equal(trace.final_point.data, x0.data)
    assert trace.objective_evals == 2 * obj.n


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


def _l_hat_from_steps(objective, x0, cfg, monkeypatch):
    """Run ``cfg`` capturing each trial step, and return the trace with
    ``max 2 |f(R(eta)) - f(x) - <G, eta> - 0.5 <H[eta], eta>| / ||eta||^3``
    over the steps, recomputed from the exact oracles, and the steps."""
    steps = []
    step = SolverConfig.step

    def capture(self, grad, hvp, weight, x, manifold, probe):
        trial = step(self, grad, hvp, weight, x, manifold, probe)
        steps.append((x, trial[0], probe))
        return trial

    monkeypatch.setattr(SolverConfig, "step", capture)
    trace = run(objective, x0, cfg)
    man = objective.manifold
    samples = []
    for x, eta, _ in steps:
        quad = man.inner(objective.gradient(x), eta)
        quad += 0.5 * man.inner(objective.hess_vec(x, eta), eta)
        f_trial = objective.value(man.retract(x, eta))
        remainder = abs(f_trial - objective.value(x) - quad)
        samples.append(2.0 * remainder / man.norm(eta) ** 3)
    return trace, max(samples), steps


@pytest.mark.parametrize("refine_steps", [0, 3])
def test_l_hat_is_the_largest_remainder_ratio(refine_steps, monkeypatch):
    obj = JointDiagObjective(generate_instance(100, 5, 5, seed=301, noise=1e-3))
    x0 = obj.manifold.random_point(302)
    cfg = SolverConfig(
        stop_rule=StopRule.GRAD_SQUARED, seed=303, refine_steps=refine_steps
    )
    trace, expected, _ = _l_hat_from_steps(obj, x0, cfg, monkeypatch)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.l_hat == pytest.approx(expected, rel=1e-9)


def test_l_hat_covers_eigen_steps(monkeypatch):
    obj = SaddleQuartic.random(25, 5, seed=1)
    x0 = obj.manifold.point(np.full((5, 1), 0.05))
    cfg = SolverConfig(seed=4, eig_policy=EigPolicy.EVERY_ITERATION)
    trace, expected, steps = _l_hat_from_steps(obj, x0, cfg, monkeypatch)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.l_hat == pytest.approx(expected, rel=1e-9)
    # Some steps run along the probe's negative-curvature vector.
    man = obj.manifold
    along = [
        abs(man.inner(eta, probe.vector)) == pytest.approx(man.norm(eta), rel=1e-12)
        for _, eta, probe in steps
        if probe is not None and probe.value < 0.0
    ]
    assert any(along)


@pytest.mark.parametrize(
    "variant, sizes",
    [
        ("racr", {}),
        ("sracr", {"hess_sample_size": 9}),
        ("ssracr", {"grad_sample_size": 15, "hess_sample_size": 9}),
    ],
)
def test_cubic_step_reports_reg_only_with_both_oracles_exact(variant, sizes):
    """``reg = sigma/3 ||eta||^3`` is what ``l_hat`` reads off ``m(eta)``,
    and the remainder of the exact quadratic model needs an exact G and
    an exact H, so the rule reports it only with both oracles exact."""
    obj = _low_dispersion_quadratic()
    man = obj.manifold
    x = man.random_point(2)
    cfg = SolverConfig.for_variant(variant, **sizes)
    eta, _, reg = cfg.step(obj.gradient(x), partial(obj.hess_vec, x), 0.5, x, man, None)
    if variant == "racr":
        assert reg == (0.5 / 3.0) * man.norm(eta) ** 3 and reg > 0.0
    else:
        assert reg is None


def test_fail_count_and_sigma_cap_bounds():
    obj = SaddleQuartic.random(15, 4, seed=19)
    x0 = obj.manifold.random_point(8)
    cfg = SolverConfig(seed=20)
    trace = run(obj, x0, cfg)
    assert trace.outcome is Outcome.OPTIMALITY_REACHED
    assert trace.l_hat is not None and trace.l_hat > 0.0
    cap = max(cfg.sigma0, 2.0 * cfg.gamma * trace.l_hat) * 1.1
    assert max(rec.weight for rec in trace.records) <= cap
    allowance = math.log(2.0 * cfg.gamma * trace.l_hat / cfg.sigma0, cfg.gamma)
    assert trace.iterations - trace.n_success <= trace.n_success + allowance
