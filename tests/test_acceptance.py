"""Acceptance gate: ten numbered end-to-end checks with pinned tolerances.

Every test prints exactly one line, ``[criterion NN] PASS ...`` or
``[criterion NN] FAIL ...``, before asserting, so a full run reads as a
checklist. The checks are deterministic: all randomness is seeded.
"""

import json
import math
import statistics
import time

import numpy as np

from riemarc.arc import Outcome, SolverConfig, StopRule, run
from riemarc.bench import (
    BenchmarkPlan,
    RunSet,
    iter_run_files,
    run_plan,
    verify_traces,
)
from riemarc.jointdiag import JointDiagObjective, generate_instance
from riemarc.manifolds import Point, Stiefel, Tangent, sym
from riemarc.oracles import OracleBundle, OracleMode, required_sample_sizes
from riemarc.subproblem import CubicModel, min_eig_estimate, solve_subproblem

from concentration import concentration_trial
from euclidean import CosineSum, Euclidean, SaddleQuartic
from grid_minimum import grid_minimum
from model_points import cauchy_point, eigen_point


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def _euclidean_model(g_vec, h_mat, sigma):
    man = Euclidean(len(g_vec))
    x = man.point(np.zeros((len(g_vec), 1)))
    g = Tangent(np.asarray(g_vec, float).reshape(-1, 1), x)
    h = np.asarray(h_mat, float)

    def hvp(eta):
        return Tangent(h @ eta.data, x)

    return CubicModel(g, hvp, sigma, x, man), man, x


def test_criterion_01_gradient_consistency():
    """Riemannian gradient vs central differences through the retraction:
    50 seeded pairs on a (20, 8, 4) family, relative error <= 1e-6."""
    t0 = time.perf_counter()
    inst = generate_instance(20, 8, 4, seed=501, noise=0.3)
    obj = JointDiagObjective(inst)
    man = obj.manifold
    rng = np.random.default_rng(502)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        x = man.random_point(rng)
        xi = man.random_tangent(x, rng)
        ip = man.inner(obj.gradient(x), xi)
        fp = obj.value(man.retract(x, Tangent(h * xi.data, x)))
        fm = obj.value(man.retract(x, Tangent(-h * xi.data, x)))
        fd = (fp - fm) / (2.0 * h)
        worst = max(worst, abs(fd - ip) / max(1.0, abs(ip)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"gradient FD worst rel err {worst:.3e} <= 1e-06 ({elapsed:.2f}s < 10s)",
    )


def test_criterion_02_hessian_consistency():
    """Hessian-vector products vs central differences of the projected
    gradient field (rel err <= 1e-4) and symmetry of the Hessian form
    (rel err <= 1e-8), 50 seeded pairs on the same family size."""
    t0 = time.perf_counter()
    inst = generate_instance(20, 8, 4, seed=501, noise=0.3)
    obj = JointDiagObjective(inst)
    man = obj.manifold
    rng = np.random.default_rng(512)
    t = 1e-5

    def field(u):
        pt = Point(u)
        eg = obj.euclidean_gradient(pt)
        return eg - u @ sym(u.T @ eg)

    worst_fd = 0.0
    worst_sym = 0.0
    for _ in range(50):
        x = man.random_point(rng)
        xi = man.random_tangent(x, rng)
        eta = man.random_tangent(x, rng)
        hv = obj.hess_vec(x, xi)
        fd = man.project(x, (field(x.data + t * xi.data) - field(x.data - t * xi.data)) / (2.0 * t))
        scale = max(1.0, float(np.linalg.norm(fd.data)))
        worst_fd = max(worst_fd, float(np.linalg.norm(hv.data - fd.data)) / scale)
        a = man.inner(hv, eta)
        b = man.inner(obj.hess_vec(x, eta), xi)
        worst_sym = max(worst_sym, abs(a - b) / max(1.0, abs(a)))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst_fd <= 1e-4 and worst_sym <= 1e-8 and elapsed < 30.0,
        f"Hessian FD worst rel err {worst_fd:.3e} <= 1e-04, symmetry "
        f"{worst_sym:.3e} <= 1e-08 ({elapsed:.2f}s < 30s)",
    )


def test_criterion_03_candidate_step_guarantees():
    """Decrease and step-norm lower bounds for the gradient and curvature
    steps against dense reference quantities: 200 seeded Euclidean models
    of dimension <= 10, zero violations with 1e-10 slack."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(521)
    checked_eigen = 0
    violations = 0
    for _ in range(200):
        d = int(rng.integers(2, 11))
        g = rng.standard_normal(d) * rng.uniform(0.05, 3.0)
        h = rng.standard_normal((d, d))
        h = (h + h.T) / 2.0 - float(rng.uniform(-1.0, 1.5)) * np.eye(d)
        sigma = float(rng.uniform(0.05, 5.0))
        model, man, x = _euclidean_model(g, h, sigma)
        gnorm = float(np.linalg.norm(g))
        k_h = float(np.linalg.norm(h, 2))
        lam = float(np.linalg.eigvalsh(h)[0])

        eta_c, m_c = cauchy_point(model)
        decrease_bound = (gnorm / (2.0 * math.sqrt(3.0))) * min(
            gnorm / k_h, math.sqrt(gnorm / sigma)
        )
        norm_bound = (math.sqrt(k_h**2 + 4.0 * sigma * gnorm) - k_h) / (2.0 * sigma)
        if -m_c < decrease_bound - 1e-10 or man.norm(eta_c) < norm_bound - 1e-10:
            violations += 1

        probe = min_eig_estimate(man, x, model.hvp, seed=int(rng.integers(1 << 30)))
        if probe.value < -1e-10 * max(1.0, probe.op_norm_est):
            nu = probe.value / lam
            if not 0.0 < nu <= 1.0 + 1e-12:
                violations += 1
                continue
            eta_e, m_e = eigen_point(model, probe.vector, probe.value)
            norm_e = man.norm(eta_e)
            bound_e = (nu * abs(lam) / 6.0) * max(norm_e**2, (nu * lam / sigma) ** 2)
            if -m_e < bound_e - 1e-10 or norm_e < nu * abs(lam) / sigma - 1e-10:
                violations += 1
            checked_eigen += 1
    elapsed = time.perf_counter() - t0
    _report(
        3,
        violations == 0 and checked_eigen >= 50 and elapsed < 10.0,
        f"0 violations over 200 models ({checked_eigen} with curvature "
        f"steps) at 1e-10 slack ({elapsed:.2f}s < 10s)",
    )


def test_criterion_04_subsolver_grid_quality():
    """Sub-solver value within 5 percent of a dense grid minimum on 50
    seeded 2-D models (grid [-3, 3]^2, step 1e-3) and never below the
    grid minimum by more than the grid resolution."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    xs = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    worst_ratio = 1.0
    worst_below = 0.0
    interior = True
    for trial in range(50):
        g = rng.standard_normal(2) * rng.uniform(0.3, 1.2)
        h = rng.standard_normal((2, 2))
        h = (h + h.T) / 2.0
        sigma = float(rng.uniform(1.0, 2.0))
        model, man, x = _euclidean_model(g, h, sigma)
        probe = min_eig_estimate(man, x, model.hvp, seed=trial)
        res = solve_subproblem(model, probe=probe, refine_steps=20)

        best, arg = grid_minimum(g, h, sigma, xs)
        if max(abs(arg[0]), abs(arg[1])) > 2.9:
            interior = False
        worst_ratio = min(worst_ratio, res.m_val / best)
        worst_below = max(worst_below, best - res.m_val)
    elapsed = time.perf_counter() - t0
    _report(
        4,
        worst_ratio >= 0.95 and worst_below <= 1e-3 and interior and elapsed < 60.0,
        f"worst value ratio {worst_ratio:.4f} >= 0.95, overshoot "
        f"{worst_below:.2e} <= 1e-03, all grid minima interior "
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_05_stored_run_laws(tmp_path):
    """Every stored benchmark trace satisfies the update recurrence,
    objective bookkeeping, and counter accounting exactly; on a
    deterministic exact-oracle run the rejection count obeys
    N_fail <= N_succ + log_gamma(2 gamma L_hat / sigma_0)."""
    t0 = time.perf_counter()
    plan = BenchmarkPlan(
        cases=[(300, 5, 5)],
        repetitions=2,
        master_seed=11,
        max_iters=500,
        grad_frac=0.5,
        hess_frac=0.1,
    )
    out = tmp_path / "runs"
    report = run_plan(plan, out)
    problems = verify_traces(RunSet(out))
    n_traces = len(iter_run_files(out))

    inst = generate_instance(100, 5, 5, seed=301, noise=1e-3)
    obj = JointDiagObjective(inst)
    x0 = obj.manifold.random_point(302)
    cfg = SolverConfig(
        stop_rule=StopRule.GRAD_SQUARED, tau=1e-3, sigma0=1e-3, seed=303, max_iters=2000
    )
    trace = run(obj, x0, cfg)
    ok_run = trace.outcome is Outcome.OPTIMALITY_REACHED and trace.l_hat is not None
    allowance = math.log(2.0 * cfg.gamma * trace.l_hat / cfg.sigma0, cfg.gamma)
    n_fail = trace.iterations - trace.n_success
    ok_bound = n_fail <= trace.n_success + allowance
    elapsed = time.perf_counter() - t0
    _report(
        5,
        report.failures == [] and problems == [] and n_traces == 8 and ok_run and ok_bound,
        f"{n_traces} stored traces verified exactly; rejections "
        f"{n_fail} <= {trace.n_success} + {allowance:.2f} ({elapsed:.1f}s)",
    )


def test_criterion_06_regularizer_stays_bounded():
    """Exact-oracle run on a (100, 5, 5) family: every regularizer value
    stays within 10 percent of max(sigma_0, 2 gamma L_hat)."""
    t0 = time.perf_counter()
    inst = generate_instance(100, 5, 5, seed=301, noise=1e-3)
    obj = JointDiagObjective(inst)
    x0 = obj.manifold.random_point(302)
    cfg = SolverConfig(
        stop_rule=StopRule.GRAD_SQUARED, tau=1e-3, sigma0=1e-3, seed=303, max_iters=2000
    )
    trace = run(obj, x0, cfg)
    sigma_max = max(rec.sigma for rec in trace.records)
    cap = max(cfg.sigma0, 2.0 * cfg.gamma * trace.l_hat) * 1.1
    elapsed = time.perf_counter() - t0
    _report(
        6,
        trace.outcome is Outcome.OPTIMALITY_REACHED and sigma_max <= cap,
        f"max regularizer {sigma_max:.4g} <= {cap:.4g} "
        f"(L_hat {trace.l_hat:.4g}, {elapsed:.1f}s)",
    )


def test_criterion_07_sample_size_rule():
    """The closed-form sample size reproduces the hand value 14762 at
    (K=1, delta=0.01, delta_g=0.1), and a 1000-trial Monte Carlo on a
    2000-component objective concentrates at rate >= 1 - delta."""
    t0 = time.perf_counter()
    hand = required_sample_sizes(
        k_grad=1.0, k_hess=1.0, delta=0.01, delta_g=0.1, delta_h=0.1
    )
    obj = CosineSum.random(2000, 6, seed=503)
    kg = obj.component_gradient_bound()
    delta = 0.01
    n_g, _ = required_sample_sizes(
        k_grad=kg,
        k_hess=obj.component_hessian_bound(),
        delta=delta,
        delta_g=0.5 * kg,
        delta_h=0.5,
    )
    x = obj.manifold.random_point(504)
    bundle = OracleBundle(
        obj, OracleMode.SUBSAMPLED_BOTH, grad_sample_size=n_g, hess_sample_size=10, seed=505
    )
    rate = concentration_trial(obj, x, bundle, 1000, 0.5 * kg)
    elapsed = time.perf_counter() - t0
    _report(
        7,
        hand == (14762, 14762) and rate >= 1.0 - delta and elapsed < 120.0,
        f"hand value {hand[0]} == 14762; concentration rate {rate:.3f} "
        f">= {1.0 - delta:.2f} with {n_g} draws over 1000 trials "
        f"({elapsed:.1f}s < 120s)",
    )


def test_criterion_08_benchmark_protocol(tmp_path):
    """Five-repetition protocol on the (2015, 5, 5) family: the
    sub-sampled cubic solver reaches the gradient target within budget on
    at least 4 of 5 repetitions and its median oracle-call total beats
    the sub-sampled trust-region baseline."""
    t0 = time.perf_counter()
    plan = BenchmarkPlan(
        cases=[(2015, 5, 5)],
        solvers=["ssracr", "ssrtr"],
        repetitions=5,
        master_seed=7,
        max_iters=2000,
    )
    out = tmp_path / "protocol"
    report = run_plan(plan, out)

    totals = {"ssracr": [], "ssrtr": []}
    converged = {"ssracr": 0, "ssrtr": 0}
    for path in iter_run_files(out):
        meta = json.loads(path.with_suffix(".meta.json").read_text())
        solver = meta["solver"]
        totals[solver].append(meta["grad_evals"] + meta["hess_evals"])
        if meta["outcome"] == "optimality_reached":
            converged[solver] += 1
    med_arc = statistics.median(totals["ssracr"])
    med_tr = statistics.median(totals["ssrtr"])
    elapsed = time.perf_counter() - t0
    _report(
        8,
        report.failures == []
        and converged["ssracr"] >= 4
        and med_arc < med_tr
        and elapsed < 600.0,
        f"cubic converged {converged['ssracr']}/5, median oracle total "
        f"{med_arc:.0f} < {med_tr:.0f} for trust region ({elapsed:.1f}s < 600s)",
    )


def test_criterion_09_tolerance_scaling():
    """Iteration counts on a seeded nonconvex Euclidean problem with
    exact oracles grow no faster than the theoretical rates: log-log
    slope <= 2.3 in the gradient tolerance and <= 3.3 in the curvature
    tolerance across eps in {1e-1, 10^-1.5, 1e-2}."""
    t0 = time.perf_counter()
    obj = SaddleQuartic.random(40, 6, seed=401)
    x0 = obj.manifold.random_point(402)
    eps_values = [1e-1, 10**-1.5, 1e-2]

    def iterations(eps_g, eps_h):
        cfg = SolverConfig(eps_g=eps_g, eps_h=eps_h, seed=403, sigma0=1e-3)
        trace = run(obj, x0, cfg)
        assert trace.outcome is Outcome.OPTIMALITY_REACHED
        return max(trace.iterations, 1)

    logs = [math.log(1.0 / e) for e in eps_values]
    iters_g = [iterations(e, 0.5) for e in eps_values]
    iters_h = [iterations(0.5, e) for e in eps_values]
    slope_g = float(np.polyfit(logs, [math.log(i) for i in iters_g], 1)[0])
    slope_h = float(np.polyfit(logs, [math.log(i) for i in iters_h], 1)[0])
    elapsed = time.perf_counter() - t0
    _report(
        9,
        slope_g <= 2.3 and slope_h <= 3.3,
        f"iteration scaling slopes {slope_g:.3f} <= 2.3 (gradient), "
        f"{slope_h:.3f} <= 3.3 (curvature); counts {iters_g} / {iters_h} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_10_manifold_primitives():
    """1000 seeded retraction/projection operations on each of (5, 3),
    (10, 10), (43, 20): feasibility, tangency, and idempotence residuals
    <= 1e-10, and the retraction is first order along every probe."""
    t0 = time.perf_counter()
    worst = 0.0
    ratio_ok = True
    for d, r in ((5, 3), (10, 10), (43, 20)):
        man = Stiefel(d, r)
        rng = np.random.default_rng([601, d, r])
        for _ in range(1000):
            x = man.random_point(rng)
            w = rng.standard_normal((d, r))
            p = man.project(x, w)
            tangency = float(np.abs(x.data.T @ p.data + p.data.T @ x.data).max())
            again = man.project(x, p.data)
            idem = float(np.abs(again.data - p.data).max()) / max(
                1.0, float(np.abs(p.data).max())
            )
            xi = man.random_tangent(x, rng)
            y = man.retract(x, xi)
            feas = float(np.abs(y.data.T @ y.data - np.eye(r)).max())
            worst = max(worst, tangency, idem, feas)

            e1 = float(
                np.linalg.norm(
                    man.retract(x, Tangent(1e-2 * xi.data, x)).data
                    - (x.data + 1e-2 * xi.data)
                )
            )
            e2 = float(
                np.linalg.norm(
                    man.retract(x, Tangent(1e-3 * xi.data, x)).data
                    - (x.data + 1e-3 * xi.data)
                )
            )
            if e2 > e1 / 50.0 + 1e-13:
                ratio_ok = False
    elapsed = time.perf_counter() - t0
    _report(
        10,
        worst <= 1e-10 and ratio_ok and elapsed < 10.0,
        f"worst residual {worst:.3e} <= 1e-10 over 3000 operations, "
        f"retraction error contracts quadratically ({elapsed:.1f}s < 10s)",
    )
