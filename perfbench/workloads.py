"""Benchmark workloads, their passes and correctness gates.

A pass is one execution of a workload: build its instances (timed as
``setup_s``), run every solver through riemarc's public entry points, and
check the outputs. Plan workloads go through ``riemarc.cli.main`` exactly
as ``riemarc run`` and ``riemarc verify`` would; the ``curvature``
workload calls ``riemarc.run`` and ``riemarc.run_trust_region`` because no
plan can set the eigenvalue policy or the stop rule it needs.

Inputs come only from the workload seed. Instances are derived from it
the way ``riemarc.bench.run_plan`` derives them, so ``setup_s`` times the
same instances the plan runs build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import riemarc
from riemarc import bench, cli, jointdiag
from riemarc.arc import EigPolicy, Outcome, SolverConfig, StopRule
from riemarc.oracles import OracleMode
from riemarc.trust_region import TrustRegionConfig

from .spans import SpanRecorder

_PLAN_DEFAULTS = bench.BenchmarkPlan()

# (name, unit, better). BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("run_s.sracr", "s", "lower"),
    ("run_s.ssracr", "s", "lower"),
    ("run_s.ssrtr", "s", "lower"),
    ("grad_evals", "count", "lower"),
    ("hess_evals", "count", "lower"),
)

PER_LAYER = (
    ("jointdiag.generate_instance.self_s", "s", "lower"),
    ("jointdiag.JointDiagObjective.self_s", "s", "lower"),
    ("jointdiag.value.calls", "count", "lower"),
    ("jointdiag.value.self_s", "s", "lower"),
    ("jointdiag.gradient.full.calls", "count", "lower"),
    ("jointdiag.gradient.full.self_s", "s", "lower"),
    ("jointdiag.gradient.sampled.calls", "count", "lower"),
    ("jointdiag.gradient.sampled.self_s", "s", "lower"),
    ("jointdiag.hess_vec.full.calls", "count", "lower"),
    ("jointdiag.hess_vec.full.self_s", "s", "lower"),
    ("jointdiag.hess_vec.sampled.calls", "count", "lower"),
    ("jointdiag.hess_vec.sampled.self_s", "s", "lower"),
    ("oracles.begin_iteration.calls", "count", "lower"),
    ("oracles.begin_iteration.self_s", "s", "lower"),
    ("oracles.grad_components", "count", "lower"),
    ("oracles.hess_components", "count", "lower"),
    ("oracles.objective_components", "count", "lower"),
    ("manifolds.retract.calls", "count", "lower"),
    ("manifolds.retract.self_s", "s", "lower"),
    ("manifolds.project.calls", "count", "lower"),
    ("manifolds.project.self_s", "s", "lower"),
    ("subproblem.min_eig_estimate.calls", "count", "lower"),
    ("subproblem.min_eig_estimate.self_s", "s", "lower"),
    ("subproblem.min_eig_estimate.lanczos_iters", "count", "lower"),
    ("subproblem.min_eig_estimate.unconverged", "count", "lower"),
    ("subproblem.min_eig_estimate.useful", "count", "higher"),
    ("subproblem.solve_subproblem.calls", "count", "lower"),
    ("subproblem.solve_subproblem.self_s", "s", "lower"),
    ("subproblem.solve_subproblem.eigen_steps", "count", "higher"),
    ("trust_region.tr_subproblem.calls", "count", "lower"),
    ("trust_region.tr_subproblem.self_s", "s", "lower"),
    ("trust_region.tr_subproblem.cg_iters", "count", "lower"),
    ("trust_region.tr_subproblem.boundary", "count", "lower"),
    ("trust_region.run_trust_region.self_s", "s", "lower"),
    ("trust_region.run_trust_region.iterations", "count", "lower"),
    ("trust_region.run_trust_region.accepted", "count", "higher"),
    ("arc.run.self_s", "s", "lower"),
    ("arc.run.iterations", "count", "lower"),
    ("arc.run.accepted", "count", "higher"),
    ("bench.run_plan.self_s", "s", "lower"),
    ("bench.summarize_traces.self_s", "s", "lower"),
    ("bench.write_trace_csv.self_s", "s", "lower"),
    ("bench.write_trace_csv.bytes", "bytes", "lower"),
    ("bench.verify_traces.self_s", "s", "lower"),
    ("bench.determinism_digest.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
)


@dataclass
class PassResult:
    """Outcome of one workload execution."""

    metrics: dict[str, float]
    digest: str
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def derived_seed(parts: list[int]) -> int:
    """Seed derivation of ``riemarc.bench.run_plan``."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def build_instance(master_seed: int, ci: int, rep: int, case: tuple[int, int, int]):
    """The objective and start point ``run_plan`` builds for (case, rep)."""
    n, d, r = case
    seed = derived_seed([master_seed, ci, rep, 11])
    instance = jointdiag.generate_instance(
        n, d, r, seed=seed, noise=_PLAN_DEFAULTS.noise
    )
    objective = jointdiag.JointDiagObjective(instance)
    x0 = objective.manifold.random_point(
        np.random.default_rng([master_seed, ci, rep, 13])
    )
    return objective, x0


def _timed_setup(
    master_seeds: list[int], cases: tuple, repetitions: int, rec: SpanRecorder | None
):
    built = []
    t0 = time.perf_counter()
    with _span(rec, "perfbench.setup"):
        for master_seed in master_seeds:
            for ci, case in enumerate(cases):
                for rep in range(repetitions):
                    built.append(build_instance(master_seed, ci, rep, case))
    return built, time.perf_counter() - t0


def _span(rec: SpanRecorder | None, name: str):
    return contextlib.nullcontext() if rec is None else rec.span(name)


def _cli(argv: list[str], rec: SpanRecorder | None) -> tuple[int, str, str]:
    """In-process ``riemarc <argv>``; returns exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with _span(rec, "cli.main"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass(frozen=True)
class PlanWorkload:
    """``plans`` plans, each with its own master seed derived from the
    workload seed. Every plan is run once per solver with ``riemarc run
    --solvers <s>`` and then checked with ``riemarc verify``. Solvers take
    turns plan by plan, so a slow stretch of a shared machine falls on all
    of them alike instead of on whichever solver was running."""

    name: str
    why: str
    plans: int
    cases: tuple[tuple[int, int, int], ...]
    repetitions: int
    solvers: tuple[str, ...] = bench.SOLVERS

    def shrunk(self) -> "PlanWorkload":
        return replace(self, plans=2, cases=((60, 4, 4),), repetitions=1)

    def run_pass(self, seed: int, work: Path, rec: SpanRecorder | None) -> PassResult:
        plan_seeds = [derived_seed([seed, k]) for k in range(self.plans)]
        _, setup_s = _timed_setup(plan_seeds, self.cases, self.repetitions, rec)
        plan = work / "plan.txt"
        plan.write_text(
            "".join(f"case {n} {d} {r}\n" for n, d, r in self.cases)
            + f"repetitions = {self.repetitions}\n",
            encoding="utf-8",
        )
        metrics = {"setup_s": setup_s} | {f"run_s.{s}": 0.0 for s in self.solvers}
        result = PassResult(metrics=metrics, digest="")
        digests = []

        t_wall = time.perf_counter()
        for k, plan_seed in enumerate(plan_seeds):
            out = work / f"plan{k}"
            for solver in self.solvers:
                t0 = time.perf_counter()
                code, _, err = _cli(
                    ["run", "--plan", str(plan), "--out", str(out), "--seed",
                     str(plan_seed), "--solvers", solver],
                    rec,
                )
                metrics[f"run_s.{solver}"] += time.perf_counter() - t0
                if code != 0:
                    result.errors.append(
                        f"plan {k}: riemarc run --solvers {solver} exited {code}: {err.strip()}"
                    )
            code, verify_out, err = _cli(["verify", str(out)], rec)
            if code != 0 or not verify_out.startswith("ok, digest "):
                result.errors.append(f"plan {k}: riemarc verify exited {code}: {err.strip()}")
            digests.append(verify_out.split()[-1] if verify_out else "")
        metrics["wall_s"] = time.perf_counter() - t_wall

        result.digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()
        grad = hess = 0
        for k in range(self.plans):
            for ci, case in enumerate(self.cases):
                for rep in range(self.repetitions):
                    for solver in self.solvers:
                        result.attempted += 1
                        name = bench.run_name(case, solver, rep)
                        meta_path = work / f"plan{k}" / f"{name}.meta.json"
                        if not meta_path.exists():
                            result.failed += 1
                            continue
                        meta = json.loads(meta_path.read_text(encoding="utf-8"))
                        grad += meta["grad_evals"]
                        hess += meta["hess_evals"]
                        if meta["outcome"] != Outcome.OPTIMALITY_REACHED.value:
                            result.failed += 1
        metrics["grad_evals"] = grad
        metrics["hess_evals"] = hess
        return result


@dataclass(frozen=True)
class CurvatureWorkload:
    """Solvers called through the library API with a Lanczos probe every
    iteration and the second-order stop rule."""

    name: str
    why: str
    case: tuple[int, int, int]
    instances: int
    solvers: tuple[str, ...] = ("sracr", "ssracr", "ssrtr")

    def shrunk(self) -> "CurvatureWorkload":
        return replace(self, case=(60, 5, 5), instances=1)

    def _config(self, solver: str, run_seed: int):
        grad_size, hess_size = bench.sample_sizes(_PLAN_DEFAULTS, self.case[0])
        common = dict(
            stop_rule=StopRule.OPTIMALITY,
            eig_policy=EigPolicy.EVERY_ITERATION,
            seed=run_seed,
            hess_sample_size=hess_size,
        )
        if solver == "ssrtr":
            return TrustRegionConfig(
                mode=OracleMode.SUBSAMPLED_BOTH, grad_sample_size=grad_size, **common
            )
        if solver == "ssracr":
            common["grad_sample_size"] = grad_size
        return SolverConfig.for_variant(solver, **common)

    def run_pass(self, seed: int, work: Path, rec: SpanRecorder | None) -> PassResult:
        built, setup_s = _timed_setup([seed], (self.case,), self.instances, rec)
        metrics = {"setup_s": setup_s} | {f"run_s.{s}": 0.0 for s in self.solvers}
        result = PassResult(metrics=metrics, digest="")
        digest = hashlib.sha256()
        grad = hess = 0

        # Solvers take turns instance by instance, as in PlanWorkload.
        t_wall = time.perf_counter()
        for rep, (objective, x0) in enumerate(built):
            for si, solver in enumerate(self.solvers):
                cfg = self._config(solver, derived_seed([seed, 0, rep, 17, si]))
                entry = riemarc.run_trust_region if solver == "ssrtr" else riemarc.run
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    trace = entry(objective, x0, cfg)
                except Exception as exc:  # noqa: BLE001 - counted as a failed run
                    result.failed += 1
                    result.errors.append(f"{solver} rep {rep}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    metrics[f"run_s.{solver}"] += time.perf_counter() - t0
                if trace.outcome is not Outcome.OPTIMALITY_REACHED:
                    result.failed += 1
                result.errors.extend(
                    f"{solver} rep {rep}: {e}" for e in _check_trace(objective, trace)
                )
                grad += trace.grad_evals
                hess += trace.hess_evals
                digest.update(
                    repr(
                        (solver, rep, trace.iterations, trace.final_f,
                         trace.grad_evals, trace.hess_evals, trace.objective_evals)
                    ).encode()
                )
        metrics["wall_s"] = time.perf_counter() - t_wall
        metrics["grad_evals"] = grad
        metrics["hess_evals"] = hess
        result.digest = digest.hexdigest()
        return result


def _check_trace(objective, trace) -> list[str]:
    """Laws a run must satisfy from its trace alone: a finite objective
    that accepted steps never increase, and a feasible final point."""
    errors = []
    fs = [rec.f for rec in trace.records] + [trace.final_f]
    if not all(math.isfinite(f) for f in fs):
        errors.append("non-finite objective")
    elif any(b > a for a, b in zip(fs, fs[1:])):
        errors.append("objective increased")
    residual = objective.manifold.feasibility_residual(trace.final_point.data)
    if not residual <= 1e-8:
        errors.append(f"final point off the manifold by {residual:.3e}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        PlanWorkload(
            name="wide-n",
            why="many components per case, so full-batch value, gradient and HVP "
            "kernels dominate and per-call overhead does not",
            plans=4,
            cases=((5000, 10, 10),),
            repetitions=3,
        ),
        CurvatureWorkload(
            name="curvature",
            why="Lanczos probe every iteration with eigen steps taken, so curvature "
            "probes and many sub-sampled HVPs per point dominate",
            case=(1000, 12, 12),
            instances=10,
        ),
        PlanWorkload(
            name="desk",
            why="the default plan's small cases, so per-call overhead and trace "
            "writing and verifying dominate",
            plans=4,
            cases=((500, 5, 5), (500, 10, 10), (2015, 5, 5)),
            repetitions=4,
        ),
    )
}
