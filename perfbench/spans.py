"""Spans and counts for the traced benchmark run.

A traced pass installs wrappers on the module and class attributes that
riemarc's solver loops call through (``arc.min_eig_estimate``,
``trust_region.tr_subproblem``, ``bench.write_trace_csv``,
``JointDiagObjective.hess_vec`` and the rest) and removes them when the
pass ends. Each wrapped call records a span (name, start, end, parent) in
memory; observers add per-layer counts read from the call's arguments and
result. Nothing under ``src/riemarc`` is changed.

A layer's self time is its span time minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import riemarc
from riemarc import arc, bench, cli, jointdiag, manifolds, oracles, trust_region


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in SpanRecorder.spans


class SpanRecorder:
    """Spans of one pass, kept in memory, plus named per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as stream:
            for s in self.spans:
                stream.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            start, end = max(s.start, p.start), min(s.end, p.end)
            if end > start:
                children[s.parent].append((start, end))
    return [
        (s.end - s.start) - _covered(children.get(i, [])) for i, s in enumerate(spans)
    ]


def layer_totals(recorder: SpanRecorder) -> dict[str, float]:
    """``<span>.calls`` and ``<span>.self_s`` for every span name, plus the
    recorder's counts."""
    totals: dict[str, float] = defaultdict(int)
    for s, own in zip(recorder.spans, self_times(recorder.spans)):
        totals[f"{s.name}.calls"] += 1
        totals[f"{s.name}.self_s"] += own
    totals.update(recorder.counts)
    return dict(totals)


# -- wrappers ---------------------------------------------------------------

Observer = Callable[[SpanRecorder, tuple, dict, object], None]


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr``. ``name`` is the span name, or a function of the
    call's arguments giving it; ``observe`` adds counts after the call."""

    owner: object
    attr: str
    name: str | Callable[[tuple, dict], str]
    observe: Observer | None = None


def _wrap(recorder: SpanRecorder, fn, hook: Hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = hook.name if isinstance(hook.name, str) else hook.name(args, kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if hook.observe is not None:
            hook.observe(recorder, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(recorder: SpanRecorder, hooks: list[Hook]):
    """Install ``hooks`` for the duration of the block, then restore every
    original attribute."""
    originals = []
    try:
        for hook in hooks:
            original = getattr(hook.owner, hook.attr)
            originals.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, _wrap(recorder, original, hook))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _arg(args: tuple, kwargs: dict, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs.get(keyword)


def _batch(layer: str, position: int) -> Callable[[tuple, dict], str]:
    def name(args, kwargs):
        full = _arg(args, kwargs, position, "idx") is None
        return f"{layer}.{'full' if full else 'sampled'}"

    return name


def _observe_probe(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("subproblem.min_eig_estimate.lanczos_iters", result.iterations)
    rec.count("subproblem.min_eig_estimate.unconverged", int(not result.converged))


def _observe_subsolve(rec: SpanRecorder, args, kwargs, result) -> None:
    if _arg(args, kwargs, 2, "probe") is not None:
        rec.count("subproblem.min_eig_estimate.useful")
    # solve_subproblem breaks ties in favour of the Cauchy point.
    eigen = result.eigen_m is not None and result.eigen_m < result.cauchy_m
    rec.count("subproblem.solve_subproblem.eigen_steps", int(eigen))


def _observe_tr_subproblem(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("trust_region.tr_subproblem.cg_iters", result.iterations)
    rec.count("trust_region.tr_subproblem.boundary", int(result.boundary))


def _observe_solver_run(prefix: str) -> Observer:
    def observe(rec: SpanRecorder, args, kwargs, trace) -> None:
        rec.count(f"{prefix}.iterations", trace.iterations)
        rec.count(f"{prefix}.accepted", trace.n_success)
        rec.count("oracles.grad_components", trace.grad_evals)
        rec.count("oracles.hess_components", trace.hess_evals)
        rec.count("oracles.objective_components", trace.objective_evals)

    return observe


def _observe_trace_file(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("bench.write_trace_csv.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def riemarc_hooks() -> list[Hook]:
    """Every layer boundary the per-layer metrics are taken at. Functions
    imported by name into several modules are wrapped in each of them."""
    objective = jointdiag.JointDiagObjective
    arc_run = _observe_solver_run("arc.run")
    tr_run = _observe_solver_run("trust_region.run_trust_region")
    return [
        Hook(jointdiag, "generate_instance", "jointdiag.generate_instance"),
        Hook(bench, "generate_instance", "jointdiag.generate_instance"),
        Hook(objective, "__init__", "jointdiag.JointDiagObjective"),
        Hook(objective, "value", "jointdiag.value"),
        Hook(objective, "gradient", _batch("jointdiag.gradient", 2)),
        Hook(objective, "hess_vec", _batch("jointdiag.hess_vec", 3)),
        Hook(oracles.OracleBundle, "begin_iteration", "oracles.begin_iteration"),
        Hook(manifolds.Stiefel, "retract", "manifolds.retract"),
        Hook(manifolds.Stiefel, "project", "manifolds.project"),
        Hook(arc, "min_eig_estimate", "subproblem.min_eig_estimate", _observe_probe),
        Hook(
            trust_region,
            "min_eig_estimate",
            "subproblem.min_eig_estimate",
            _observe_probe,
        ),
        Hook(
            arc, "solve_subproblem", "subproblem.solve_subproblem", _observe_subsolve
        ),
        Hook(
            trust_region,
            "tr_subproblem",
            "trust_region.tr_subproblem",
            _observe_tr_subproblem,
        ),
        Hook(arc, "run", "arc.run", arc_run),
        Hook(riemarc, "run", "arc.run", arc_run),
        Hook(bench, "run_trust_region", "trust_region.run_trust_region", tr_run),
        Hook(riemarc, "run_trust_region", "trust_region.run_trust_region", tr_run),
        Hook(cli, "run_plan", "bench.run_plan"),
        Hook(bench, "summarize_traces", "bench.summarize_traces"),
        Hook(bench, "write_trace_csv", "bench.write_trace_csv", _observe_trace_file),
        Hook(cli, "verify_traces", "bench.verify_traces"),
        Hook(cli, "determinism_digest", "bench.determinism_digest"),
    ]
