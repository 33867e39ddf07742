"""Benchmark harness: plan parsing, artifacts, verification, determinism."""

import builtins
import collections
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riemarc.arc import (
    EigPolicy,
    IterationRecord,
    Outcome,
    RunTrace,
    SolverConfig,
    run,
)
from riemarc.bench import (
    TRACE_CODECS,
    TRACE_COLUMNS,
    BenchmarkPlan,
    RunSet,
    SOLVERS,
    _derived_seed,
    csv_text,
    default_plan,
    determinism_digest,
    iter_run_files,
    parse_plan,
    run_name,
    run_plan,
    sample_sizes,
    summarize_traces,
    verify_traces,
    write_summary,
    write_trace_csv,
)
from riemarc import bench
from riemarc.cli import main as cli_main
from riemarc.errors import ContractError, PlanError
from riemarc.jointdiag import JointDiagObjective, generate_instance
from riemarc.manifolds import Manifold
from riemarc.oracles import OracleBundle, OracleMode

from euclidean import SaddleQuartic

# Small but not tiny: protocol-style fractions at n below ~100 give
# single-digit sample sizes whose noise stalls the sub-sampled solvers,
# and sub-frame cases (r < d) stall sub-sampled trust region on some
# seeds. A square 300-matrix family converges for all four solvers in a
# few dozen iterations while keeping the fixture fast.
_TINY_PLAN = BenchmarkPlan(
    cases=[(300, 5, 5)],
    repetitions=2,
    master_seed=7,
    max_iters=500,
    grad_frac=0.5,
    hess_frac=0.1,
)


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "runs"
    report = run_plan(_TINY_PLAN, out)
    assert report.failures == []
    return out


def test_parse_plan_full_text():
    text = """
    # benchmark layout
    case 500 5 5
    case 2015 5 5   # the big family
    solvers = ssracr, ssrtr
    repetitions = 5
    master_seed = 3
    noise = 1e-2
    sigma0 = 1e-4
    tau = 2e-3
    grad_frac = 0.5
    max_iters = 99
    """
    plan = parse_plan(text)
    assert plan.cases == [(500, 5, 5), (2015, 5, 5)]
    assert plan.solvers == ["ssracr", "ssrtr"]
    assert plan.repetitions == 5
    assert plan.master_seed == 3
    assert plan.noise == 1e-2
    assert plan.sigma0 == 1e-4
    assert plan.tau == 2e-3
    assert plan.grad_frac == 0.5
    assert plan.max_iters == 99


def test_parse_plan_errors():
    with pytest.raises(PlanError):
        parse_plan("case 1 2\n")  # arity
    with pytest.raises(PlanError):
        parse_plan("case 10 3 2\nfoo = 1\n")
    with pytest.raises(PlanError):
        parse_plan("case 10 3 2\nrepetitions = soon\n")
    with pytest.raises(PlanError):
        parse_plan("")  # no cases
    with pytest.raises(PlanError):
        parse_plan("case 10 3 2\nsolvers = racr sgd\n")
    with pytest.raises(PlanError):
        parse_plan("case 10 3 2\ngrad_frac = 2.0\n")
    with pytest.raises(PlanError):
        parse_plan("case 10 3 5\n")  # r > d
    with pytest.raises(PlanError, match="master_seed"):
        parse_plan("case 10 3 2\nmaster_seed = -1\n")
    with pytest.raises(PlanError, match="more than once"):
        parse_plan("case 10 3 2\nsolvers = racr ssrtr racr\n")
    # A repeated case would write its runs over the first one's files.
    with pytest.raises(PlanError, match="case 60 4 4 is listed more than once"):
        parse_plan("case 60 4 4\ncase 60 4 4\nrepetitions = 1\nsolvers = racr\n")
    # Only the word ``case`` starts a case line.
    for line in ("case500 5 5 5", "casement 10 2 2", "case_a 10 2 2"):
        with pytest.raises(PlanError, match="line 1: expected 'key = value'"):
            parse_plan(f"{line}\ncase 10 3 2\n")
    with pytest.raises(PlanError, match="line 1: cannot override 'cases'"):
        parse_plan("cases = 3\ncase 10 3 2\n")


def test_a_case_line_with_a_non_integer_names_its_line():
    with pytest.raises(
        PlanError, match="^line 2: invalid literal for int\\(\\) with base 10: 'two'$"
    ):
        parse_plan("repetitions = 1\ncase 10 3 two\n")


@pytest.mark.parametrize("noise", [math.inf, math.nan, -1.0])
def test_plan_noise_must_be_finite_and_non_negative(tmp_path, noise):
    """A plan built in code is held to ``generate_instance``'s noise rule
    before any run, so ``run_plan`` writes nothing."""
    plan = BenchmarkPlan(cases=[(40, 4, 3)], repetitions=1, noise=noise)
    message = f"noise must be finite and non-negative, got {noise}"
    with pytest.raises(PlanError, match=message):
        plan.validate()
    with pytest.raises(PlanError, match=message):
        run_plan(plan, tmp_path / "out")
    assert not (tmp_path / "out").exists()


_NOISE = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 40),
    d=st.integers(0, 6),
    r=st.integers(0, 6),
    noise=_NOISE,
)
@example(n=1, d=1, r=1, noise=-0.0)
@example(n=0, d=0, r=0, noise=math.nan)
@example(n=5, d=3, r=4, noise=1e-3)
def test_one_instance_rule_for_plans_instances_and_sidecars(n, d, r, noise):
    """The plan check, the instance builder and verify's provenance law
    reject exactly the same cases and noise levels, with the one message
    of ``check_instance``: the plan's names the case, and the builder
    raises before it draws anything."""
    valid = n >= 1 and 1 <= r <= d and 0.0 <= noise < math.inf
    plan = BenchmarkPlan(cases=[(n, d, r)], repetitions=1, noise=noise)
    run = SimpleNamespace(
        case={"n": n, "d": d, "r": r},
        solver="racr",
        master_seed=7,
        case_index=0,
        rep=0,
        instance_seed=bench._instance_seed(7, 0, 0),
        noise=noise,
    )
    cfg = SolverConfig(seed=bench._run_seed(7, 0, 0, "racr"))
    violations = list(bench._check_provenance(run, cfg, {}))
    if valid:
        plan.validate()
        assert generate_instance(n, d, r, seed=3, noise=noise).n == n
        assert violations == []
        return
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError("drew")):
        with pytest.raises(ContractError) as raised:
            generate_instance(n, d, r, seed=3, noise=noise)
    rule = str(raised.value)
    with pytest.raises(PlanError) as plan_error:
        plan.validate()
    assert str(plan_error.value) == f"case {n} {d} {r}: {rule}"
    assert violations == [rule]


def test_plan_validates_only_selected_solver_configs():
    with pytest.raises(PlanError, match="gamma"):
        parse_plan("case 10 3 2\ngamma = 0.5\n")
    with pytest.raises(PlanError, match="refine_steps"):
        parse_plan("case 10 3 2\nsolvers = sracr\nrefine_steps = 21\n")
    # delta0 only reaches the trust-region config, refine_steps only the
    # cubic ones.
    parse_plan("case 10 3 2\nsolvers = racr\ndelta0 = 0\n")
    parse_plan("case 10 3 2\nsolvers = ssrtr\nrefine_steps = 21\n")


def test_plan_validation_builds_one_config_per_solver(monkeypatch):
    built = []
    real = bench.solver_config

    def counting(plan, solver, n, run_seed):
        built.append(solver)
        return real(plan, solver, n, run_seed)

    monkeypatch.setattr(bench, "solver_config", counting)
    plan = default_plan()
    assert len(plan.cases) > 1
    plan.validate()
    assert built == list(SOLVERS)


def test_default_plan_shape():
    plan = default_plan()
    plan.validate()
    assert (2015, 5, 5) in plan.cases
    assert plan.solvers == list(SOLVERS)


def test_sample_sizes():
    plan = BenchmarkPlan(cases=[(2015, 5, 5)])
    assert sample_sizes(plan, 2015) == (503, 50)
    assert sample_sizes(plan, 3) == (1, 1)


def test_run_name():
    assert run_name((500, 5, 5), "ssracr", 2) == "case500x5x5_rep2_ssracr"


def test_derived_seed_determinism():
    assert _derived_seed([1, 2, 3]) == _derived_seed([1, 2, 3])
    assert _derived_seed([1, 2, 3]) != _derived_seed([1, 2, 4])
    assert _derived_seed([0]) >= 0


def test_run_plan_artifacts(bench_dir):
    csvs = iter_run_files(bench_dir)
    assert len(csvs) == 8  # 1 case x 2 reps x 4 solvers
    names = {p.name for p in csvs}
    for solver in SOLVERS:
        for rep in range(2):
            stem = run_name(_TINY_PLAN.cases[0], solver, rep)
            assert f"{stem}.csv" in names
            assert (bench_dir / f"{stem}.meta.json").exists()
    assert (bench_dir / "summary.csv").exists()


def test_run_plan_summary_rows(bench_dir):
    rows = summarize_traces(RunSet(bench_dir))
    assert [row.solver for row in rows] == sorted(SOLVERS)
    for row in rows:
        assert row.case == "case300x5x5"
        assert row.reps == 2
        assert row.success_rate == 1.0
        assert row.grad_evals_total > 0
        assert row.hess_evals_total > 0


def test_meta_fields_by_solver(bench_dir):
    tr_meta = json.loads(
        (bench_dir / "case300x5x5_rep0_ssrtr.meta.json").read_text()
    )
    assert "sigma0" not in tr_meta
    assert tr_meta["grad_sample_size"] == 150
    assert tr_meta["hess_sample_size"] == 30

    arc_meta = json.loads(
        (bench_dir / "case300x5x5_rep0_racr.meta.json").read_text()
    )
    assert arc_meta["grad_sample_size"] is None
    assert arc_meta["hess_sample_size"] is None

    sr_meta = json.loads(
        (bench_dir / "case300x5x5_rep0_sracr.meta.json").read_text()
    )
    assert sr_meta["grad_sample_size"] is None
    assert sr_meta["hess_sample_size"] == 30

    ss_meta = json.loads(
        (bench_dir / "case300x5x5_rep0_ssracr.meta.json").read_text()
    )
    assert ss_meta["grad_sample_size"] == 150
    assert ss_meta["hess_sample_size"] == 30


def _start(meta):
    """The objective and start point ``bench.start_point`` derives from
    the position a sidecar records."""
    position = [meta[k] for k in ("master_seed", "case_index", "rep")]
    case = tuple(meta["case"][k] for k in "ndr")
    _, objective, x0 = bench.start_point(*position, case, meta["noise"])
    return objective, x0


def _rows_without_millis(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("millis")
    return [row[:col] + row[col + 1 :] for row in rows]


@pytest.mark.parametrize("solver", SOLVERS)
def test_sidecar_is_enough_to_rerun(bench_dir, tmp_path, solver):
    stem = run_name(_TINY_PLAN.cases[0], solver, 1)
    meta = json.loads((bench_dir / f"{stem}.meta.json").read_text())
    cfg = bench.config_from_sidecar(meta)
    trace = bench.solve(*_start(meta), cfg)
    rerun = tmp_path / "rerun.csv"
    write_trace_csv(trace, rerun)
    assert _rows_without_millis(rerun) == _rows_without_millis(
        bench_dir / f"{stem}.csv"
    )
    assert trace.outcome.value == meta["outcome"]
    assert (trace.grad_evals, trace.hess_evals, trace.objective_evals) == (
        meta["grad_evals"],
        meta["hess_evals"],
        meta["objective_evals"],
    )


def test_trace_radius_columns(bench_dir):
    """Every solver's trace has the header ``TRACE_COLUMNS``, the radius
    of ``ssrtr`` included, under ``weight``."""
    for solver in SOLVERS:
        path = bench_dir / f"case300x5x5_rep0_{solver}.csv"
        assert path.read_text().splitlines()[0].split(",") == list(TRACE_COLUMNS)


def test_verify_clean_run(bench_dir):
    assert verify_traces(RunSet(bench_dir)) == []


def test_rerun_reproduces_digest(bench_dir, tmp_path):
    again = tmp_path / "again"
    report = run_plan(_TINY_PLAN, again)
    assert report.failures == []
    assert determinism_digest(RunSet(again)) == determinism_digest(RunSet(bench_dir))


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """The default plan, its run directory and the ``ok, digest`` line
    ``riemarc verify`` printed for it, as given and under ``refine_steps
    = 3``, keyed by ``refine_steps``."""
    runs = {}
    for refine_steps in (0, 3):
        plan = dataclasses.replace(default_plan(), refine_steps=refine_steps)
        out = tmp_path_factory.mktemp(f"default_refine{refine_steps}")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            argv = ["run", "--out", str(out), "--set", f"refine_steps={refine_steps}"]
            assert cli_main(argv) == 0
            assert cli_main(["verify", str(out)]) == 0
        runs[refine_steps] = plan, out, printed.getvalue().splitlines()[-1]
    return runs


@pytest.mark.parametrize("refine_steps", [0, 3])
@pytest.mark.parametrize("solver", SOLVERS)
def test_sidecar_config_is_the_config_run(default_runs, solver, refine_steps):
    """``config_from_sidecar`` gives back the very config ``solver_config``
    built for each run, an unsampled oracle's size ``None`` included."""
    plan, out, _ = default_runs[refine_steps]
    for ci, case in enumerate(plan.cases):
        for rep in range(plan.repetitions):
            meta_path = out / f"{run_name(case, solver, rep)}.meta.json"
            position = [plan.master_seed, ci, rep, 17, SOLVERS.index(solver)]
            cfg = bench.solver_config(plan, solver, case[0], _derived_seed(position))
            assert bench.config_from_sidecar(json.loads(meta_path.read_text())) == cfg


def test_sidecars_hold_exactly_the_keys_verify_allows(default_runs, bench_dir):
    """A sidecar holds the fields of ``RunRecord`` and of its config class,
    which share no name, and nothing else."""
    directories = [bench_dir, *(out for _, out, _ in default_runs.values())]
    paths = [path for out in directories for path in out.glob("*.meta.json")]
    assert len(paths) == 2 * 36 + 8
    run_keys = {f.name for f in dataclasses.fields(bench.RunRecord)}
    for path in paths:
        meta = json.loads(path.read_text())
        cls = type(bench.config_from_sidecar(meta))
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not run_keys & fields
        assert meta.keys() == run_keys | fields


@pytest.mark.parametrize("solver", SOLVERS)
def test_a_sidecar_reads_back_as_the_record_and_config_written(
    tmp_path, monkeypatch, solver
):
    """Each sidecar ``run_plan`` writes parses back through
    ``_read_sidecar`` to the ``RunRecord`` and the config it was written
    from."""
    written = []
    to_sidecar = bench._config_sidecar

    def spy(record):
        written.append(record)
        return to_sidecar(record)

    monkeypatch.setattr(bench, "_config_sidecar", spy)
    plan = dataclasses.replace(_TINY_PLAN, solvers=[solver])
    out = tmp_path / "runs"
    assert run_plan(plan, out).failures == []
    assert len(written) == 2 * plan.repetitions
    for record, cfg in zip(written[::2], written[1::2]):
        case = tuple(record.case[k] for k in "ndr")
        path = out / f"{run_name(case, solver, record.rep)}.csv"
        assert bench._read_sidecar(path) == (record, cfg)


# JSON numbers a sidecar key may hold in place of its written value, some
# of which the reader accepts: an int for a float key, a negative zero,
# ints past 64 bits, and null, as for an exact oracle's sample size.
_NUMBER_FORMS = st.sampled_from([None, 0, -0.0, 1, 2, 0.5, 2**64, 10**30, 1e300])


@pytest.fixture(scope="module")
def sidecar_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sidecars")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_sidecar_the_reader_accepts_is_the_json_it_writes(
    bench_dir, sidecar_dir, data
):
    """Every sidecar ``_read_sidecar`` accepts serializes back through
    ``_sidecar`` to its own JSON value, so the digest, which hashes the
    typed ``RunRecord`` and config, hashes what the file holds. Written
    sidecars are redrawn over the JSON forms of ``_NUMBER_FORMS``, in up
    to four numeric keys, ``case`` entries included."""
    source = data.draw(st.sampled_from(sorted(bench_dir.glob("*.meta.json"))))
    meta = json.loads(source.read_text(encoding="utf-8"))
    numeric = [k for k, v in meta.items() if v is None or type(v) in (int, float)]
    keys = [(meta, key) for key in numeric] + [(meta["case"], key) for key in "ndr"]
    for target, key in data.draw(st.lists(st.sampled_from(keys), max_size=4)):
        target[key] = data.draw(_NUMBER_FORMS)
    text = json.dumps(meta)
    path = sidecar_dir / "run.csv"
    path.with_suffix(".meta.json").write_text(text, encoding="utf-8")
    try:
        record, cfg = bench._read_sidecar(path)
    except PlanError:
        return
    written = json.dumps(bench._sidecar(record, cfg), sort_keys=True)
    assert written == json.dumps(json.loads(text), sort_keys=True)


_SIZES_OBJECTIVE = JointDiagObjective(generate_instance(20, 3, 2, seed=5))


@settings(max_examples=200, deadline=None)
@given(
    solver=st.sampled_from(SOLVERS),
    grad_size=st.sampled_from([None, -1, 0, 1, 20, 21, 2.5, True, 3.0]),
    hess_size=st.sampled_from([None, -1, 0, 1, 20, 21, 2.5, True, 3.0]),
)
def test_bundle_and_verify_accept_the_same_sample_sizes(solver, grad_size, hess_size):
    """One sampling rule: the ``OracleBundle`` a run builds accepts a pair
    of sample sizes exactly when ``config_from_sidecar`` accepts a
    sidecar that records them, in every oracle mode."""
    n = _SIZES_OBJECTIVE.n
    cfg = bench.solver_config(_TINY_PLAN, solver, n, 0)
    meta = {**bench._config_sidecar(cfg), "solver": solver, "case": {"n": n}}
    meta.update(grad_sample_size=grad_size, hess_sample_size=hess_size)
    try:
        OracleBundle(
            _SIZES_OBJECTIVE,
            cfg.mode,
            grad_sample_size=grad_size,
            hess_sample_size=hess_size,
        )
        bundle_accepts = True
    except ContractError:
        bundle_accepts = False
    try:
        bench.config_from_sidecar(meta)
        verify_accepts = True
    except (ValueError, ContractError):
        verify_accepts = False
    assert bundle_accepts == verify_accepts


def test_non_finite_start_objective_is_a_numerical_failure(tmp_path, capsys):
    """An objective that overflows at the start point ends every run at
    once as a numerical failure with no rows, through both entry points
    and through ``riemarc run``, which writes each run and exits 2, and
    whose artifacts verify. JSON has no NaN, so each sidecar holds a
    null ``final_f`` and parses as strict JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    runs = tmp_path / "runs"
    plan_path = tmp_path / "overflow.plan"
    plan_path.write_text("case 60 4 4\nrepetitions = 1\nnoise = 1e200\n")
    with np.errstate(all="ignore"):
        _, objective, x0 = bench.start_point(7, 0, 0, (60, 4, 4), 1e200)
        for solver in SOLVERS:
            cfg = bench.solver_config(_TINY_PLAN, solver, 60, 0)
            trace = bench.solve(objective, x0, cfg)
            assert trace.outcome is Outcome.NUMERICAL_FAILURE
            assert trace.failure == "non-finite objective at the start point"
            assert trace.records == [] and not math.isfinite(trace.final_f)
        assert cli_main(["run", "--out", str(runs), "--plan", str(plan_path)]) == 2
    err = capsys.readouterr().err
    assert err.count(": non-finite objective at the start point\n") == len(SOLVERS)
    for solver in SOLVERS:
        text = (runs / f"case60x4x4_rep0_{solver}.meta.json").read_text()
        meta = json.loads(text, parse_constant=reject)
        assert (meta["outcome"], meta["iterations"]) == ("numerical_failure", 0)
        assert meta["final_f"] is None
    assert cli_main(["verify", str(runs)]) == 0
    assert capsys.readouterr().out.startswith("ok, digest ")


def test_cli_reports_an_overflowing_run_by_its_failure_line_alone(tmp_path, capsys):
    """``riemarc run`` on an instance that overflows, outside any
    ``np.errstate``, prints one ``failure:`` line per run and none of
    numpy's warnings, and writes every run."""
    runs = tmp_path / "runs"
    plan_path = tmp_path / "overflow.plan"
    plan_path.write_text("case 60 4 4\nrepetitions = 1\nnoise = 1e200\n")
    assert cli_main(["run", "--out", str(runs), "--plan", str(plan_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(SOLVERS)
    for line in lines:
        assert line.startswith("failure: ")
        assert line.endswith(": non-finite objective at the start point")
    for solver in SOLVERS:
        meta = json.loads((runs / f"case60x4x4_rep0_{solver}.meta.json").read_text())
        assert meta["outcome"] == "numerical_failure"


def test_non_finite_gradient_norm_is_a_numerical_failure(tmp_path, capsys):
    """A gradient whose norm overflows at a finite start objective ends
    every run as a numerical failure with no rows, not as a sub-solver
    failure: ``riemarc run`` names the gradient norm in each failure
    line, writes each run and exits 2, and the artifacts verify."""
    runs = tmp_path / "runs"
    plan_path = tmp_path / "overflow.plan"
    plan_path.write_text("case 3 3 1\nrepetitions = 1\nnoise = 1e80\n")
    assert cli_main(["run", "--out", str(runs), "--plan", str(plan_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"failure: {run_name((3, 3, 1), solver, 0)}: non-finite gradient norm"
        for solver in SOLVERS
    ]
    for solver in SOLVERS:
        meta = json.loads((runs / f"case3x3x1_rep0_{solver}.meta.json").read_text())
        assert (meta["outcome"], meta["iterations"]) == ("numerical_failure", 0)
        assert math.isfinite(meta["final_f"])
    assert cli_main(["verify", str(runs)]) == 0


@pytest.mark.parametrize(
    "constant, value",
    [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e999", "inf")],
)
def test_sidecar_must_be_strict_json(tmp_path, capsys, constant, value):
    """``run`` writes strict JSON, so a sidecar that holds a number strict
    JSON cannot, here in place of a null ``final_f``, is unreadable: one
    of the constants only Python's parser reads, or a literal that reads
    as an infinity."""
    runs = tmp_path / "runs"
    plan = "case 5 3 2\nrepetitions = 1\nsolvers = racr\nnoise = 1e200\n"
    (tmp_path / "plan").write_text(plan)
    assert cli_main(["run", "--out", str(runs), "--plan", str(tmp_path / "plan")]) == 2
    path = runs / "case5x3x2_rep0_racr.meta.json"
    text = path.read_text()
    assert '"final_f": null' in text
    path.write_text(text.replace('"final_f": null', f'"final_f": {constant}'))
    capsys.readouterr()
    assert cli_main(["verify", str(runs)]) == 1
    err = capsys.readouterr().err
    assert f"unreadable sidecar: 'final_f' is {value}" in err


def test_verify_allows_a_null_final_f_only_after_no_step(bench_dir, tmp_path):
    """A null ``final_f`` stands for a start objective that was not
    finite, so a run that took steps and claims optimality may not end
    on one."""
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)

    def mutate(copy):
        path = copy / f"{stem}.meta.json"
        meta = json.loads(path.read_text())
        meta["final_f"] = None
        path.write_text(json.dumps(meta))

    problems = _tampered(bench_dir, tmp_path, "null_final_f", mutate)
    rows = len(_success_flags(bench_dir / f"{stem}.csv"))
    assert problems == [
        f"{stem}.csv: final_f is null with outcome optimality_reached, {rows} rows"
    ]


def test_perfbench_builds_the_instances_run_plan_builds():
    """perfbench times ``setup_s`` on its own copy of the derivation, so
    it must give the packed rows and start point ``bench.start_point``
    gives at the same position."""
    from perfbench.workloads import build_instance

    noise = BenchmarkPlan().noise
    for master_seed in (3, 41):
        for ci, case in enumerate([*default_plan().cases, (5000, 10, 10)]):
            for rep in range(2):
                objective, x0 = build_instance(master_seed, ci, rep, case)
                _, want, want_x0 = bench.start_point(master_seed, ci, rep, case, noise)
                assert np.array_equal(objective.instance.rows, want.instance.rows)
                assert np.array_equal(x0.data, want_x0.data)


def _tampered(bench_dir, tmp_path, label, mutate):
    copy = tmp_path / label
    shutil.copytree(bench_dir, copy)
    mutate(copy)
    return verify_traces(RunSet(copy))


def _pick_long_trace(directory, min_rows=3):
    for path in iter_run_files(directory):
        if len(path.read_text().splitlines()) > min_rows:
            return path
    raise AssertionError("no trace long enough to tamper with")


def test_verify_flags_missing_sidecar(bench_dir, tmp_path):
    def mutate(copy):
        (copy / "case300x5x5_rep0_racr.meta.json").unlink()

    problems = _tampered(bench_dir, tmp_path, "nometa", mutate)
    assert any("missing sidecar" in p for p in problems)


def test_verify_flags_flipped_success(bench_dir, tmp_path):
    def mutate(copy):
        path = copy / _pick_long_trace(bench_dir).name
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("success")
        fields = lines[1].split(",")
        fields[col] = "0" if fields[col] == "1" else "1"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    problems = _tampered(bench_dir, tmp_path, "flip", mutate)
    assert any("success flag contradicts rho" in p for p in problems)


def test_verify_flags_radius_tampering(bench_dir, tmp_path):
    def mutate(copy):
        path = copy / _pick_long_trace(bench_dir).name
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("weight")
        fields = lines[2].split(",")
        fields[col] = repr(float(fields[col]) * 1.5)
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    problems = _tampered(bench_dir, tmp_path, "radius", mutate)
    assert any("expected" in p for p in problems)


def test_verify_flags_truncated_trace(bench_dir, tmp_path):
    def mutate(copy):
        path = copy / _pick_long_trace(bench_dir).name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")

    problems = _tampered(bench_dir, tmp_path, "truncated", mutate)
    assert any("iterations" in p for p in problems)


def test_verify_flags_renamed_column(bench_dir, tmp_path):
    def mutate(copy):
        path = copy / _pick_long_trace(bench_dir).name
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("grad_norm", "gnorm")
        path.write_text("\n".join(lines) + "\n")

    problems = _tampered(bench_dir, tmp_path, "columns", mutate)
    assert any("unexpected columns" in p for p in problems)


_UNREADABLE_ROWS = {
    "f-is-text": lambda cells: [cells[0], "abc", *cells[2:]],
    "k-is-fractional": lambda cells: ["1.5", *cells[1:]],
    "cut-to-5-cells": lambda cells: cells[:5],
}


@pytest.mark.parametrize("edit", sorted(_UNREADABLE_ROWS))
def test_unreadable_trace_row_is_a_violation(bench_dir, tmp_path, capsys, edit):
    """A row verify cannot parse is reported for its run, and the other
    runs are still checked."""
    copy = tmp_path / "runs"
    shutil.copytree(bench_dir, copy)
    victim = copy / _pick_long_trace(bench_dir).name
    lines = victim.read_text().splitlines()
    lines[2] = ",".join(_UNREADABLE_ROWS[edit](lines[2].split(",")))
    victim.write_text("\n".join(lines) + "\n")
    other = next(p for p in iter_run_files(copy) if p != victim)
    other.with_suffix(".meta.json").unlink()

    assert cli_main(["verify", str(copy)]) == 1
    err = capsys.readouterr().err
    assert f"violation: {victim.name}: unreadable row 1: " in err
    assert f"violation: {other.name}: missing sidecar" in err


def _finite_float(text):
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


# The trace columns verify reads, each with what a readable cell is: a
# float cell only a finite number, since no run writes any other.
_READ_CELLS = {
    "k": int,
    "f": _finite_float,
    "grad_norm": _finite_float,
    "weight": _finite_float,
    "model_val": _finite_float,
    "rho": _finite_float,
    "success": ("0", "1").index,
    "lambda_min": lambda text: text == "" or _finite_float(text),
    "grad_evals": int,
    "hess_evals": int,
    "millis": _finite_float,
}


def _readable(column, text):
    try:
        _READ_CELLS[column](text)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def edit_dir(bench_dir, tmp_path_factory):
    copy = tmp_path_factory.mktemp("edits") / "runs"
    shutil.copytree(bench_dir, copy)
    return copy


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_survives_any_single_cell_edit(edit_dir, data):
    """Any text in any one trace cell leaves verify exiting 0 or 1. It
    exits 1 when the header changes, when the edited row has the wrong
    cell count, or when a cell verify reads no longer parses."""
    path = data.draw(st.sampled_from(iter_run_files(edit_dir)))
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    col = data.draw(st.integers(0, len(cells) - 1))
    text = data.draw(st.text())
    lines[row] = ",".join([*cells[:col], text, *cells[col + 1 :]])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(["verify", str(edit_dir)])
    finally:
        path.write_text(original, encoding="utf-8")

    assert code in (0, 1)
    if len(f"x{text}x".splitlines()) > 1 or text == cells[col]:
        return  # a line break reshapes the file; an equal cell changes nothing
    column = lines[0].split(",")[col] if row else None
    unreadable = column in _READ_CELLS and not _readable(column, text)
    if row == 0 or "," in text or unreadable:
        assert code == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_flags_any_single_cell_edit_of_the_summary(edit_dir, data):
    """Any text in any one ``summary.csv`` cell that changes the file is
    flagged: the file must be the summary the sidecars give, byte for
    byte."""
    path = edit_dir / "summary.csv"
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    col = data.draw(st.integers(0, len(cells) - 1))
    lines[row] = ",".join([*cells[:col], data.draw(st.text()), *cells[col + 1 :]])
    edited = "\n".join(lines) + "\n"
    path.write_bytes(edited.encode("utf-8"))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(["verify", str(edit_dir)])
    finally:
        path.write_text(original, encoding="utf-8")

    assert code == (0 if edited == original else 1)


@pytest.mark.parametrize("edit", ["missing", "success_rate"])
def test_verify_checks_the_summary(bench_dir, tmp_path, capsys, edit):
    """A missing ``summary.csv``, or one whose line differs from the
    summary the sidecars give, is a violation and verify exits 1."""
    copy = tmp_path / edit
    shutil.copytree(bench_dir, copy)
    path = copy / "summary.csv"
    if edit == "missing":
        path.unlink()
        expected = "summary.csv: missing"
    else:
        lines = path.read_text().splitlines(keepends=True)
        col = lines[0].split(",").index("success_rate")
        cells = lines[1].split(",")
        assert cells[col] == "1.0"
        cells[col] = "0.5"
        edited = ",".join(cells)
        path.write_text("".join([lines[0], edited, *lines[2:]]))
        expected = f"summary.csv: line 2 is {edited!r}, expected {lines[1]!r}"

    assert verify_traces(RunSet(copy)) == [expected]
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1e200", "-1e200"])
def test_verify_flags_a_grad_norm_whose_square_overflows(
    bench_dir, tmp_path, capsys, text
):
    """A ``grad_norm`` cell that parses but whose square overflows a float
    is a violation, not a crash of the squared-gradient stop test."""
    copy = tmp_path / "overflow"
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)
    path = copy / f"{stem}.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("grad_norm")
    cells = lines[1].split(",")
    cells[col] = text
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")

    assert f"{stem}.csv: row 0 grad_norm {float(text)!r} overflows" in verify_traces(RunSet(copy))
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {stem}.csv: row 0 grad_norm " in capsys.readouterr().err


def _success_flags(path):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("success")
    return [line.split(",")[col] == "1" for line in lines[1:]]


def _scale_model_val(path, row, factor):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("model_val")
    fields = lines[row + 1].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_verify_recomputes_rho_of_accepted_rows(bench_dir, tmp_path):
    """A 1% edit of an accepted row's model value keeps its stored rho
    above the threshold and every other law intact; only the recomputed
    ratio ``(f_k - f_{k+1}) / -m_k`` catches it."""
    path = next(p for p in iter_run_files(bench_dir) if any(_success_flags(p)[:-1]))
    row = _success_flags(path).index(True)

    def mutate(copy):
        _scale_model_val(copy / path.name, row, 1.01)

    problems = _tampered(bench_dir, tmp_path, "model_val", mutate)
    assert len(problems) == 1
    assert problems[0].startswith(f"{path.name}: rho at accepted row {row} is ")


def test_verify_reads_final_f_after_the_last_row(bench_dir, tmp_path):
    """The last row's successor value is the sidecar's ``final_f``: an
    edit of it contradicts the last row's rho when that row was accepted,
    or its unchanged f when it was rejected."""

    def mutate(copy):
        for meta_path in copy.glob("*.meta.json"):
            meta = json.loads(meta_path.read_text())
            meta["final_f"] *= 1.0 - 1e-9
            meta_path.write_text(json.dumps(meta))

    problems = _tampered(bench_dir, tmp_path, "final_f", mutate)
    expected = []
    for path in iter_run_files(bench_dir):
        flags = _success_flags(path)
        law = "rho at accepted" if flags[-1] else "f changed after rejected"
        expected.append(f"{path.name}: {law} row {len(flags) - 1}")
    assert [p[: len(e)] for p, e in zip(problems, expected)] == expected
    assert len(problems) == len(expected)


def _two_pass_digest(directory):
    """The content digest computed the way it was before runs were parsed
    once: each trace, sidecar and summary read and split on its own."""

    def csv_without(path, column):
        lines = path.read_text(encoding="utf-8").splitlines()
        table = [line.split(",") for line in lines if line]
        keep = [i for i, name in enumerate(table[0]) if name != column]
        return "\n".join(",".join(r[i] for i in keep) for r in table).encode()

    digest = hashlib.sha256()
    for path in iter_run_files(directory):
        digest.update(path.name.encode())
        digest.update(csv_without(path, "millis"))
        meta = json.loads(path.with_suffix(".meta.json").read_text(encoding="utf-8"))
        del meta["wall_s"]
        digest.update(json.dumps(meta, sort_keys=True).encode())
    digest.update(csv_without(Path(directory) / "summary.csv", "time_s_mean"))
    return digest.hexdigest()


def test_digest_equals_the_two_pass_reference(default_runs, tmp_path, capsys):
    """``riemarc verify`` prints, from its one parse of each file, the
    digest a separate read of every file gives. Checked on a small plan
    and on the plans a pure refactor keeps bit-identical: the default
    plan at ``refine_steps`` 0 and 3, and ``case 40 4 3`` twice over,
    whose runs include subsolver failures."""
    gates = [(out, printed) for _, out, printed in default_runs.values()]
    plans = {
        "small": "case 60 4 4\nrepetitions = 1\nmax_iters = 40\n",
        "case40": "case 40 4 3\nrepetitions = 2\n",
    }
    for name, text in plans.items():
        plan_file = tmp_path / f"{name}.txt"
        plan_file.write_text(text)
        out = tmp_path / name
        assert cli_main(["run", "--plan", str(plan_file), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["verify", str(out)]) == 0
        gates.append((out, capsys.readouterr().out.strip()))
    metas = (tmp_path / "case40").glob("*.meta.json")
    outcomes = {json.loads(path.read_text())["outcome"] for path in metas}
    assert Outcome.SUBSOLVER_FAILURE.value in outcomes
    for out, printed_by_verify in gates:
        reference = _two_pass_digest(out)
        assert printed_by_verify == f"ok, digest {reference}"
        assert determinism_digest(RunSet(out)) == reference


def test_verify_reads_each_artifact_once(bench_dir, monkeypatch, capsys):
    opened = collections.Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and "r" in mode:
            opened[Path(file)] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert cli_main(["verify", str(bench_dir)]) == 0
    assert capsys.readouterr().out.startswith("ok, digest ")
    reads = {path: n for path, n in opened.items() if path.parent == bench_dir}
    assert reads == dict.fromkeys(bench_dir.iterdir(), 1)


def test_run_reads_back_only_the_sidecars(tmp_path, monkeypatch, capsys):
    """A second ``riemarc run`` into a directory that already holds runs
    opens no trace, new or old, and reads each sidecar once, for the
    summary: only ``verify`` reads traces back, and only it prints a
    digest."""
    out = tmp_path / "out"
    argv = ["run", "--plan", str(_write_plan(tmp_path)), "--out", str(out)]
    assert cli_main(argv + ["--solvers", "racr"]) == 0
    capsys.readouterr()
    opened = collections.Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and "r" in mode:
            opened[Path(file)] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert cli_main(argv + ["--solvers", "ssrtr"]) == 0
    reads = {path: n for path, n in opened.items() if path.parent == out}
    assert reads == dict.fromkeys(out.glob("*.meta.json"), 1)
    assert len(reads) == 2
    assert "digest" not in capsys.readouterr().out


def _bump_sidecar(path, counter, amount):
    meta = json.loads(path.read_text())
    meta[counter] += amount
    path.write_text(json.dumps(meta))


def _rewrite_summary(directory):
    """Write ``summary.csv`` from the sidecars as ``run`` does, so that a
    consistent edit of one run leaves the summary law intact."""
    write_summary(summarize_traces(RunSet(directory)), directory / "summary.csv")


@pytest.mark.parametrize("counter", ["grad_evals", "hess_evals", "objective_evals"])
def test_verify_flags_sidecar_totals_tampering(bench_dir, tmp_path, counter):
    """A sidecar total moved by one whole batch still passes every row law;
    only the run-totals check can catch it."""
    stem = run_name(_TINY_PLAN.cases[0], "ssracr", 0)

    def mutate(copy):
        meta = json.loads((copy / f"{stem}.meta.json").read_text())
        batch = {
            "grad_evals": meta["grad_sample_size"],
            "hess_evals": meta["hess_sample_size"],
            "objective_evals": meta["case"]["n"],
        }[counter]
        _bump_sidecar(copy / f"{stem}.meta.json", counter, batch)
        _rewrite_summary(copy)

    problems = _tampered(bench_dir, tmp_path, counter, mutate)
    assert len(problems) == 1
    assert problems[0].startswith(f"{stem}.csv: sidecar {counter} is ")


def test_a_huge_gamma_ends_every_run_in_a_recorded_outcome(tmp_path, capsys):
    """``next_weight`` would overflow sigma to inf after a few rejections
    at ``gamma = 1e300``, but the decrease test ends each run first, after
    one rejected row, as a recorded sub-solver failure: ``run`` exits 0
    and ``verify`` prints ``ok``."""
    plan_file = tmp_path / "gamma.plan"
    plan_file.write_text("case 30 4 2\nrepetitions = 2\ngamma = 1e300\n")
    runs = tmp_path / "runs"
    assert cli_main(["run", "--plan", str(plan_file), "--out", str(runs)]) == 0
    for path in iter_run_files(runs):
        meta = json.loads(path.with_suffix(".meta.json").read_text())
        assert meta["gamma"] == 1e300
        assert meta["outcome"] == Outcome.SUBSOLVER_FAILURE.value, path.stem
        assert [row["success"] for row in _trace_cells(path)] == ["0"], path.stem
    capsys.readouterr()
    assert cli_main(["verify", str(runs)]) == 0
    assert capsys.readouterr().out.startswith("ok, digest ")


def test_verify_checks_the_totals_of_subsolver_failures(tmp_path, capsys):
    """A sub-solver failure stops after its gradient and its step, before
    the trial objective, so its sidecar's objective and gradient totals
    follow from the trace: one batch more of either, with the summary
    rebuilt by ``riemarc summarize``, is a violation. The failed step's
    Hessian batches are in no row, so a Hessian total one batch higher
    still verifies (only a replay of the run could tell), while one below
    the last row's count does not."""
    plan_file = tmp_path / "case40.plan"
    plan_file.write_text("case 40 4 3\nrepetitions = 2\n")
    runs = tmp_path / "runs"
    assert cli_main(["run", "--plan", str(plan_file), "--out", str(runs)]) == 0
    stem = run_name((40, 4, 3), "ssracr", 0)
    meta = json.loads((runs / f"{stem}.meta.json").read_text())
    assert meta["outcome"] == Outcome.SUBSOLVER_FAILURE.value
    with open(runs / f"{stem}.csv", newline="") as handle:
        last_h = int(list(csv.DictReader(handle))[-1]["hess_evals"])
    h_batch = meta["hess_sample_size"]
    edits = [
        ("objective_evals", meta["case"]["n"], 1),
        ("grad_evals", meta["grad_sample_size"], 1),
        ("hess_evals", h_batch, 0),
        ("hess_evals", last_h - h_batch - meta["hess_evals"], 1),
    ]
    for k, (key, amount, code) in enumerate(edits):
        copy = tmp_path / f"edit{k}"
        shutil.copytree(runs, copy)
        _bump_sidecar(copy / f"{stem}.meta.json", key, amount)
        summary = copy / "summary.csv"
        assert cli_main(["summarize", str(copy), "--out", str(summary)]) == 0
        capsys.readouterr()
        assert cli_main(["verify", str(copy)]) == code, (key, amount)
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"violation: {stem}.csv: sidecar {key} is ")
            assert err.count("\n") == 1


def _drop_rho_threshold(path):
    meta = json.loads(path.read_text())
    del meta["rho_threshold"]
    path.write_text(json.dumps(meta))


_BROKEN_SIDECARS = {
    "not_json": lambda path: path.write_text("{not json"),
    "no_rho_threshold": _drop_rho_threshold,
}


@pytest.mark.parametrize("breakage", sorted(_BROKEN_SIDECARS))
def test_unreadable_sidecar_is_a_violation(bench_dir, tmp_path, capsys, breakage):
    """A sidecar that is not JSON or lacks a key is reported by run name,
    the other runs are still checked, and verify and summarize exit 1."""
    copy = tmp_path / breakage
    shutil.copytree(bench_dir, copy)
    case = _TINY_PLAN.cases[0]
    broken, other = run_name(case, "racr", 0), run_name(case, "ssracr", 1)
    _BROKEN_SIDECARS[breakage](copy / f"{broken}.meta.json")
    _bump_sidecar(copy / f"{other}.meta.json", "objective_evals", case[0])

    problems = verify_traces(RunSet(copy))
    assert len(problems) == 2
    assert problems[0].startswith(f"{broken}.csv: unreadable sidecar: ")
    assert problems[1].startswith(f"{other}.csv: sidecar objective_evals is ")
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {broken}.csv: unreadable sidecar: " in capsys.readouterr().err
    assert cli_main(["summarize", str(copy)]) == 1
    assert f"{broken}.csv: unreadable sidecar: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: meta | {"solver": "sgd"}, "'solver' is 'sgd'"),
        (lambda meta: sorted(meta), "not a JSON object"),
    ],
    ids=["unknown-solver", "json-array"],
)
def test_a_sidecar_of_no_solver_or_no_object_is_unreadable(
    bench_dir, tmp_path, edit, message
):
    """A sidecar that names a solver the harness does not have, or holds
    a JSON array, is that run's one violation."""
    copy = tmp_path / "runs"
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)
    path = copy / f"{stem}.meta.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert verify_traces(RunSet(copy)) == [f"{stem}.csv: unreadable sidecar: {message}"]


def test_a_law_that_raises_is_a_violation_of_its_run(
    bench_dir, tmp_path, monkeypatch, capsys
):
    """A run law that raises gives that run one violation naming the law,
    verify still checks the other runs, and it exits 1."""
    copy = tmp_path / "raises"
    shutil.copytree(bench_dir, copy)
    case = _TINY_PLAN.cases[0]
    broken, other = run_name(case, "racr", 0), run_name(case, "ssracr", 1)
    _bump_sidecar(copy / f"{other}.meta.json", "objective_evals", case[0])
    _rewrite_summary(copy)

    def fragile(run, cfg, cols):
        if (run.solver, run.rep) == ("racr", 0):
            raise ZeroDivisionError("division by zero")
        return ()

    monkeypatch.setattr(bench, "_RUN_LAWS", (fragile, *bench._RUN_LAWS))
    problems = verify_traces(RunSet(copy))
    message = f"{broken}.csv: fragile raised ZeroDivisionError: division by zero"
    assert [p for p in problems if p.startswith(f"{broken}.csv: ")] == [message]
    assert len(problems) == 2
    assert problems[1].startswith(f"{other}.csv: sidecar objective_evals is ")
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "solver, key, value, message",
    [
        ("racr", "gamma", 0, "gamma must be finite and exceed 1, got 0"),
        ("sracr", "hess_sample_size", 0, "Hessian sample size must lie in [1, 300], got 0"),
        ("racr", "hess_sample_size", 0, "exact Hessian oracle has no sample size, got 0"),
        ("racr", "hess_sample_size", 5, "exact Hessian oracle has no sample size, got 5"),
        ("racr", "hess_sample_size", -1, "exact Hessian oracle has no sample size, got -1"),
        ("sracr", "grad_sample_size", 0, "exact gradient oracle has no sample size, got 0"),
        ("racr", "seed", 1.5, "'seed' is 1.5"),
        ("racr", "seed", -1, "seed must be a non-negative int, got -1"),
        ("racr", "max_iters", 2.5, "'max_iters' is 2.5"),
        ("racr", "tau", True, "'tau' is True"),
        ("racr", "tau", math.inf, "'tau' is inf"),
        ("racr", "sigma_min", 1e-12, "unknown key 'sigma_min'"),
        ("ssrtr", "delta_max", 10.0, "unknown key 'delta_max'"),
        ("sracr", "foo", 1, "unknown key 'foo'"),
        (
            "racr",
            "case",
            {"n": 300, "d": 5, "r": 5, "foo": 1},
            "'case' is {'n': 300, 'd': 5, 'r': 5, 'foo': 1}",
        ),
        ("racr", "solver", "ssrtr", "missing key 'delta0'"),
        ("sracr", "solver", "racr", "'mode' is 'subsampled_hessian', expected 'exact'"),
    ],
    ids=[
        "gamma",
        "hess_sample_size",
        "unsampled-zero-hess_sample_size",
        "unsampled-hess_sample_size",
        "unsampled-negative-hess_sample_size",
        "unsampled-zero-grad_sample_size",
        "fractional-seed",
        "negative-seed",
        "fractional-max_iters",
        "bool-tau",
        "infinite-tau",
        "sigma_min",
        "delta_max",
        "unknown-key",
        "unknown-case-key",
        "tr-solver-in-a-cubic-run",
        "exact-solver-in-a-sampled-run",
    ],
)
def test_impossible_sidecar_value_is_a_violation(
    bench_dir, tmp_path, capsys, solver, key, value, message
):
    """A sidecar value that no valid run records is that run's violation,
    and verify exits 1: a config value of a type its annotation does not
    name, or that the config's own ``validate()`` or the oracle bundle's
    sample-size range rejects, a size for an oracle the run does not
    sample, a mode other than the recorded solver's, or a key that no run
    writes, such as the weight bound or radius column an earlier sidecar
    format recorded."""
    copy = tmp_path / key
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], solver, 0)
    path = copy / f"{stem}.meta.json"
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))

    assert verify_traces(RunSet(copy)) == [f"{stem}.csv: unreadable sidecar: {message}"]
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {stem}.csv: unreadable sidecar: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, first",
    [
        ("noise", "abc", "unreadable sidecar: 'noise' is 'abc'"),
        ("noise", -5.0, "noise must be finite and non-negative, got -5.0"),
        ("rep", 1.5, "unreadable sidecar: 'rep' is 1.5"),
        ("rep", 2, "the sidecar is that of run case300x5x5_rep2_racr"),
        ("rep", 7, "the sidecar is that of run case300x5x5_rep7_racr"),
        ("master_seed", "x", "unreadable sidecar: 'master_seed' is 'x'"),
        ("case_index", None, "unreadable sidecar: 'case_index' is None"),
        ("case_index", 1, "instance_seed is {instance_seed}, expected "),
        ("instance_seed", -1, "instance_seed is -1, expected {instance_seed}"),
        ("instance_seed", 12345, "instance_seed is 12345, expected {instance_seed}"),
        ("seed", 99, "seed is 99, expected {seed}"),
    ],
    ids=[
        "text-noise",
        "negative-noise",
        "fractional-rep",
        "rep-2",
        "rep-7",
        "text-master_seed",
        "null-case_index",
        "case_index-1",
        "negative-instance_seed",
        "other-instance_seed",
        "other-seed",
    ],
)
def test_verify_checks_where_each_run_came_from(
    bench_dir, tmp_path, capsys, key, value, first
):
    """A sidecar that cannot rebuild its run's instance or redraw its
    samples is flagged: a master seed, case index, repetition, instance
    seed or noise of the wrong type, seeds other than ``run_plan``
    derives from the run's position and solver, a file stem other than
    ``run_name`` gives, or a noise ``generate_instance`` rejects."""
    copy = tmp_path / key
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)
    path = copy / f"{stem}.meta.json"
    meta = json.loads(path.read_text())
    recorded = {k: meta[k] for k in ("instance_seed", "seed")}
    meta[key] = value
    path.write_text(json.dumps(meta))

    problems = verify_traces(RunSet(copy))
    assert problems and problems[0].startswith(f"{stem}.csv: " + first.format(**recorded))
    assert all(p.startswith(f"{stem}.csv: ") for p in problems)
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {stem}.csv: " in capsys.readouterr().err


def test_verify_flags_a_run_filed_under_another_name(bench_dir, tmp_path):
    """A run's trace and sidecar moved together under another run's name
    are flagged: the file stem must be ``run_name`` of the sidecar's
    case, solver and repetition."""
    copy = tmp_path / "moved"
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)
    moved = run_name(_TINY_PLAN.cases[0], "racr", 5)
    for suffix in (".csv", ".meta.json"):
        (copy / f"{stem}{suffix}").rename(copy / f"{moved}{suffix}")
    assert verify_traces(RunSet(copy)) == [
        f"{moved}.csv: the sidecar is that of run {stem}"
    ]


_UNENDED_OR_EMPTY = "unreadable trace: an empty line or no final newline"


@pytest.mark.parametrize(
    "edit, first",
    [
        ("header-crlf", "unreadable trace: carriage return"),
        ("last-row-crlf", "unreadable trace: carriage return"),
        ("header-form-feed", "unexpected columns "),
        ("blank-line", _UNENDED_OR_EMPTY),
        ("no-final-newline", _UNENDED_OR_EMPTY),
        ("double-final-newline", _UNENDED_OR_EMPTY),
    ],
)
def test_only_a_newline_ends_a_trace_line(bench_dir, tmp_path, capsys, edit, first):
    """A carriage return is reported instead of read as part of a line
    end, as universal newlines would: after the header, and after the
    last row, where ``float`` would skip it as whitespace in ``millis``.
    A form feed in place of the header's line end joins the header to
    row 0 instead of breaking the line, as ``str.splitlines`` would.
    A trace is read only as the writer writes it, every line non-empty
    and ended by a newline: an inserted empty line, a lost final newline
    or a doubled one is reported, not skipped."""
    copy = tmp_path / edit
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)
    path = copy / f"{stem}.csv"
    data = path.read_bytes()
    if edit == "header-crlf":
        data = data.replace(b"\n", b"\r\n", 1)
    elif edit == "last-row-crlf":
        data = data[:-1] + b"\r\n"
    elif edit == "header-form-feed":
        data = data.replace(b"\n", b"\x0c", 1)
    elif edit == "blank-line":
        lines = data.split(b"\n")
        data = b"\n".join([*lines[:2], b"", *lines[2:]])
    elif edit == "no-final-newline":
        data = data[:-1]
    else:
        data = data + b"\n"
    path.write_bytes(data)

    problems = verify_traces(RunSet(copy))
    assert len(problems) == 1 and problems[0].startswith(f"{stem}.csv: {first}")
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {problems[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, first",
    [
        ("max_iters", 3, "{rows} rows and outcome optimality_reached under an "
         "iteration budget of 3"),
        ("max_iters", None, "{rows} rows and outcome optimality_reached under an "
         "iteration budget of {rows}"),
        ("tau", 10.0, "row 0 meets the stop test"),
        ("eig_policy", "every_iteration", "lambda_min empty at row 0, against "
         "every_iteration at grad_norm {g0!r}"),
    ],
    ids=["short-budget", "exhausted-budget", "loose-tau", "every-iteration-probe"],
)
def test_verify_reads_the_budget_stop_test_and_probe_policy(
    bench_dir, tmp_path, capsys, key, value, first
):
    """A sidecar whose iteration budget, stop tolerance or probe policy
    its trace contradicts is flagged, first at the earliest row that
    shows it: more rows than the budget, a run that reached optimality on
    exactly its budget (``None`` sets ``max_iters`` to the row count), a
    row that meets the stop test, or a row without the estimate that
    policy's probe writes."""
    copy = tmp_path / key
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)
    header, rows = bench._read_trace(copy / f"{stem}.csv")
    path = copy / f"{stem}.meta.json"
    meta = json.loads(path.read_text())
    assert meta["outcome"] == "optimality_reached" and len(rows) > 3
    meta[key] = len(rows) if value is None else value
    path.write_text(json.dumps(meta))

    problems = verify_traces(RunSet(copy))
    g0 = float(rows[0][header.index("grad_norm")])
    assert problems[0] == f"{stem}.csv: " + first.format(rows=len(rows), g0=g0)
    assert all(p.startswith(f"{stem}.csv: ") for p in problems)
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {stem}.csv: " in capsys.readouterr().err


@pytest.mark.parametrize("solver", SOLVERS)
def test_verify_accepts_a_run_that_probes_every_iteration(bench_dir, tmp_path, solver):
    """A run rerun from its sidecar under ``eig_policy:
    "every_iteration"`` fills ``lambda_min`` on every row of a cubic run
    and on none of a trust-region run, whose step rule reads no probe,
    and its trace, totals and wall time pass verify once the summary is
    rewritten to match."""
    copy = tmp_path / solver
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], solver, 0)
    path = copy / f"{stem}.meta.json"
    meta = json.loads(path.read_text())
    meta["eig_policy"] = "every_iteration"
    cfg = bench.config_from_sidecar(meta)
    objective, x0 = _start(meta)
    t0 = time.perf_counter()
    trace = bench.solve(objective, x0, cfg)
    wall_s = time.perf_counter() - t0
    probes = solver != "ssrtr"
    assert all((rec.lambda_min is not None) is probes for rec in trace.records)
    write_trace_csv(trace, copy / f"{stem}.csv")
    meta.update(
        outcome=trace.outcome.value,
        iterations=trace.iterations,
        final_f=trace.final_f,
        grad_evals=trace.grad_evals,
        hess_evals=trace.hess_evals,
        objective_evals=trace.objective_evals,
        wall_s=wall_s,
    )
    path.write_text(json.dumps(meta))
    _rewrite_summary(copy)
    assert verify_traces(RunSet(copy)) == []


def test_a_run_whose_solver_raises_is_a_failure_without_files(
    tmp_path, monkeypatch, capsys
):
    """A solver that raises is listed in ``PlanReport.failures`` by run
    name and error, writes neither trace nor sidecar, and makes ``run``
    exit 2. The other runs are written and verify."""
    plan = dataclasses.replace(_TINY_PLAN, repetitions=1, max_iters=5)
    solve = bench.solve

    def fragile(objective, x0, cfg):
        if cfg.mode is OracleMode.SUBSAMPLED_HESSIAN:
            raise RuntimeError("solver broke")
        return solve(objective, x0, cfg)

    monkeypatch.setattr(bench, "solve", fragile)
    stem = run_name(plan.cases[0], "sracr", 0)
    report = run_plan(plan, tmp_path / "direct")
    assert report.failures == [f"{stem}: RuntimeError: solver broke"]
    assert not list((tmp_path / "direct").glob(f"{stem}.*"))
    assert len(iter_run_files(tmp_path / "direct")) == len(SOLVERS) - 1
    assert verify_traces(RunSet(tmp_path / "direct")) == []

    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("case 300 5 5\nrepetitions = 1\nmax_iters = 5\n")
    out = tmp_path / "cli"
    assert cli_main(["run", "--plan", str(plan_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"failure: {stem}: RuntimeError: solver broke\n"
    assert not list(out.glob(f"{stem}.*"))


def test_sidecar_without_its_trace_is_a_violation(bench_dir, tmp_path, capsys):
    """A run whose trace is gone but whose sidecar is left is reported
    like a missing sidecar, and ``summarize``, which reads sidecars
    alone, still counts it."""
    copy = tmp_path / "notrace"
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)
    (copy / f"{stem}.csv").unlink()

    assert verify_traces(RunSet(copy)) == [f"{stem}.meta.json: missing trace {stem}.csv"]
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {stem}.meta.json: missing trace" in capsys.readouterr().err
    assert summarize_traces(RunSet(copy)) == summarize_traces(RunSet(bench_dir))


# Any JSON scalar, plus values near the ones a valid sidecar holds.
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from([0, 1, -1, 0.5, 2.0, "delta", "sigma", *SOLVERS])
)


@pytest.fixture(scope="module")
def untouched_digest(bench_dir):
    return determinism_digest(RunSet(bench_dir))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_survives_any_single_sidecar_edit(edit_dir, untouched_digest, data):
    """Any JSON scalar under any one sidecar key, a ``case`` entry
    included, leaves verify exiting 0 or 1. Verify accepts the edit only
    when it changes nothing, touches ``wall_s``, or shows in the digest."""
    path = data.draw(st.sampled_from(sorted(edit_dir.glob("*.meta.json"))))
    original = path.read_text(encoding="utf-8")
    meta = json.loads(original)
    keys = [(key,) for key in meta] + [("case", key) for key in meta["case"]]
    key = data.draw(st.sampled_from(keys))
    value = data.draw(_JSON_SCALARS)
    target = meta["case"] if len(key) == 2 else meta
    old, target[key[-1]] = target[key[-1]], value
    path.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(["verify", str(edit_dir)])
    finally:
        path.write_text(original, encoding="utf-8")

    assert code in (0, 1)
    if code == 0:
        unchanged = json.dumps(value) == json.dumps(old)
        digest = out.getvalue().split()[-1]
        assert unchanged or key == ("wall_s",) or digest != untouched_digest


def _shift_counter(directory, stem, counter, row, amount):
    """Add ``amount`` to ``counter`` on trace rows ``row`` onward, to the
    sidecar total and to the summary, so only the counter step into
    ``row`` changes."""
    path = directory / f"{stem}.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(counter)
    for i in range(row + 1, len(lines)):
        cells = lines[i].split(",")
        cells[col] = str(int(cells[col]) + amount)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    _bump_sidecar(path.with_suffix(".meta.json"), counter, amount)
    _rewrite_summary(directory)


@pytest.mark.parametrize("after", ["rejected", "accepted"])
def test_verify_flags_a_gradient_step_against_the_reuse_rule(bench_dir, tmp_path, after):
    """racr reuses its exact gradient after a rejected row and evaluates
    it afresh after an accepted one. A full batch charged after a
    rejection, or none after an acceptance, is flagged, with every other
    counter and the sidecar total kept consistent."""
    n = _TINY_PLAN.cases[0][0]
    stem, row = next(
        (path.stem, k + 1)
        for path in iter_run_files(bench_dir)
        if path.stem.endswith("_racr")
        for k, flag in enumerate(_success_flags(path)[:-1])
        if flag == (after == "accepted")
    )
    amount = n if after == "rejected" else -n
    copy = tmp_path / after
    shutil.copytree(bench_dir, copy)
    _shift_counter(copy, stem, "grad_evals", row, amount)

    step, expected = (n, 0) if after == "rejected" else (0, n)
    assert verify_traces(RunSet(copy)) == [
        f"{stem}.csv: gradient counter step {step} at row {row}, expected {expected}"
    ]


def _trace_cells(path):
    """A trace's rows as dicts of its cells by column."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return [dict(zip(header, row)) for row in rows]


def _set_cell(path, row, column, text):
    """Set the ``column`` cell of trace row ``row`` to ``text``."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edited_default_run(default_runs, tmp_path, pick, column, text):
    """Copy the default plan's runs, find the first ``racr`` run and row
    ``k`` (not its last) for which ``pick(rows, k)`` holds, set
    ``text(rows, k)`` in the ``column`` cell of row ``k + 1``, and return
    the run's name, ``k`` and verify's violations of the copy."""
    _, out, _ = default_runs[0]
    stem, rows, k = next(
        (path.stem, rows, k)
        for path in iter_run_files(out)
        if path.stem.endswith("_racr")
        for rows in [_trace_cells(path)]
        for k in range(len(rows) - 1)
        if pick(rows, k)
    )
    copy = tmp_path / "runs"
    shutil.copytree(out, copy)
    _set_cell(copy / f"{stem}.csv", k + 1, column, text(rows, k))
    return stem, k, verify_traces(RunSet(copy))


def _rejected(rows, k):
    return rows[k]["success"] == "0"


def _accepted(rows, k):
    return rows[k]["success"] == "1"


def test_verify_flags_iteration_indices_out_of_order(default_runs, tmp_path):
    """A row numbered other than its place breaks the row-count law alone."""
    stem, k, problems = _edited_default_run(
        default_runs, tmp_path, lambda rows, k: k == 0, "k", lambda rows, k: "5"
    )
    rows = len(_trace_cells(default_runs[0][1] / f"{stem}.csv"))
    assert problems == [f"{stem}.csv: iteration indices are not 0..{rows - 1}"]


def test_verify_flags_f_changed_after_a_rejected_row(default_runs, tmp_path):
    """The row after a rejected one must hold the same f."""
    stem, k, problems = _edited_default_run(
        default_runs,
        tmp_path,
        _rejected,
        "f",
        lambda rows, k: repr(float(rows[k + 1]["f"]) * (1.0 + 1e-9)),
    )
    assert problems[0] == f"{stem}.csv: f changed after rejected row {k}"


def test_verify_flags_grad_norm_changed_after_a_rejected_row(
    default_runs, tmp_path, capsys
):
    """An exact gradient is served again at the iterate a rejected row
    keeps, so the next row must hold the same ``grad_norm``, bit for bit.
    The edited row is an accepted one, so only the pair before it breaks."""
    stem, k, problems = _edited_default_run(
        default_runs,
        tmp_path,
        lambda rows, k: _rejected(rows, k) and _accepted(rows, k + 1),
        "grad_norm",
        lambda rows, k: repr(float(rows[k + 1]["grad_norm"]) * (1.0 + 1e-9)),
    )
    assert problems == [f"{stem}.csv: grad_norm changed after rejected row {k}"]
    assert cli_main(["verify", str(tmp_path / "runs")]) == 1
    assert capsys.readouterr().err.startswith(f"violation: {stem}.csv: grad_norm changed")


def test_verify_flags_f_increased_after_an_accepted_row(default_runs, tmp_path):
    """The row after an accepted one may not hold a larger f."""
    stem, k, problems = _edited_default_run(
        default_runs,
        tmp_path,
        _accepted,
        "f",
        lambda rows, k: repr(float(rows[k]["f"]) + 1.0),
    )
    assert problems[0] == f"{stem}.csv: f increased after accepted row {k}"


# Cells no run writes, each with the violation verify reports: on the
# default plan, rows 2 and 9 of ``case500x5x5_rep0_racr`` and rejected
# row 0 of ``case2015x5x5_rep0_racr``. Rows 8 and 9 are accepted, so a
# finite ``grad_norm`` on row 9 is not held to the row before it.
_IMPOSSIBLE_CELLS = {
    "grad_norm-negative": (
        "case500x5x5", 9, "grad_norm", "-1.0",
        "row 9 grad_norm is -1.0, expected non-negative",
    ),
    "grad_norm-nan": (
        "case500x5x5", 2, "grad_norm", "nan", "unreadable row 2: grad_norm is 'nan'",
    ),
    "grad_norm-inf": (
        "case500x5x5", 2, "grad_norm", "inf", "unreadable row 2: grad_norm is 'inf'",
    ),
    "model_val-positive": (
        "case2015x5x5", 0, "model_val", "5.0",
        "row 0 model_val 5.0 fails the decrease test",
    ),
    "model_val-nan": (
        "case2015x5x5", 0, "model_val", "nan", "unreadable row 0: model_val is 'nan'",
    ),
    "rho-nan": ("case2015x5x5", 0, "rho", "nan", "unreadable row 0: rho is 'nan'"),
    "rho-minus-inf": (
        "case2015x5x5", 0, "rho", "-inf", "unreadable row 0: rho is '-inf'",
    ),
}


@pytest.mark.parametrize("edit", sorted(_IMPOSSIBLE_CELLS))
def test_verify_flags_trace_cells_no_run_writes(default_runs, tmp_path, capsys, edit):
    """A float cell that is not finite is unreadable, a negative
    ``grad_norm`` is flagged, and so is a model value that fails the
    driver's decrease test, here on a rejected row, which no other law
    reads for it."""
    case, row, column, text, message = _IMPOSSIBLE_CELLS[edit]
    _, out, _ = default_runs[0]
    stem = f"{case}_rep0_racr"
    if column != "grad_norm":
        assert _trace_cells(out / f"{stem}.csv")[row]["success"] == "0"
    copy = tmp_path / "runs"
    shutil.copytree(out, copy)
    _set_cell(copy / f"{stem}.csv", row, column, text)

    assert verify_traces(RunSet(copy)) == [f"{stem}.csv: {message}"]
    assert cli_main(["verify", str(copy)]) == 1
    assert capsys.readouterr().err == f"violation: {stem}.csv: {message}\n"


def test_verify_flags_a_hessian_charge_on_a_reused_cauchy_product(
    default_runs, tmp_path
):
    """``racr`` without refinement reuses its exact Cauchy product after a
    rejected row, so a Hessian batch charged there is flagged."""

    def one_more_batch(rows, k):
        # Row 0 charges one batch of n components: its Cauchy product alone.
        return str(int(rows[k + 1]["hess_evals"]) + int(rows[0]["hess_evals"]))

    stem, k, problems = _edited_default_run(
        default_runs, tmp_path, _rejected, "hess_evals", one_more_batch
    )
    meta = json.loads((default_runs[0][1] / f"{stem}.meta.json").read_text())
    expected = f"Hessian counter step {meta['case']['n']} at row {k + 1}, expected 0"
    assert problems[0] == f"{stem}.csv: {expected}"


def test_numpy_scalars_in_a_record_write_readable_cells(bench_dir, tmp_path):
    """A record holding numpy scalars writes the cells a Python-typed one
    does, so verify accepts the trace under the rerun's wall time."""
    copy = tmp_path / "numpy"
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "sracr", 0)
    meta_path = copy / f"{stem}.meta.json"
    meta = json.loads(meta_path.read_text())
    objective, x0 = _start(meta)
    t0 = time.perf_counter()
    trace = bench.solve(objective, x0, bench.config_from_sidecar(meta))
    meta["wall_s"] = time.perf_counter() - t0
    trace.records[:] = [
        dataclasses.replace(
            rec,
            k=np.int64(rec.k),
            f=np.float64(rec.f),
            success=np.bool_(rec.success),
            grad_evals=np.int64(rec.grad_evals),
            hess_evals=np.int32(rec.hess_evals),
        )
        for rec in trace.records
    ]
    write_trace_csv(trace, copy / f"{stem}.csv")
    assert _rows_without_millis(copy / f"{stem}.csv") == _rows_without_millis(
        bench_dir / f"{stem}.csv"
    )
    meta_path.write_text(json.dumps(meta))
    _rewrite_summary(copy)
    assert verify_traces(RunSet(copy)) == []


def _reference_cell(value):
    """The trace cell of ``value`` by its own type: the reference that
    ``arc.TRACE_CODECS``, which formats by annotation, must write."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


_FLOATS = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0])

# Values of each ``IterationRecord`` annotation, numpy scalars included.
_ANNOTATION_VALUES = {
    bool: st.booleans() | st.booleans().map(np.bool_),
    int: st.integers(0, 2**62)
    | st.integers(0, 2**31 - 1).map(np.int32)
    | st.integers(0, 2**62).map(np.int64),
    float: _FLOATS | _FLOATS.map(np.float64),
    float | None: st.none() | _FLOATS | _FLOATS.map(np.float64),
}

_RECORDS = st.builds(
    IterationRecord,
    **{
        name: _ANNOTATION_VALUES[kind]
        for name, kind in get_type_hints(IterationRecord).items()
    },
)


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_RECORDS, max_size=4))
def test_trace_cells_write_the_reference_text_and_parse_back(codec_dir, records):
    """``write_trace_csv`` writes each cell as ``_reference_cell`` does,
    and each column's parser gives back the value written: the same
    Python value for a numpy scalar and None for None. A float that is
    not finite, which no run writes, does not parse back."""
    path = codec_dir / "trace.csv"
    trace = RunTrace(records, Outcome.MAX_ITERS, None, 0.0, 0, 0, 0)
    write_trace_csv(trace, path)
    rows = [
        [_reference_cell(getattr(rec, col)) for col in TRACE_COLUMNS] for rec in records
    ]
    text = "".join(",".join(row) + "\n" for row in [TRACE_COLUMNS, *rows])
    assert path.read_bytes() == text.encode("utf-8")

    for rec, row in zip(records, rows):
        for (col, (_, parse)), cell in zip(TRACE_CODECS.items(), row):
            value = getattr(rec, col)
            if value is not None and not math.isfinite(value):
                with pytest.raises(ValueError):
                    parse(cell)
                continue
            back = parse(cell)
            if value is None:
                assert back is None
            else:
                plain = value.item() if isinstance(value, np.generic) else value
                assert back == plain and type(back) is type(plain)


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_FINITE_RECORDS = st.builds(
    IterationRecord,
    **{
        name: {
            float: _FINITE_FLOATS | _FINITE_FLOATS.map(np.float64),
            float | None: st.none() | _FINITE_FLOATS | _FINITE_FLOATS.map(np.float64),
        }.get(kind, _ANNOTATION_VALUES[kind])
        for name, kind in get_type_hints(IterationRecord).items()
    },
)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_FINITE_RECORDS, max_size=4))
def test_verify_reads_a_trace_back_as_the_records_written(codec_dir, records):
    """Any records with finite floats, numpy scalars included, written by
    ``write_trace_csv`` read back through verify's reader as an equal
    list, under the header ``TRACE_COLUMNS``."""
    path = codec_dir / "records.csv"
    write_trace_csv(RunTrace(records, Outcome.MAX_ITERS, None, 0.0, 0, 0, 0), path)
    header, rows = bench._read_trace(path)
    assert header == list(TRACE_COLUMNS)
    assert bench._read_records(rows) == records


def test_trace_csv_roundtrip(tmp_path):
    obj = SaddleQuartic.random(10, 3, seed=21)
    x0 = obj.manifold.random_point(9)
    cfg = SolverConfig(seed=22, eig_policy=EigPolicy.EVERY_ITERATION, max_iters=25)
    trace = run(obj, x0, cfg)
    assert trace.iterations > 0

    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="", encoding="utf-8") as stream:
        rows = list(csv.reader(stream))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == trace.iterations + 1
    for rec, row in zip(trace.records, rows[1:]):
        parsed = dict(zip(rows[0], row))
        assert int(parsed["k"]) == rec.k
        assert float(parsed["f"]) == rec.f  # repr round-trips exactly
        assert float(parsed["weight"]) == rec.weight
        assert float(parsed["rho"]) == rec.rho
        assert parsed["success"] == ("1" if rec.success else "0")
        if rec.lambda_min is None:
            assert parsed["lambda_min"] == ""
        else:
            assert float(parsed["lambda_min"]) == rec.lambda_min
        assert int(parsed["grad_evals"]) == rec.grad_evals


# Cells of the one CSV dialect: any text without ``,``, ``\n`` or
# ``\r``. A line of one empty cell is an empty line, which no trace or
# summary holds.
_CELLS = st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), max_size=4)
_LINES = st.lists(_CELLS, min_size=1, max_size=4).filter(lambda line: line != [""])


@settings(max_examples=200, deadline=None)
@given(header=_LINES, rows=st.lists(_LINES, max_size=4), data=st.data())
def test_the_reader_reads_exactly_what_the_dialect_writes(
    codec_dir, header, rows, data
):
    """The trace reader gives back the header and rows ``csv_text``
    wrote, and rejects the text with one empty line inserted anywhere,
    or with its final newline lost."""
    path = codec_dir / "dialect.csv"
    text = csv_text(header, rows)
    path.write_bytes(text.encode("utf-8"))
    assert bench._read_trace(path) == (header, rows)

    lines = text[:-1].split("\n")
    at = data.draw(st.integers(0, len(lines)))
    for edited in ("\n".join([*lines[:at], "", *lines[at:]]) + "\n", text[:-1]):
        path.write_bytes(edited.encode("utf-8"))
        with pytest.raises(PlanError, match=_UNENDED_OR_EMPTY):
            bench._read_trace(path)


@pytest.mark.parametrize(
    "solver, refine_steps", [*((s, 0) for s in SOLVERS), ("racr", 3)]
)
def test_counters_equal_the_work_done(monkeypatch, solver, refine_steps):
    """A run's counters are the component evaluations that reach the
    objective: an exact answer the bundle already holds is charged
    nothing, so an exact gradient is evaluated once per iterate."""
    reached = collections.Counter()

    def counted(method, key, idx_position):
        def wrapper(self, *args, **kwargs):
            idx = args[idx_position] if len(args) > idx_position else kwargs.get("idx")
            reached[key] += self.n if idx is None else len(idx)
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        JointDiagObjective, "gradient", counted(JointDiagObjective.gradient, "grad", 1)
    )
    monkeypatch.setattr(
        JointDiagObjective, "hess_vec", counted(JointDiagObjective.hess_vec, "hess", 2)
    )
    plan = dataclasses.replace(_TINY_PLAN, refine_steps=refine_steps)
    n, d, r = plan.cases[0]
    objective = JointDiagObjective(generate_instance(n, d, r, seed=5, noise=plan.noise))
    x0 = objective.manifold.random_point(np.random.default_rng(6))
    cfg = bench.solver_config(plan, solver, n, 7)
    trace = bench.solve(objective, x0, cfg)

    assert trace.outcome.value == "optimality_reached"
    assert (trace.grad_evals, trace.hess_evals) == (reached["grad"], reached["hess"])
    if cfg.mode is not OracleMode.SUBSAMPLED_BOTH:
        assert trace.iterations - trace.n_success > 0
        assert trace.grad_evals == n * (1 + trace.n_success)


def test_each_norm_is_taken_once_per_cubic_iteration(monkeypatch):
    """On the default cases, ``Manifold.norm`` runs twice per trace row,
    for the driver's gradient norm and the sub-solver's, and once for the
    terminating iteration. A ``racr`` row adds the step norm of ``reg``
    and of ``l_hat``, which only a run with both oracles exact reads."""
    calls = collections.Counter()
    norm = Manifold.norm

    def counted(self, xi):
        calls["norm"] += 1
        return norm(self, xi)

    monkeypatch.setattr(Manifold, "norm", counted)
    plan = default_plan()
    for ci, case in enumerate(plan.cases):
        _, objective, x0 = bench.start_point(plan.master_seed, ci, 0, case, plan.noise)
        for solver, per_row in (("racr", 4), ("sracr", 2), ("ssracr", 2)):
            seed = bench._run_seed(plan.master_seed, ci, 0, solver)
            calls.clear()
            cfg = bench.solver_config(plan, solver, case[0], seed)
            trace = bench.solve(objective, x0, cfg)
            assert trace.outcome is Outcome.OPTIMALITY_REACHED
            assert (trace.l_hat is not None) == (solver == "racr")
            assert calls["norm"] == per_row * trace.iterations + 1, (case, solver)


def test_summary_totals_equal_sidecar_sums(bench_dir):
    """Every oracle total in summary.csv is the sum of its runs' sidecar
    counters, the terminating iteration included."""
    lines = (bench_dir / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    counters = ("grad_evals", "hess_evals", "objective_evals")
    assert header[-3:] == [f"{counter}_total" for counter in counters]
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        stems = [
            run_name(_TINY_PLAN.cases[0], row["solver"], rep)
            for rep in range(_TINY_PLAN.repetitions)
        ]
        metas = [json.loads((bench_dir / f"{s}.meta.json").read_text()) for s in stems]
        for counter in counters:
            assert int(row[f"{counter}_total"]) == sum(m[counter] for m in metas)


def test_summary_reads_iterations_and_times_from_the_sidecars(bench_dir, tmp_path):
    """``summarize`` opens no trace file: with every trace emptied it
    still gives each row the mean sidecar ``wall_s`` and the mean and
    median sidecar ``iterations``."""
    copy = tmp_path / "sidecars_only"
    shutil.copytree(bench_dir, copy)
    for path in iter_run_files(copy):
        path.write_text("")
        meta_path = path.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        meta["wall_s"] = 0.25 * (meta["rep"] + 1)
        meta["iterations"] += meta["rep"]
        meta_path.write_text(json.dumps(meta))
    for row in summarize_traces(RunSet(copy)):
        stems = [
            run_name(_TINY_PLAN.cases[0], row.solver, rep)
            for rep in range(_TINY_PLAN.repetitions)
        ]
        metas = [json.loads((copy / f"{s}.meta.json").read_text()) for s in stems]
        iterations = [m["iterations"] for m in metas]
        assert row.time_s_mean == 0.375
        assert row.iters_mean == sum(iterations) / len(iterations)
        assert row.iters_median == float(np.median(iterations))


def test_verify_checks_totals_of_runs_cut_by_max_iters(tmp_path):
    out = tmp_path / "cut"
    plan = dataclasses.replace(_TINY_PLAN, repetitions=1, max_iters=2)
    assert run_plan(plan, out).failures == []
    metas = sorted(out.glob("*.meta.json"))
    assert {json.loads(p.read_text())["outcome"] for p in metas} == {"max_iters"}
    assert verify_traces(RunSet(out)) == []
    # One more gradient batch for racr, the first run: all n components.
    assert metas[0].name.endswith("_racr.meta.json")
    _bump_sidecar(metas[0], "grad_evals", plan.cases[0][0])
    assert any("sidecar grad_evals" in p for p in verify_traces(RunSet(out)))


def test_python_dash_m_riemarc_verifies(bench_dir, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "riemarc", "verify", str(bench_dir)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok, digest ")


def test_the_solvers_import_without_the_harness(tmp_path):
    """``riemarc.arc`` and ``riemarc.trust_region`` do not import
    ``riemarc.bench``: the solver stands without the harness."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, riemarc.arc, riemarc.trust_region; "
        "print('riemarc.bench' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_verify_empty_directory(tmp_path):
    assert verify_traces(RunSet(tmp_path)) == ["no trace files found"]


def test_digest_ignores_timing(bench_dir, tmp_path):
    copy = tmp_path / "timing"
    shutil.copytree(bench_dir, copy)
    path = copy / _pick_long_trace(bench_dir).name
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("millis")
    fields = lines[1].split(",")
    fields[col] = "0.0"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert determinism_digest(RunSet(copy)) == determinism_digest(RunSet(bench_dir))
    assert verify_traces(RunSet(copy)) == []


def test_digest_covers_sidecars_but_not_wall_s(bench_dir, tmp_path):
    def digest_after(label, key, value):
        copy = tmp_path / label
        shutil.copytree(bench_dir, copy)
        path = copy / "case300x5x5_rep0_ssracr.meta.json"
        meta = json.loads(path.read_text())
        meta[key] = value
        path.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
        return determinism_digest(RunSet(copy))

    before = determinism_digest(RunSet(bench_dir))
    assert digest_after("sigma0", "sigma0", 0.5) != before
    assert digest_after("wall_s", "wall_s", 9999.0) == before


def _set_millis(text):
    """Set row 0's ``millis`` cell to ``text(wall_s)``."""

    def edit(directory, stem):
        wall_s = json.loads((directory / f"{stem}.meta.json").read_text())["wall_s"]
        path = directory / f"{stem}.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index("millis")] = text(wall_s)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    return edit


def _set_wall_s(value):
    """Set the sidecar's ``wall_s`` and rewrite the summary with
    ``riemarc summarize``, so that only the timing law can object. A
    non-finite ``wall_s`` is no strict JSON, so that sidecar is unreadable
    and ``summarize`` does not run."""

    def edit(directory, stem):
        path = directory / f"{stem}.meta.json"
        meta = json.loads(path.read_text())
        meta["wall_s"] = value
        path.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
        if not math.isfinite(value):
            return
        summary = directory / "summary.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["summarize", str(directory), "--out", str(summary)]) == 0

    return edit


_TIMING_EDITS = {
    "millis-abc": (_set_millis(lambda w: "abc"), "unreadable row 0: millis is 'abc'"),
    "millis-empty": (_set_millis(lambda w: ""), "unreadable row 0: millis is ''"),
    "millis-nan": (_set_millis(lambda w: "nan"), "unreadable row 0: millis is 'nan'"),
    "millis-inf": (_set_millis(lambda w: "inf"), "unreadable row 0: millis is 'inf'"),
    "millis-negative": (_set_millis(lambda w: "-1.0"), "row 0 millis is -1.0, "),
    "millis-past-wall_s": (_set_millis(lambda w: repr(2e3 * w)), "rows take "),
    "wall_s-nan": (_set_wall_s(math.nan), "unreadable sidecar: 'wall_s' is nan"),
    "wall_s-negative": (_set_wall_s(-1.0), "wall_s is -1.0, "),
    "wall_s-inf": (_set_wall_s(math.inf), "unreadable sidecar: 'wall_s' is inf"),
}


@pytest.mark.parametrize("edit", sorted(_TIMING_EDITS))
def test_verify_checks_the_timing_cells(bench_dir, tmp_path, capsys, edit):
    """Every ``millis`` cell and the sidecar's ``wall_s`` are finite and
    non-negative, and the rows, each timed inside the interval that
    ``wall_s`` times, take at most ``1000 * wall_s`` milliseconds."""
    mutate, first = _TIMING_EDITS[edit]
    copy = tmp_path / edit
    shutil.copytree(bench_dir, copy)
    stem = run_name(_TINY_PLAN.cases[0], "racr", 0)
    mutate(copy, stem)

    problems = verify_traces(RunSet(copy))
    assert problems and problems[0].startswith(f"{stem}.csv: {first}")
    assert all(p.startswith(f"{stem}.csv: ") for p in problems)
    assert cli_main(["verify", str(copy)]) == 1
    assert f"violation: {problems[0]}" in capsys.readouterr().err


def test_a_solver_subset_reproduces_the_full_plans_runs(bench_dir, tmp_path, capsys):
    """A run seed follows the solver, not its place in the plan's solver
    list, so ``riemarc run --solvers ssracr`` writes the full plan's
    trace and sidecar for each of its runs, up to wall times."""
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(
        "case 300 5 5\nrepetitions = 2\nmaster_seed = 7\nmax_iters = 500\n"
        "grad_frac = 0.5\nhess_frac = 0.1\n"
    )
    out = tmp_path / "subset"
    args = ["run", "--plan", str(plan_file), "--out", str(out), "--solvers", "ssracr"]
    assert cli_main(args) == 0
    capsys.readouterr()
    for rep in range(_TINY_PLAN.repetitions):
        stem = run_name(_TINY_PLAN.cases[0], "ssracr", rep)
        assert _rows_without_millis(out / f"{stem}.csv") == _rows_without_millis(
            bench_dir / f"{stem}.csv"
        )
        sidecars = [d / f"{stem}.meta.json" for d in (out, bench_dir)]
        metas = [json.loads(path.read_text()) for path in sidecars]
        for meta in metas:
            del meta["wall_s"]
        assert metas[0] == metas[1]


def test_run_allocates_no_dense_family(tmp_path, capsys):
    """``riemarc run`` keeps the family as packed rows from the draw to
    the kernel. A run that formed the ``(n, d, d)`` stack and packed it
    would hold the stack and the ``(n, d(d+1)/2)`` rows at once, more
    than 1.5 stacks at ``d = 8``; the packed build peaks at its noise
    draw, the diagonals and one product, ``(d + 2) / d = 1.25`` stacks."""
    n, d = 20000, 8
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(
        f"case {n} {d} 2\nrepetitions = 1\nmax_iters = 3\nsolvers = ssracr ssrtr\n"
    )
    tracemalloc.start()
    try:
        code = cli_main(["run", "--plan", str(plan_file), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 1.5 * n * d * d * 8


def _write_plan(tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(
        "case 30 3 2\nrepetitions = 1\nmax_iters = 80\nsolvers = racr ssrtr\n"
    )
    return plan_file


def test_cli_run_verify_summarize(tmp_path, capsys):
    plan_file = _write_plan(tmp_path)
    out = tmp_path / "out"
    code = cli_main(["run", "--plan", str(plan_file), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "digest" not in captured.out
    assert "case30x3x2" in captured.out

    assert cli_main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.startswith("ok, digest ")

    summary_out = tmp_path / "rebuilt.csv"
    assert cli_main(["summarize", str(out), "--out", str(summary_out)]) == 0
    assert summary_out.exists()
    assert "racr" in capsys.readouterr().out


def test_cli_summarize_of_a_directory_without_runs_fails(tmp_path, capsys):
    """``summarize`` of an empty directory exits 1, as ``verify`` does, and
    writes no summary."""
    summary_out = tmp_path / "summary.csv"
    code = cli_main(["summarize", str(tmp_path), "--out", str(summary_out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: no trace files found in {tmp_path}\n"
    assert not summary_out.exists()


def _not_a_directory(tmp_path):
    """A path where nothing is, and one where a file is."""
    a_file = tmp_path / "summary.csv"
    a_file.write_text("case,solver\n", encoding="utf-8")
    return [tmp_path / "no_such_dir", a_file]


def test_cli_verify_of_a_missing_directory_names_the_path(tmp_path, capsys):
    """``verify`` of a path that is not a directory says so, rather than
    blaming runs that were never there, and exits 1."""
    for directory in _not_a_directory(tmp_path):
        assert cli_main(["verify", str(directory)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {directory}: no such directory\n"


def test_cli_summarize_of_a_missing_directory_names_the_path(tmp_path, capsys):
    """``summarize`` of a path that is not a directory says so, exits 1
    and writes no summary."""
    summary_out = tmp_path / "rebuilt.csv"
    for directory in _not_a_directory(tmp_path):
        code = cli_main(["summarize", str(directory), "--out", str(summary_out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {directory}: no such directory\n"
        assert not summary_out.exists()


def test_cli_verify_detects_tampering(tmp_path, capsys):
    plan_file = _write_plan(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", "--plan", str(plan_file), "--out", str(out)]) == 0
    capsys.readouterr()
    victim = iter_run_files(out)[0]
    lines = victim.read_text().splitlines()
    lines.pop()
    victim.write_text("\n".join(lines) + "\n")
    assert cli_main(["verify", str(out)]) == 1
    assert "violation" in capsys.readouterr().err


def test_cli_rejects_bad_inputs(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert cli_main(["run", "--plan", str(missing), "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()

    bad = tmp_path / "bad.txt"
    bad.write_text("case 10 3 2\nwat = 1\n")
    assert cli_main(["run", "--plan", str(bad), "--out", str(tmp_path / "o2")]) == 1
    capsys.readouterr()

    plan_file = _write_plan(tmp_path)
    code = cli_main(
        [
            "run",
            "--plan",
            str(plan_file),
            "--out",
            str(tmp_path / "o3"),
            "--set",
            "cases=1",
        ]
    )
    assert code == 1
    assert "cannot override" in capsys.readouterr().err

    code = cli_main(
        [
            "run",
            "--plan",
            str(plan_file),
            "--out",
            str(tmp_path / "o4"),
            "--solvers",
            "racr,sgd",
        ]
    )
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "override",
    [
        "gamma=0.5",
        "tau=-1",
        "delta0=0",
        "sigma0=0",
        "rho_threshold=1.5",
        "refine_steps=25",
        "noise=-1",
        "noise=nan",
        "tau=nan",
        "sigma0=inf",
        "sigma0=1e-13",
        "master_seed=-3",
    ],
)
def test_cli_rejects_bad_plan_values_before_running(tmp_path, capsys, override):
    out = tmp_path / "out"
    argv = ["run", "--plan", str(_write_plan(tmp_path)), "--out", str(out)]
    code = cli_main(argv + ["--set", override])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--seed", "-1"], ["--solvers", "ssracr,ssracr"]],
    ids=["negative-seed", "repeated-solver"],
)
def test_cli_rejects_a_negative_seed_or_a_repeated_solver(tmp_path, capsys, flags):
    out = tmp_path / "out"
    argv = ["run", "--plan", str(_write_plan(tmp_path)), "--out", str(out)]
    assert cli_main(argv + flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "override, message",
    [("solvers=", "plan has no solvers"), ("foo", "--set expects key=value, got 'foo'")],
)
def test_cli_names_an_override_it_cannot_run(tmp_path, capsys, override, message):
    out = tmp_path / "out"
    argv = ["run", "--plan", str(_write_plan(tmp_path)), "--out", str(out)]
    assert cli_main(argv + ["--set", override]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_set_overrides_apply(tmp_path, capsys):
    plan_file = _write_plan(tmp_path)
    out = tmp_path / "o5"
    code = cli_main(
        [
            "run",
            "--plan",
            str(plan_file),
            "--out",
            str(out),
            "--set",
            "max_iters=40",
            "--set",
            "sigma0=1e-2",
        ]
    )
    assert code == 0
    capsys.readouterr()
    meta = json.loads((out / "case30x3x2_rep0_racr.meta.json").read_text())
    assert meta["max_iters"] == 40
    assert meta["sigma0"] == 1e-2


def test_solvers_split_alike_in_a_plan_and_on_the_command_line(tmp_path, capsys):
    """``--solvers`` and ``--set solvers=`` parse the plan's ``solvers``
    key as a plan line does, split on commas or whitespace."""
    argv = ["run", "--plan", str(_write_plan(tmp_path)), "--out"]
    for flags, want in (
        (["--solvers", "racr, ssrtr"], ["racr", "ssrtr"]),
        (["--set", "solvers=ssrtr"], ["ssrtr"]),
        (["--set", "solvers= sracr\tracr ,"], ["racr", "sracr"]),
    ):
        out = tmp_path / "_".join(want)
        assert cli_main(argv + [str(out)] + flags) == 0
        metas = [json.loads(path.read_text()) for path in out.glob("*.meta.json")]
        assert sorted(meta["solver"] for meta in metas) == want
    capsys.readouterr()


# A case with n in 1..40 and 1 <= r <= d <= 5.
_TINY_CASES = st.integers(1, 5).flatmap(
    lambda d: st.tuples(st.integers(1, 40), st.just(d), st.integers(1, d))
)
# Magnitudes over 600 decades, with zero, a negative and the non-finite
# values, for every float plan key; the parser rejects what is out of range.
_MAGNITUDES = st.one_of(
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    st.sampled_from([0.0, -1.0, math.inf, math.nan]),
)
_PLAN_VALUES = {
    "repetitions": st.integers(-1, 2),
    "master_seed": st.integers(-1, 2**64),
    "refine_steps": st.integers(-1, 21),
    **{
        key: _MAGNITUDES
        for key, kind in get_type_hints(BenchmarkPlan).items()
        if kind is float
    },
}


# What ``arc._drive`` names as the cause of a numerical failure.
_FAILURE_TEXTS = (
    ": non-finite objective at the start point",
    ": non-finite gradient norm",
    ": trial step beyond the float range",
    ": singular retraction of the trial step",
    ": non-finite trial objective",
)


@pytest.mark.parametrize(
    "plan_text, text",
    [
        # A Cauchy model value that overflows.
        (
            "case 1 3 1\nnoise = 1e60\nsolvers = racr",
            "trial step beyond the float range",
        ),
        # A trial point whose Gram the retraction cannot factor.
        (
            "case 1 2 1\ndelta0 = 1e155\nsolvers = ssrtr",
            "singular retraction of the trial step",
        ),
    ],
)
def test_a_failed_trial_step_is_named(tmp_path, plan_text, text):
    """A run that a trial step ends reports what went wrong with it, and
    its artifacts verify."""
    report = run_plan(parse_plan(plan_text + "\nmax_iters = 30\n"), tmp_path)
    assert report.failures
    for failure in report.failures:
        assert failure.endswith(f": {text}"), failure
    assert verify_traces(RunSet(tmp_path)) == []


@settings(max_examples=300, deadline=None)
@given(
    cases=st.lists(_TINY_CASES, min_size=1, max_size=2),
    values=st.fixed_dictionaries(
        {"max_iters": st.integers(-1, 30)}, optional=_PLAN_VALUES
    ),
    solvers=st.lists(st.sampled_from(SOLVERS), min_size=1, max_size=4),
    separator=st.sampled_from([",", ", ", " ", " , "]),
)
@example(
    cases=[(1, 1, 1), (1, 2, 1)],
    values={"max_iters": 30},
    solvers=list(SOLVERS),
    separator=", ",
)
# A Cauchy model value that overflows.
@example(
    cases=[(1, 3, 1)],
    values={"max_iters": 30, "noise": 1e60},
    solvers=["racr"],
    separator=",",
)
# A trial point whose Gram the retraction cannot factor.
@example(
    cases=[(1, 2, 1)],
    values={"max_iters": 30, "delta0": 1e155},
    solvers=["ssrtr"],
    separator=",",
)
def test_every_accepted_tiny_plan_runs_and_verifies(cases, values, solvers, separator):
    """Every plan the parser accepts runs without a raised run: a run
    fails only as a numerical failure, a step beyond the float range
    included, and the artifacts verify."""
    lines = [f"case {n} {d} {r}" for n, d, r in cases]
    lines += [f"{key} = {value!r}" for key, value in values.items()]
    lines.append(f"solvers = {separator.join(solvers)}")
    try:
        plan = parse_plan("\n".join(lines))
    except PlanError:
        return
    with tempfile.TemporaryDirectory() as out:
        report = run_plan(plan, out)
        for failure in report.failures:
            assert failure.endswith(_FAILURE_TEXTS), failure
        assert verify_traces(RunSet(out)) == []
