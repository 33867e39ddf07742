"""Benchmark harness: plan parsing, artifacts, verification, determinism."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from riemarc.arc import EigPolicy, SolverConfig, StopRule, run, write_trace_csv
from riemarc.bench import (
    BenchmarkPlan,
    SOLVERS,
    _derived_seed,
    default_plan,
    determinism_digest,
    iter_run_files,
    parse_plan,
    run_name,
    run_plan,
    sample_sizes,
    summarize_traces,
    verify_traces,
)
from riemarc.cli import main as cli_main
from riemarc.errors import PlanError
from riemarc.jointdiag import JointDiagObjective, generate_instance
from riemarc.oracles import OracleMode
from riemarc.trust_region import TrustRegionConfig, run_trust_region

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


def test_plan_validates_only_selected_solver_configs():
    with pytest.raises(PlanError, match="gamma"):
        parse_plan("case 10 3 2\ngamma = 0.5\n")
    with pytest.raises(PlanError, match="refine_steps"):
        parse_plan("case 10 3 2\nsolvers = sracr\nrefine_steps = 21\n")
    # delta0 only reaches the trust-region config, refine_steps only the
    # cubic ones.
    parse_plan("case 10 3 2\nsolvers = racr\ndelta0 = 0\n")
    parse_plan("case 10 3 2\nsolvers = ssrtr\nrefine_steps = 21\n")


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
    rows = summarize_traces(bench_dir)
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
    assert tr_meta["radius_column"] == "delta"
    assert tr_meta["delta_max"] == 10.0 * tr_meta["delta0"]
    assert "sigma0" not in tr_meta
    assert tr_meta["grad_sample_size"] == 150
    assert tr_meta["hess_sample_size"] == 30

    arc_meta = json.loads(
        (bench_dir / "case300x5x5_rep0_racr.meta.json").read_text()
    )
    assert arc_meta["radius_column"] == "sigma"
    assert arc_meta["sigma_min"] == 1e-12
    assert arc_meta["grad_sample_size"] == 300
    assert arc_meta["hess_sample_size"] == 300

    sr_meta = json.loads(
        (bench_dir / "case300x5x5_rep0_sracr.meta.json").read_text()
    )
    assert sr_meta["grad_sample_size"] == 300
    assert sr_meta["hess_sample_size"] == 30

    ss_meta = json.loads(
        (bench_dir / "case300x5x5_rep0_ssracr.meta.json").read_text()
    )
    assert ss_meta["grad_sample_size"] == 150
    assert ss_meta["hess_sample_size"] == 30


def _config_from_sidecar(meta):
    cls = TrustRegionConfig if meta["radius_column"] == "delta" else SolverConfig
    kwargs = {f.name: meta[f.name] for f in dataclasses.fields(cls)}
    kwargs["mode"] = OracleMode(meta["mode"])
    kwargs["stop_rule"] = StopRule(meta["stop_rule"])
    kwargs["eig_policy"] = EigPolicy(meta["eig_policy"])
    return cls(**kwargs)


def _rows_without_millis(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("millis")
    return [row[:col] + row[col + 1 :] for row in rows]


@pytest.mark.parametrize("solver", SOLVERS)
def test_sidecar_is_enough_to_rerun(bench_dir, tmp_path, solver):
    stem = run_name(_TINY_PLAN.cases[0], solver, 1)
    meta = json.loads((bench_dir / f"{stem}.meta.json").read_text())
    cfg = _config_from_sidecar(meta)
    case = meta["case"]
    instance = generate_instance(
        case["n"], case["d"], case["r"], seed=meta["instance_seed"], noise=meta["noise"]
    )
    objective = JointDiagObjective(instance)
    start_seed = [meta["master_seed"], meta["case_index"], meta["rep"], 13]
    x0 = objective.manifold.random_point(np.random.default_rng(start_seed))
    runner = run_trust_region if isinstance(cfg, TrustRegionConfig) else run
    trace = runner(objective, x0, cfg)
    rerun = tmp_path / "rerun.csv"
    write_trace_csv(trace, rerun, sigma_name=meta["radius_column"])
    assert _rows_without_millis(rerun) == _rows_without_millis(
        bench_dir / f"{stem}.csv"
    )
    assert trace.outcome.value == meta["outcome"]
    assert (trace.grad_evals, trace.hess_evals) == (
        meta["grad_evals"],
        meta["hess_evals"],
    )


def test_trace_radius_columns(bench_dir):
    tr_header = (
        (bench_dir / "case300x5x5_rep0_ssrtr.csv").read_text().splitlines()[0]
    )
    assert ",delta," in tr_header and "sigma" not in tr_header
    arc_header = (
        (bench_dir / "case300x5x5_rep0_racr.csv").read_text().splitlines()[0]
    )
    assert ",sigma," in arc_header


def test_verify_clean_run(bench_dir):
    assert verify_traces(bench_dir) == []


def test_rerun_reproduces_digest(bench_dir, tmp_path):
    again = tmp_path / "again"
    report = run_plan(_TINY_PLAN, again)
    assert report.failures == []
    assert determinism_digest(again) == determinism_digest(bench_dir)


def _tampered(bench_dir, tmp_path, label, mutate):
    copy = tmp_path / label
    shutil.copytree(bench_dir, copy)
    mutate(copy)
    return verify_traces(copy)


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
        col = header.index("sigma") if "sigma" in header else header.index("delta")
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


def test_verify_empty_directory(tmp_path):
    assert verify_traces(tmp_path) == ["no trace files found"]


def test_digest_ignores_timing(bench_dir, tmp_path):
    copy = tmp_path / "timing"
    shutil.copytree(bench_dir, copy)
    path = copy / _pick_long_trace(bench_dir).name
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("millis")
    fields = lines[1].split(",")
    fields[col] = "9999.0"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert determinism_digest(copy) == determinism_digest(bench_dir)
    assert verify_traces(copy) == []


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
    assert "digest " in captured.out
    assert "case30x3x2" in captured.out

    assert cli_main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.startswith("ok, digest ")

    summary_out = tmp_path / "rebuilt.csv"
    assert cli_main(["summarize", str(out), "--out", str(summary_out)]) == 0
    assert summary_out.exists()
    assert "racr" in capsys.readouterr().out


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
    ],
)
def test_cli_rejects_bad_plan_values_before_running(tmp_path, capsys, override):
    out = tmp_path / "out"
    argv = ["run", "--plan", str(_write_plan(tmp_path)), "--out", str(out)]
    code = cli_main(argv + ["--set", override])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
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
