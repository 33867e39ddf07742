"""Benchmark harness: plan files, batch runs, trace verification and
summaries.

A plan is a small text file of ``key = value`` lines plus one ``case``
line per problem size:

    master_seed = 7
    repetitions = 3
    solvers = racr sracr ssracr ssrtr
    case 500 5 5
    case 2015 5 5

``set_plan_value`` parses ``solvers`` and every scalar key by its
``BenchmarkPlan`` annotation, for plan files and for ``riemarc run``'s
``--solvers`` and ``--set`` alike.

Each (case, repetition) pair generates one joint-diagonalization
instance shared by every solver, so solvers are compared on identical
data. ``start_point`` derives a position's instance and start point,
``solver_config`` maps (plan, solver, n, run seed) to the solver's
config: plan keys named like config fields carry over, and the solver
name fixes the step rule and oracle mode. ``solve`` runs a config's
step rule. Every run writes a trace CSV plus a sidecar ``.meta.json``
that ``_sidecar`` makes of its ``RunRecord`` and that config, enums by
value; ``summary.csv`` aggregates per (case, solver). ``_read_sidecar``
reads a sidecar back as the ``RunRecord`` and config that wrote it,
each key typed by its field's annotation as trace and summary cells
are, and ``config_from_sidecar`` validates the config, so a sidecar is
enough to rerun its run, and a key that no run writes is unreadable.
``verify_traces`` reads each trace back as the ``IterationRecord``s
that wrote it and applies the run laws of ``_RUN_LAWS``, in order, to
each run whose files parse and are filed under the run's own
``run_name``: row count, stop test and probe, weight recurrence,
objective, oracle charge, provenance and timing. It then checks that
``summary.csv`` is the summary the sidecars give. A law that raises is
reported as a violation of its run. ``_table_text`` writes traces and
the summary in one dialect, ``csv_text``'s, under their records' field
names, so every trace has the header ``TRACE_COLUMNS``: a trace in any
other text is unreadable, and each trace cell is parsed by its
``TRACE_CODECS`` entry, a float only when finite. ``summarize_traces``, ``verify_traces`` and
``determinism_digest`` take one ``RunSet``, the runs of one directory,
read once; a path that is not a directory is a ``PlanError``. Traces
and sidecars are deterministic for a fixed plan and master seed up to
their wall times, which the content digest therefore excludes. It
hashes each sidecar as ``_sidecar`` makes it of the record read back.
Only ``riemarc verify`` prints it, after ``verify_traces`` finds no violation.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence, get_args, get_type_hints

import numpy as np

from .arc import DriverConfig, IterationRecord, Outcome, SolverConfig, StopRule
from .errors import ContractError, PlanError
from .jointdiag import JointDiagObjective, check_instance, generate_instance
from .manifolds import Point
from .oracles import OracleMode, check_sample_sizes
from .trust_region import TrustRegionConfig, run_trust_region
from . import arc

# Step rule and oracle mode of each benchmark solver. A run seed takes
# the solver's index in this table, so a run of a selected subset draws
# the same samples as the same run in the full plan.
_SOLVER_KINDS = {
    **{name: (SolverConfig, mode) for name, mode in arc._VARIANT_MODES.items()},
    "ssrtr": (TrustRegionConfig, OracleMode.SUBSAMPLED_BOTH),
}
SOLVERS = tuple(_SOLVER_KINDS)


def _json_kind(kind):
    """How a sidecar holds a value of annotation ``kind``: an enum class,
    read by value, else the tuple of JSON value types that stand for it,
    an ``int`` also standing for a ``float`` and a bool for neither."""
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind
    allowed = get_args(kind) or (kind,)
    return allowed + (int,) if float in allowed else allowed


_CONFIG_TYPES = {
    cls: {key: _json_kind(kind) for key, kind in get_type_hints(cls).items()}
    for cls, _ in _SOLVER_KINDS.values()
}


@dataclass
class BenchmarkPlan:
    cases: list[tuple[int, int, int]] = field(default_factory=list)
    solvers: list[str] = field(default_factory=lambda: list(SOLVERS))
    repetitions: int = 3
    master_seed: int = 7
    noise: float = 1e-3
    sigma0: float = SolverConfig.sigma0
    delta0: float = TrustRegionConfig.delta0
    rho_threshold: float = DriverConfig.rho_threshold
    gamma: float = DriverConfig.gamma
    tau: float = DriverConfig.tau
    max_iters: int = 2000
    grad_frac: float = 0.25
    hess_frac: float = 0.025
    refine_steps: int = SolverConfig.refine_steps

    def validate(self) -> None:
        if not self.cases:
            raise PlanError("plan has no cases")
        for n, d, r in self.cases:
            try:
                check_instance(n, d, r, self.noise)
            except ContractError as exc:
                raise PlanError(f"case {n} {d} {r}: {exc}") from exc
            if self.cases.count((n, d, r)) > 1:
                raise PlanError(f"case {n} {d} {r} is listed more than once")
        if not self.solvers:
            raise PlanError("plan has no solvers")
        for s in self.solvers:
            if s not in SOLVERS:
                raise PlanError(f"unknown solver {s!r}, expected one of {SOLVERS}")
            if self.solvers.count(s) > 1:
                raise PlanError(f"solver {s!r} is listed more than once")
        if self.master_seed < 0:
            raise PlanError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.repetitions < 1:
            raise PlanError("repetitions must be at least 1")
        if not 0.0 < self.grad_frac <= 1.0 or not 0.0 < self.hess_frac <= 1.0:
            raise PlanError("sample fractions must lie in (0, 1]")
        if self.max_iters < 1:
            raise PlanError("max_iters must be at least 1")
        # Configs differ by case only in sample sizes, which validation
        # does not read, so one config per solver covers every case.
        n = self.cases[0][0]
        for solver in self.solvers:
            try:
                solver_config(self, solver, n, 0).validate()
            except ContractError as exc:
                raise PlanError(f"{solver}: {exc}") from exc


_PLAN_TYPES = get_type_hints(BenchmarkPlan)


def set_plan_value(plan: BenchmarkPlan, key: str, text: str) -> None:
    """Set the plan field ``key`` from ``text``: ``solvers`` as names
    split on commas or whitespace, a scalar parsed as the field's
    annotated type. Rejects non-finite numbers."""
    if key == "solvers":
        plan.solvers = text.replace(",", " ").split()
        return
    kind = _PLAN_TYPES.get(key)
    if kind not in (int, float):
        reason = "unknown key" if kind is None else "cannot override"
        raise PlanError(f"{reason} {key!r}")
    try:
        value = kind(text)
    except ValueError as exc:
        raise PlanError(f"bad value for {key}: {exc}") from exc
    if not math.isfinite(value):
        raise PlanError(f"{key} must be finite, got {value}")
    setattr(plan, key, value)


def default_plan() -> BenchmarkPlan:
    """Desk-scale default: three small cases, three repetitions each."""
    return BenchmarkPlan(cases=[(500, 5, 5), (500, 10, 10), (2015, 5, 5)])


def parse_plan(text: str) -> BenchmarkPlan:
    plan = BenchmarkPlan()
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "case":
            if len(parts) != 4:
                raise PlanError(f"line {lineno}: case needs three integers")
            try:
                n, d, r = (int(p) for p in parts[1:])
            except ValueError as exc:
                raise PlanError(f"line {lineno}: {exc}") from exc
            plan.cases.append((n, d, r))
            continue
        if "=" not in line:
            raise PlanError(f"line {lineno}: expected 'key = value' or 'case n d r'")
        key, _, value = line.partition("=")
        key = key.strip()
        if first_line.setdefault(key, lineno) != lineno:
            raise PlanError(f"line {lineno}: {key} is set on line {first_line[key]} too")
        try:
            set_plan_value(plan, key, value)
        except PlanError as exc:
            raise PlanError(f"line {lineno}: {exc}") from exc
    plan.validate()
    return plan


def _derived_seed(parts: list[int]) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _instance_seed(master_seed: int, case_index: int, rep: int) -> int:
    return _derived_seed([master_seed, case_index, rep, 11])


def _run_seed(master_seed: int, case_index: int, rep: int, solver: str) -> int:
    return _derived_seed([master_seed, case_index, rep, 17, SOLVERS.index(solver)])


def start_point(
    master_seed: int, case_index: int, rep: int, case: tuple[int, ...], noise: float
) -> tuple[int, JointDiagObjective, Point]:
    """The instance seed, objective and start point that every solver
    runs from at repetition ``rep`` of case ``case_index``, ``case``."""
    instance_seed = _instance_seed(master_seed, case_index, rep)
    instance = generate_instance(*case, seed=instance_seed, noise=noise)
    objective = JointDiagObjective(instance)
    rng = np.random.default_rng([master_seed, case_index, rep, 13])
    return instance_seed, objective, objective.manifold.random_point(rng)


def sample_sizes(plan: BenchmarkPlan, n: int) -> tuple[int, int]:
    return max(1, int(plan.grad_frac * n)), max(1, int(plan.hess_frac * n))


def _case_id(case: tuple[int, int, int]) -> str:
    return f"case{case[0]}x{case[1]}x{case[2]}"


def run_name(case: tuple[int, int, int], solver: str, rep: int) -> str:
    return f"{_case_id(case)}_rep{rep}_{solver}"


def solver_config(
    plan: BenchmarkPlan, solver: str, n: int, run_seed: int
) -> DriverConfig:
    """The config ``solver`` runs with on a case of ``n`` components.

    Plan keys that name a field of the solver's config carry over:
    ``rho_threshold``, ``gamma``, ``tau``, ``max_iters`` and the step
    rule's ``sigma0`` and ``refine_steps`` or ``delta0``.
    """
    cls, mode = _SOLVER_KINDS[solver]
    grad_size, hess_size = sample_sizes(plan, n)
    shared = {k: getattr(plan, k) for k in _CONFIG_TYPES[cls] if k in _PLAN_TYPES}
    return cls(
        mode=mode,
        grad_sample_size=grad_size if mode is OracleMode.SUBSAMPLED_BOTH else None,
        hess_sample_size=None if mode is OracleMode.EXACT else hess_size,
        seed=run_seed,
        stop_rule=StopRule.GRAD_SQUARED,
        **shared,
    )


def solve(objective: JointDiagObjective, x0: Point, cfg: DriverConfig) -> arc.RunTrace:
    """Run ``cfg``'s step rule from ``x0``: the trust-region driver for a
    ``TrustRegionConfig``, else the cubic one."""
    runner = run_trust_region if isinstance(cfg, TrustRegionConfig) else arc.run
    return runner(objective, x0, cfg)


def _config_sidecar(record) -> dict:
    """The fields of a config or a ``RunRecord``, enums by value."""
    return {k: v.value if isinstance(v, Enum) else v for k, v in vars(record).items()}


def _sidecar(record: RunRecord, cfg: DriverConfig) -> dict:
    """The sidecar ``run_plan`` writes and ``determinism_digest`` hashes."""
    return _config_sidecar(record) | _config_sidecar(cfg)


def _typed(meta: dict, key: str, kind):
    """``meta[key]`` read as ``kind``, a ``_json_kind``. Raises
    ``ValueError`` when the key is missing, its value's type is not one
    that stands for ``kind``, or it is a number strict JSON cannot hold:
    ``NaN``, an infinity, or a literal such as ``1e999`` that reads as one."""
    if key not in meta:
        raise ValueError(f"missing key {key!r}")
    value = meta[key]
    if not isinstance(kind, tuple):
        return kind(value)
    if type(value) not in kind or type(value) is float and not math.isfinite(value):
        raise ValueError(f"{key!r} is {value!r}")
    return value


def config_from_sidecar(meta: dict) -> DriverConfig:
    """The validated config a run's sidecar records, the inverse of
    ``_config_sidecar``. The solver fixes the config class and oracle
    mode, which the sidecar must record, every field is typed by its
    annotation (``_json_kind``), and the sizes obey the oracle bundle's
    own rule, ``check_sample_sizes``. Raises ``ValueError`` or
    ``ContractError`` for a sidecar that no valid run writes."""
    solver = meta.get("solver")
    if solver not in SOLVERS:
        raise ValueError(f"'solver' is {solver!r}")
    cls, mode = _SOLVER_KINDS[solver]
    values = {key: _typed(meta, key, kind) for key, kind in _CONFIG_TYPES[cls].items()}
    if values["mode"] is not mode:
        raise ValueError(f"'mode' is {meta['mode']!r}, expected {mode.value!r}")
    cfg = cls(**values)
    cfg.validate()
    n = meta["case"]["n"]
    check_sample_sizes(mode, n, cfg.grad_sample_size, cfg.hess_sample_size)
    return cfg


@dataclass
class RunRecord:
    """A sidecar's run keys, beside its config's fields. ``final_f`` is None
    where the objective is not finite: JSON has no NaN."""

    case: dict
    solver: str
    rep: int
    master_seed: int
    case_index: int
    instance_seed: int
    noise: float
    outcome: Outcome
    iterations: int
    final_f: float | None
    wall_s: float
    grad_evals: int
    hess_evals: int
    objective_evals: int


_RUN_TYPES = {key: _json_kind(kind) for key, kind in get_type_hints(RunRecord).items()}


def _dims(run: RunRecord) -> tuple[int, int, int]:
    """The run's case as ``(n, d, r)``."""
    return run.case["n"], run.case["d"], run.case["r"]


@dataclass
class SummaryRow:
    case: str
    solver: str
    reps: int
    iters_mean: float
    iters_median: float
    time_s_mean: float
    success_rate: float
    grad_evals_total: int
    hess_evals_total: int
    objective_evals_total: int


@dataclass
class PlanReport:
    rows: list[SummaryRow]
    failures: list[str]


def run_plan(plan: BenchmarkPlan, out_dir) -> PlanReport:
    """Execute every (case, repetition, solver) run and write artifacts."""
    plan.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []

    for ci, case in enumerate(plan.cases):
        for rep in range(plan.repetitions):
            instance_seed, objective, x0 = start_point(
                plan.master_seed, ci, rep, case, plan.noise
            )
            for solver in plan.solvers:
                run_seed = _run_seed(plan.master_seed, ci, rep, solver)
                cfg = solver_config(plan, solver, case[0], run_seed)
                name = run_name(case, solver, rep)
                t0 = time.perf_counter()
                try:
                    # An overflow ends the run as a numerical failure,
                    # reported below; numpy's own warnings would repeat it.
                    with np.errstate(over="ignore", invalid="ignore"):
                        trace = solve(objective, x0, cfg)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                wall_s = time.perf_counter() - t0
                if trace.failure is not None:
                    failures.append(f"{name}: {trace.failure}")
                write_trace_csv(trace, out / f"{name}.csv")
                record = RunRecord(
                    case=dict(zip("ndr", case)),
                    solver=solver,
                    rep=rep,
                    master_seed=plan.master_seed,
                    case_index=ci,
                    instance_seed=instance_seed,
                    noise=plan.noise,
                    outcome=trace.outcome,
                    iterations=trace.iterations,
                    final_f=trace.final_f if math.isfinite(trace.final_f) else None,
                    wall_s=wall_s,
                    grad_evals=trace.grad_evals,
                    hess_evals=trace.hess_evals,
                    objective_evals=trace.objective_evals,
                )
                meta = json.dumps(
                    _sidecar(record, cfg), indent=1, sort_keys=True, allow_nan=False
                )
                (out / f"{name}.meta.json").write_text(meta + "\n", encoding="utf-8")

    rows = summarize_traces(RunSet(out))
    write_summary(rows, out / "summary.csv")
    return PlanReport(rows=rows, failures=failures)


# -- the CSV dialect ------------------------------------------------------

def _finite(text: str) -> float:
    """``text`` as a float, which no run writes unless it is finite."""
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


# A trace or summary cell's ``(format, parse)`` for each annotation: a
# flag is ``1`` or ``0``, a count its digits, a float its ``repr``, read
# back only when finite, an absent one empty and a name itself. Numpy
# scalars format as Python's.
_CELL_CODECS = {
    str: (str, str),
    bool: (lambda v: "1" if v else "0", lambda text: bool(("0", "1").index(text))),
    int: (lambda v: str(int(v)), int),
    float: (lambda v: repr(float(v)), _finite),
    float | None: (
        lambda v: "" if v is None else repr(float(v)),
        lambda text: None if text == "" else _finite(text),
    ),
}
# Each trace and summary column's codec, in field order.
TRACE_CODECS, _SUMMARY_CODECS = (
    {name: _CELL_CODECS[kind] for name, kind in get_type_hints(cls).items()}
    for cls in (IterationRecord, SummaryRow)
)
TRACE_COLUMNS = tuple(TRACE_CODECS)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The one CSV dialect of traces and ``summary.csv``: cells joined by
    ``,`` and every line, the header's too, ended by ``\n``."""
    return "\n".join(map(",".join, [header, *rows])) + "\n"


def _table_text(records: Iterable, codecs: dict) -> str:
    """``records`` as CSV under the ``codecs`` fields, each by its codec."""
    rows = ([fmt(getattr(r, c)) for c, (fmt, _) in codecs.items()] for r in records)
    return csv_text(tuple(codecs), rows)


def write_trace_csv(trace: arc.RunTrace, path) -> None:
    """Write the trace's records under ``TRACE_COLUMNS``, for either rule."""
    Path(path).write_text(_table_text(trace.records, TRACE_CODECS), encoding="utf-8")


def _read_trace(path: Path) -> tuple[list[str], list[list[str]]]:
    # Bytes: universal newlines would hide a carriage return in a line end.
    return _split_csv(path.read_bytes().decode("utf-8"), path.name)


def _split_csv(text: str, name: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of text as ``csv_text`` writes it, with no carriage
    return or empty line; any other text raises ``PlanError`` for ``name``."""
    if "\r" in text:
        raise PlanError(f"{name}: unreadable trace: carriage return")
    lines = text[:-1].split("\n")
    if not text.endswith("\n") or "" in lines:
        raise PlanError(f"{name}: unreadable trace: an empty line or no final newline")
    header, *rows = (line.split(",") for line in lines)
    return header, rows


def iter_run_files(directory) -> list[Path]:
    """The trace path of every run in ``directory``: each ``.csv`` but the
    summary, and the ``.csv`` of each sidecar, whether it exists or not."""
    directory = Path(directory)
    if not directory.is_dir():
        raise PlanError(f"{directory}: no such directory")
    names = [p.name for p in directory.glob("*")]
    stems = {n.removesuffix(".csv") for n in names if n.endswith(".csv")}
    stems |= {n.removesuffix(".meta.json") for n in names if n.endswith(".meta.json")}
    return sorted(directory / f"{stem}.csv" for stem in stems - {"summary"})


@dataclass
class RunFiles:
    """One run's trace, and its sidecar with the config it records, each
    parsed on first use and kept. A file that cannot be read raises
    ``PlanError``, a missing trace ``FileNotFoundError``, and neither is
    kept."""

    path: Path

    @cached_property
    def trace(self) -> tuple[list[str], list[list[str]]]:
        return _read_trace(self.path)

    @cached_property
    def sidecar(self) -> tuple[RunRecord, DriverConfig]:
        return _read_sidecar(self.path)


class RunSet(list):
    """The ``RunFiles`` of every run in ``directory``, and the text of its
    ``summary.csv``, read on first use and kept: None when it is missing.
    ``summarize_traces``, ``verify_traces`` and ``determinism_digest``
    take it, so the commands that call more than one share the reads."""

    def __init__(self, directory):
        self.directory = Path(directory)
        super().__init__(RunFiles(path) for path in iter_run_files(directory))

    @cached_property
    def summary(self) -> str | None:
        try:
            # Not ``read_text``: its universal newlines would hide a
            # carriage return edited into a line end.
            return (self.directory / "summary.csv").read_bytes().decode("utf-8")
        except FileNotFoundError:
            return None


def _read_sidecar(trace_path: Path) -> tuple[RunRecord, DriverConfig]:
    """The ``RunRecord`` and the config the run's sidecar holds, the
    inverse of ``_sidecar``. Raises ``PlanError`` naming the run when the
    file cannot be read, is not a JSON object, has keys other than
    ``RunRecord``'s and its config's, or holds a value of the wrong type
    or one no valid run writes (``config_from_sidecar``)."""
    meta_path = trace_path.with_suffix(".meta.json")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        record = RunRecord(**{k: _typed(meta, k, t) for k, t in _RUN_TYPES.items()})
        case = record.case
        if len(case) != 3 or not all(type(case.get(k)) is int for k in "ndr"):
            raise ValueError(f"'case' is {case!r}")
        cfg = config_from_sidecar(meta)
        unknown = meta.keys() - {*_RUN_TYPES, *_CONFIG_TYPES[type(cfg)]}
        if unknown:
            raise ValueError(f"unknown key {min(unknown)!r}")
    except FileNotFoundError:
        raise PlanError(f"{trace_path.name}: missing sidecar {meta_path.name}")
    except (OSError, ValueError, TypeError, ContractError) as exc:
        raise PlanError(f"{trace_path.name}: unreadable sidecar: {exc}") from exc
    return record, cfg


def summarize_traces(runs: RunSet) -> list[SummaryRow]:
    """Rebuild summary rows from the run sidecars alone. Iteration
    counts, times and oracle totals are the sidecars', which include the
    start-point objective and the terminating iteration. Raises
    ``PlanError`` listing every unreadable sidecar."""
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    problems: list[str] = []
    for run in runs:
        try:
            record, _ = run.sidecar
        except PlanError as exc:
            problems.append(str(exc))
            continue
        groups.setdefault((_case_id(_dims(record)), record.solver), []).append(record)
    if problems:
        raise PlanError("; ".join(problems))

    return [
        SummaryRow(
            case=case_id,
            solver=solver,
            reps=len(group),
            iters_mean=statistics.fmean(r.iterations for r in group),
            iters_median=float(statistics.median(r.iterations for r in group)),
            time_s_mean=statistics.fmean(r.wall_s for r in group),
            success_rate=statistics.fmean(
                1.0 if r.outcome is Outcome.OPTIMALITY_REACHED else 0.0 for r in group
            ),
            grad_evals_total=sum(r.grad_evals for r in group),
            hess_evals_total=sum(r.hess_evals for r in group),
            objective_evals_total=sum(r.objective_evals for r in group),
        )
        for (case_id, solver), group in sorted(groups.items())
    ]


def format_summary(rows: list[SummaryRow]) -> str:
    """Summary rows as CSV text under a header, each cell by its codec."""
    return _table_text(rows, _SUMMARY_CODECS)


def write_summary(rows: list[SummaryRow], path) -> None:
    Path(path).write_text(format_summary(rows), encoding="utf-8")


# -- verification ---------------------------------------------------------


def _read_records(rows: list[list[str]]) -> list[IterationRecord]:
    """A trace's rows as the ``IterationRecord``s that wrote them, each cell
    by its ``TRACE_CODECS`` parser. Raises ``ValueError`` naming the first
    row with the wrong cell count, or the first cell that does not parse."""
    records = []
    for k, row in enumerate(rows):
        if len(row) != len(TRACE_CODECS):
            raise ValueError(
                f"unreadable row {k}: {len(row)} cells, expected {len(TRACE_CODECS)}"
            )
        values = {}
        for (col, (_, parse)), cell in zip(TRACE_CODECS.items(), row):
            try:
                values[col] = parse(cell)
            except ValueError:
                raise ValueError(f"unreadable row {k}: {col} is {cell!r}") from None
        records.append(IterationRecord(**values))
    return records


def _check_row_count(run: RunRecord, cfg: DriverConfig, rows: list[IterationRecord]):
    """Rows ``0..n-1``, as many as the sidecar's iterations, and the
    driver stops at its iteration budget."""
    n_rows = len(rows)
    budget = cfg.iteration_budget()
    if [row.k for row in rows] != list(range(n_rows)):
        yield f"iteration indices are not 0..{n_rows - 1}"
    if run.iterations != n_rows:
        yield f"sidecar says {run.iterations} iterations, trace has {n_rows}"
    cut = run.outcome is Outcome.MAX_ITERS
    if n_rows > budget or cut != (n_rows == budget):
        yield (
            f"{n_rows} rows and outcome {run.outcome.value} "
            f"under an iteration budget of {budget}"
        )


def _check_stop_and_probe(
    run: RunRecord, cfg: DriverConfig, rows: list[IterationRecord]
):
    """Each row is an iteration the stop test did not end, at a
    non-negative gradient norm, and it holds a curvature estimate exactly
    when the driver probes. A norm whose square overflows would have
    ended the driver's own stop test."""
    for k, row in enumerate(rows):
        g_k, lam = row.grad_norm, row.lambda_min
        if g_k < 0.0:
            yield f"row {k} grad_norm is {g_k!r}, expected non-negative"
        try:
            probes = arc.runs_probe(g_k, cfg)
        except OverflowError:
            yield f"row {k} grad_norm {g_k!r} overflows"
            continue
        if (lam is not None) != probes:
            state = "empty" if lam is None else "filled"
            yield (
                f"lambda_min {state} at row {k}, against "
                f"{cfg.eig_policy.value} at grad_norm {g_k!r}"
            )
        elif arc.should_terminate(g_k, lam, cfg):
            yield f"row {k} meets the stop test"


def _check_recurrence(run: RunRecord, cfg: DriverConfig, rows: list[IterationRecord]):
    """The weights against the step rule's own recurrence: row 0 holds
    ``cfg.initial_weight()``, each later row ``cfg.next_weight`` of the
    row before and its success flag."""
    expected = [cfg.initial_weight()]
    expected += (cfg.next_weight(row.weight, row.success) for row in rows)
    for k, (row, want) in enumerate(zip(rows, expected)):
        if row.weight != want:
            yield f"row {k} weight is {row.weight!r}, expected {want!r}"


def _check_objective(run: RunRecord, cfg: DriverConfig, rows: list[IterationRecord]):
    """Objective bookkeeping, with the sidecar's ``final_f`` after the
    last row: each model value passes the driver's decrease test
    (``arc.predicts_decrease``), rejected iterations keep f (and an exact
    gradient's norm), accepted ones never increase it and store
    ``rho_k = (f_k - f_{k+1}) / -m_k``, and each success flag is the
    stored rho against the threshold. Only a run that took no step, a
    numerical failure, may end on a null ``final_f``."""
    if run.final_f is None:
        if run.outcome is not Outcome.NUMERICAL_FAILURE or rows:
            yield f"final_f is null with outcome {run.outcome.value}, {len(rows)} rows"
        return
    f_after = [row.f for row in rows[1:]] + [float(run.final_f)]
    g_after = [row.grad_norm for row in rows[1:]] + [None]
    for k, (row, f_next, g_next) in enumerate(zip(rows, f_after, g_after)):
        f_k, m_k = row.f, row.model_val
        if not arc.predicts_decrease(m_k, f_k):
            yield f"row {k} model_val {m_k!r} fails the decrease test"
        if not row.success:
            if f_next != f_k:
                yield f"f changed after rejected row {k}"
            if cfg.grad_sample_size is None and g_next not in (None, row.grad_norm):
                yield f"grad_norm changed after rejected row {k}"
            continue
        if f_next > f_k:
            yield f"f increased after accepted row {k}"
        rho = (f_k - f_next) / -m_k if m_k else math.nan
        if row.rho != rho:
            yield f"rho at accepted row {k} is not {rho!r}"
    for k, row in enumerate(rows):
        if row.success != (row.rho >= cfg.rho_threshold):
            yield f"success flag contradicts rho at row {k}"


def _check_charges(run: RunRecord, cfg: DriverConfig, rows: list[IterationRecord]):
    """The oracle charge, row by row and then, under the squared-gradient
    stop rule, for the terminating iteration. Counters step by whole
    batches: all ``n`` components for an exact oracle, else its sample
    size. The bundle reuses exact answers at an iterate that did not
    move, so after a rejected row an exact gradient costs nothing, and
    neither does the exact Cauchy product H[G] when it is the cubic
    rule's only product: no refinement and no probe on the row.

    The sidecar's totals are the last row's counters plus the terminating
    iteration's work, on every run but a numerical failure: a gradient
    step unless the budget cut the run, and never a probe. A sub-solver
    failure adds its step's Hessian batches, possibly none, and stops
    before the trial objective, which is taken at the start and per row."""
    n = run.case["n"]
    sizes = (cfg.grad_sample_size, cfg.hess_sample_size)
    g_size, h_size = (n if size is None else size for size in sizes)
    # The gradient components an iteration charges, by whether it moved.
    g_step = {True: g_size, False: 0 if cfg.grad_sample_size is None else g_size}
    exact_h = cfg.hess_sample_size is None
    cauchy_only = isinstance(cfg, SolverConfig) and exact_h and cfg.refine_steps == 0
    g, h, moved = 0, 0, True
    for k, row in enumerate(rows):
        dg, dh = row.grad_evals - g, row.hess_evals - h
        if dg != g_step[moved]:
            yield f"gradient counter step {dg} at row {k}, expected {g_step[moved]}"
        if not moved and cauchy_only and row.lambda_min is None:
            if dh != 0:
                yield f"Hessian counter step {dh} at row {k}, expected 0"
        elif dh < h_size or dh % h_size != 0:
            yield (
                f"Hessian counter step {dh} at row {k} is not a "
                f"positive multiple of {h_size}"
            )
        g, h, moved = row.grad_evals, row.hess_evals, row.success

    squared = cfg.stop_rule is StopRule.GRAD_SQUARED
    if not squared or run.outcome is Outcome.NUMERICAL_FAILURE:
        return
    if run.outcome is not Outcome.MAX_ITERS:
        g += g_step[moved]
    expected = dict(grad_evals=g, hess_evals=h, objective_evals=n * (len(rows) + 1))
    if run.outcome is Outcome.SUBSOLVER_FAILURE:
        dh = run.hess_evals - h
        if dh < 0 or dh % h_size != 0:
            yield (
                f"sidecar hess_evals is {run.hess_evals!r}, expected {h} "
                f"and a whole number of batches of {h_size}"
            )
        del expected["hess_evals"]
    for key, value in expected.items():
        if getattr(run, key) != value:
            yield f"sidecar {key} is {getattr(run, key)!r}, expected {value}"


def _check_provenance(run: RunRecord, cfg: DriverConfig, rows: list[IterationRecord]):
    """The instance seed and the run seed are the ones ``run_plan``
    derives from the master seed, case index, repetition and solver, so
    the run's instance and samples can be drawn again, and the recorded
    case and noise obey the instance rule, ``check_instance``."""
    position = (run.master_seed, run.case_index, run.rep)
    instance_seed = _instance_seed(*position)
    if run.instance_seed != instance_seed:
        yield f"instance_seed is {run.instance_seed!r}, expected {instance_seed}"
    run_seed = _run_seed(*position, run.solver)
    if cfg.seed != run_seed:
        yield f"seed is {cfg.seed!r}, expected {run_seed}"
    try:
        check_instance(*_dims(run), run.noise)
    except ContractError as exc:
        yield str(exc)


def _check_timing(run: RunRecord, cfg: DriverConfig, rows: list[IterationRecord]):
    """Each row's ``millis`` and the sidecar's ``wall_s``, finite once read,
    are non-negative, and the rows, each timed inside the interval that
    ``wall_s`` times, take at most ``1000 * wall_s`` milliseconds."""
    for k, row in enumerate(rows):
        if row.millis < 0.0:
            yield f"row {k} millis is {row.millis!r}, expected finite and non-negative"
    total = sum(row.millis for row in rows)
    if run.wall_s < 0.0:
        yield f"wall_s is {run.wall_s!r}, expected finite and non-negative"
    elif total > 1e3 * run.wall_s:
        yield f"rows take {total!r} ms, more than wall_s {run.wall_s!r} s"


# Each run law takes a run's ``RunRecord``, the config its sidecar records
# and its trace's records, and yields the run's violations, in this order.
_RUN_LAWS = (
    _check_row_count,
    _check_stop_and_probe,
    _check_recurrence,
    _check_objective,
    _check_charges,
    _check_provenance,
    _check_timing,
)


def _check_summary(runs: RunSet):
    """``summary.csv`` is, line for line, the summary the sidecars give.
    Skipped when a sidecar is unreadable, which is that run's violation."""
    try:
        rows = summarize_traces(runs)
    except PlanError:
        return
    if runs.summary is None:
        yield "missing"
        return
    got = runs.summary.splitlines(keepends=True)
    want = format_summary(rows).splitlines(keepends=True)
    if len(got) != len(want):
        yield f"{len(got)} lines, expected {len(want)}"
    for i, (line, line_want) in enumerate(zip(got, want), start=1):
        if line != line_want:
            yield f"line {i} is {line!r}, expected {line_want!r}"


def _violations(name: str, law, *args):
    """``law(*args)``'s violations under ``name``. A law that raises adds
    one violation naming it, so verify goes on with the next law."""
    try:
        for violation in law(*args):
            yield f"{name}: {violation}"
    except Exception as exc:  # noqa: BLE001
        yield f"{name}: {law.__name__} raised {type(exc).__name__}: {exc}"


def verify_traces(runs: RunSet) -> list[str]:
    """Check each run whose files parse against ``_RUN_LAWS``, then the
    summary. Returns the violation messages, empty when everything holds."""
    if not runs:
        return ["no trace files found"]
    violations: list[str] = []
    for run in runs:
        name = run.path.name
        meta_path = run.path.with_suffix(".meta.json")
        try:
            record, cfg = run.sidecar
            header, rows = run.trace
            if header != list(TRACE_COLUMNS):
                raise ValueError(f"unexpected columns {header}")
            own = run_name(_dims(record), record.solver, record.rep)
            if run.path.stem != own:
                raise ValueError(f"the sidecar is that of run {own}")
            records = _read_records(rows)
        except FileNotFoundError:
            violations.append(f"{meta_path.name}: missing trace {name}")
        except PlanError as exc:
            violations.append(str(exc))
        except ValueError as exc:
            violations.append(f"{name}: {exc}")
        else:
            for law in _RUN_LAWS:
                violations.extend(_violations(name, law, record, cfg, records))
    violations.extend(_violations("summary.csv", _check_summary, runs))
    return violations


# -- determinism digest -----------------------------------------------------


def _hashed_csv(header: list[str], rows: list[list[str]], drop: set[str]) -> bytes:
    """The table's CSV text without the ``drop`` columns and without its
    final newline, as the digest hashes it."""
    keep = [i for i, name in enumerate(header) if name not in drop]
    text = csv_text([header[i] for i in keep], ([row[i] for i in keep] for row in rows))
    return text[:-1].encode()


def determinism_digest(runs: RunSet) -> str:
    """Hash of all trace, sidecar and summary content excluding wall
    times: the traces' ``millis``, the sidecars' ``wall_s`` and the
    summary's ``time_s_mean``."""
    digest = hashlib.sha256()
    for run in runs:
        digest.update(run.path.name.encode())
        digest.update(_hashed_csv(*run.trace, {"millis"}))
        meta = {k: v for k, v in _sidecar(*run.sidecar).items() if k != "wall_s"}
        digest.update(json.dumps(meta, sort_keys=True).encode())
    if runs.summary is not None:
        summary = _split_csv(runs.summary, "summary.csv")
        digest.update(_hashed_csv(*summary, {"time_s_mean"}))
    return digest.hexdigest()
