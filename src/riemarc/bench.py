"""Benchmark harness: plan files, batch runs, trace verification and
summaries.

A plan is a small text file of ``key = value`` lines plus one ``case``
line per problem size:

    master_seed = 7
    repetitions = 3
    solvers = racr sracr ssracr ssrtr
    case 500 5 5
    case 2015 5 5

``set_plan_value`` parses every scalar key by its ``BenchmarkPlan``
annotation, for plan files and for ``riemarc run --set`` alike.

Each (case, repetition) pair generates one joint-diagonalization
instance shared by every solver, so solvers are compared on identical
data. ``solver_config`` maps (plan, solver, n, run seed) to the
solver's config: plan keys named like config fields carry over, and the
solver name fixes the step rule and oracle mode. Every run writes a
trace CSV plus a sidecar ``.meta.json`` holding that config as
``dataclasses.asdict`` gives it, the step rule's resolved weight bound,
the master seed and case index the start point is drawn from, and the
run's outcome and oracle totals; ``summary.csv`` aggregates per (case,
solver). ``verify_traces`` checks those totals against the last trace
row under the benchmark's squared-gradient stop rule.
Traces are deterministic for a fixed plan and master seed up to the
wall-time column, which the content digest therefore excludes.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .arc import DriverConfig, Outcome, SolverConfig, StopRule, write_trace_csv
from .errors import ContractError, PlanError
from .jointdiag import JointDiagObjective, generate_instance
from .oracles import OracleMode
from .trust_region import TrustRegionConfig, run_trust_region
from . import arc

# Step rule and oracle mode of each benchmark solver. A run seed takes
# the solver's index in ``plan.solvers``, not in this table, so a run
# of a selected subset draws other samples than the same run in the
# full plan.
_SOLVER_KINDS = {
    **{name: (SolverConfig, mode) for name, mode in arc._VARIANT_MODES.items()},
    "ssrtr": (TrustRegionConfig, OracleMode.SUBSAMPLED_BOTH),
}
SOLVERS = tuple(_SOLVER_KINDS)

SUMMARY_COLUMNS = (
    "case",
    "solver",
    "reps",
    "iters_mean",
    "iters_median",
    "time_s_mean",
    "success_rate",
    "grad_evals_total",
    "hess_evals_total",
    "objective_evals_total",
)


@dataclass
class BenchmarkPlan:
    cases: list[tuple[int, int, int]] = field(default_factory=list)
    solvers: list[str] = field(default_factory=lambda: list(SOLVERS))
    repetitions: int = 3
    master_seed: int = 7
    noise: float = 1e-3
    sigma0: float = 1e-3
    delta0: float = 1.0
    rho_threshold: float = 0.9
    gamma: float = 2.0
    tau: float = 1e-3
    max_iters: int = 2000
    grad_frac: float = 0.25
    hess_frac: float = 0.025
    refine_steps: int = 0

    def validate(self) -> None:
        if not self.cases:
            raise PlanError("plan has no cases")
        for n, d, r in self.cases:
            if n < 1 or d < 1 or not 1 <= r <= d:
                raise PlanError(f"invalid case (n={n}, d={d}, r={r})")
        if not self.solvers:
            raise PlanError("plan has no solvers")
        for s in self.solvers:
            if s not in SOLVERS:
                raise PlanError(f"unknown solver {s!r}, expected one of {SOLVERS}")
        if self.repetitions < 1:
            raise PlanError("repetitions must be at least 1")
        if not 0.0 < self.grad_frac <= 1.0 or not 0.0 < self.hess_frac <= 1.0:
            raise PlanError("sample fractions must lie in (0, 1]")
        if self.max_iters < 1:
            raise PlanError("max_iters must be at least 1")
        if not self.noise >= 0.0:
            raise PlanError(f"noise must be non-negative, got {self.noise}")
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
    """Set the scalar plan field ``key`` from ``text``, parsed as the
    field's annotated type. Rejects non-finite numbers."""
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
    plan.cases = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("case"):
            parts = line.split()
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
        if key == "solvers":
            plan.solvers = [s for s in value.replace(",", " ").split() if s]
            continue
        try:
            set_plan_value(plan, key, value)
        except PlanError as exc:
            raise PlanError(f"line {lineno}: {exc}") from exc
    plan.validate()
    return plan


def load_plan(path) -> BenchmarkPlan:
    return parse_plan(Path(path).read_text(encoding="utf-8"))


def _derived_seed(parts: list[int]) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


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
    plan_keys = {f.name for f in fields(BenchmarkPlan)}
    shared = {k.name: getattr(plan, k.name) for k in fields(cls) if k.name in plan_keys}
    return cls(
        mode=mode,
        grad_sample_size=grad_size if mode is OracleMode.SUBSAMPLED_BOTH else None,
        hess_sample_size=None if mode is OracleMode.EXACT else hess_size,
        seed=run_seed,
        stop_rule=StopRule.GRAD_SQUARED,
        **shared,
    )


def _config_sidecar(cfg: DriverConfig, n: int) -> dict:
    """``asdict(cfg)`` with enums by value, an unsampled oracle's sample
    size as ``n``, plus the weight's trace column and resolved bound."""
    meta = {}
    for key, value in asdict(cfg).items():
        if isinstance(value, Enum):
            value = value.value
        elif value is None and key.endswith("_sample_size"):
            value = n
        meta[key] = value
    meta.update(cfg.weight_bounds(), radius_column=cfg.radius_column)
    return meta


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
    out_dir: Path


def run_plan(plan: BenchmarkPlan, out_dir) -> PlanReport:
    """Execute every (case, repetition, solver) run and write artifacts."""
    plan.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []

    for ci, case in enumerate(plan.cases):
        n, d, r = case
        for rep in range(plan.repetitions):
            instance_seed = _derived_seed([plan.master_seed, ci, rep, 11])
            instance = generate_instance(n, d, r, seed=instance_seed, noise=plan.noise)
            objective = JointDiagObjective(instance)
            x0 = objective.manifold.random_point(
                np.random.default_rng([plan.master_seed, ci, rep, 13])
            )
            for si, solver in enumerate(plan.solvers):
                run_seed = _derived_seed([plan.master_seed, ci, rep, 17, si])
                cfg = solver_config(plan, solver, n, run_seed)
                runner = (
                    run_trust_region if isinstance(cfg, TrustRegionConfig) else arc.run
                )
                name = run_name(case, solver, rep)
                t0 = time.perf_counter()
                try:
                    trace = runner(objective, x0, cfg)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                wall_s = time.perf_counter() - t0
                if trace.outcome is Outcome.NUMERICAL_FAILURE:
                    failures.append(f"{name}: non-finite objective during run")
                csv_path = out / f"{name}.csv"
                write_trace_csv(trace, csv_path, sigma_name=cfg.radius_column)
                meta = {
                    "case": {"n": n, "d": d, "r": r},
                    "solver": solver,
                    "rep": rep,
                    "master_seed": plan.master_seed,
                    "case_index": ci,
                    "instance_seed": instance_seed,
                    "noise": plan.noise,
                    **_config_sidecar(cfg, n),
                    "outcome": trace.outcome.value,
                    "iterations": trace.iterations,
                    "final_f": trace.final_f,
                    "wall_s": wall_s,
                    "grad_evals": trace.grad_evals,
                    "hess_evals": trace.hess_evals,
                    "objective_evals": trace.objective_evals,
                }
                (out / f"{name}.meta.json").write_text(
                    json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8"
                )

    rows = summarize_traces(out)
    write_summary(rows, out / "summary.csv")
    return PlanReport(rows=rows, failures=failures, out_dir=out)


def _read_trace(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise PlanError(f"{path.name}: empty trace file")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


def _meta_path(trace_path: Path) -> Path:
    return trace_path.with_suffix(".meta.json")


def iter_run_files(directory) -> list[Path]:
    directory = Path(directory)
    return sorted(p for p in directory.glob("*.csv") if p.name != "summary.csv")


# The sidecar keys that verify and summarize read, by type; the step
# rule's radius column adds its initial value and bound.
_SIDECAR_TYPES = {
    "case": dict,
    "solver": str,
    "outcome": str,
    "gamma": (int, float),
    "rho_threshold": (int, float),
    "grad_sample_size": int,
    "hess_sample_size": int,
    "grad_evals": int,
    "hess_evals": int,
    "objective_evals": int,
}
_RADIUS_KEYS = {"sigma": ("sigma0", "sigma_min"), "delta": ("delta0", "delta_max")}


def _read_sidecar(trace_path: Path) -> dict:
    """The run's sidecar. Raises ``PlanError`` naming the run when the
    file cannot be read, is not a JSON object, or lacks a key that
    verify or summarize reads."""
    try:
        meta = json.loads(_meta_path(trace_path).read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        radius = meta.get("radius_column")
        if radius not in _RADIUS_KEYS:
            raise ValueError(f"radius_column is {radius!r}")
        types = {**_SIDECAR_TYPES, **dict.fromkeys(_RADIUS_KEYS[radius], (int, float))}
        for key, kind in types.items():
            if key not in meta:
                raise ValueError(f"missing key {key!r}")
            if not isinstance(meta[key], kind):
                raise ValueError(f"{key!r} is {meta[key]!r}")
        if not all(isinstance(meta["case"].get(k), int) for k in "ndr"):
            raise ValueError(f"'case' is {meta['case']!r}")
    except (OSError, ValueError) as exc:
        raise PlanError(f"{trace_path.name}: unreadable sidecar: {exc}") from exc
    return meta


def summarize_traces(directory) -> list[SummaryRow]:
    """Rebuild summary rows from the stored traces and sidecars. Oracle
    totals are the sidecars', which include the terminating iteration.
    Raises ``PlanError`` listing every unreadable sidecar."""
    groups: dict[tuple[str, str], list[dict]] = {}
    problems: list[str] = []
    for trace_path in iter_run_files(directory):
        try:
            meta = _read_sidecar(trace_path)
        except PlanError as exc:
            problems.append(str(exc))
            continue
        header, rows = _read_trace(trace_path)
        idx = {name: i for i, name in enumerate(header)}
        case = meta["case"]
        key = (_case_id((case["n"], case["d"], case["r"])), meta["solver"])
        groups.setdefault(key, []).append(
            {
                "iters": len(rows),
                "time_s": sum(float(row[idx["millis"]]) for row in rows) / 1e3,
                "success": meta["outcome"] == Outcome.OPTIMALITY_REACHED.value,
                "grad": meta["grad_evals"],
                "hess": meta["hess_evals"],
                "objective": meta["objective_evals"],
            }
        )
    if problems:
        raise PlanError("; ".join(problems))

    rows_out: list[SummaryRow] = []
    for (case_id, solver), runs in sorted(groups.items()):
        rows_out.append(
            SummaryRow(
                case=case_id,
                solver=solver,
                reps=len(runs),
                iters_mean=statistics.fmean(r["iters"] for r in runs),
                iters_median=float(statistics.median(r["iters"] for r in runs)),
                time_s_mean=statistics.fmean(r["time_s"] for r in runs),
                success_rate=statistics.fmean(
                    1.0 if r["success"] else 0.0 for r in runs
                ),
                grad_evals_total=sum(r["grad"] for r in runs),
                hess_evals_total=sum(r["hess"] for r in runs),
                objective_evals_total=sum(r["objective"] for r in runs),
            )
        )
    return rows_out


def format_summary(rows: list[SummaryRow]) -> str:
    """Summary rows as CSV text under a header, without a final newline."""
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        values = asdict(row)
        lines.append(
            ",".join(
                repr(float(v)) if isinstance(v, float) else str(v)
                for v in (values[col] for col in SUMMARY_COLUMNS)
            )
        )
    return "\n".join(lines)


def write_summary(rows: list[SummaryRow], path) -> None:
    Path(path).write_text(format_summary(rows) + "\n", encoding="utf-8")


# -- verification ---------------------------------------------------------


def _check_recurrence(
    name: str,
    rows: list[list[str]],
    idx: dict[str, int],
    meta: dict,
    violations: list[str],
) -> None:
    gamma = float(meta["gamma"])
    radius_col = meta["radius_column"]
    is_tr = radius_col == "delta"
    col = idx[radius_col]
    values = [float(row[col]) for row in rows]
    succ = [row[idx["success"]] == "1" for row in rows]
    if rows:
        expected0 = float(meta["delta0"] if is_tr else meta["sigma0"])
        if values[0] != expected0:
            violations.append(
                f"{name}: row 0 {radius_col} is {values[0]!r}, expected {expected0!r}"
            )
    for k in range(len(rows) - 1):
        if is_tr:
            cap = float(meta["delta_max"])
            expected = min(gamma * values[k], cap) if succ[k] else values[k] / gamma
        else:
            floor = float(meta["sigma_min"])
            expected = (
                max(values[k] / gamma, floor) if succ[k] else gamma * values[k]
            )
        if values[k + 1] != expected:
            violations.append(
                f"{name}: row {k + 1} {radius_col} is {values[k + 1]!r}, "
                f"expected {expected!r}"
            )


def verify_traces(directory) -> list[str]:
    """Recompute every checkable law from the stored artifacts. Returns a
    list of violation messages, empty when everything holds."""
    violations: list[str] = []
    paths = iter_run_files(directory)
    if not paths:
        violations.append("no trace files found")
        return violations

    for trace_path in paths:
        name = trace_path.name
        meta_path = _meta_path(trace_path)
        if not meta_path.exists():
            violations.append(f"{name}: missing sidecar {meta_path.name}")
            continue
        try:
            meta = _read_sidecar(trace_path)
            header, rows = _read_trace(trace_path)
        except PlanError as exc:
            violations.append(str(exc))
            continue

        radius_name = meta["radius_column"]
        expected_header = [
            c if c != "sigma" else radius_name for c in arc.TRACE_COLUMNS
        ]
        if header != expected_header:
            violations.append(f"{name}: unexpected columns {header}")
            continue
        idx = {name_: i for i, name_ in enumerate(header)}

        if [int(row[idx["k"]]) for row in rows] != list(range(len(rows))):
            violations.append(f"{name}: iteration indices are not 0..{len(rows) - 1}")
        if meta.get("iterations") != len(rows):
            violations.append(
                f"{name}: sidecar says {meta.get('iterations')} iterations, "
                f"trace has {len(rows)}"
            )

        _check_recurrence(name, rows, idx, meta, violations)

        # Objective bookkeeping: rejected iterations keep f, accepted ones
        # never increase it.
        for k in range(len(rows) - 1):
            f_k = float(rows[k][idx["f"]])
            f_next = float(rows[k + 1][idx["f"]])
            if rows[k][idx["success"]] == "1":
                if f_next > f_k:
                    violations.append(f"{name}: f increased after accepted row {k}")
            elif f_next != f_k:
                violations.append(f"{name}: f changed after rejected row {k}")

        # Acceptance flags must match the stored ratio.
        rho_th = float(meta["rho_threshold"])
        for k, row in enumerate(rows):
            flag = row[idx["success"]] == "1"
            if flag != (float(row[idx["rho"]]) >= rho_th):
                violations.append(f"{name}: success flag contradicts rho at row {k}")

        # Oracle counters: cumulative, one gradient batch per iteration,
        # whole Hessian batches.
        g_size = int(meta["grad_sample_size"])
        h_size = int(meta["hess_sample_size"])
        prev_g, prev_h = 0, 0
        for k, row in enumerate(rows):
            g_c = int(row[idx["grad_evals"]])
            h_c = int(row[idx["hess_evals"]])
            if g_c - prev_g != g_size:
                violations.append(
                    f"{name}: gradient counter step {g_c - prev_g} at row {k}, "
                    f"expected {g_size}"
                )
            dh = h_c - prev_h
            if dh < h_size or dh % h_size != 0:
                violations.append(
                    f"{name}: Hessian counter step {dh} at row {k} is not a "
                    f"positive multiple of {h_size}"
                )
            prev_g, prev_h = g_c, h_c

        if meta.get("stop_rule") == StopRule.GRAD_SQUARED.value:
            _check_run_totals(name, meta, len(rows), prev_g, prev_h, violations)

    return violations


def _check_run_totals(
    name: str,
    meta: dict,
    n_rows: int,
    last_g: int,
    last_h: int,
    violations: list[str],
) -> None:
    """Under the squared-gradient stop rule the sidecar's totals are the
    last row's counters plus the terminating iteration's work: one
    gradient batch when the run reached optimality, and never a probe.
    The exact objective is taken once at the start and once per row."""
    outcome = meta.get("outcome")
    if outcome == Outcome.OPTIMALITY_REACHED.value:
        tail_g = int(meta["grad_sample_size"])
    elif outcome == Outcome.MAX_ITERS.value:
        tail_g = 0
    else:
        return
    expected = {
        "grad_evals": last_g + tail_g,
        "hess_evals": last_h,
        "objective_evals": int(meta["case"]["n"]) * (n_rows + 1),
    }
    for key, value in expected.items():
        if meta.get(key) != value:
            violations.append(
                f"{name}: sidecar {key} is {meta.get(key)!r}, expected {value}"
            )


# -- determinism digest -----------------------------------------------------


def _strip_columns(header: list[str], rows: list[list[str]], drop: set[str]):
    keep = [i for i, name in enumerate(header) if name not in drop]
    return [header[i] for i in keep], [[row[i] for i in keep] for row in rows]


def determinism_digest(directory) -> str:
    """Hash of all trace and summary content excluding wall-time columns."""
    digest = hashlib.sha256()
    for trace_path in iter_run_files(directory):
        header, rows = _read_trace(trace_path)
        header, rows = _strip_columns(header, rows, {"millis"})
        digest.update(trace_path.name.encode())
        digest.update("\n".join(",".join(r) for r in [header, *rows]).encode())
    summary = Path(directory) / "summary.csv"
    if summary.exists():
        header, rows = _read_trace(summary)
        header, rows = _strip_columns(header, rows, {"time_s_mean"})
        digest.update("\n".join(",".join(r) for r in [header, *rows]).encode())
    return digest.hexdigest()
