"""Run the riemarc benchmark.

    python3 perfbench/run.py --workload wide-n --seed 1 --seconds 60 --trace 0

Runs the workload's passes for about ``--seconds`` seconds (at least two),
checks every pass's outputs, and prints each metric with its unit. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, medians over passes. With
``--trace 1`` passes alternate between untraced and traced, the metrics
are the per-layer ones (medians over traced passes), and the spans of the
last traced pass are written to ``.perfbench_work/`` at the checkout root.
``--workload all`` runs every workload in turn.

The exit code is 0 when every correctness gate holds, 1 otherwise. The
program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with 1 before running anything when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench_work"


def use_checkout_source(root: Path = ROOT) -> None:
    """Import riemarc from ``<root>/src`` and nowhere else."""
    package = root / "src" / "riemarc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: riemarc sources not found at {package}")
    for entry in (str(root), str(root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import riemarc

    if Path(riemarc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: riemarc imported from {riemarc.__file__}, not {package}")


def environment(root: Path = ROOT) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": commit,
    }


def _median(values: list):
    """Median over passes; counts, equal in every pass, stay whole."""
    if isinstance(values[0], int):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(workload, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """Warm up on a shrunken copy, then run passes until the next one would
    end after ``seconds`` (at least two). Returns the result object the
    benchmark prints."""
    from perfbench import spans, workloads

    def one_pass(w, rec):
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            if rec is None:
                return w.run_pass(seed, Path(tmp), None)
            with spans.installed(rec, spans.riemarc_hooks()), rec.span("perfbench.pass"):
                return w.run_pass(seed, Path(tmp), rec)

    warm = one_pass(workload.shrunk(), None)
    passes = []  # (PassResult, SpanRecorder or None)
    t_start = time.perf_counter()
    while True:
        rec = spans.SpanRecorder() if trace and len(passes) % 2 == 1 else None
        passes.append((one_pass(workload, rec), rec))
        elapsed = time.perf_counter() - t_start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    results = [p for p, _ in passes]
    errors = [e for p in [warm, *results] for e in p.errors]
    if len({p.digest for p in results}) != 1:
        errors.append("digest differs between repeats: " + ", ".join(p.digest for p in results))
    for key in ("grad_evals", "hess_evals"):
        if len({p.metrics[key] for p in results}) != 1:
            errors.append(f"{key} differs between repeats")

    info = {}
    if trace:
        traced = [(p, rec) for p, rec in passes if rec is not None]
        totals = [spans.layer_totals(rec) for _, rec in traced]
        metrics = {
            name: _median([t.get(name, 0) for t in totals])
            for name, _, _ in workloads.PER_LAYER
            if name != "tracing.overhead_s"
        }
        metrics["tracing.overhead_s"] = statistics.median(
            p.metrics["wall_s"] for p, _ in traced
        ) - statistics.median(p.metrics["wall_s"] for p, rec in passes if rec is None)
        traced[-1][1].write(work_root / f"spans-{workload.name}-seed{seed}.jsonl")
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}
    else:
        measured = {name: _median([p.metrics[name] for p in results]) for name in results[0].metrics}
        units = {name: unit for name, unit, _ in workloads.END_TO_END}
        metrics = {name: measured.pop(name) for name in units}
        info = measured

    return {
        "correct": not errors,
        "attempted": sum(p.attempted for p in results),
        "failed": sum(p.failed for p in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "digest": results[0].digest,
        "errors": errors,
        "info": info,
        "passes": [p.metrics for p in results],
    }


def _report(name: str, result: dict) -> None:
    print(f"[{name}] passes={len(result['passes'])} attempted={result['attempted']} "
          f"failed={result['failed']} digest={result['digest']}")
    for metric, m in result["metrics"].items():
        print(f"[{name}] {metric} {m['value']!r} {m['unit']}")
    for metric, value in result["info"].items():
        print(f"[{name}] not gated: {metric} {value!r} s")
    for i, values in enumerate(result["passes"]):
        shown = " ".join(f"{m}={v:.4g}" for m, v in values.items())
        print(f"[{name}] pass {i}: {shown}")
    for error in result["errors"]:
        print(f"[{name}] gate failed: {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="wide-n, curvature, desk or all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=60.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}, expected one of {list(WORKLOADS)} or all")

    work_root = ROOT / WORK_DIR
    work_root.mkdir(exist_ok=True)
    try:
        results = {
            n: measure(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), work_root)
            for n in names
        }
    finally:
        if not any(work_root.iterdir()):
            shutil.rmtree(work_root)

    print("environment " + json.dumps(environment(), sort_keys=True))
    for n, result in results.items():
        _report(n, result)
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
