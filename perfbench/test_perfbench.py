"""Tests of the benchmark's own code. Run with ``python3 -m pytest perfbench``."""

import json
import re
import types

import pytest

from perfbench.run import ROOT, measure, use_checkout_source

use_checkout_source()

from perfbench import spans, workloads  # noqa: E402
from perfbench.workloads import PassResult  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: covered once
        _span("c", 8.0, 9.0, 0),
        _span("d", 9.5, 11.0, 0),  # clipped to the parent's end
        _span("a1", 2.0, 3.0, 1),
        _span("a1", 3.2, 3.7, 1),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0 + 0.5))
    assert own[1] == pytest.approx(3.0 - 1.5)
    assert own[5] == pytest.approx(1.0)

    rec = spans.SpanRecorder()
    rec.spans = tree
    rec.count("a.items", 7)
    totals = spans.layer_totals(rec)
    assert totals["a1.calls"] == 2
    assert totals["a1.self_s"] == pytest.approx(1.5)
    assert totals["a.items"] == 7


def test_recorder_nests_spans_and_installed_restores_attributes():
    class Owner:
        def inner(self, x):
            return x + 1

    owner = Owner()
    module = types.SimpleNamespace(outer=lambda x: owner.inner(x) * 2)
    original_outer, original_inner = module.outer, Owner.inner
    rec = spans.SpanRecorder()
    hooks = [
        spans.Hook(module, "outer", "outer"),
        spans.Hook(Owner, "inner", "inner", lambda r, a, k, res: r.count("inner.out", res)),
    ]
    with spans.installed(rec, hooks):
        assert module.outer(1) == 4
    assert module.outer is original_outer and Owner.inner is original_inner
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", None), ("inner", 0)]
    assert rec.counts["inner.out"] == 2


def test_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_shrunken_workload_passes_every_gate(name, trace, tmp_path):
    workload = workloads.WORKLOADS[name].shrunk()
    result = measure(workload, seed=3, seconds=0.0, trace=trace, work_root=tmp_path)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert list(result["metrics"]) == [m for m, _, _ in table]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["jointdiag.value.calls"]["value"] > 0
        assert (tmp_path / f"spans-{workload.name}-seed3.jsonl").exists()


class _FlakyWorkload:
    """Passes whose digests differ, as a nondeterministic program's would."""

    name = "flaky"

    def __init__(self):
        self.calls = 0

    def shrunk(self):
        return self

    def run_pass(self, seed, work, rec):
        self.calls += 1
        metrics = {m: 1.0 for m, _, _ in workloads.END_TO_END}
        return PassResult(metrics=metrics, digest=str(self.calls), attempted=1)


def test_gate_fails_when_repeats_disagree(tmp_path):
    result = measure(_FlakyWorkload(), seed=1, seconds=0.0, trace=False, work_root=tmp_path)
    assert not result["correct"]
    assert any("digest differs" in e for e in result["errors"])
