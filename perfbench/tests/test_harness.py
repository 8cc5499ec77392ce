"""Tests of the benchmark harness itself (no conmoe run needed):

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from tracing import (  # noqa: E402
    HOOKS, PER_LAYER_UNITS, Span, Tracer, children, covered_time, install_hooks,
    per_layer_metrics, rollup, self_time,
)
from workloads import WORKLOADS, fields  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spans(*rows):
    """rows: (name, parent, start, end)"""
    return [Span(name, parent, start, end) for name, parent, start, end in rows]


class TestSelfTime:
    def test_other_layer_descendants_are_subtracted_once(self):
        spans = _spans(
            ("analysis.evaluate_fidelity", None, 0.0, 10.0),
            ("model.moe_forward", 0, 1.0, 3.0),
            ("analysis.inner", 0, 4.0, 8.0),
            ("model.consolidated_moe_forward", 2, 5.0, 6.0),
            ("store.read_plan", 3, 5.2, 5.8),  # inside a foreign span: already covered
        )
        kids = children(spans)
        assert self_time(spans, kids, 0) == pytest.approx(10.0 - 2.0 - 1.0)
        assert self_time(spans, kids, 2) == pytest.approx(4.0 - 1.0)
        assert self_time(spans, kids, 1) == pytest.approx(2.0)

    def test_same_layer_children_stay_in_self_time(self):
        spans = _spans(
            ("planner.consolidate", None, 0.0, 5.0),
            ("planner.assign", 0, 1.0, 2.0),
            ("geometry.distance_matrix", 0, 2.0, 4.5),
        )
        assert self_time(spans, children(spans), 0) == pytest.approx(2.5)

    def test_covered_time_counts_nested_matches_once(self):
        spans = _spans(
            ("analysis.scope_sweep", None, 0.0, 10.0),
            ("analysis.evaluate_fidelity", 0, 1.0, 9.0),
            ("analysis.evaluate_fidelity", None, 11.0, 12.0),
            ("model.moe_forward", 1, 2.0, 3.0),
        )
        assert covered_time(spans, lambda s: s.layer == "analysis") == pytest.approx(11.0)
        assert covered_time(spans, lambda s: s.layer == "model") == pytest.approx(1.0)


class TestTracer:
    def test_nesting_and_exceptions_close_spans(self):
        tracer = Tracer()

        def boom():
            raise ZeroDivisionError("x")

        wrapped = tracer.wrap(boom, "analysis.boom")
        with tracer.span("cli.eval"):
            with pytest.raises(ZeroDivisionError):
                wrapped()
        with tracer.span("cli.next"):
            pass
        outer, inner, after = tracer.spans
        assert inner.parent == 0 and after.parent is None
        assert outer.end >= inner.end >= inner.start >= outer.start

    def test_rollup_groups_per_token_spans_by_parent(self):
        spans = _spans(
            ("analysis.evaluate_fidelity", None, 0.0, 4.0),
            ("model.moe_forward", 0, 0.0, 1.0),
            ("model.moe_forward", 0, 1.0, 3.0),
            ("model.consolidated_moe_forward", 0, 3.0, 4.0),
        )
        records = rollup(spans)
        assert [r["name"] for r in records] == [
            "analysis.evaluate_fidelity", "model.moe_forward", "model.consolidated_moe_forward"]
        assert records[1]["count"] == 2 and records[1]["total_s"] == pytest.approx(3.0)

    def test_per_layer_metrics_cover_every_name(self):
        tracer = Tracer()
        tracer.spans = _spans(
            ("analysis.evaluate_fidelity", None, 0.0, 4.0),
            ("model.moe_forward", 0, 0.0, 1.0),
            ("model.moe_forward", 0, 1.0, 2.0),
            ("model.consolidated_moe_forward", 0, 2.0, 4.0),
        )
        metrics = per_layer_metrics(tracer, num_layers=2, pass_s=8.0, untraced_pass_s=7.5,
                                    startup_s=0.25)
        assert list(metrics) == list(PER_LAYER_UNITS)
        assert metrics["model.forward_tok_per_s"] == pytest.approx(0.5)
        assert metrics["model.plan_forward_tok_per_s"] == pytest.approx(0.25)
        assert metrics["model.pass_share"] == pytest.approx(0.5)
        assert metrics["analysis.eval_self_s"] == pytest.approx(0.0)
        assert metrics["analysis.forward_calls"] == 3
        assert metrics["trace.overhead_s"] == pytest.approx(0.5)
        assert metrics["geometry.pairs_per_s"] == 0.0  # layer never entered


class TestHooks:
    def _package(self):
        pkg = types.ModuleType("fakepkg")
        sub = types.ModuleType("fakepkg.sub")

        def read_checkpoint(path):
            return f"model:{path}"

        def reader(path):  # calls through the submodule's own reference
            return sub.read_checkpoint(path)

        class ConsolidationPlan:
            def validate(self):
                return "ok"

        pkg.read_checkpoint = sub.read_checkpoint = read_checkpoint
        pkg.ConsolidationPlan = ConsolidationPlan
        sub.reader = reader
        return pkg, sub

    def test_missing_targets_are_reported_not_fatal(self, tmp_path):
        pkg, sub = self._package()
        tracer = Tracer()
        restore, missing = install_hooks(tracer, pkg, modules=[pkg, sub])
        expected = {n for names in HOOKS.values() for n in names}
        assert set(missing) == expected - {"read_checkpoint", "ConsolidationPlan.validate"}

        path = tmp_path / "m.mckpt"
        path.write_bytes(b"1234")
        assert sub.reader(str(path)) == f"model:{path}"
        assert pkg.ConsolidationPlan().validate() == "ok"
        assert [s.name for s in tracer.spans] == ["store.read_checkpoint", "plan.validate"]
        assert tracer.spans[0].attrs == {"bytes": 4}

        restore()
        sub.reader(str(path))
        pkg.ConsolidationPlan().validate()
        assert len(tracer.spans) == 2

    def test_annotation_error_does_not_fail_the_call(self):
        pkg = types.ModuleType("fakepkg")

        def read_checkpoint(filename):  # parameter renamed
            return filename

        pkg.read_checkpoint = read_checkpoint
        tracer = Tracer()
        restore, _ = install_hooks(tracer, pkg, modules=[pkg])
        try:
            assert pkg.read_checkpoint("x") == "x"
        finally:
            restore()
        assert "annotate_error" in tracer.spans[0].attrs


class TestBenchmarkFile:
    def test_keys_and_limits(self):
        assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"}
        assert BENCHMARK["paths"] == ["perfbench"]
        assert 1 <= BENCHMARK["run_seconds"] <= 60
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
        for workload in BENCHMARK["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    def test_bounds_and_setup_metric(self):
        end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}
        for metric in end_to_end.values():
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        setup = end_to_end["setup_s"]
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in end_to_end.values())

    def test_harness_reports_exactly_the_listed_metrics(self):
        assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)

    def test_every_workload_command_fills_in(self):
        for workload in WORKLOADS.values():
            f = fields(7, "SETUP", "OUT")
            for op in workload.gens + workload.ops:
                argv = op.argv(f)
                assert "--threads" not in argv and "--importance" not in argv
                assert op.output_paths(f), op.name
            assert any(op.name == "calibrate" for op in workload.ops)
            assert {"calibrate", "consolidate", "eval"} <= {op.name for op in workload.ops if op.timed}


class TestRunner:
    def test_failed_check_is_counted_not_raised(self):
        ledger = run.Ledger()
        ledger.check("setup.identical", run.same_artifacts, {"a": "1", "b": "2"}, {"a": "1"})
        ledger.check("pass.identical", run.same_artifacts, {"a": "1"}, {"a": "1"})
        assert ledger.attempted == 2 and ledger.failed_checks == 1
        assert ledger.failures == [
            ("setup.identical", "CheckFailed: not byte-identical to the first pass: b")]

    def test_repeated_operation_counts_once(self):
        # Counts must not depend on how many passes fit in a run.
        ledger = run.Ledger()
        for error in (None, "exit 1: first", "exit 1: second", None):
            ledger.record("pass.eval_prune", error)
        ledger.record("pass.eval", None)
        ledger.record("pass.eval", None)
        assert ledger.attempted == 2 and ledger.failed_checks == 0
        assert ledger.failures == [("pass.eval_prune", "exit 1: first")]

    def test_refuses_to_run_without_the_sources(self, tmp_path):
        shutil.copytree(HERE.parent, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "results"))
        shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quickstart", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and proc.stdout == ""
        assert "no conmoe sources" in proc.stderr
