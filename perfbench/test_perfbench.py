"""Tests of the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from measure import Cell, fail_counts, fail_rate, geomean
from tracing import SpanRecorder, covered_length, leaf_totals, self_times

ROOT = Path(__file__).resolve().parent.parent


def _span(span_id, start, end, parent=None, leaf=None):
    return {"id": span_id, "name": span_id, "parent": parent, "cell": "",
            "start": start, "end": end, "leaf": leaf or {}, "attrs": {}}


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 4.0, parent="root"),
            _span("a1", 2.0, 3.0, parent="a"),
            _span("b", 5.0, 6.0, parent="root"),
        ]
        own = self_times(spans)
        assert own["root"] == pytest.approx(6.0)  # 10 - 3 (a) - 1 (b)
        assert own["a"] == pytest.approx(2.0)
        assert own["a1"] == pytest.approx(1.0)
        assert own["b"] == pytest.approx(1.0)

    def test_overlapping_children_count_their_union(self):
        # two workers' tasks under one sweep span overlap in time
        spans = [
            _span("sweep", 0.0, 10.0),
            _span("t1", 1.0, 6.0, parent="sweep"),
            _span("t2", 2.0, 8.0, parent="sweep"),
        ]
        assert self_times(spans)["sweep"] == pytest.approx(3.0)

    def test_leaf_time_is_subtracted_and_totalled(self):
        spans = [_span("run", 0.0, 5.0, leaf={"paging": [100, 1.5]}),
                 _span("other", 5.0, 6.0, leaf={"paging": [10, 0.25]})]
        assert self_times(spans)["run"] == pytest.approx(3.5)
        assert leaf_totals(spans) == {"paging": [110, 1.75]}

    def test_covered_length_merges_touching_intervals(self):
        assert covered_length([(0, 1), (1, 2), (4, 5)]) == pytest.approx(3)
        assert covered_length([]) == 0.0

    def test_recorder_links_parents_and_cells(self):
        recorder = SpanRecorder()
        outer = recorder.open("outer")
        with recorder.cell_scope("Queens/cu"):
            inner = recorder.open("inner")
            recorder.leaf("touch", 0.5)
            inner_span = recorder.close(inner)
        outer_span = recorder.close(outer)
        assert inner_span["parent"] == outer_span["id"]
        assert inner_span["cell"] == "Queens/cu"
        assert outer_span["cell"] == ""
        assert inner_span["leaf"] == {"touch": [1, 0.5]}

    def test_recorder_rejects_out_of_order_close(self):
        recorder = SpanRecorder()
        outer = recorder.open("outer")
        recorder.open("inner")
        with pytest.raises(RuntimeError):
            recorder.close(outer)


def _record_in_worker(recorder):
    """Runs in another process, on a copy of the parent's recorder."""
    mark = recorder.mark()
    with recorder.cell_scope("DeltaBlue/cu"):
        task = recorder.open("task")
        recorder.close(recorder.open("compile"))
        recorder.close(task)
    return recorder.take(mark)


class TestCrossProcessMerge:
    def test_worker_spans_merge_under_the_open_parent_span(self):
        recorder = SpanRecorder()
        recorder.close(recorder.open("earlier"))
        sweep = recorder.open("sweep")
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            shipped = pool.submit(_record_in_worker, recorder).result(
                timeout=60)
        sweep_span = recorder.close(sweep)
        recorder.absorb(shipped)

        by_name = {span["name"]: span for span in recorder.spans}
        assert sorted(by_name) == ["compile", "earlier", "sweep", "task"]
        assert len(recorder.spans) == 4  # only the worker's own spans came back
        assert by_name["task"]["parent"] == sweep_span["id"]
        assert by_name["compile"]["parent"] == by_name["task"]["id"]
        assert by_name["task"]["id"].split(":")[0] != str(os.getpid())
        assert by_name["task"]["cell"] == "DeltaBlue/cu"
        task = by_name["task"]
        assert self_times(recorder.spans)[sweep_span["id"]] == pytest.approx(
            (sweep_span["end"] - sweep_span["start"])
            - (task["end"] - task["start"]))

    def test_take_removes_only_spans_after_the_mark(self):
        recorder = SpanRecorder()
        recorder.close(recorder.open("before"))
        mark = recorder.mark()
        recorder.close(recorder.open("after"))
        taken = recorder.take(mark)
        assert [s["name"] for s in taken] == ["after"]
        assert [s["name"] for s in recorder.spans] == ["before"]
        recorder.absorb(taken)
        assert len(recorder.spans) == 2


class TestAggregates:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([1.5]) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_fail_rate_counts_any_problem_once(self):
        cells = [Cell("a/cu"), Cell("b/cu", problems=["degraded"]),
                 Cell("c/cu", problems=["quarantined", "op counts differ"]),
                 Cell("d/cu")]
        assert fail_counts(cells) == {"attempted": 4, "failed": 2}
        assert fail_rate(cells) == pytest.approx(0.5)

    def test_non_positive_measurements_fail_the_cell(self):
        cell = Cell("a/cu", base={"faults": 4.0, "time_s": 1.0},
                    opt={"faults": 0.0, "time_s": 0.5})
        cell.check_positive()
        assert cell.problems == ["optimized faults is not positive"]
        good = Cell("b/cu", base={"faults": 4.0, "time_s": 1.0},
                    opt={"faults": 2.0, "time_s": 0.5})
        good.check_positive()
        assert good.ok and good.factor("faults") == pytest.approx(2.0)


class TestBenchmarkFile:
    def test_lists_exactly_the_metrics_the_benchmark_reports(self):
        sys.path.insert(0, str(ROOT / "src"))
        try:
            from layers import PER_LAYER
            from run import END_TO_END
        finally:
            sys.path.remove(str(ROOT / "src"))
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
            (name, unit) for name, unit in END_TO_END]
        assert [(m["name"], m["unit"], m["better"])
                for m in bench["per_layer"]] == [tuple(m) for m in PER_LAYER]
        assert [w["name"] for w in bench["workloads"]] == [
            "sweep-cold", "sweep-warm", "app-pgo"]
