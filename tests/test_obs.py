"""Tests for the observability layer: metrics registry, run records,
export."""

import json
import pickle
import threading

import pytest

from repro.obs import (
    EventLog,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    format_stats,
    get_event_log,
    get_registry,
    phase,
    stats_dict,
    validate_trace,
)


class TestHistogram:
    def test_observe_tracks_count_total_bounds(self):
        hist = HistogramSnapshot()
        for value in (1.0, 2.0, 4.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 7.0
        assert hist.min == 1.0
        assert hist.max == 4.0
        assert hist.mean == pytest.approx(7.0 / 3)

    def test_merge_is_exact(self):
        left, right, both = (HistogramSnapshot() for _ in range(3))
        for value in (0.5, 1.5):
            left.observe(value)
            both.observe(value)
        for value in (3.0, 0.001):
            right.observe(value)
            both.observe(value)
        left.merge(right)
        assert left.count == both.count
        assert left.total == pytest.approx(both.total)
        assert left.min == both.min
        assert left.max == both.max
        assert left.sketch.quantiles() == both.sketch.quantiles()

    def test_empty_mean_is_zero(self):
        assert HistogramSnapshot().mean == 0.0


class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        assert registry.counter("a") == 1
        assert registry.counter("a", 4) == 5
        registry.gauge("g", 2.5)
        registry.observe("h", 0.25)
        snap = registry.snapshot()
        assert snap.counters == {"a": 5}
        assert snap.gauges == {"g": 2.5}
        assert snap.histograms["h"].count == 1

    def test_snapshot_is_detached(self):
        registry = MetricsRegistry()
        registry.counter("a")
        snap = registry.snapshot()
        registry.counter("a")
        assert snap.counters["a"] == 1

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.observe("h", 1.0)
        registry.reset()
        snap = registry.snapshot()
        assert not snap.counters and not snap.histograms

    def test_concurrent_counting_is_lossless(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(1000):
                registry.counter("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.snapshot().counters["n"] == 4000


class TestSnapshot:
    def test_merge_counters_add_gauges_max(self):
        a = MetricsSnapshot(counters={"x": 2}, gauges={"g": 1.0})
        b = MetricsSnapshot(counters={"x": 3, "y": 1}, gauges={"g": 5.0})
        a.merge(b)
        assert a.counters == {"x": 5, "y": 1}
        assert a.gauges == {"g": 5.0}

    def test_merge_order_does_not_matter(self):
        parts = [MetricsSnapshot(counters={"x": i, f"k{i}": 1})
                 for i in range(1, 4)]
        forward = MetricsSnapshot()
        for part in parts:
            forward.merge(part)
        backward = MetricsSnapshot()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.as_dict() == backward.as_dict()

    def test_diff_returns_only_what_accrued(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.observe("h", 1.0)
        before = registry.snapshot()
        registry.counter("a", 2)
        registry.counter("b")
        registry.observe("h", 4.0)
        delta = registry.snapshot().diff(before)
        assert delta.counters == {"a": 2, "b": 1}
        assert delta.histograms["h"].count == 1
        assert delta.histograms["h"].total == 4.0

    def test_diff_then_merge_reconstructs_totals(self):
        registry = MetricsRegistry()
        registry.counter("a", 3)
        before = registry.snapshot()
        registry.counter("a", 2)
        registry.counter("b", 7)
        delta = registry.snapshot().diff(before)
        rebuilt = before.copy().merge(delta)
        assert rebuilt.counters == registry.snapshot().counters

    def test_deterministic_plane_filters_and_sorts(self):
        snap = MetricsSnapshot(counters={
            "sweep.z": 1, "sweep.a": 2, "cache.hit.image": 9, "phase.build": 3,
        })
        det = snap.deterministic()
        assert det == {"sweep.a": 2, "sweep.z": 1}
        assert list(det) == ["sweep.a", "sweep.z"]

    def test_snapshot_pickles(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.observe("h", 2.0)
        snap = registry.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.as_dict() == snap.as_dict()


class TestSpanTracer:
    """``EventLog`` is the span tracer: spans are records with ``dur``,
    and the Chrome renderer draws them."""

    def test_span_records_complete_event(self):
        log = EventLog()
        with log.span("build", mode="optimized"):
            pass
        [record] = log.events
        assert record["kind"] == "build"
        assert record["dur"] >= 0
        assert record["mode"] == "optimized"
        [event] = log.to_chrome()["traceEvents"]
        assert event["name"] == "build"
        assert event["ph"] == "X"
        assert event["dur"] == record["dur"] * 1e6
        assert event["args"] == {"kind": "build", "mode": "optimized",
                                 "seq": 0}

    def test_span_recorded_even_when_body_raises(self):
        log = EventLog()
        with pytest.raises(RuntimeError):
            with log.span("boom"):
                raise RuntimeError("nope")
        assert [e["kind"] for e in log.events] == ["boom"]

    def test_instant_event(self):
        log = EventLog()
        log.emit("cache.evict", key="ab")
        [event] = log.to_chrome()["traceEvents"]
        assert event["name"] == "cache.evict"
        assert event["cat"] == "cache"
        assert event["ph"] == "i"
        assert event["s"] == "p"
        assert "dur" not in event

    def test_mark_and_events_since(self):
        log = EventLog()
        with log.span("before"):
            pass
        mark = log.mark()
        with log.span("after"):
            pass
        [shipped] = log.events_since(mark)
        assert shipped["kind"] == "after"
        assert shipped["dur"] >= 0

    def test_phase_span_is_named_after_its_phase(self):
        log = get_event_log()
        with phase("measure"):
            pass
        [event] = log.to_chrome()["traceEvents"]
        assert event["name"] == "measure"
        assert event["ph"] == "X"

    def test_absorb_keeps_foreign_pid(self):
        log = EventLog()
        log.emit("local")
        # a worker's record from before any record of this process
        [local] = log.events
        log.absorb([{"kind": "remote", "seq": 0, "ts": local["ts"] - 2.0,
                     "pid": 99999, "tid": 1}])
        events = log.to_chrome()["traceEvents"]
        assert [e["ts"] for e in events] == pytest.approx([2.0e6, 0.0])
        assert events[1]["pid"] == 99999
        assert validate_trace(log.to_chrome()) == []

    def test_event_cap_counts_drops(self):
        log = EventLog(max_events=2)
        for i in range(5):
            with log.span(f"s{i}"):
                pass
        trace = log.to_chrome()
        assert [e["name"] for e in trace["traceEvents"]] == ["s0", "s1"]
        assert log.dropped == 3
        assert trace["otherData"]["dropped_events"] == 3

    def test_export_roundtrip_validates(self, tmp_path):
        log = EventLog()
        with log.span("build"):
            log.emit("cache.evict")
        path = log.export_chrome(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert validate_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        assert [e["name"] for e in payload["traceEvents"]] == [
            "cache.evict", "build"]
        assert payload["otherData"] == {"dropped_events": 0}

    def test_reset_clears_events(self):
        log = EventLog()
        with log.span("x"):
            pass
        log.reset()
        assert log.events == []
        assert log.to_chrome()["traceEvents"] == []

    def test_both_renderers_show_every_record_once(self, tmp_path):
        log = EventLog()
        with log.context(task="wl0/cu"):
            with log.span("task"):
                log.emit("chaos.inject", fault="hang")
        lines = log.export(tmp_path / "events.jsonl").read_text().splitlines()
        trace = log.to_chrome()["traceEvents"]
        assert len(lines) == len(trace) == 2
        for line, event in zip(lines, trace):
            record = json.loads(line)
            assert record["seq"] == event["args"]["seq"]
            assert record["task"] == event["args"]["task"] == "wl0/cu"


class TestValidateTrace:
    def test_accepts_tracer_output(self):
        log = EventLog()
        with log.span("a"):
            pass
        assert validate_trace(log.to_chrome()) == []

    def test_rejects_non_object(self):
        assert validate_trace([1, 2]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_trace({"otherData": {}}) != []

    def test_rejects_bad_phase(self):
        payload = {"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0, "pid": 1, "tid": 1},
        ]}
        problems = validate_trace(payload)
        assert any("phase" in p for p in problems)

    def test_rejects_span_without_duration(self):
        payload = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1},
        ]}
        problems = validate_trace(payload)
        assert any("dur" in p for p in problems)

    def test_rejects_nameless_event(self):
        payload = {"traceEvents": [
            {"ph": "i", "ts": 0, "pid": 1, "tid": 1},
        ]}
        problems = validate_trace(payload)
        assert any("name" in p for p in problems)


class TestPhaseHelper:
    def test_phase_records_span_counter_and_duration(self):
        with phase("unittest-phase"):
            pass
        snap = get_registry().snapshot()
        assert snap.counters["phase.unittest-phase"] == 1
        hist = snap.histograms["phase.unittest-phase.seconds"]
        [record] = get_event_log().of_kind("phase")
        assert record["name"] == "unittest-phase"
        assert hist.count == 1 and hist.total == record["dur"]

    def test_failed_phase_records_nothing(self):
        with pytest.raises(RuntimeError):
            with phase("unittest-phase"):
                raise RuntimeError("nope")
        assert "phase.unittest-phase" not in get_registry().snapshot().counters
        assert get_event_log().events == []


class TestRendering:
    def test_format_stats_lists_everything(self):
        registry = MetricsRegistry()
        registry.counter("cache.hit.image", 3)
        registry.gauge("g", 1.5)
        registry.observe("phase.build.seconds", 0.5)
        text = format_stats(registry.snapshot())
        assert "cache.hit.image" in text
        assert "phase.build.seconds" in text
        assert "gauges:" in text

    def test_format_stats_empty(self):
        assert "no metrics" in format_stats(MetricsSnapshot())

    def test_stats_dict_breaks_out_deterministic_plane(self):
        snap = MetricsSnapshot(counters={"sweep.ops": 5, "cache.hit.image": 1})
        payload = stats_dict(snap)
        assert payload["deterministic"] == {"sweep.ops": 5}
        assert json.dumps(payload)  # JSON-serializable


class TestPipelineInstrumentation:
    PROGRAM = """
    class Main {
        static int main() {
            int acc = 0;
            for (int i = 0; i < 20; i++) acc += i;
            return acc;
        }
    }
    """

    def test_run_strategy_emits_phase_spans_and_counters(self):
        from repro.eval.pipeline import (
            STRATEGY_CU,
            Workload,
            WorkloadPipeline,
        )

        pipeline = WorkloadPipeline(Workload(name="obswl",
                                             source=self.PROGRAM))
        pipeline.run_strategy(STRATEGY_CU, seed=1)
        snap = get_registry().snapshot()
        for name in ("phase.compile", "phase.trace", "phase.post-process",
                     "phase.build", "phase.order", "phase.measure"):
            assert snap.counters.get(name), f"missing counter {name}"
        phases = get_event_log().of_kind("phase")
        assert {"compile", "trace", "post-process", "build",
                "order", "measure"} <= {e["name"] for e in phases}
        # one record per counted phase: nothing is recorded twice
        assert len(phases) == sum(
            value for name, value in snap.counters.items()
            if name.startswith("phase."))
        assert len(get_event_log().events) == len(phases)
        assert validate_trace(get_event_log().to_chrome()) == []

    def test_cache_counters_wired(self, tmp_path):
        from repro.cache import KIND_TRACE, ArtifactCache

        cache = ArtifactCache(tmp_path)
        cache.get(KIND_TRACE, "ab" * 32)
        cache.put(KIND_TRACE, "ab" * 32, 1)
        cache.get(KIND_TRACE, "ab" * 32)
        snap = get_registry().snapshot()
        assert snap.counters["cache.miss.trace"] == 1
        assert snap.counters["cache.put.trace"] == 1
        assert snap.counters["cache.hit.trace"] == 1

    def test_degradation_note_emits_counter_and_instant(self):
        from repro.robustness.degradation import DegradationReport

        report = DegradationReport(workload="w", strategy="s")
        report.note("profiling failed")
        snap = get_registry().snapshot()
        assert snap.counters["robustness.degradation.notes"] == 1
        assert [e["kind"] for e in get_event_log().events] == ["degradation"]

    def test_quarantine_counts_new_convictions_once(self):
        from repro.validation.quarantine import QuarantineRegistry

        registry = QuarantineRegistry()
        registry.quarantine("w", "s", "bad layout")
        registry.quarantine("w", "s", "still bad")  # refresh, not new
        registry.quarantine("w", "t", "also bad")
        snap = get_registry().snapshot()
        assert snap.counters["validation.quarantines"] == 2
        assert [(e["strategy"], e["reason"])
                for e in get_event_log().of_kind("quarantine")] == [
            ("s", "bad layout"), ("t", "also bad")]


class TestApiAccessors:
    def test_toolchain_snapshot_and_trace(self, tmp_path):
        from repro.api import NativeImageToolchain

        toolchain = NativeImageToolchain.from_source(
            TestPipelineInstrumentation.PROGRAM, name="apiwl")
        toolchain.build(seed=1)
        snap = toolchain.metrics_snapshot()
        assert snap.counters.get("phase.build") == 1
        path = get_event_log().export_chrome(tmp_path / "api-trace.json")
        assert validate_trace(json.loads(path.read_text())) == []


class TestDroppedSpans:
    def test_overflow_increments_global_drop_metric(self):
        log = EventLog(max_events=1)
        for i in range(4):
            log.emit(f"e{i}")
        assert log.dropped == 3
        snap = get_registry().snapshot()
        assert snap.counters["trace.dropped_events"] == 3
        assert log.to_chrome()["otherData"]["dropped_events"] == 3

    def test_no_drops_no_metric(self):
        log = EventLog(max_events=10)
        log.emit("fits")
        assert "trace.dropped_events" not in get_registry().snapshot().counters


class TestEventLog:
    def test_emit_carries_scoped_ids_inner_wins(self):
        from repro.obs import EventLog

        log = EventLog()
        with log.context(run="r1", phase="cold"):
            with log.context(phase="warm", task="wl0/cu"):
                event = log.emit("degradation", reason="x")
        assert event["run"] == "r1"
        assert event["phase"] == "warm"  # inner scope wins
        assert event["task"] == "wl0/cu"
        assert event["reason"] == "x"
        assert log.current_ids() == {}  # scopes unwound

    def test_explicit_fields_override_scope(self):
        from repro.obs import EventLog

        log = EventLog()
        with log.context(phase="cold"):
            event = log.emit("phase", phase="override")
        assert event["phase"] == "override"

    def test_seq_is_monotone_per_log(self):
        from repro.obs import EventLog

        log = EventLog()
        for kind in ("a", "b", "c"):
            log.emit(kind)
        assert [e["seq"] for e in log.events] == [0, 1, 2]

    def test_mark_and_events_since_are_detached(self):
        from repro.obs import EventLog

        log = EventLog()
        log.emit("before")
        mark = log.mark()
        log.emit("after")
        shipped = log.events_since(mark)
        assert [e["kind"] for e in shipped] == ["after"]
        shipped[0]["kind"] = "mutated"
        assert log.events[1]["kind"] == "after"

    def test_absorb_resequences_and_keeps_worker_seq(self):
        from repro.obs import EventLog

        parent, worker = EventLog(), EventLog()
        parent.emit("parent")
        with worker.context(task="wl0/cu"):
            worker.emit("chaos.inject", fault="hang")
        parent.absorb(worker.events)
        absorbed = parent.events[-1]
        assert absorbed["seq"] == 1  # parent's sequence space
        assert absorbed["worker_seq"] == 0  # original order preserved
        [shipped] = worker.events
        parent.absorb([pickle.loads(pickle.dumps(shipped)) for _ in "ab"])
        first, second = parent.events[-2:]
        assert dict(first, seq=0) == dict(second, seq=0) == dict(
            shipped, worker_seq=0) and all(
            a is b for a, b in zip(first, second))  # interned keys
        assert absorbed["task"] == "wl0/cu"

    def test_cap_counts_drops(self):
        from repro.obs import EventLog

        log = EventLog(max_events=2)
        for i in range(5):
            log.emit("e")
        assert len(log.events) == 2
        assert log.dropped == 3
        assert log.to_chrome()["otherData"]["dropped_events"] == 3
        log.absorb([{"kind": "late", "seq": 0}])
        assert log.dropped == 4

    def test_of_kind_filters_in_order(self):
        from repro.obs import EventLog

        log = EventLog()
        log.emit("a", n=1)
        log.emit("b")
        log.emit("a", n=2)
        assert [e["n"] for e in log.of_kind("a")] == [1, 2]

    def test_jsonl_export_roundtrip(self, tmp_path):
        from repro.obs import EventLog

        log = EventLog()
        with log.context(run="r1"):
            log.emit("phase", name="cold", wall_s=1.5)
            log.emit("pgo.epoch", epoch=0, action="refresh")
        path = log.export(tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [e["kind"] for e in parsed] == ["phase", "pgo.epoch"]
        assert all(e["run"] == "r1" for e in parsed)
        assert EventLog().to_jsonl() == ""

    def test_context_is_thread_local(self):
        from repro.obs import EventLog

        log = EventLog()
        seen = {}

        def other_thread():
            seen["ids"] = log.current_ids()

        with log.context(task="mine"):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert seen["ids"] == {}  # the scope never leaked across threads

    def test_reset_clears_buffer_seq_and_drops(self):
        from repro.obs import EventLog

        log = EventLog(max_events=1)
        log.emit("a")
        log.emit("b")
        log.reset()
        assert log.events == [] and log.dropped == 0
        assert log.emit("c")["seq"] == 0


class TestPhaseEventWiring:
    def test_phase_emits_correlated_event(self):
        from repro.obs import get_event_log

        with phase("evt-phase"):
            pass
        [event] = get_event_log().of_kind("phase")
        assert event["name"] == "evt-phase"
        assert event["phase"] == "evt-phase"
        assert event["dur"] >= 0.0

    def test_degradation_note_lands_in_event_log(self):
        from repro.obs import get_event_log
        from repro.robustness.degradation import DegradationReport

        DegradationReport(workload="w", strategy="s").note("profiling failed")
        [event] = get_event_log().of_kind("degradation")
        assert event["workload"] == "w"
        assert event["reason"] == "profiling failed"


class TestSchedulerEventFold:
    def _chaos_sweep(self, tmp_path, workers, fault="corrupt_artifact"):
        from repro.eval.pipeline import STRATEGY_CU, Workload
        from repro.eval.scheduler import (
            RetryPolicy,
            SchedulerConfig,
            SweepScheduler,
        )
        from repro.robustness.chaos import ChaosPolicy

        workloads = [Workload(name=f"evt{i}",
                              source=TestPipelineInstrumentation.PROGRAM)
                     for i in range(2)]
        config = SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=workers,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0),
            chaos=ChaosPolicy(seed=0, rate=1.0, classes=(fault,)),
            pool_break_limit=10,
        )
        return SweepScheduler(config).run(
            workloads, [STRATEGY_CU], parallel=workers > 1)

    def test_inline_injections_carry_task_ids(self, tmp_path):
        from repro.obs import get_event_log

        sweep = self._chaos_sweep(tmp_path, workers=1)
        assert sweep.ok
        injections = get_event_log().of_kind("chaos.inject")
        assert {e["task"] for e in injections} == {"evt0/cu", "evt1/cu"}

    def test_parallel_worker_events_fold_into_parent(self, tmp_path):
        from repro.obs import get_event_log

        sweep = self._chaos_sweep(tmp_path, workers=2)
        assert sweep.ok
        injections = get_event_log().of_kind("chaos.inject")
        assert {e["task"] for e in injections} == {"evt0/cu", "evt1/cu"}
        # shipped events were re-sequenced into the parent's order
        assert all("worker_seq" in e for e in injections)
        seqs = [e["seq"] for e in get_event_log().events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_crash_injections_carry_task_ids(self, tmp_path,
                                                    workers):
        # On 2 workers the crash is a real os._exit before the worker can
        # record anything; the parent records it at submit time instead.
        sweep = self._chaos_sweep(tmp_path, workers, fault="worker_crash")
        assert sweep.ok
        injections = get_event_log().of_kind("chaos.inject")
        assert sorted(e["task"] for e in injections) == ["evt0/cu",
                                                         "evt1/cu"]
        assert {e["fault"] for e in injections} == {"worker_crash"}
        assert sweep.health.injected == {"worker_crash": len(injections)}


class TestOpenMetrics:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("cache.hit.image", 3)
        registry.gauge("sweep.workers", 2.0)
        for value in (0.1, 0.2, 0.4):
            registry.observe("phase.build.seconds", value)
        return registry.snapshot()

    def test_exposition_validates_and_names_are_sanitized(self):
        from repro.obs import to_openmetrics, validate_openmetrics

        text = to_openmetrics(self._snapshot())
        assert validate_openmetrics(text) == []
        assert "# TYPE repro_cache_hit_image counter" in text
        assert "repro_cache_hit_image_total 3" in text
        assert "repro_sweep_workers 2.0" in text
        assert 'repro_phase_build_seconds{quantile="0.5"} 0.2' in text
        assert "repro_phase_build_seconds_count 3" in text
        assert text.endswith("# EOF\n")

    def test_equal_snapshots_render_byte_identically(self):
        from repro.obs import to_openmetrics

        assert to_openmetrics(self._snapshot()) == \
            to_openmetrics(self._snapshot())

    def test_validator_rejects_malformed_expositions(self):
        from repro.obs import validate_openmetrics

        cases = {
            "missing terminator": "repro_x_total 1\n",
            "sample without TYPE": "repro_x_total 1\n# EOF",
            "counter without _total":
                "# TYPE repro_x counter\nrepro_x 1\n# EOF",
            "bad value":
                "# TYPE repro_x gauge\nrepro_x banana\n# EOF",
            "empty line": "\n# EOF",
            "eof not last": "# EOF\n# TYPE repro_x gauge\nrepro_x 1",
        }
        for label, text in cases.items():
            assert validate_openmetrics(text), f"accepted: {label}"

    def test_empty_snapshot_is_just_eof(self):
        from repro.obs import to_openmetrics, validate_openmetrics

        text = to_openmetrics(MetricsSnapshot())
        assert text == "# EOF\n"
        assert validate_openmetrics(text) == []
