"""Longitudinal observability: history store, trend gate, report rendering.

Covers the PR's new layer end to end with synthetic payloads: the
append-only schema-versioned store (roundtrip, prune, compact, v1->v2
migration, corrupt-line salvage), the CUSUM changepoint detector on
step/drift/noise series, the trend gate's step and slow-drift failure
modes (both naming the phase and the blamed symbols), and the HTML
report's structure against a golden file.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.eval.bench import (
    TREND_MIN_ENTRIES,
    check_trend,
    record_history,
)
from repro.obs.history import (
    HISTORY_SCHEMA,
    BenchHistory,
    make_entry,
    matrix_hash,
    migrate_entry,
)
from repro.obs.report import regression_flags, render_html, render_summary
from repro.util.stats import MAD_SIGMA, cusum_alarm, mad, median

GOLDEN = Path(__file__).parent / "golden" / "bench_report_structure.txt"


def payload(cold=2.0, warm=0.2, faults=120.0, workloads=("Bounce", "Queens")):
    """A minimal bench payload with the fields history/trend consume."""
    return {
        "schema": 1,
        "toolchain": "sim-graal-ce-23.1",
        "config": {
            "workloads": list(workloads),
            "strategies": ["cu"],
            "iterations": 1,
            "base_seed": 1,
            "max_workers": 2,
            "cells": len(workloads),
        },
        "phases": {
            "cold": {"wall_s": cold, "tasks": len(workloads), "workers": 2,
                     "ok": True, "cache_hits": 0, "cache_misses": 8,
                     "cache_hit_rate": 0.0},
            "warm": {"wall_s": warm, "tasks": len(workloads), "workers": 2,
                     "ok": True, "cache_hits": 8, "cache_misses": 0,
                     "cache_hit_rate": 1.0},
        },
        "results": [
            {"workload": name, "strategy": "cu",
             "optimized": [{"faults": faults + 10.0 * index}]}
            for index, name in enumerate(workloads)
        ],
        "attribution": {
            "strategy": "cu",
            "workloads": {
                workloads[0]: {"top_blamed": ["Main.run", "List.append",
                                              "Vec.norm"],
                               "changed_units": 7, "fault_delta": 4},
            },
        },
        "pgo": {"epochs": 3, "refreshes": 1, "rollbacks": 1,
                "quarantined": ["cu+heap path@v2"],
                "unguarded_regressions": 0},
        "speedup_warm": round(cold / warm, 2),
        "ok": True,
        "deterministic": True,
    }


def entry(store=None, timestamp=0.0, **kwargs):
    """A deterministic history entry (optionally appended to ``store``)."""
    e = make_entry(payload(**kwargs), timestamp=timestamp)
    if store is not None:
        store.append(e)
    return e


class TestHistoryStore:
    def test_append_roundtrip(self, tmp_path):
        store = BenchHistory(tmp_path / "h.jsonl")
        assert store.entries() == []
        written = entry(store, timestamp=100.0)
        assert written["schema"] == HISTORY_SCHEMA
        loaded = store.entries()
        assert loaded == [written]
        assert len(store) == 1
        assert loaded[0]["phases"]["cold"]["wall_s"] == 2.0
        assert loaded[0]["cell_faults"] == {"Bounce/cu": 120.0,
                                            "Queens/cu": 130.0}
        assert loaded[0]["toolchain"]["version"] == "sim-graal-ce-23.1"

    def test_run_ids_distinct_across_timestamps(self, tmp_path):
        store = BenchHistory(tmp_path / "h.jsonl")
        a = entry(store, timestamp=1.0)
        b = entry(store, timestamp=2.0)
        assert a["run_id"] != b["run_id"]

    def test_append_rejects_missing_fields(self, tmp_path):
        store = BenchHistory(tmp_path / "h.jsonl")
        with pytest.raises(ValueError, match="missing required"):
            store.append({"run_id": "abc"})

    def test_matrix_hash_filtering(self, tmp_path):
        store = BenchHistory(tmp_path / "h.jsonl")
        mine = entry(store, timestamp=1.0)
        entry(store, timestamp=2.0, workloads=("Bounce",))
        target = mine["matrix"]["hash"]
        assert len(store.entries()) == 2
        assert [e["matrix"]["hash"] for e in store.entries(target)] == [target]

    def test_matrix_hash_ignores_workers_and_cache(self):
        base = {"workloads": ["a"], "strategies": ["cu"],
                "iterations": 1, "base_seed": 1}
        assert matrix_hash(base) == matrix_hash(
            {**base, "max_workers": 64, "cells": 1})
        assert matrix_hash(base) != matrix_hash({**base, "base_seed": 2})

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        store = BenchHistory(tmp_path / "h.jsonl")
        entry(store, timestamp=1.0)
        with open(store.path, "a") as handle:
            handle.write("{not json\n")
            handle.write('"a bare string"\n')
        assert len(store.entries()) == 1
        assert store.skipped == 2
        kept, dropped = store.compact()
        assert (kept, dropped) == (1, 2)
        assert store.path.read_text().count("\n") == 1

    def test_tail_and_prune(self, tmp_path):
        store = BenchHistory(tmp_path / "h.jsonl")
        for stamp in range(5):
            entry(store, timestamp=float(stamp))
        assert [e["timestamp"] for e in store.tail(2)] == [3.0, 4.0]
        removed = store.prune(keep=2)
        assert removed == 3
        assert [e["timestamp"] for e in store.entries()] == [3.0, 4.0]
        removed = store.prune(max_age_s=0.5, now=4.0)
        assert removed == 1
        assert [e["timestamp"] for e in store.entries()] == [4.0]

    def test_v1_entry_is_skipped(self, tmp_path):
        v1 = {
            "schema": 1,
            "run_id": "deadbeef0001",
            "timestamp": 42.0,
            "toolchain": "sim-graal-ce-23.1",
            "phases": {"cold": 2.5, "warm": 0.3},
            "config": {"workloads": ["Bounce"], "strategies": ["cu"],
                       "iterations": 1, "base_seed": 1, "cells": 1},
        }
        store = BenchHistory(tmp_path / "h.jsonl")
        store.path.write_text(json.dumps(v1) + "\n")
        entry(store, timestamp=43.0)
        assert [e["timestamp"] for e in store.entries()] == [43.0]
        assert store.skipped == 1
        assert migrate_entry(v1) is None

    def test_newer_schema_rejected(self):
        assert migrate_entry({"schema": HISTORY_SCHEMA + 1}) is None
        assert migrate_entry({"no": "schema"}) is None


class TestCusum:
    def test_step_alarms_immediately(self):
        series = [10.0] * 8 + [20.0]
        assert cusum_alarm(series, target=10.0, sigma=1.0) == 8

    def test_slow_drift_accumulates_to_alarm(self):
        # +0.8 sigma per point: never past a 4-sigma step band, but the
        # cumulative sum crosses the decision interval
        series = [10.0] * 5 + [10.8, 11.6, 12.4, 13.2]
        index = cusum_alarm(series, target=10.0, sigma=1.0)
        assert index == len(series) - 1
        assert all(x < 10.0 + 4.0 * 1.0 for x in series)

    def test_noise_never_alarms(self):
        series = [10.0, 10.4, 9.7, 10.2, 9.9, 10.3, 9.8, 10.1] * 3
        assert cusum_alarm(series, target=10.0, sigma=0.5) is None

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            cusum_alarm([1.0], target=1.0, sigma=0.0)

    def test_median_and_mad(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert mad([5.0]) == 0.0
        assert mad([1.0, 1.0, 1.0, 9.0]) == 0.0  # robust to one outlier
        assert mad([1.0, 2.0, 3.0, 4.0]) == 1.0
        with pytest.raises(ValueError):
            median([])


class TestCheckTrend:
    def history(self, *walls, faults=None, timestamps=None):
        entries = []
        for index, wall in enumerate(walls):
            kwargs = {"cold": wall}
            if faults is not None:
                kwargs["faults"] = faults[index]
            entries.append(entry(timestamp=float(index), **kwargs))
        return entries

    def test_abstains_below_min_entries(self):
        entries = self.history(*[10.0] * (TREND_MIN_ENTRIES - 1))
        assert check_trend(payload(cold=99.0), entries) == []

    def test_clean_trajectory_passes(self):
        entries = self.history(10.0, 10.2, 9.8, 10.1, 9.9)
        assert check_trend(payload(cold=10.0), entries) == []

    def test_step_regression_names_phase_and_blame(self):
        entries = self.history(10.0, 10.2, 9.8, 10.1, 9.9)
        failures = check_trend(payload(cold=30.0), entries)
        assert failures, "a 3x wall step must fail the gate"
        assert "phase cold" in failures[0]
        assert "step regression" in failures[0]
        blame = [line for line in failures if "top blamed symbols" in line]
        assert blame and "Main.run, List.append, Vec.norm" in blame[0]

    def test_slow_drift_fails_via_cusum(self):
        # each point is inside the step band (limit = 10 + 4*1.0 = 14s),
        # but three drifting runs accumulate past the CUSUM interval
        entries = self.history(10.0, 10.0, 10.0, 10.0, 10.0, 10.8, 12.0)
        failures = check_trend(payload(cold=13.2), entries)
        assert failures, "a 3-entry slow drift must fail the gate"
        assert "phase cold" in failures[0]
        assert "drifting upward" in failures[0]
        assert any("top blamed symbols" in line for line in failures)

    def test_fault_regression_names_cell(self):
        entries = self.history(*[10.0] * 5)
        failures = check_trend(payload(cold=10.0, faults=200.0), entries)
        assert failures
        assert "cell Bounce/cu faults" in failures[0]

    def test_different_matrix_is_not_comparable(self):
        entries = self.history(*[10.0] * 5)
        other = payload(cold=99.0, workloads=("Bounce",))
        assert check_trend(other, entries) == []

    def test_store_backed_gate(self, tmp_path):
        store = BenchHistory(tmp_path / "h.jsonl")
        for stamp in range(4):
            entry(store, timestamp=float(stamp))
        assert check_trend(payload(), store) == []
        assert check_trend(payload(cold=30.0), store)


class TestRecordHistory:
    def test_record_appends_with_metrics(self, tmp_path):
        from repro.obs import metrics

        metrics().observe("phase.compile.seconds", 0.25)
        path = tmp_path / "h.jsonl"
        written = record_history(payload(), path, timestamp=7.0)
        (loaded,) = BenchHistory(path).entries()
        assert loaded == written
        assert loaded["metrics"]["phase.compile.seconds"]["count"] == 1
        assert loaded["metrics"]["phase.compile.seconds"]["p50"] == 0.25

    def test_record_keeps_phase_totals(self, tmp_path):
        from repro.obs import metrics

        for seconds in (0.25, 0.5, 1.0):
            metrics().observe("phase.build.seconds", seconds)
        metrics().observe("phase.prepare.seconds", 0.125)
        path = tmp_path / "h.jsonl"
        record_history(payload(), path, timestamp=7.0)
        (loaded,) = BenchHistory(path).entries()
        build = loaded["metrics"]["phase.build.seconds"]
        assert (build["count"], build["total"]) == (3, 1.75)
        assert loaded["metrics"]["phase.prepare.seconds"]["total"] == 0.125


class TestReport:
    def entries(self):
        walls = [10.0, 10.2, 9.8, 10.1, 30.0]
        return [entry(timestamp=float(index), cold=wall)
                for index, wall in enumerate(walls)]

    def test_regression_flags_mirror_gate_band(self):
        flags = regression_flags([10.0, 10.2, 9.8, 10.1, 30.0])
        assert flags == [False, False, False, False, True]
        assert regression_flags([10.0, 10.2, 9.8, 10.1, 10.3]) == [False] * 5

    def test_summary_renders_all_series(self):
        text = render_summary(self.entries())
        assert "5 run(s)" in text
        assert "phase cold" in text and "phase warm" in text
        assert "cell Bounce/cu" in text
        assert "<< regressed" in text
        assert "pgo timeline" in text
        assert render_summary([]).startswith("history: no entries")

    def test_html_is_self_contained(self):
        html = render_html(self.entries())
        assert html.startswith("<!DOCTYPE html>")
        for needle in ("<style>", "<svg", "polyline", "regressed",
                       "PGO epoch timeline", "cu+heap path@v2"):
            assert needle in html
        # no external references: a single file must render offline
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html

    def test_html_structure_matches_golden(self):
        html = render_html(self.entries())
        structure = "\n".join(
            re.findall(r"<(?:h1|h2[^>]*|table[^>]*|tr[^>]*|svg[^>]*"
                       r"|!DOCTYPE[^>]*)>", html)) + "\n"
        assert structure == GOLDEN.read_text(), (
            "HTML report structure changed; regenerate tests/golden/"
            "bench_report_structure.txt if the change is intentional")
