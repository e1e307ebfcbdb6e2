"""Tests for the parallel sweep scheduler and the pipeline bench harness."""

import json

import pytest

from repro.eval.bench import (
    BenchConfig,
    check_payload,
    format_summary,
    resolve_matrix,
    run_bench,
    write_payload,
)
from repro.eval.pipeline import (
    ALL_STRATEGY_SPECS,
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    Workload,
    WorkloadPipeline,
    metric_for_strategy,
)
from repro.eval import scheduler as scheduler_mod
from repro.eval.scheduler import (
    SchedulerConfig,
    SweepScheduler,
    reset_worker_state,
    task_seed,
)

PROGRAM = """
class Counter {
    static int bump(int x) { return x + 1; }
}
class Main {
    static int main() {
        int acc = 0;
        for (int i = 0; i < 40; i++) acc = Counter.bump(acc);
        return acc;
    }
}
"""

BROKEN_PROGRAM = "class Main { static int main() { return unknown; } }"

SPECS = [STRATEGY_CU, STRATEGY_HEAP_PATH]


def _workloads(n=2):
    return [Workload(name=f"wl{i}", source=PROGRAM) for i in range(n)]


def _canonical_json(sweep):
    return json.dumps(sweep.canonical(), sort_keys=True)


class TestTaskSeed:
    def test_deterministic_and_workload_dependent(self):
        assert task_seed(1, "Bounce") == task_seed(1, "Bounce")
        assert task_seed(1, "Bounce") != task_seed(1, "Queens")
        assert task_seed(1, "Bounce") != task_seed(2, "Bounce")


class TestScheduler:
    def test_inline_sweep_matches_legacy_run_strategy(self, tmp_path):
        workload = _workloads(1)[0]
        config = SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                 max_workers=1)
        sweep = SweepScheduler(config).run([workload], [STRATEGY_CU])
        assert sweep.ok
        [task] = sweep.tasks

        pipeline = WorkloadPipeline(workload)
        base, opt = pipeline.run_strategy(STRATEGY_CU, seed=task.seed)
        expected_base = metric_for_strategy(base[0], STRATEGY_CU, False)
        expected_opt = metric_for_strategy(opt[0], STRATEGY_CU, False)
        assert task.baseline[0]["faults"] == expected_base["faults"]
        assert task.baseline[0]["time_s"] == expected_base["time_s"]
        assert task.optimized[0]["faults"] == expected_opt["faults"]
        assert task.optimized[0]["time_s"] == expected_opt["time_s"]

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        workloads = _workloads(2)
        serial = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "serial"), max_workers=1,
        )).run(workloads, SPECS, parallel=False)
        parallel = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "parallel"), max_workers=2,
        )).run(workloads, SPECS, parallel=True)
        assert serial.ok and parallel.ok
        assert parallel.workers == 2
        assert _canonical_json(serial) == _canonical_json(parallel)

    def test_warm_cache_is_all_hits_and_identical(self, tmp_path):
        workloads = _workloads(2)
        config = SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                 max_workers=1)
        cold = SweepScheduler(config).run(workloads, SPECS)
        warm = SweepScheduler(config).run(workloads, SPECS)
        assert warm.cache_misses == 0
        assert warm.cache_hit_rate == 1.0
        assert _canonical_json(cold) == _canonical_json(warm)

    def test_inline_sweeps_keep_only_the_last_cache_pipelines(self, tmp_path):
        reset_worker_state()
        for index in range(3):
            cache_dir = str(tmp_path / f"cache{index}")
            SweepScheduler(SchedulerConfig(cache_dir=cache_dir,
                                           max_workers=1)).run(
                _workloads(), [STRATEGY_CU])
        assert sorted(key[:2] for key in scheduler_mod._WORKER_PIPELINES) \
            == [("wl0", cache_dir), ("wl1", cache_dir)]

    def test_uncached_sweep_works(self):
        sweep = SweepScheduler(SchedulerConfig(max_workers=1)).run(
            _workloads(1), [STRATEGY_CU])
        assert sweep.ok
        assert sweep.cache_hits == 0 and sweep.cache_misses == 0

    def test_task_error_is_isolated(self, tmp_path):
        workloads = [Workload(name="good", source=PROGRAM),
                     Workload(name="bad", source=BROKEN_PROGRAM)]
        sweep = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=1,
        )).run(workloads, [STRATEGY_CU])
        assert not sweep.ok
        by_name = {task.workload: task for task in sweep.tasks}
        assert by_name["good"].ok
        assert not by_name["bad"].ok
        assert "Error" in by_name["bad"].error
        assert "bad" in sweep.summary()

    def test_unknown_strategy_rejected_before_work(self):
        scheduler = SweepScheduler(SchedulerConfig(max_workers=1))
        bogus = STRATEGY_CU.__class__(**{**STRATEGY_CU.__dict__,
                                         "name": "bogus"})
        with pytest.raises(KeyError):
            scheduler.build_tasks(_workloads(1), [bogus])

    def test_serial_and_parallel_metrics_planes_agree(self, tmp_path):
        workloads = _workloads(2)
        serial = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "serial"), max_workers=1,
        )).run(workloads, SPECS, parallel=False)
        parallel = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "parallel"), max_workers=2,
        )).run(workloads, SPECS, parallel=True)
        assert serial.ok and parallel.ok
        det_serial = serial.metrics.deterministic()
        det_parallel = parallel.metrics.deterministic()
        assert det_serial  # the plane must actually be populated
        assert det_serial["sweep.tasks.completed"] == len(serial.tasks)
        assert (json.dumps(det_serial, sort_keys=True)
                == json.dumps(det_parallel, sort_keys=True))

    def test_parallel_metrics_fold_into_parent_registry(self, tmp_path):
        from repro.obs import get_registry

        sweep = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=2,
        )).run(_workloads(2), [STRATEGY_CU], parallel=True)
        assert sweep.ok
        merged = get_registry().snapshot()
        # worker-side deltas (shipped in TaskResults) landed in the parent
        assert (merged.deterministic()
                == sweep.metrics.deterministic())
        assert merged.counters.get("sched.tasks.completed") == len(sweep.tasks)
        # counted inside the shipped delta, so pool workers report it too
        assert merged.counters.get("sched.tasks.dispatched") == len(sweep.tasks)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_cold_sweep_profiles_each_program_once(self, tmp_path,
                                                            workers):
        from repro.obs import get_registry

        # Distinct sources: the cache keys compiles on source alone.
        workloads = [Workload(name=f"wl{i}",
                              source=PROGRAM.replace("40", str(40 + i)))
                     for i in range(3)]
        sweep = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=workers,
        )).run(workloads, SPECS, parallel=True)
        assert sweep.ok
        counters = get_registry().snapshot().counters
        assert {name: counters.get(f"phase.{name}")
                for name in ("compile", "trace", "post-process")} == {
            "compile": 3, "trace": 3, "post-process": 3}
        inline = SweepScheduler(SchedulerConfig(max_workers=1)).run(
            workloads, SPECS, parallel=False)
        assert _canonical_json(sweep) == _canonical_json(inline)

    def test_parallel_failed_cell_folds_into_parent_once(self, tmp_path):
        from repro.obs import get_event_log, get_registry

        workloads = [Workload(name="bad", source=BROKEN_PROGRAM),
                     Workload(name="wl0", source=PROGRAM)]
        sweep = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=2,
        )).run(workloads, [STRATEGY_CU], parallel=True)
        assert [task.workload for task in sweep.errors] == ["bad"]
        merged = get_registry().snapshot()
        assert merged.deterministic() == sweep.metrics.deterministic()
        assert merged.counters["sched.tasks.failed"] == 1
        assert len(get_event_log().of_kind("task")) == len(sweep.tasks)

    def test_inline_metrics_are_not_double_counted(self, tmp_path):
        from repro.obs import get_registry

        sweep = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=1,
        )).run(_workloads(1), [STRATEGY_CU])
        assert sweep.ok
        merged = get_registry().snapshot()
        assert merged.deterministic() == sweep.metrics.deterministic()
        assert merged.counters["sched.tasks.dispatched"] == len(sweep.tasks)

    def test_task_failure_lands_in_deterministic_plane(self, tmp_path):
        sweep = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=1,
        )).run([Workload(name="bad", source=BROKEN_PROGRAM)], [STRATEGY_CU])
        det = sweep.metrics.deterministic()
        assert det["sweep.tasks.errors"] == 1
        assert "sweep.tasks.completed" not in det

    def test_quarantine_travels_back_to_sweep(self, tmp_path):
        from repro.validation import (
            LayoutMutationPlan,
            LayoutMutator,
            VerificationPolicy,
        )

        mutator = LayoutMutator(LayoutMutationPlan.single("drop_cu"))
        config = SchedulerConfig(
            max_workers=1,
            verification=VerificationPolicy(mutator=mutator),
        )
        sweep = SweepScheduler(config).run(_workloads(1), [STRATEGY_CU])
        assert sweep.ok
        [task] = sweep.tasks
        assert task.quarantined
        assert sweep.quarantine.is_quarantined(task.workload, task.strategy)


class TestBench:
    def test_resolve_matrix_full_by_default(self):
        workloads, strategies = resolve_matrix(BenchConfig())
        assert len(workloads) == 17  # 14 AWFY + 3 microservices
        assert len(strategies) == len(ALL_STRATEGY_SPECS)

    def test_resolve_matrix_rejects_unknown_names(self):
        with pytest.raises(KeyError):
            resolve_matrix(BenchConfig(workloads=("NoSuchWorkload",)))
        with pytest.raises(KeyError):
            resolve_matrix(BenchConfig(strategies=("no-such-strategy",)))

    def test_quick_run_payload_and_checks(self, tmp_path):
        config = BenchConfig.quick(
            workloads=("Bounce",),
            max_workers=1,
            output=str(tmp_path / "BENCH.json"),
        )
        payload = run_bench(config)
        assert payload["schema"] == 1
        assert payload["config"]["cells"] == 2
        assert payload["deterministic"]
        assert payload["ok"]
        assert payload["phases"]["warm"]["cache_hit_rate"] == 1.0
        assert payload["phases"]["warm"]["cache_misses"] == 0
        assert payload["phases"]["warm"]["phases_run"] == {}
        assert payload["phases"]["cold"]["phases_run"]["compile"] == 1
        assert payload["speedup_warm"] > 1.0
        # the cold pass stores programs, traces, profiles, metrics and
        # reports, never an image; the warm pass stores nothing
        assert set(payload["phases"]["cold"]["cache_put_kb"]) == {
            "metrics", "profile", "program", "report", "trace"}
        assert payload["phases"]["warm"]["cache_put_kb"] == {}
        assert payload["phases"]["serial"]["cache_put_kb"] == {}
        assert check_payload(payload) == []

        path = write_payload(payload, config.output)
        assert json.loads(path.read_text())["ok"]
        summary = format_summary(payload)
        assert "warm" in summary and "deterministic: True" in summary

    def test_skip_serial_omits_reference_phase(self, tmp_path):
        config = BenchConfig.quick(
            workloads=("Bounce",),
            max_workers=1,
            skip_serial=True,
            output=str(tmp_path / "BENCH.json"),
        )
        payload = run_bench(config)
        assert "serial" not in payload["phases"]
        assert "speedup_parallel" not in payload
        assert check_payload(payload) == []

    def test_optimize_phase_reuses_the_sweeps_cu_opt_images(self, tmp_path):
        """With cu-opt in the matrix, the optimize phase lays the cu-opt
        build out from the search the sweep stored and reads the sweep's
        measurements: it builds its layouts again, but runs no second
        search (no optimize phase) and no interpreter (no measure or
        replay phase), and stores no image."""
        config = BenchConfig(
            workloads=("Bounce",), strategies=("cu", "cu-opt"),
            max_workers=1, skip_serial=True, attribution=False,
            chaos=False, pgo=False, output=str(tmp_path / "BENCH.json"),
        )
        payload = run_bench(config)
        optimize = payload["optimize"]
        assert set(optimize["phases_run"]) == {"build", "order", "prepare"}
        assert "image" not in optimize["cache_put_kb"]
        [section] = optimize["workloads"]["Bounce"]["sections"]
        assert section["strategy"] == "cu-opt"
        assert section["never_worse"] and section["verified"]
        # the verdict compares the sweep's own measured .text cells
        cells = {result["strategy"]: result["optimized"][0]["text_faults"]
                 for result in payload["results"]}
        assert (section["seed_faults"], section["optimized_faults"]) == (
            cells["cu"], cells["cu-opt"])
        assert check_payload(payload) == []

    def test_check_payload_flags_optimize_gate(self):
        """The optimize gate fails a cu-opt cell that measured worse than
        cu, and one whose measured faults the search did not predict."""
        def payload(seed_faults, optimized_faults, predicted_faults):
            section = {
                "strategy": "cu-opt", "seed_strategy": "cu",
                "skipped": False, "verified": True, "differential_ok": True,
                "seed_faults": seed_faults,
                "optimized_faults": optimized_faults,
                "predicted_faults": predicted_faults,
                "never_worse": optimized_faults <= seed_faults,
            }
            return {"ok": True, "deterministic": True,
                    "phases": {"warm": {"cache_misses": 0,
                                        "cache_hit_rate": 1.0}},
                    "optimize": {"workloads": {"Json": {
                        "sections": [section]}}}}

        assert check_payload(payload(12, 11, 11)) == []
        assert check_payload(payload(9, 10, 10)) == [
            "optimize phase: Json/cu-opt lost to its seed strategy cu "
            "(9 -> 10 faults)"]
        assert check_payload(payload(12, 11, 10)) == [
            "optimize phase: Json/cu-opt search predicted 10 faults but "
            "the built binary's measured run took 11 (cost model drifted "
            "from the executor)"]

    def test_check_payload_flags_image_puts(self):
        """A phase that stored an image entry fails the check, the
        attribution and optimize phases included."""
        payload = {
            "ok": True,
            "deterministic": True,
            "phases": {
                "cold": {"cache_put_kb": {"image": 42.5, "metrics": 3.0}},
                "warm": {"cache_misses": 0, "cache_hit_rate": 1.0,
                         "phases_run": {}, "cache_put_kb": {}},
            },
            "optimize": {"cache_put_kb": {"image": 1.0}},
        }
        assert check_payload(payload) == [
            "cold phase put 42.5 KB of image entries (want none: builds "
            "are laid out again, not stored)",
            "optimize phase put 1.0 KB of image entries (want none: "
            "builds are laid out again, not stored)",
        ]
        del payload["phases"]["cold"]["cache_put_kb"]["image"]
        del payload["optimize"]
        assert check_payload(payload) == []

    def test_check_payload_flags_cold_cache(self):
        payload = {
            "ok": True,
            "deterministic": True,
            "phases": {"warm": {"cache_misses": 3, "cache_hit_rate": 0.5,
                                "phases_run": {"optimize": 6,
                                               "compile": 1}}},
        }
        failures = check_payload(payload)
        assert len(failures) == 3
        assert "compile x1, optimize x6" in failures[2]

    def test_check_payload_flags_duplicate_cold_work(self):
        payload = {
            "ok": True,
            "deterministic": True,
            "config": {"workloads": ["Bounce", "Sieve"]},
            "phases": {
                "cold": {"phases_run": {"build": 20, "compile": 2,
                                        "post-process": 4, "trace": 3}},
                "warm": {"cache_misses": 0, "cache_hit_rate": 1.0,
                         "phases_run": {}},
            },
        }
        assert check_payload(payload) == [
            "cold phase ran trace x3 for 2 program(s) "
            "(want at most one per program)",
            "cold phase ran post-process x4 for 2 program(s) "
            "(want at most one per program)",
        ]
        payload["phases"]["cold"]["phases_run"].update(
            {"post-process": 2, "trace": 2})
        assert check_payload(payload) == []

    def test_check_payload_flags_cold_runs_beyond_one_per_worker(self):
        """A cold pass runs each iteration of each program's baseline and
        one of its optimized layouts per worker; the other layouts' runs
        and iterations are derived, so more real runs mean they went back
        to one run per layout."""
        payload = {
            "ok": True,
            "deterministic": True,
            "config": {"workloads": ["Bounce", "Sieve"]},
            "phases": {
                "cold": {"workers": 2,
                         "phases_run": {"measure": 7, "replay": 20}},
                "warm": {"cache_misses": 0, "cache_hit_rate": 1.0,
                         "phases_run": {}},
            },
        }
        assert check_payload(payload) == [
            "cold phase ran measure x7 for 2 program(s) x 1 iteration(s) "
            "on 2 worker(s) (want at most 6: one baseline run per program "
            "and iteration, and one optimized run per program per worker)",
        ]
        payload["phases"]["cold"]["phases_run"]["measure"] = 6
        assert check_payload(payload) == []
        # two iterations: four baseline runs and up to four optimized
        payload["config"]["iterations"] = 2
        payload["phases"]["cold"]["phases_run"]["measure"] = 8
        assert check_payload(payload) == []
        payload["phases"]["cold"]["phases_run"]["measure"] = 9
        assert check_payload(payload) == [
            "cold phase ran measure x9 for 2 program(s) x 2 iteration(s) "
            "on 2 worker(s) (want at most 8: one baseline run per program "
            "and iteration, and one optimized run per program per worker)",
        ]


class TestRegressionGate:
    @staticmethod
    def _payload(cold_wall=2.0, warm_wall=0.1, hit_rate=1.0, cells=6):
        return {
            "config": {"cells": cells},
            "phases": {
                "cold": {"wall_s": cold_wall, "cache_hit_rate": 0.3},
                "warm": {"wall_s": warm_wall, "cache_hit_rate": hit_rate},
            },
        }

    def test_identical_payloads_pass(self):
        from repro.eval.bench import check_regression

        payload = self._payload()
        assert check_regression(payload, self._payload()) == []

    def test_wall_clock_regression_fails(self):
        from repro.eval.bench import check_regression

        slow = self._payload(cold_wall=4.0)
        failures = check_regression(slow, self._payload(cold_wall=2.0),
                                    wall_tolerance=0.5)
        assert len(failures) == 1
        assert "cold" in failures[0]

    def test_hit_rate_drop_fails(self):
        from repro.eval.bench import check_regression

        cold = self._payload(hit_rate=0.8)
        failures = check_regression(cold, self._payload(hit_rate=1.0))
        assert len(failures) == 1
        assert "hit rate" in failures[0]

    def test_within_tolerance_passes(self):
        from repro.eval.bench import check_regression

        slightly_slow = self._payload(cold_wall=2.4)
        assert check_regression(slightly_slow,
                                self._payload(cold_wall=2.0),
                                wall_tolerance=0.5) == []

    def test_phases_missing_from_either_side_are_skipped(self):
        from repro.eval.bench import check_regression

        mine = self._payload()
        base = self._payload()
        base["phases"]["serial"] = {"wall_s": 50.0}
        assert check_regression(mine, base) == []

    def test_different_matrix_sizes_incomparable(self):
        from repro.eval.bench import check_regression

        failures = check_regression(self._payload(cells=6),
                                    self._payload(cells=12))
        assert len(failures) == 1
        assert "matrix" in failures[0]
