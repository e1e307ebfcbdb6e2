"""Tests for the paging simulator and the executor cost model."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.eval.pipeline import ALL_STRATEGY_SPECS, Workload, WorkloadPipeline
from repro.eval.scheduler import task_seed
from repro.image.sections import HEAP_SECTION, PAGE_SIZE, TEXT_SECTION
from repro.ordering.optimize import code_problem
from repro.runtime import executor
from repro.runtime.executor import (
    ExecutionConfig,
    replay_touches,
    run_binary,
    text_touches,
)
from repro.runtime.paging import DEVICES, NFS, SSD, PageCache
from repro.workloads import awfy_workload, microservice_workload


class TestPageCache:
    def test_first_touch_faults(self):
        cache = PageCache()
        assert cache.touch(TEXT_SECTION, 0, 100) == 1
        assert cache.fault_count(TEXT_SECTION) == 1

    def test_second_touch_does_not_fault(self):
        cache = PageCache()
        cache.touch(TEXT_SECTION, 0, 100)
        assert cache.touch(TEXT_SECTION, 50, 10) == 0
        assert cache.fault_count(TEXT_SECTION) == 1

    def test_range_spanning_pages(self):
        cache = PageCache()
        assert cache.touch(TEXT_SECTION, PAGE_SIZE - 10, 20) == 2

    def test_sections_accounted_separately(self):
        cache = PageCache()
        cache.touch(TEXT_SECTION, 0, 1)
        cache.touch(HEAP_SECTION, 0, 1)
        assert cache.fault_count(TEXT_SECTION) == 1
        assert cache.fault_count(HEAP_SECTION) == 1
        assert cache.total_faults() == 2

    def test_zero_size_touch_is_a_noop(self):
        cache = PageCache()
        assert cache.touch(TEXT_SECTION, 5, 0) == 0
        assert cache.fault_count(TEXT_SECTION) == 0
        assert cache.resident_pages(TEXT_SECTION) == set()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PageCache().touch(TEXT_SECTION, 5, -1)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            PageCache().touch(TEXT_SECTION, -1, 4)

    def test_fault_around_maps_without_faulting(self):
        cache = PageCache(fault_around=2)
        cache.touch(TEXT_SECTION, 10 * PAGE_SIZE, 1)
        assert cache.fault_count(TEXT_SECTION) == 1
        assert cache.resident_pages(TEXT_SECTION) == {8, 9, 10, 11, 12}
        # touching a faulted-around page later is free
        assert cache.touch(TEXT_SECTION, 11 * PAGE_SIZE, 1) == 0

    def test_fault_around_clamps_to_section_end(self):
        # a 12-page section: faulting the last page must not map pages
        # 12/13 past the end the way it clamps at page 0 on the left
        cache = PageCache(fault_around=2)
        cache.set_limit(TEXT_SECTION, 12 * PAGE_SIZE)
        cache.touch(TEXT_SECTION, 11 * PAGE_SIZE, 1)
        assert cache.resident_pages(TEXT_SECTION) == {9, 10, 11}

    def test_fault_around_clamps_at_page_zero(self):
        cache = PageCache(fault_around=2)
        cache.touch(TEXT_SECTION, 0, 1)
        assert cache.resident_pages(TEXT_SECTION) == {0, 1, 2}

    @given(
        st.lists(
            st.tuples(st.integers(0, 100 * PAGE_SIZE), st.integers(1, 3 * PAGE_SIZE)),
            max_size=40,
        )
    )
    def test_faults_equal_distinct_first_touched_pages(self, touches):
        cache = PageCache()
        expected = set()
        for offset, size in touches:
            first = offset // PAGE_SIZE
            last = (offset + size - 1) // PAGE_SIZE
            expected.update(range(first, last + 1))
            cache.touch(TEXT_SECTION, offset, size)
        assert cache.fault_count(TEXT_SECTION) == len(expected)
        assert cache.resident_pages(TEXT_SECTION) == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 50 * PAGE_SIZE), st.integers(1, PAGE_SIZE)),
            max_size=30,
        )
    )
    def test_fault_count_order_independent(self, touches):
        forward = PageCache()
        backward = PageCache()
        for offset, size in touches:
            forward.touch(TEXT_SECTION, offset, size)
        for offset, size in reversed(touches):
            backward.touch(TEXT_SECTION, offset, size)
        assert forward.fault_count(TEXT_SECTION) == backward.fault_count(TEXT_SECTION)


class TestDevices:
    def test_device_registry(self):
        assert DEVICES["ssd"] is SSD
        assert DEVICES["nfs"] is NFS

    def test_nfs_slower_than_ssd(self):
        assert NFS.fault_latency_s > SSD.fault_latency_s

    def test_fault_cost_linear(self):
        assert SSD.fault_cost(10) == pytest.approx(10 * SSD.fault_latency_s)


SOURCE = """
class Data { static int[] table = new int[1024];
    static { for (int i = 0; i < 1024; i++) table[i] = i; } }
class Main {
    static int main() {
        int acc = 0;
        for (int i = 0; i < 1024; i += 64) acc += Data.table[i];
        return acc;
    }
}
"""


class TestExecutorCostModel:
    def test_time_includes_fault_cost(self):
        pipeline = WorkloadPipeline(Workload(name="cost", source=SOURCE))
        binary = pipeline.build_baseline()
        metrics = pipeline.measure(binary, 1)[0]
        config = pipeline.exec_config
        floor = config.base_startup_s + metrics.ops * config.op_time_s
        assert metrics.time_s == pytest.approx(
            floor + config.device.fault_cost(metrics.total_faults)
        )

    def test_nfs_runs_slower(self):
        from dataclasses import replace

        workload = Workload(name="cost", source=SOURCE)
        ssd_pipeline = WorkloadPipeline(workload)
        nfs_pipeline = WorkloadPipeline(
            workload, exec_config=replace(ExecutionConfig(), device=NFS)
        )
        ssd_time = ssd_pipeline.measure(ssd_pipeline.build_baseline(), 1)[0].time_s
        nfs_time = nfs_pipeline.measure(nfs_pipeline.build_baseline(), 1)[0].time_s
        assert nfs_time > ssd_time

    def test_jitter_perturbs_time_not_faults(self):
        from dataclasses import replace

        workload = Workload(name="cost", source=SOURCE)
        pipeline = WorkloadPipeline(
            workload,
            exec_config=replace(ExecutionConfig(), time_jitter=0.05, jitter_seed=9),
        )
        binary = pipeline.build_baseline()
        a = pipeline.measure(binary, 1, seed=1)[0]
        b = pipeline.measure(binary, 1, seed=2)[0]
        assert a.faults == b.faults
        assert a.time_s != b.time_s

    def test_startup_touches_native_blob(self):
        pipeline = WorkloadPipeline(Workload(name="cost", source=SOURCE))
        binary = pipeline.build_baseline()
        metrics = pipeline.measure(binary, 1)[0]
        native_first = binary.text.native_blob_offset // PAGE_SIZE
        touched = replay_touches(binary, pipeline.exec_config,
                                 metrics.touches).faulted(TEXT_SECTION)
        startup_pages = {p for p in touched if p >= native_first}
        assert len(startup_pages) == pipeline.exec_config.startup_native_pages

    def test_big_array_spans_multiple_heap_pages(self):
        pipeline = WorkloadPipeline(Workload(name="cost", source=SOURCE))
        binary = pipeline.build_baseline()
        metrics = pipeline.measure(binary, 1)[0]
        # the 8 KiB table alone spans 3 pages
        assert metrics.heap_faults >= 3


#: SHA-256 of the CU-relative ``.text`` ranges (one ``CU start end`` line
#: each) a run of the regular build and of every optimized build takes at
#: the matrix seed; the optimized builds (reference, the 7 strategies)
#: share one stream because they place the same CUs
TEXT_RANGES_SHA256 = {
    "Queens": {
        "regular": "b3ca80763e52c05db31062502d92c95c7280235aa990baee4582caaa1401b157",
        "optimized": "54d7b6f69beb6b8613a4089ed69d9352d76be111ea066d27ee58396c9d3e7fa8",
    },
    "quarkus": {
        "regular": "429c4365f7df0911f737ca98f441d7c2ac62149608e19c42f17d73a40c9bc30c",
        "optimized": "429c4365f7df0911f737ca98f441d7c2ac62149608e19c42f17d73a40c9bc30c",
    },
}


def _live_run(binary, config, monkeypatch):
    """One run of ``binary`` plus the page cache it ran against."""
    caches = []

    def capture(*args, **kwargs):
        cache = replay(*args, **kwargs)
        caches.append(cache)
        return cache

    replay = executor.replay_touches
    monkeypatch.setattr(executor, "replay_touches", capture)
    try:
        run = run_binary(binary, config)
    finally:
        monkeypatch.undo()
    return run, caches[0]


class TestTouchReplay:
    """Replaying a run's touch record reproduces every page-level view of
    the run: on the regular build, the 7 strategy builds and cu-opt's
    reference build of one AWFY program and one microservice."""

    @pytest.mark.parametrize("name", sorted(TEXT_RANGES_SHA256))
    def test_replay_agrees_with_live_runs(self, name, monkeypatch):
        workload = (microservice_workload(name) if name == "quarkus"
                    else awfy_workload(name))
        seed = task_seed(1, name)
        pipeline = WorkloadPipeline(workload)
        config = pipeline.exec_config
        around = replace(config, fault_around_pages=2)
        bundle = pipeline.profile(seed=seed).profiles
        binaries = {"regular": pipeline.build_baseline(seed=seed),
                    "reference": pipeline.build_optimized(bundle, None,
                                                          seed=seed)}
        for spec in ALL_STRATEGY_SPECS:
            binaries[spec.name] = pipeline.build_optimized(bundle, spec,
                                                           seed=seed)
        assert len(binaries) == 9
        for label, binary in binaries.items():
            run, live = _live_run(binary, config, monkeypatch)
            replayed = replay_touches(binary, config, run.touches)
            assert replayed.fault_log == live.fault_log, label
            assert replayed.snapshot_counts() == run.faults, label
            if run.response_touches is not None:
                at_response = replay_touches(
                    binary, config, run.touches[:run.response_touches])
                assert at_response.snapshot_counts() == \
                    run.first_response_faults, label
            # a live fault-around run maps exactly what the replay maps
            live_run, live_around = _live_run(binary, around, monkeypatch)
            assert live_run.touches == run.touches, label
            replayed = replay_touches(binary, config, run.touches,
                                      fault_around=2)
            for section in (TEXT_SECTION, HEAP_SECTION):
                assert replayed.faulted(section) == \
                    live_around.faulted(section), (label, section)
                assert replayed.resident_pages(section) == \
                    live_around.resident_pages(section), (label, section)
            # the ranges the cu-opt cost model scores reproduce the run's
            # .text faults on the build's own layout
            ranges = text_touches(binary, run)
            digest = hashlib.sha256("\n".join(
                f"{cu} {start} {end}" for cu, start, end in ranges
            ).encode()).hexdigest()
            kind = "regular" if label == "regular" else "optimized"
            assert digest == TEXT_RANGES_SHA256[name][kind], label
            model = code_problem(binary, run, bundle, config).model
            assert list(model.touches) == ranges, label
            order = [placed.cu.name for placed in binary.text.placed]
            assert model.faults(order) == \
                run.faults_at_response(TEXT_SECTION), label
