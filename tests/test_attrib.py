"""Tests for startup attribution (repro.obs.attrib) and `repro why`.

Covers the page cache's fault log and the touch record every run keeps,
per-event device costs, the exact-share accounting of `attribute`, the
one front-density definition, the differential explainer, its CLI/bench
surfaces, and the serial-vs-parallel determinism of reports.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.bench import (
    ATTRIBUTION_TOP,
    BenchConfig,
    attribution_diagnosis,
    check_payload,
    check_regression,
    run_bench,
)
from repro.eval.explain import (
    CSV_COLUMNS,
    WhyReport,
    attributed_run,
    explain_reports,
    explain_strategy,
)
from repro.eval.pagemap import page_map
from repro.eval.pipeline import STRATEGY_CU, WorkloadPipeline
from repro.eval.scheduler import task_seed
from repro.image.sections import HEAP_SECTION, TEXT_SECTION
from repro.obs.attrib import (
    NATIVE_BLOB_UNIT,
    PADDING_UNIT,
    attribute,
    binary_tenancies,
)
from repro.runtime.executor import (
    ExecutionConfig,
    RunMetrics,
    replay_touches,
    run_binary,
)
from repro.runtime.paging import SSD, IoDevice, PageCache
from repro.util.pagemath import PAGE_SIZE, page_count, pages_spanned
from repro.workloads.awfy.suite import awfy_workload
from repro.workloads.microservices.suite import microservice_workload


# -- shared page math ---------------------------------------------------------


class TestPageMath:
    def test_page_of(self):
        assert list(pages_spanned(0, 1)) == [0]
        assert list(pages_spanned(PAGE_SIZE - 1, 1)) == [0]
        assert list(pages_spanned(PAGE_SIZE, 1)) == [1]

    def test_page_count(self):
        assert page_count(0) == 0
        assert page_count(1) == 1
        assert page_count(PAGE_SIZE) == 1
        assert page_count(PAGE_SIZE + 1) == 2
        with pytest.raises(ValueError):
            page_count(-1)

    def test_pages_spanned_zero_length_is_empty(self):
        assert list(pages_spanned(123, 0)) == []

    def test_pages_spanned_crosses_boundary(self):
        assert list(pages_spanned(PAGE_SIZE - 1, 2)) == [0, 1]

    def test_pages_spanned_negative_size_raises(self):
        with pytest.raises(ValueError):
            pages_spanned(0, -1)


# -- per-event device costs ---------------------------------------------------


class TestIoDeviceEventCosts:
    def test_constant_latency_unchanged(self):
        assert SSD.fault_cost_at(0) == SSD.fault_latency_s
        assert SSD.fault_cost_at(10_000) == SSD.fault_latency_s
        assert SSD.fault_cost(7) == pytest.approx(7 * SSD.fault_latency_s)

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            SSD.fault_cost_at(-1)

    def test_warmup_prices_first_faults_higher(self):
        device = IoDevice("cold-nfs", 100e-6, warmup_faults=3,
                          warmup_extra_s=50e-6)
        assert device.fault_cost_at(0) == pytest.approx(150e-6)
        assert device.fault_cost_at(2) == pytest.approx(150e-6)
        assert device.fault_cost_at(3) == pytest.approx(100e-6)

    @given(
        faults=st.integers(min_value=0, max_value=200),
        warmup=st.integers(min_value=0, max_value=50),
        latency=st.floats(min_value=1e-6, max_value=1e-3),
        extra=st.floats(min_value=0.0, max_value=1e-3),
    )
    @settings(max_examples=50, deadline=None)
    def test_timeline_total_equals_aggregate(self, faults, warmup, latency,
                                             extra):
        """The satellite regression: sum of per-event costs == aggregate."""
        device = IoDevice("x", latency, warmup_faults=warmup,
                          warmup_extra_s=extra)
        timeline = sum(device.fault_cost_at(i) for i in range(faults))
        assert timeline == pytest.approx(device.fault_cost(faults))


# -- the fault log and the touch record --------------------------------------


class TestFaultObserverHook:
    """The fault stream, as the page cache's fault log reports it, and the
    touch record every run keeps."""

    def test_events_in_fault_order_with_costs(self):
        cache = PageCache()
        cache.touch(TEXT_SECTION, 0, 2 * PAGE_SIZE)  # pages 0, 1
        cache.touch(HEAP_SECTION, 100, 1)            # page 0
        cache.touch(TEXT_SECTION, 10, 1)             # already resident
        assert [(section, page) for section, page, _ in cache.fault_log] == [
            (TEXT_SECTION, 0), (TEXT_SECTION, 1), (HEAP_SECTION, 0),
        ]
        report = attribute(_stub_binary([2 * PAGE_SIZE], [64]),
                           cache.fault_log, SSD)
        assert [entry.event.logical_time
                for entry in report.timeline] == [0, 1, 2]
        assert report.total_cost == pytest.approx(SSD.fault_cost(3))

    def test_offset_clamped_to_page_start_for_spanning_touches(self):
        cache = PageCache()
        cache.touch(TEXT_SECTION, PAGE_SIZE - 1, 2)
        assert [offset for _, _, offset in cache.fault_log] == [
            PAGE_SIZE - 1, PAGE_SIZE]

    def test_fault_around_neighbours_not_reported(self):
        cache = PageCache(fault_around=2)
        cache.set_limit(TEXT_SECTION, 10 * PAGE_SIZE)
        cache.touch(TEXT_SECTION, 5 * PAGE_SIZE, 1)
        assert len(cache.fault_log) == 1          # one fault logged ...
        assert len(cache.resident_pages(TEXT_SECTION)) == 5  # ... 5 mapped

    def test_executor_records_touches_on_every_run(self):
        pipeline = WorkloadPipeline(awfy_workload("Queens"))
        binary = pipeline.build_baseline(seed=1)
        run = run_binary(binary, pipeline.exec_config)
        assert run.touches
        assert len(set(run.touches)) == len(run.touches)  # distinct
        cache = replay_touches(binary, pipeline.exec_config, run.touches)
        assert cache.snapshot_counts() == run.faults
        assert len(cache.fault_log) == run.total_faults
        # the record is part of the run, identical on every run
        assert run_binary(binary, pipeline.exec_config) == run


# -- attribution over synthetic layouts ---------------------------------------


def _stub_binary(cu_sizes, obj_sizes, blob_size=0):
    """A duck-typed binary: packed CUs then a page-aligned blob; packed heap."""
    placed = []
    offset = 0
    for index, size in enumerate(cu_sizes):
        cu = SimpleNamespace(name=f"cu{index}", size=size)
        placed.append(SimpleNamespace(cu=cu, offset=offset))
        offset += (size + 15) // 16 * 16
    blob_offset = (offset + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
    text = SimpleNamespace(
        placed=placed, native_blob_offset=blob_offset,
        native_blob_size=blob_size, size=blob_offset + blob_size,
    )
    ordered = []
    address = 0
    for index, size in enumerate(obj_sizes):
        ordered.append(SimpleNamespace(
            type_name="Obj", index=index, address=address, size=size,
        ))
        address += (size + 7) // 8 * 8
    heap = SimpleNamespace(ordered=ordered, size=address)
    return SimpleNamespace(text=text, heap=heap)


@st.composite
def _layout_and_touches(draw):
    cu_sizes = draw(st.lists(st.integers(1, 3 * PAGE_SIZE), min_size=1,
                             max_size=8))
    obj_sizes = draw(st.lists(st.integers(1, PAGE_SIZE), min_size=1,
                              max_size=12))
    blob_size = draw(st.sampled_from((0, PAGE_SIZE, 3 * PAGE_SIZE)))
    binary = _stub_binary(cu_sizes, obj_sizes, blob_size)
    touches = draw(st.lists(
        st.tuples(
            st.sampled_from((TEXT_SECTION, HEAP_SECTION)),
            st.integers(0, 4 * PAGE_SIZE),
            st.integers(1, 2 * PAGE_SIZE),
        ),
        min_size=1, max_size=30,
    ))
    return binary, touches


class TestAttributeProperties:
    @given(_layout_and_touches())
    @settings(max_examples=40, deadline=None)
    def test_shares_sum_exactly_to_fault_count(self, layout_and_touches):
        """The tentpole invariant: no fault is ever over- or under-blamed."""
        binary, touches = layout_and_touches
        cache = PageCache()
        for section, offset, size in touches:
            cache.touch(section, offset, size)
        report = attribute(binary, cache.fault_log, SSD)
        assert report.total_faults == len(cache.fault_log)
        for name, section in report.sections.items():
            assert section.fault_count == cache.fault_count(name)
            assert sum((blame.share for blame in section.units),
                       Fraction(0)) == Fraction(section.fault_count)
            assert sum(blame.cost for blame in section.units) == pytest.approx(
                section.total_cost
            )
        assert report.total_cost == pytest.approx(
            SSD.fault_cost(len(cache.fault_log))
        )

    @given(_layout_and_touches())
    @settings(max_examples=40, deadline=None)
    def test_cotenancy_is_symmetric(self, layout_and_touches):
        binary, touches = layout_and_touches
        cache = PageCache()
        for section, offset, size in touches:
            cache.touch(section, offset, size)
        report = attribute(binary, cache.fault_log)
        for section in report.sections.values():
            cotenancy = section.cotenancy()
            for unit, others in cotenancy.items():
                for other in others:
                    assert unit in cotenancy[other]

    def test_native_blob_and_padding_units(self):
        binary = _stub_binary([100], [64], blob_size=2 * PAGE_SIZE)
        cache = PageCache()
        cache.touch(TEXT_SECTION, binary.text.native_blob_offset, PAGE_SIZE)
        # a page between the packed CUs and the blob belongs to nobody
        tenancy = binary_tenancies(binary)[TEXT_SECTION]
        assert tenancy.tenants_of(9999999) == (PADDING_UNIT,)
        report = attribute(binary, cache.fault_log)
        units = {blame.unit for blame in report.sections[TEXT_SECTION].units}
        assert units == {NATIVE_BLOB_UNIT}

    def test_rejects_observerless_run(self):
        """A run record whose touches do not reproduce its fault counts
        (one recorded without its touch stream) is not attributed."""
        binary = _stub_binary([100], [64])
        pipeline = SimpleNamespace(
            exec_config=ExecutionConfig(),
            measure=lambda binary, iterations, seed: [
                RunMetrics(faults={TEXT_SECTION: 1})],
        )
        with pytest.raises(ValueError, match="0 touches"):
            attributed_run(pipeline, binary, "stub")

    def test_first_touch_and_timeline_order(self):
        binary = _stub_binary([PAGE_SIZE, PAGE_SIZE], [64])
        cache = PageCache()
        cache.touch(TEXT_SECTION, PAGE_SIZE, 1)   # cu1's page first
        cache.touch(TEXT_SECTION, 0, 1)           # then cu0's
        report = attribute(binary, cache.fault_log, SSD)
        blame = {unit.unit: unit for unit in report.sections[TEXT_SECTION].units}
        assert blame["cu1"].first_touch == 0
        assert blame["cu0"].first_touch == 1
        assert [entry.event.logical_time for entry in report.timeline] == [0, 1]

    def test_front_density_curve_tracks_faults(self):
        binary = _stub_binary([PAGE_SIZE] * 8, [64])
        cache = PageCache()
        cache.touch(TEXT_SECTION, 0, 1)                  # front page
        cache.touch(TEXT_SECTION, 7 * PAGE_SIZE, 1)      # back page
        report = attribute(binary, cache.fault_log)
        assert report.front_density[TEXT_SECTION] == [1.0, 0.5]

    def test_front_density_curve_skips_native_blob_faults(self):
        binary = _stub_binary([PAGE_SIZE] * 8, [64], blob_size=PAGE_SIZE)
        cache = PageCache()
        cache.touch(TEXT_SECTION, binary.text.native_blob_offset, 1)
        cache.touch(TEXT_SECTION, 0, 1)                  # front page
        cache.touch(TEXT_SECTION, 7 * PAGE_SIZE, 1)      # back page
        report = attribute(binary, cache.fault_log)
        assert report.front_density[TEXT_SECTION] == [0.0, 1.0, 0.5]


class TestOneFrontDensity:
    """The attribution curve and the page map read one definition."""

    @pytest.mark.parametrize("strategy", [None, STRATEGY_CU],
                             ids=["regular", "cu"])
    @pytest.mark.parametrize("name", ["Bounce", "Queens"])
    def test_curve_ends_at_the_page_map_density(self, name, strategy):
        pipeline = WorkloadPipeline(awfy_workload(name))
        seed = task_seed(1, name)
        if strategy is None:
            binary = pipeline.build_baseline(seed=seed)
        else:
            binary = pipeline.build_optimized(
                pipeline.profile(seed=seed).profiles, strategy, seed=seed)
        run = pipeline.measure(binary, 1, seed)[0]
        report = attributed_run(pipeline, binary, name, seed=seed)
        for section in (TEXT_SECTION, HEAP_SECTION):
            mapped = page_map(binary, run, section, pipeline.exec_config)
            assert report.front_density[section][-1] == \
                mapped.front_density, section


# -- the explainer end-to-end -------------------------------------------------


@pytest.fixture(scope="module")
def queens_why():
    pipeline = WorkloadPipeline(awfy_workload("Queens"))
    return explain_strategy(pipeline, STRATEGY_CU, seed=1)


class TestExplainQueens:
    def test_blames_at_least_one_moved_cu_with_fault_delta(self, queens_why):
        """The acceptance bar: `repro why` names moved CUs that matter."""
        moved_with_delta = [
            delta for delta in queens_why.ranked
            if delta.section == TEXT_SECTION and delta.moved
            and delta.fault_delta != 0
        ]
        assert moved_with_delta

    def test_blames_only_cus_that_actually_changed(self, queens_why):
        """A CU whose span and faulted-page co-tenancy did not change
        cannot gain or lose blame — the explainer must never rank it."""
        for delta in queens_why.ranked:
            if delta.section != TEXT_SECTION or delta.fault_delta == 0:
                continue
            assert delta.moved or delta.new_conflicts or delta.lost_conflicts

    def test_report_totals_match_section_sums(self, queens_why):
        summary = queens_why.section_summary()
        assert queens_why.fault_delta == sum(
            row["fault_delta"] for row in summary.values()
        )

    def test_render_and_dict_schema(self, queens_why):
        text = queens_why.render(top=5)
        assert "why: Queens" in text
        assert TEXT_SECTION in text
        payload = queens_why.as_dict()
        for key in ("workload", "strategy", "baseline_label", "current_label",
                    "fault_delta", "cost_delta", "sections", "moved_units",
                    "top_blamed", "ranked"):
            assert key in payload
        assert payload["workload"] == "Queens"
        assert payload["strategy"] == "cu"
        assert len(payload["top_blamed"]) <= 3
        json.dumps(payload)  # JSON-serializable throughout

    def test_csv_export(self, queens_why, tmp_path):
        path = queens_why.to_csv(tmp_path / "why.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(queens_why.ranked) + 1

    def test_identical_reports_rank_nothing(self, queens_why):
        why = explain_reports(queens_why.current, queens_why.current)
        assert why.ranked == []
        assert "blame identically" in why.render()


class TestExplainMicroservice:
    def test_quarkus_stops_at_first_response(self):
        pipeline = WorkloadPipeline(microservice_workload("quarkus"))
        binary = pipeline.build_baseline(seed=1)
        report = attributed_run(pipeline, binary, label="quarkus/baseline")
        assert report.total_faults > 0
        # attribution must cover exactly the faults the run charged
        metrics = pipeline.measure(binary, 1)[0]
        assert report.total_faults == metrics.total_faults


def _explain_dict(workload_name, seed):
    """Module-level worker: picklable for ProcessPoolExecutor."""
    from repro.eval.explain import explain_strategy as _explain
    from repro.eval.pipeline import STRATEGY_CU as _CU
    from repro.eval.pipeline import WorkloadPipeline as _Pipeline
    from repro.workloads.awfy.suite import awfy_workload as _awfy

    pipeline = _Pipeline(_awfy(workload_name))
    return _explain(pipeline, _CU, seed=seed).as_dict()


class TestDeterminism:
    def test_serial_and_parallel_reports_identical(self):
        """The acceptance bar: same seed, same report, any process."""
        inline = _explain_dict("Queens", seed=1)
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = pool.submit(_explain_dict, "Queens", 1).result()
        assert inline == remote

    def test_repeated_attribution_is_identical(self, queens_why):
        pipeline = WorkloadPipeline(awfy_workload("Queens"))
        again = explain_strategy(pipeline, STRATEGY_CU, seed=1)
        assert again.as_dict() == queens_why.as_dict()


# -- bench integration --------------------------------------------------------


def _attribution_payload(phases_run=None, events=12, baseline_events=20):
    """A passing bench payload around one attributed cell (Bounce/cu)."""
    cell = {"workload": "Bounce", "strategy": "cu",
            "baseline": [{"total_faults": 20.0}],
            "optimized": [{"total_faults": 12.0}]}
    return {
        "ok": True,
        "deterministic": True,
        "phases": {"warm": {"cache_misses": 0, "cache_hit_rate": 1.0}},
        "results": [cell],
        "attribution": {
            "strategy": "cu",
            "phases_run": phases_run or {},
            "workloads": {"Bounce": {"top_blamed": ["Main.run()"],
                                     "baseline_events": baseline_events,
                                     "events": events}},
        },
    }


class TestBenchAttribution:
    def test_payload_records_attribution_under_budget(self, tmp_path):
        """The attribution phase's budget is the two builds each
        explanation compares (regular and optimized, with their prepare
        and order stages): it explains the warm sweep's cached runs
        without running the interpreter or any other pipeline phase, and
        blames exactly the faults each cell counted."""
        config = BenchConfig.quick(
            max_workers=1,
            skip_serial=True,
            output=str(tmp_path / "BENCH.json"),
        )
        payload = run_bench(config)
        attribution = payload["attribution"]
        assert attribution["strategy"] == "cu"
        assert attribution["phases_run"] == {"build": 4, "order": 2,
                                             "prepare": 4}
        assert attribution["cache_put_kb"] == {}
        assert set(attribution["workloads"]) == {"Bounce", "quarkus"}
        cells = {(cell["workload"], cell["strategy"]): cell
                 for cell in payload["results"]}
        for name, entry in attribution["workloads"].items():
            assert len(entry["top_blamed"]) == ATTRIBUTION_TOP
            cell = cells[(name, "cu")]
            assert entry["baseline_events"] == \
                cell["baseline"][0]["total_faults"]
            assert entry["events"] == cell["optimized"][0]["total_faults"]
            assert entry["events"] > 0
        assert check_payload(payload) == []

    def test_no_attribution_flag_omits_phase(self, tmp_path):
        config = BenchConfig.quick(
            workloads=("Queens",),
            strategies=("cu",),
            max_workers=1,
            skip_serial=True,
            attribution=False,
            output=str(tmp_path / "BENCH.json"),
        )
        payload = run_bench(config)
        assert "attribution" not in payload

    def test_check_payload_passes_agreeing_attribution(self):
        assert check_payload(_attribution_payload()) == []

    def test_check_payload_flags_phase_run(self):
        failures = check_payload(_attribution_payload(
            phases_run={"measure": 2}))
        assert len(failures) == 1
        assert "attribution phase recomputed work: measure x2" in failures[0]

    def test_check_payload_bounds_rebuilds_at_two_per_workload(self):
        """Rebuilding the two layouts of each explained cell passes;
        a third build, or any phase beyond build, prepare and order,
        fails."""
        rebuilt = {"build": 2, "order": 1, "prepare": 2}
        assert check_payload(_attribution_payload(phases_run=rebuilt)) == []
        failures = check_payload(_attribution_payload(
            phases_run={**rebuilt, "build": 3, "replay": 1}))
        assert failures == [
            "attribution phase recomputed work: replay x1 (want none: it "
            "explains the warm sweep's cached cells)",
            "attribution phase ran build x3 for 1 explained workload(s) "
            "(want at most two per workload: its regular and optimized "
            "layout)",
        ]

    @pytest.mark.parametrize("totals", [(11, 20), (12, 21)],
                             ids=["optimized", "baseline"])
    def test_check_payload_flags_attributed_total_off_its_cell(self, totals):
        events, baseline_events = totals
        failures = check_payload(_attribution_payload(
            events=events, baseline_events=baseline_events))
        assert len(failures) == 1
        assert "attribution of Bounce/cu" in failures[0]
        assert "the sweep cell counted" in failures[0]

    def test_failing_gate_names_blamed_symbols(self):
        payload = {
            "config": {"cells": 2},
            "phases": {"cold": {"wall_s": 9.0}},
            "attribution": {
                "strategy": "cu",
                "workloads": {
                    "Queens": {
                        "top_blamed": ["Main.run()", "Queens.solve()"],
                        "changed_units": 12,
                        "fault_delta": -3,
                    },
                },
            },
        }
        baseline = {"config": {"cells": 2},
                    "phases": {"cold": {"wall_s": 1.0}}}
        failures = check_regression(payload, baseline)
        assert any("top blamed symbols for Queens/cu" in f for f in failures)
        assert any("Main.run()" in f for f in failures)

    def test_passing_gate_stays_silent(self):
        payload = {
            "config": {"cells": 2},
            "phases": {"cold": {"wall_s": 1.0}},
            "attribution": {
                "strategy": "cu",
                "workloads": {"Queens": {"top_blamed": ["Main.run()"],
                                         "changed_units": 1,
                                         "fault_delta": 0}},
            },
        }
        baseline = {"config": {"cells": 2},
                    "phases": {"cold": {"wall_s": 1.0}}}
        assert check_regression(payload, baseline) == []

    def test_diagnosis_empty_without_attribution(self):
        assert attribution_diagnosis({"phases": {}}) == []
