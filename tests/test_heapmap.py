"""Tests for the heap-snapshot visualization (paper Appendix A future work)."""

import pytest

from repro.eval.pagemap import compare_page_maps, page_map
from repro.eval.pipeline import STRATEGY_HEAP_PATH, WorkloadPipeline
from repro.image.sections import HEAP_SECTION, PAGE_SIZE
from repro.workloads.awfy.suite import awfy_workload
from repro.workloads.microservices.suite import microservice_workload


@pytest.fixture(scope="module")
def bounce_pipeline():
    return WorkloadPipeline(awfy_workload("Bounce"))


@pytest.fixture(scope="module")
def bounce_map(bounce_pipeline):
    return _heap_map(bounce_pipeline, bounce_pipeline.build_baseline(seed=1))


def _heap_map(pipeline, binary):
    return page_map(binary, pipeline.measure(binary)[0], HEAP_SECTION,
                    pipeline.exec_config)


class TestHeapPageMap:
    def test_cells_cover_heap_section(self, bounce_pipeline, bounce_map):
        binary = bounce_pipeline.build_baseline(seed=1)
        expected = max((binary.heap.size + PAGE_SIZE - 1) // PAGE_SIZE, 1)
        assert len(bounce_map.cells) == expected

    def test_counts_sum_to_pages(self, bounce_map):
        total = bounce_map.faulted + bounce_map.mapped_not_faulted + bounce_map.unmapped
        assert total == len(bounce_map.cells)

    def test_some_pages_fault_most_do_not(self, bounce_map):
        assert bounce_map.faulted > 0
        assert bounce_map.unmapped > bounce_map.faulted

    def test_accessed_fraction_is_small(self, bounce_map):
        # The paper: AWFY workloads access ~4% of snapshot objects; page
        # granularity inflates this, but it must remain a clear minority.
        assert 0.0 < bounce_map.accessed_fraction < 0.5

    def test_page_types_cover_faulted_pages(self, bounce_map):
        for page, cell in enumerate(bounce_map.cells):
            if cell == "#":
                assert page in bounce_map.page_types
                assert bounce_map.page_types[page]

    def test_render_and_report(self, bounce_map):
        text = bounce_map.render()
        assert "faulted:" in text
        report = bounce_map.hot_page_report()
        assert "page" in report

    def test_heap_ordering_compacts_front(self, bounce_pipeline):
        regular = bounce_pipeline.build_baseline(seed=1)
        outcome = bounce_pipeline.profile(seed=1)
        optimized = bounce_pipeline.build_optimized(
            outcome.profiles, STRATEGY_HEAP_PATH, seed=2
        )
        regular_map = _heap_map(bounce_pipeline, regular)
        optimized_map = _heap_map(bounce_pipeline, optimized)
        assert optimized_map.front_density >= regular_map.front_density
        text = compare_page_maps(regular_map, optimized_map)
        assert "(a) regular binary" in text
        assert "with the heap path strategy" in text

    def test_microservice_heap_dominated_by_framework_types(self):
        pipeline = WorkloadPipeline(microservice_workload("micronaut"))
        binary = pipeline.build_baseline(seed=1)
        heap_map = _heap_map(pipeline, binary)
        all_types = set()
        for types in heap_map.page_types.values():
            all_types.update(name for name, _ in types)
        assert "String" in all_types
        assert any(name.endswith("$Statics") for name in all_types)
