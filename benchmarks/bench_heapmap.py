"""Heap-snapshot visualization bench — the paper's Appendix A future work.

Renders the ``.svm_heap`` analogue of Fig. 6 (regular vs heap-path-ordered)
plus the per-page object-type breakdown that the paper says "may enable a
fine-grained analysis of the included objects".
"""

from conftest import save_figure

from repro.eval.pagemap import compare_page_maps, layout_page_maps
from repro.image.sections import HEAP_SECTION
from repro.workloads.awfy.suite import awfy_workload


def _build_maps():
    return layout_page_maps(awfy_workload("Bounce"), HEAP_SECTION)


def test_heap_page_map_visualization(benchmark):
    regular_map, optimized_map = benchmark.pedantic(_build_maps, rounds=1, iterations=1)
    figure = "\n".join([
        "Heap-snapshot page map, AWFY Bounce (paper Appendix A future work)",
        "=" * 66,
        compare_page_maps(regular_map, optimized_map),
        "",
        optimized_map.hot_page_report(),
    ])
    print("\n" + figure)
    save_figure("heapmap_bounce.txt", figure)

    # The reordered heap needs no more pages than the default layout, and the
    # accessed objects concentrate at the front of the section.
    assert optimized_map.faulted <= regular_map.faulted
    assert optimized_map.front_density >= regular_map.front_density
    # The paper: benchmarks access a small share of the snapshot objects.
    assert regular_map.accessed_fraction < 0.5
