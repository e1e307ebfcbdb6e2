"""Fig. 6 — visual .text page map of AWFY Bounce, regular vs cu-ordered.

Renders the appendix's page-map visualization: '#' pages faulted, 'o' pages
mapped by fault-around without faulting, '.' unmapped, 'N' the statically
linked native blob (unreorderable; the trailing executed region in the
paper's figure).

Expected shape: the regular binary's faults are scattered across .text;
the cu-ordered binary compacts them at the front.
"""

from conftest import save_figure

from repro.eval.figures import run_fig6
from repro.eval.pagemap import layout_page_maps
from repro.workloads.awfy.suite import awfy_workload


def test_fig6_text_page_map(benchmark):
    figure = benchmark.pedantic(run_fig6, rounds=1, iterations=1)
    print("\n" + figure)
    save_figure("fig6_pagemap.txt", figure)
    assert "regular binary" in figure and "optimized" in figure


def test_fig6_front_compaction_quantified():
    regular_map, optimized_map = layout_page_maps(awfy_workload("Bounce"))
    regular_density = regular_map.front_density
    optimized_density = optimized_map.front_density
    print(
        f"\nfront-quarter fault density: regular={regular_density:.2f} "
        f"cu-ordered={optimized_density:.2f}"
    )
    assert optimized_density > regular_density
