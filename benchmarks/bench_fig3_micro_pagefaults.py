"""Fig. 3 — page-fault reduction on microservices (micronaut/quarkus/spring).

Expected shape (Sec. 7.2): cu clearly beats method (the method profile pulls
cold bean CUs early through inlined hot helpers); heap path is the most
robust heap strategy; incremental id is the weakest.
"""

from conftest import figure_cells, save_figure

from repro.eval.figures import aggregate_cells, render_fig3


def test_fig3_micro_page_fault_reduction(benchmark):
    cells = benchmark.pedantic(figure_cells, rounds=1, iterations=1)
    chart = render_fig3(cells)
    print("\n" + chart)
    save_figure("fig3_micro_pagefaults.txt", chart)

    _, geomean = aggregate_cells(cells, "fault_factor", "micro")
    cu = geomean["cu"]
    method = geomean["method"]
    incremental = geomean["incremental id"]
    heap_path = geomean["heap path"]

    assert cu > method, "cu should clearly beat method on microservices"
    assert heap_path > incremental, "heap path should beat incremental id"
    assert cu > 1.3
