"""Fig. 2 — page-fault reduction on AWFY.

Regenerates the paper's Figure 2: for each of the 14 AWFY benchmarks and
each ordering strategy, the factor (baseline faults / optimized faults),
with code strategies measured on ``.text`` and heap strategies on
``.svm_heap``, plus the geometric mean.

Expected shape (paper Sec. 7.2 / artifact B.3.1): cu and method reduce
faults on every benchmark with cu >= method; heap strategies never increase
faults materially; cu+heap path is >= the individual strategies.
"""

from conftest import figure_cells, save_figure

from repro.eval.figures import aggregate_cells, render_fig2


def test_fig2_awfy_page_fault_reduction(benchmark):
    cells = benchmark.pedantic(figure_cells, rounds=1, iterations=1)
    chart = render_fig2(cells)
    print("\n" + chart)
    save_figure("fig2_awfy_pagefaults.txt", chart)

    _, geomean = aggregate_cells(cells, "fault_factor", "awfy")
    cu = geomean["cu"]
    method = geomean["method"]
    combined = geomean["cu+heap path"]
    incremental = geomean["incremental id"]
    heap_path = geomean["heap path"]

    # Paper-shape assertions (B.3.1).
    assert cu > 1.2, "cu ordering must reduce .text faults"
    assert cu >= method - 0.05, "cu should outperform method ordering"
    assert heap_path >= incremental, "heap path should beat incremental id"
    assert combined > 1.2, "combined strategy must reduce total faults"
