"""Fig. 5 — execution-time speedup on AWFY.

Regenerates the paper's Figure 5 from the same evaluation pass as Fig. 2.
Expected shape (Sec. 7.3 / artifact B.3.2): no slowdown for code
strategies; code strategies yield larger speedups than heap strategies;
cu+heap path yields the largest speedup (paper: 1.59x geomean).
"""

from conftest import figure_cells, save_figure

from repro.eval.figures import aggregate_cells, render_fig5


def test_fig5_awfy_speedups(benchmark):
    cells = benchmark.pedantic(figure_cells, rounds=1, iterations=1)
    chart = render_fig5(cells)
    print("\n" + chart)
    save_figure("fig5_awfy_speedups.txt", chart)

    _, geomean = aggregate_cells(cells, "speedup", "awfy")
    cu = geomean["cu"]
    method = geomean["method"]
    combined = geomean["cu+heap path"]
    heap = max(
        geomean["incremental id"],
        geomean["structural hash"],
        geomean["heap path"],
    )

    assert cu >= 1.0 and method >= 1.0, "code strategies must not slow down"
    assert cu > heap, "code ordering should out-speed heap ordering"
    assert combined >= cu - 0.05, "combined should be at least cu-level"
