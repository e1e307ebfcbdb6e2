"""Fig. 4 — time-to-first-response speedup on microservices.

The measured quantity is the elapsed time until the first response, after
which the service is SIGKILLed (Sec. 7.1).  Expected shape: cu gives the
largest single-strategy speedup; combined cu+heap path is the best overall
(paper: 1.61x geomean).
"""

from conftest import figure_cells, save_figure

from repro.eval.figures import aggregate_cells, render_fig4


def test_fig4_micro_speedups(benchmark):
    cells = benchmark.pedantic(figure_cells, rounds=1, iterations=1)
    chart = render_fig4(cells)
    print("\n" + chart)
    save_figure("fig4_micro_speedups.txt", chart)

    _, geomean = aggregate_cells(cells, "speedup", "micro")
    cu = geomean["cu"]
    method = geomean["method"]
    combined = geomean["cu+heap path"]

    assert cu >= 1.0 and method >= 1.0
    assert cu >= method
    assert combined >= cu - 0.05
