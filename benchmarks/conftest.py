"""Shared helpers for the figure-regeneration benchmarks.

Figs. 2-5 all aggregate one set of sweep cells, exactly as in the paper's
artifact where one measurement pass feeds both the page-fault and the
speedup plots: the paper strategies on both suites, swept through the
scheduler at base seeds 1-2 with 2 cold runs per binary
(:func:`repro.eval.figures.sweep_figure_cells`, the function behind
``repro figures``).

Rendered figures are also written to ``benchmarks/output/`` for inspection.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.eval.figures import sweep_figure_cells
from repro.workloads.awfy.suite import awfy_suite
from repro.workloads.microservices.suite import microservice_suite

OUTPUT_DIR = Path(__file__).parent / "output"

#: builds (base seeds) x runs used by the benches; the paper uses 10x10,
#: this keeps the harness laptop-sized while still producing CIs.
BUILDS, RUNS = 2, 2


@functools.lru_cache(maxsize=1)
def figure_cells():
    workloads = [*awfy_suite().values(), *microservice_suite().values()]
    return sweep_figure_cells(workloads, BUILDS, RUNS)


def save_figure(name: str, text: str) -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / name
    path.write_text(text + "\n")
    return path
