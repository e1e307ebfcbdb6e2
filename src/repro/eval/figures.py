"""Figure generators: regenerate every table/figure of the evaluation.

Figs. 2-5 only aggregate scheduler sweep cells: the dicts of
:meth:`~repro.eval.scheduler.SweepResult.canonical`, which are also the
``results`` of a ``repro bench`` payload.  The sweep is the one place a
fault factor or a speedup is measured.  The paper's methodology (Sec.
7.1: N builds x M cold runs, factor ``M_baseline / M_optimized``, 95% CI
across builds, geomean across a suite) maps onto N sweeps at base seeds
1..N with ``iterations=M`` (:func:`sweep_figure_cells`);
:func:`aggregate_cells` turns their cells into the per-workload CIs and
the suite geomeans, and one set of cells feeds all four figures.
"""

from __future__ import annotations

import tempfile
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..util.stats import ConfidenceInterval, confidence_interval_95, geomean
from ..workloads.awfy.suite import AWFY_NAMES, awfy_suite
from ..workloads.microservices.suite import MICROSERVICE_NAMES, microservice_suite
from .experiments import OverheadResult, profiling_overhead
from .pagemap import compare_page_maps, layout_page_maps
from .pipeline import PAPER_STRATEGY_SPECS, Workload
from .plotting import render_factor_chart, render_table
from .scheduler import SchedulerConfig, SweepScheduler

# Paper figures reproduce the paper: only its six strategies appear
# (the cu-opt optimizer strategy is reported via the bench optimize phase
# and EXPERIMENTS.md instead).
_STRATEGY_NAMES = [spec.name for spec in PAPER_STRATEGY_SPECS]

#: workload names of each suite a figure aggregates over
SUITE_WORKLOADS: Dict[str, Sequence[str]] = {
    "awfy": AWFY_NAMES,
    "micro": MICROSERVICE_NAMES,
}

#: per workload, per strategy: the factor's 95% CI across base seeds
Factors = Dict[str, Dict[str, ConfidenceInterval]]


def sweep_figure_cells(workloads: Sequence[Workload], builds: int,
                       runs: int) -> List[Dict[str, Any]]:
    """Measure the paper strategies on ``workloads``: ``builds`` x ``runs``.

    Runs one :class:`SweepScheduler` sweep per base seed 1..``builds``,
    each with ``runs`` cold runs per binary.  The sweeps share one
    temporary cache, so the strategies of a (workload, seed) share its
    compile, baseline build and profile.  Returns every sweep's canonical
    cells; a failed cell stays in the list (its ``error`` is set) and
    :func:`aggregate_cells` refuses it.
    """
    if builds < 1 or runs < 1:
        raise ValueError(f"builds and runs must be >= 1, got {builds} x {runs}")
    cells: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="repro-figures-") as cache_dir:
        for base_seed in range(1, builds + 1):
            config = SchedulerConfig(cache_dir=cache_dir, iterations=runs,
                                     base_seed=base_seed)
            sweep = SweepScheduler(config).run(workloads, PAPER_STRATEGY_SPECS)
            cells.extend(sweep.canonical())
    return cells


def aggregate_cells(cells: Iterable[Dict[str, Any]], metric: str,
                    suite: str) -> Tuple[Factors, Dict[str, float]]:
    """One suite's figure data from canonical sweep cells.

    ``metric`` is the cell field to aggregate (``fault_factor`` or
    ``speedup``) and ``suite`` a key of :data:`SUITE_WORKLOADS`.  Returns
    the per-(workload, strategy) 95% CI of that field across the cells'
    base seeds, in suite and strategy order, and the per-strategy geomean
    of those means across the suite's workloads.  Cells of other suites
    and of strategies outside the paper's six (``cu-opt``) are ignored.
    Raises :class:`ValueError` naming every failed cell it would
    aggregate: a failed cell is never dropped from a geomean.
    """
    names = SUITE_WORKLOADS[suite]
    samples: Dict[str, Dict[str, List[float]]] = {}
    failed: List[str] = []
    for cell in cells:
        if cell["workload"] not in names or cell["strategy"] not in _STRATEGY_NAMES:
            continue
        if cell["error"] is not None:
            failed.append(f"{cell['workload']}/{cell['strategy']}: {cell['error']}")
            continue
        per_strategy = samples.setdefault(cell["workload"], {})
        per_strategy.setdefault(cell["strategy"], []).append(cell[metric])
    if failed:
        raise ValueError("failed sweep cell(s): " + "; ".join(failed))
    factors: Factors = {
        workload: {
            strategy: confidence_interval_95(samples[workload][strategy])
            for strategy in _STRATEGY_NAMES if strategy in samples[workload]
        }
        for workload in names if workload in samples
    }
    geomeans = {}
    for strategy in _STRATEGY_NAMES:
        means = [per[strategy].mean for per in factors.values() if strategy in per]
        if means:
            geomeans[strategy] = geomean(means)
    return factors, geomeans


def _chart(cells: Iterable[Dict[str, Any]], suite: str, metric: str,
           title: str) -> str:
    factors, geomeans = aggregate_cells(cells, metric, suite)
    return render_factor_chart(title, list(factors), list(geomeans),
                               factors, geomeans)


def render_fig2(cells: Iterable[Dict[str, Any]]) -> str:
    """Fig. 2: page-fault reduction on AWFY."""
    return _chart(cells, "awfy", "fault_factor",
                  "Figure 2: page-fault reduction (AWFY)")


def render_fig3(cells: Iterable[Dict[str, Any]]) -> str:
    """Fig. 3: page-fault reduction on microservices."""
    return _chart(cells, "micro", "fault_factor",
                  "Figure 3: page-fault reduction (microservices)")


def render_fig4(cells: Iterable[Dict[str, Any]]) -> str:
    """Fig. 4: execution-time speedup on microservices."""
    return _chart(cells, "micro", "speedup",
                  "Figure 4: time-to-first-response speedup (microservices)")


def render_fig5(cells: Iterable[Dict[str, Any]]) -> str:
    """Fig. 5: execution-time speedup on AWFY."""
    return _chart(cells, "awfy", "speedup",
                  "Figure 5: execution-time speedup (AWFY)")


def run_overhead_evaluation(
    awfy_names: Optional[List[str]] = None,
    micro_names: Optional[List[str]] = None,
) -> List[OverheadResult]:
    """Sec. 7.4: profiling overhead on both suites."""
    results: List[OverheadResult] = []
    awfy = awfy_suite()
    for name in awfy_names or list(awfy):
        results.append(profiling_overhead(awfy[name]))
    micro = microservice_suite()
    for name in micro_names or list(micro):
        results.append(profiling_overhead(micro[name]))
    return results


def render_overhead(results: List[OverheadResult]) -> str:
    """Sec. 7.4 table: tracing overhead factors per flavour."""
    rows = [
        [
            r.workload,
            r.dump_mode,
            f"{r.cu_overhead:.2f}x",
            f"{r.method_overhead:.2f}x",
            f"{r.heap_overhead:.2f}x",
        ]
        for r in results
    ]
    return render_table(
        "Sec. 7.4: profiling overhead (instrumented / regular time)",
        ["workload", "dump mode", "cu", "method", "heap (all 3 strategies)"],
        rows,
    )


def run_fig6(workload: Optional[Workload] = None, seed: int = 1) -> str:
    """Fig. 6: .text page maps of AWFY Bounce, regular vs cu-optimized."""
    workload = workload or awfy_suite()["Bounce"]
    title = f"Figure 6: .text page map, AWFY {workload.name}"
    return "\n".join([title, "=" * len(title),
                      compare_page_maps(*layout_page_maps(workload,
                                                          seed=seed))])
