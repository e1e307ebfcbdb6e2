"""Figure generators: regenerate every table/figure of the evaluation.

One evaluation run of a suite feeds two figures (page faults + speedups),
exactly as in the paper.  Each ``render_*`` function prints the same
rows/series the paper reports: per-workload factors with 95% CIs and the
geometric mean.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..workloads.awfy.suite import awfy_suite
from ..workloads.microservices.suite import microservice_suite
from .experiments import (
    ExperimentConfig,
    OverheadResult,
    SuiteResult,
    evaluate_suite,
    profiling_overhead,
)
from .pipeline import PAPER_STRATEGY_SPECS, Workload, WorkloadPipeline
from .plotting import render_factor_chart, render_table
from .textmap import compare_page_maps, text_page_map

# Paper figures reproduce the paper: only its six strategies appear
# (the cu-opt optimizer strategy is reported via the bench optimize phase
# and EXPERIMENTS.md instead).
_STRATEGY_NAMES = [spec.name for spec in PAPER_STRATEGY_SPECS]


def run_awfy_evaluation(
    config: Optional[ExperimentConfig] = None,
    names: Optional[List[str]] = None,
) -> SuiteResult:
    """Evaluate the AWFY suite (feeds Fig. 2 and Fig. 5)."""
    workloads = awfy_suite()
    if names:
        workloads = {name: workloads[name] for name in names}
    return evaluate_suite(workloads, "AWFY", config)


def run_microservice_evaluation(
    config: Optional[ExperimentConfig] = None,
    names: Optional[List[str]] = None,
) -> SuiteResult:
    """Evaluate the microservice suite (feeds Fig. 3 and Fig. 4)."""
    workloads = microservice_suite()
    if names:
        workloads = {name: workloads[name] for name in names}
    return evaluate_suite(workloads, "microservices", config)


def _chart(suite: SuiteResult, title: str, metric: str) -> str:
    factors: Dict[str, Dict] = {}
    for workload in suite.workloads:
        factors[workload.workload] = {
            name: (
                result.fault_factor if metric == "faults" else result.speedup
            )
            for name, result in workload.strategies.items()
        }
    geomeans = {
        name: (
            suite.geomean_fault_factor(name)
            if metric == "faults"
            else suite.geomean_speedup(name)
        )
        for name in _STRATEGY_NAMES
        if any(name in w.strategies for w in suite.workloads)
    }
    names = [w.workload for w in suite.workloads]
    present = [
        s for s in _STRATEGY_NAMES if any(s in w.strategies for w in suite.workloads)
    ]
    return render_factor_chart(title, names, present, factors, geomeans)


def render_fig2(suite: SuiteResult) -> str:
    """Fig. 2: page-fault reduction on AWFY."""
    return _chart(suite, "Figure 2: page-fault reduction (AWFY)", "faults")


def render_fig3(suite: SuiteResult) -> str:
    """Fig. 3: page-fault reduction on microservices."""
    return _chart(suite, "Figure 3: page-fault reduction (microservices)", "faults")


def render_fig4(suite: SuiteResult) -> str:
    """Fig. 4: execution-time speedup on microservices."""
    return _chart(suite, "Figure 4: time-to-first-response speedup (microservices)",
                  "speedup")


def render_fig5(suite: SuiteResult) -> str:
    """Fig. 5: execution-time speedup on AWFY."""
    return _chart(suite, "Figure 5: execution-time speedup (AWFY)", "speedup")


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
    pipeline = WorkloadPipeline(workload)
    regular = pipeline.build_baseline(seed=seed)
    outcome = pipeline.profile(seed=seed)
    from .pipeline import STRATEGY_CU

    optimized = pipeline.build_optimized(outcome.profiles, STRATEGY_CU, seed=seed + 1)
    regular_map = text_page_map(regular, pipeline.exec_config)
    optimized_map = text_page_map(optimized, pipeline.exec_config)
    title = f"Figure 6: .text page map, AWFY {workload.name}"
    return "\n".join([title, "=" * len(title),
                      compare_page_maps(regular_map, optimized_map)])
