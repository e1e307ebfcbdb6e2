"""Parameter sweeps: sensitivity studies beyond the paper's figures.

* :func:`page_size_sweep` — the paper evaluates 4 KiB pages; larger pages
  coarsen the fault granularity and shrink the ordering win (relevant for
  16 KiB ARM kernels and hugepage-backed file systems).
* :func:`ballast_sweep` — how the factors scale with the amount of
  runtime-library code the points-to analysis drags in (bigger images →
  more to win by moving the executed slice together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..runtime.executor import run_binary
from ..runtime.paging import PageCache
from ..util.stats import ratio_factor
from ..workloads.awfy.suite import awfy_workload
from .pipeline import STRATEGY_COMBINED, StrategySpec, Workload, WorkloadPipeline


@dataclass
class SweepPoint:
    """One configuration's baseline-vs-optimized outcome."""

    label: str
    baseline_faults: int
    optimized_faults: int
    speedup: float

    @property
    def fault_factor(self) -> float:
        return ratio_factor(self.baseline_faults, self.optimized_faults)


def _measure_pair(pipeline: WorkloadPipeline, strategy: StrategySpec,
                  seed: int, page_size: Optional[int] = None) -> SweepPoint:
    baseline = pipeline.build_baseline(seed=seed)
    outcome = pipeline.profile(seed=seed)
    optimized = pipeline.build_optimized(outcome.profiles, strategy, seed=seed + 1)

    if page_size is None:
        base = pipeline.measure(baseline, 1)[0]
        opt = pipeline.measure(optimized, 1)[0]
    else:
        base = _run_with_page_size(pipeline, baseline, page_size)
        opt = _run_with_page_size(pipeline, optimized, page_size)
    return SweepPoint(
        label="",
        baseline_faults=base.total_faults,
        optimized_faults=opt.total_faults,
        speedup=(base.first_response_time_s or base.time_s)
        / (opt.first_response_time_s or opt.time_s),
    )


def _run_with_page_size(pipeline: WorkloadPipeline, binary, page_size: int):
    """Run with a non-default page size by monkey-wiring the page cache."""
    original = PageCache.__init__

    def patched(self, *args, **kwargs):  # pragma: no cover - thin shim
        original(self, *args, **kwargs)
        self.page_size = page_size

    PageCache.__init__ = patched
    try:
        return run_binary(binary, pipeline.exec_config)
    finally:
        PageCache.__init__ = original


def page_size_sweep(
    workload: Optional[Workload] = None,
    page_sizes: Optional[List[int]] = None,
    strategy: StrategySpec = STRATEGY_COMBINED,
    seed: int = 1,
) -> List[SweepPoint]:
    """Fault factors of one strategy under different page sizes."""
    workload = workload or awfy_workload("Bounce")
    points = []
    for page_size in page_sizes or [4096, 16384, 65536]:
        pipeline = WorkloadPipeline(workload)
        point = _measure_pair(pipeline, strategy, seed, page_size=page_size)
        point.label = f"{page_size // 1024} KiB pages"
        points.append(point)
    return points


def ballast_sweep(
    benchmark: str = "Bounce",
    subsystem_counts: Optional[List[int]] = None,
    strategy: StrategySpec = STRATEGY_COMBINED,
    seed: int = 1,
) -> List[SweepPoint]:
    """Fault factors as the runtime-library ballast grows."""
    points = []
    for subsystems in subsystem_counts or [4, 8, 12, 20]:
        workload = awfy_workload(benchmark, ballast_subsystems=subsystems)
        pipeline = WorkloadPipeline(workload)
        point = _measure_pair(pipeline, strategy, seed)
        point.label = f"{subsystems} runtime subsystems"
        points.append(point)
    return points


def render_sweep(title: str, points: List[SweepPoint]) -> str:
    from .plotting import render_table

    rows = [
        [
            p.label,
            str(p.baseline_faults),
            str(p.optimized_faults),
            f"{p.fault_factor:.2f}x",
            f"{p.speedup:.2f}x",
        ]
        for p in points
    ]
    return render_table(
        title,
        ["configuration", "baseline faults", "optimized faults", "factor", "speedup"],
        rows,
    )
