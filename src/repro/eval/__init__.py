"""Evaluation harness: pipelines, sweeps, figures, visualizations."""

from .experiments import profiling_overhead
from .pagemap import PageMap, compare_page_maps, layout_page_maps, page_map
from .sweeps import ballast_sweep, page_size_sweep, render_sweep

from .bench import BenchConfig, run_bench
from .chaosrun import ChaosOutcome, check_identity, run_chaos
from .scheduler import (
    EvalTask,
    RetryPolicy,
    SchedulerConfig,
    SweepHealthReport,
    SweepResult,
    SweepScheduler,
    TaskResult,
    task_seed,
)

from .pipeline import (
    ALL_STRATEGY_SPECS,
    STRATEGY_COMBINED,
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    STRATEGY_INCREMENTAL,
    STRATEGY_METHOD,
    STRATEGY_STRUCTURAL,
    StrategySpec,
    Workload,
    WorkloadPipeline,
)

__all__ = [
    "profiling_overhead",
    "BenchConfig", "run_bench",
    "ChaosOutcome", "check_identity", "run_chaos",
    "EvalTask", "RetryPolicy", "SchedulerConfig", "SweepHealthReport",
    "SweepResult", "SweepScheduler", "TaskResult", "task_seed",
    "PageMap", "compare_page_maps", "layout_page_maps", "page_map",
    "ballast_sweep", "page_size_sweep", "render_sweep",
    "ALL_STRATEGY_SPECS", "STRATEGY_COMBINED", "STRATEGY_CU",
    "STRATEGY_HEAP_PATH", "STRATEGY_INCREMENTAL", "STRATEGY_METHOD",
    "STRATEGY_STRUCTURAL", "StrategySpec", "Workload", "WorkloadPipeline",
]
