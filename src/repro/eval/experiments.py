"""Experiment definitions: one function per table/figure of the paper.

* Fig. 2 — page-fault reduction on AWFY (``page_fault_experiment``)
* Fig. 3 — page-fault reduction on microservices (same, micro suite)
* Fig. 4 — execution-time speedup on microservices (``speedup`` columns)
* Fig. 5 — execution-time speedup on AWFY
* Sec. 7.4 — profiling overhead (``profiling_overhead_experiment``)
* Fig. 6 — ``.text`` page map (:mod:`repro.eval.textmap`)

Methodology mirrors Sec. 7.1: per strategy we build ``n_builds`` images
with different build seeds, run each ``n_runs`` times with cold caches, and
report the factor ``M_baseline / M_optimized`` (higher is better) with a
95% CI across builds, plus the geometric mean across workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..image.sections import HEAP_SECTION, TEXT_SECTION
from ..util.stats import ConfidenceInterval, confidence_interval_95, geomean, mean
from .pipeline import (
    PAPER_STRATEGY_SPECS,
    StrategySpec,
    Workload,
    WorkloadPipeline,
    metric_for_strategy,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """How much measurement to do (paper: 10 builds x 10 runs)."""

    n_builds: int = 3
    n_runs: int = 3
    #: the paper's figures evaluate its six strategies; pass
    #: ``STRATEGY_CU_OPT`` explicitly to put it on the same axes
    strategies: Sequence[StrategySpec] = PAPER_STRATEGY_SPECS
    #: base of the per-build seed sequence
    seed_base: int = 1


@dataclass
class StrategyResult:
    """Per-workload, per-strategy factors."""

    strategy: str
    fault_factor: ConfidenceInterval
    speedup: ConfidenceInterval
    #: per-build factor samples (diagnostics / plotting)
    fault_samples: List[float] = field(default_factory=list)
    speedup_samples: List[float] = field(default_factory=list)


@dataclass
class WorkloadResult:
    workload: str
    microservice: bool
    baseline_faults: Dict[str, float] = field(default_factory=dict)
    baseline_time_s: float = 0.0
    strategies: Dict[str, StrategyResult] = field(default_factory=dict)


@dataclass
class SuiteResult:
    """All workloads of one suite (AWFY or microservices)."""

    suite: str
    workloads: List[WorkloadResult] = field(default_factory=list)

    def geomean_fault_factor(self, strategy: str) -> float:
        values = [
            w.strategies[strategy].fault_factor.mean
            for w in self.workloads
            if strategy in w.strategies
        ]
        return geomean(values) if values else float("nan")

    def geomean_speedup(self, strategy: str) -> float:
        values = [
            w.strategies[strategy].speedup.mean
            for w in self.workloads
            if strategy in w.strategies
        ]
        return geomean(values) if values else float("nan")


def evaluate_workload(
    workload: Workload,
    config: Optional[ExperimentConfig] = None,
    pipeline: Optional[WorkloadPipeline] = None,
) -> WorkloadResult:
    """Run the full strategy matrix on one workload."""
    config = config or ExperimentConfig()
    pipeline = pipeline or WorkloadPipeline(workload)
    result = WorkloadResult(workload=workload.name, microservice=workload.microservice)

    per_strategy_fault_factors: Dict[str, List[float]] = {
        s.name: [] for s in config.strategies
    }
    per_strategy_speedups: Dict[str, List[float]] = {s.name: [] for s in config.strategies}
    base_fault_totals: List[Dict[str, int]] = []
    base_times: List[float] = []

    for build in range(config.n_builds):
        seed = config.seed_base + build * 7
        baseline = pipeline.build_baseline(seed=seed)
        base_runs = pipeline.measure(baseline, config.n_runs, seed=seed)
        # Profile with the *instrumented* build of this seed.
        outcome = pipeline.profile(seed=seed + 1)

        for spec in config.strategies:
            optimized = pipeline.build_optimized(outcome.profiles, spec, seed=seed + 2)
            opt_runs = pipeline.measure(optimized, config.n_runs, seed=seed + 3)

            base = [metric_for_strategy(m, spec, workload.microservice)
                    for m in base_runs]
            opt = [metric_for_strategy(m, spec, workload.microservice)
                   for m in opt_runs]
            base_faults = mean([m["faults"] for m in base])
            base_time = mean([m["time_s"] for m in base])
            opt_faults = mean([m["faults"] for m in opt])
            opt_time = mean([m["time_s"] for m in opt])
            fault_factor = base_faults / opt_faults if opt_faults else float(base_faults or 1.0)
            per_strategy_fault_factors[spec.name].append(fault_factor)
            per_strategy_speedups[spec.name].append(base_time / opt_time)

        for metrics in base_runs:
            if workload.microservice and metrics.first_response_faults is not None:
                base_fault_totals.append(metrics.first_response_faults)
                base_times.append(metrics.first_response_time_s or metrics.time_s)
            else:
                base_fault_totals.append(metrics.faults)
                base_times.append(metrics.time_s)

    result.baseline_faults = {
        TEXT_SECTION: mean([f.get(TEXT_SECTION, 0) for f in base_fault_totals]),
        HEAP_SECTION: mean([f.get(HEAP_SECTION, 0) for f in base_fault_totals]),
    }
    result.baseline_time_s = mean(base_times)
    for spec in config.strategies:
        fault_samples = per_strategy_fault_factors[spec.name]
        speed_samples = per_strategy_speedups[spec.name]
        result.strategies[spec.name] = StrategyResult(
            strategy=spec.name,
            fault_factor=confidence_interval_95(fault_samples),
            speedup=confidence_interval_95(speed_samples),
            fault_samples=fault_samples,
            speedup_samples=speed_samples,
        )
    return result


def evaluate_suite(
    workloads: Dict[str, Workload],
    suite_name: str,
    config: Optional[ExperimentConfig] = None,
) -> SuiteResult:
    """Evaluate every workload of a suite."""
    suite = SuiteResult(suite=suite_name)
    for name in workloads:
        suite.workloads.append(evaluate_workload(workloads[name], config))
    return suite


# ---------------------------------------------------------------------------
# Sec. 7.4: profiling overhead
# ---------------------------------------------------------------------------


@dataclass
class OverheadResult:
    """Per-workload instrumented/regular time ratios, per tracing flavour."""

    workload: str
    cu_overhead: float
    method_overhead: float
    heap_overhead: float
    dump_mode: str


def profiling_overhead(
    workload: Workload, pipeline: Optional[WorkloadPipeline] = None, seed: int = 1
) -> OverheadResult:
    """Model the per-flavour tracing overhead from one instrumented run.

    The emitted instrumentation is the same for all heap strategies, so a
    single overhead number covers incremental id/structural hash/heap path
    (Sec. 7.4).  Flavours differ in which probes they need: *cu* only CU
    entries, *method* all method entries, *heap* paths + object IDs.
    """
    pipeline = pipeline or WorkloadPipeline(workload)
    exec_config = pipeline.exec_config
    baseline = pipeline.build_baseline(seed=seed)
    base = pipeline.measure(baseline, 1, seed=seed)[0]
    outcome = pipeline.profile(seed=seed)
    counts = outcome.instrumented_metrics.trace_event_counts
    instrumented = outcome.instrumented_metrics

    if workload.microservice and instrumented.first_response_time_s is not None:
        instr_plain = instrumented.first_response_time_s
        base_time = base.first_response_time_s or base.time_s
    else:
        instr_plain = instrumented.time_s
        base_time = base.time_s

    # Decompose the instrumented time into probe flavours.
    per_record = counts.get("path_records", 0) * exec_config.probe_record_s
    dump_cost = counts.get("dumps", 0) * exec_config.dump_cost_s
    mmap_cost = counts.get("mmap_writes", 0) * exec_config.mmap_write_through_s
    io_cost = dump_cost + mmap_cost

    cu_cost = counts.get("cu_entries", 0) * exec_config.probe_method_entry_s
    method_cost = counts.get("method_entries", 0) * exec_config.probe_method_entry_s
    heap_cost = (
        counts.get("blocks", 0) * exec_config.probe_block_s
        + counts.get("heap_ids", 0) * exec_config.probe_heap_id_s
        + per_record
    )
    all_probe = cu_cost + method_cost + heap_cost + per_record
    # An instrumented build is never faster than the regular one in practice
    # (its code is strictly larger), so floor the de-probed core time.
    core_time = max(instr_plain - all_probe - io_cost, base_time)

    def ratio(flavour_cost: float) -> float:
        return (core_time + flavour_cost + io_cost) / base_time

    return OverheadResult(
        workload=workload.name,
        cu_overhead=ratio(cu_cost),
        method_overhead=ratio(method_cost),
        heap_overhead=ratio(heap_cost),
        dump_mode="mmap" if workload.microservice else "dump-on-full",
    )


def quick_config(strategies: Optional[Sequence[StrategySpec]] = None) -> ExperimentConfig:
    """A fast configuration for tests and CI-sized runs."""
    return ExperimentConfig(
        n_builds=1, n_runs=1, strategies=tuple(strategies or PAPER_STRATEGY_SPECS)
    )


def paper_config() -> ExperimentConfig:
    """Closer to the paper's 10x10 methodology (still laptop-friendly)."""
    return ExperimentConfig(n_builds=5, n_runs=3)
