"""Sec. 7.4: the profiling-overhead model.

:func:`profiling_overhead` decomposes one instrumented run's time into
its probe flavours (cu, method, heap) and reports each flavour's
instrumented/regular time ratio.  The page-fault and speedup figures
(Figs. 2-5) are not measured here: they aggregate scheduler sweep cells
(:mod:`repro.eval.figures`), and Fig. 6 is :mod:`repro.eval.pagemap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pipeline import Workload, WorkloadPipeline


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
