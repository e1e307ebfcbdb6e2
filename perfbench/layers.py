"""Outside-in per-layer timing: wrappers around each layer's public calls.

:class:`LayerTracing` replaces the calls listed below with wrappers that
record a span (see :mod:`tracing`) and restores the originals on
:meth:`~LayerTracing.uninstall`.  Nothing in the program changes; the
wrappers sit on module and class attributes, so they must be installed
before a sweep starts its pool — forked workers inherit them.

Layer (module)     wrapped call                                  span / leaf
-----------------  --------------------------------------------  ------------------
minijava           Workload.compile                              minijava.compile
graal              analyze, form_compilation_units (builder's)   graal.analyze/inline
image              NativeImageBuilder.build                      image.build
vm                 Interpreter.run, Interpreter.run_single       vm.run, vm.run_single
runtime            run_binary without a tracer (pipeline's)      runtime.measure
runtime            PageCache.touch                               leaf runtime.paging
profiling          run_binary with a PathTracer (pipeline's)     profiling.trace
postproc           build_profiles (pipeline's)                   postproc
ordering           order_compilation_units, match_and_order      ordering.order
ordering           synthesize_optimizer_profiles (pipeline's)    ordering.optimize
ordering           CostModel.faults                              leaf ordering.cost_model
cache              ArtifactCache.get / ArtifactCache.put         cache.get / cache.put
eval.scheduler     run_task, SweepScheduler.run                  sched.task / sched.sweep
eval.pipeline      WorkloadPipeline.cached_strategy_runs         pipeline.fast_path
api                NativeImageToolchain.optimize_and_compare     api.optimize_and_compare

``run_task`` and ``optimize_and_compare`` spans set the cell id
(``workload/strategy``) that every span opened inside them carries.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence

from tracing import Span, SpanRecorder, leaf_totals, self_times

import repro.eval.pipeline as pipeline_mod
import repro.eval.scheduler as scheduler_mod
import repro.image.builder as builder_mod
from repro.api import NativeImageToolchain
from repro.cache import ALL_KINDS, ArtifactCache
from repro.image.binary import MODE_INSTRUMENTED, MODE_OPTIMIZED, MODE_REGULAR
from repro.ordering.optimize import CostModel
from repro.runtime.paging import PageCache
from repro.vm.interpreter import Interpreter

VM_SPANS = ("vm.run", "vm.run_single")

#: program phase (``phase.<name>`` in the metrics registry) -> the span
#: that counts the same calls from outside; the agreement gate compares them
PHASE_SPANS = {
    "compile": "minijava.compile",
    "build": "image.build",
    "trace": "profiling.trace",
    "post-process": "postproc",
    "optimize": "ordering.optimize",
    "measure": "runtime.measure",
}

#: attribute a task's spans travel on, from a worker back to the parent
_SHIPPED = "perfbench_spans"


class LayerTracing:
    """Installs the per-layer wrappers; one instance per traced part."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[tuple] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        span, leaf = self._span, self._leaf
        self._patch(pipeline_mod.Workload, "compile", span(
            "minijava.compile",
            lambda a, kw, r: {"kb": len(a[0].source.encode()) / 1024}))
        self._patch(builder_mod, "analyze", span("graal.analyze"))
        self._patch(builder_mod, "form_compilation_units",
                    span("graal.inline"))
        self._patch(builder_mod.NativeImageBuilder, "build", span(
            "image.build", lambda a, kw, r: {"mode": r.mode}))
        self._patch(Interpreter, "run", self._vm("vm.run"))
        self._patch(Interpreter, "run_single", self._vm("vm.run_single"))
        self._patch(pipeline_mod, "run_binary", self._run_binary)
        self._patch(PageCache, "touch", leaf("runtime.paging"))
        self._patch(pipeline_mod, "build_profiles", span(
            "postproc",
            lambda a, kw, r: {"kb": sum(len(f) for f in a[1]) / 1024}))
        self._patch(builder_mod, "order_compilation_units",
                    span("ordering.order"))
        self._patch(builder_mod, "match_and_order", span("ordering.order"))
        self._patch(pipeline_mod, "synthesize_optimizer_profiles",
                    span("ordering.optimize"))
        self._patch(CostModel, "faults", leaf("ordering.cost_model"))
        self._patch(ArtifactCache, "get", span(
            "cache.get", lambda a, kw, r: {"kind": a[1],
                                           "hit": r is not None}))
        self._patch(ArtifactCache, "put", span("cache.put", _put_attrs))
        self._patch(NativeImageToolchain, "optimize_and_compare",
                    self._compare)
        self._patch(scheduler_mod, "run_task", self._run_task)
        self._patch(scheduler_mod.SweepScheduler, "run", self._sweep)
        self._patch(pipeline_mod.WorkloadPipeline, "cached_strategy_runs",
                    span("pipeline.fast_path",
                         lambda a, kw, r: {"hit": r is not None}))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    # -- wrapper factories -----------------------------------------------------

    def _span(self, name: str,
              describe: Optional[Callable[..., Dict[str, Any]]] = None):
        recorder = self.recorder

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = recorder.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = recorder.close(frame)
                if describe is not None:
                    span["attrs"] = describe(args, kwargs, result)
                return result
            return wrapper
        return make

    def _leaf(self, name: str):
        recorder = self.recorder
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.leaf(name, clock() - start)
            return wrapper
        return make

    def _vm(self, name: str):
        recorder = self.recorder

        def make(fn):
            def wrapper(interp, *args, **kwargs):
                # A <clinit> run can trigger another class's <clinit> on
                # the same interpreter; its ops already count in the
                # outer call, so only the outermost call reports ops.
                nested = recorder.top_name() in VM_SPANS
                before = interp.ops_executed
                frame = recorder.open(name)
                try:
                    return fn(interp, *args, **kwargs)
                finally:
                    span = recorder.close(frame)
                    span["attrs"] = {
                        "ops": 0 if nested else interp.ops_executed - before}
            return wrapper
        return make

    def _run_binary(self, fn):
        recorder = self.recorder

        def wrapper(binary, config=None, tracer=None, run_index=0):
            frame = recorder.open("runtime.measure" if tracer is None
                                  else "profiling.trace")
            try:
                metrics = fn(binary, config, tracer=tracer,
                             run_index=run_index)
            finally:
                span = recorder.close(frame)
            if tracer is None:
                span["attrs"] = {"faults": metrics.total_faults}
            else:
                stats = tracer.session.total_stats()
                span["attrs"] = {"kb": stats.bytes_written / 1024,
                                 "lost": stats.lost_records}
            return metrics
        return wrapper

    def _compare(self, fn):
        recorder = self.recorder

        def wrapper(toolchain, strategy="cu+heap path", seed=0):
            with recorder.cell_scope(f"{toolchain.workload.name}/{strategy}"):
                frame = recorder.open("api.optimize_and_compare")
                try:
                    return fn(toolchain, strategy, seed)
                finally:
                    recorder.close(frame)
        return wrapper

    def _run_task(self, fn):
        recorder = self.recorder

        def wrapper(task, config, attempt=0, allow_hard_crash=False):
            mark = recorder.mark()
            cell = f"{task.workload.name}/{task.strategy_name}"
            with recorder.cell_scope(cell):
                frame = recorder.open("sched.task")
                try:
                    result = fn(task, config, attempt=attempt,
                                allow_hard_crash=allow_hard_crash)
                finally:
                    recorder.close(frame)
            # The result pickles back to the parent with its spans; the
            # sweep wrapper below merges them there.
            setattr(result, _SHIPPED, recorder.take(mark))
            return result
        return wrapper

    def _sweep(self, fn):
        recorder = self.recorder

        def wrapper(scheduler, *args, **kwargs):
            frame = recorder.open("sched.sweep")
            try:
                sweep = fn(scheduler, *args, **kwargs)
            finally:
                span = recorder.close(frame)
            span["attrs"] = {"workers": sweep.workers}
            for task in sweep.tasks:
                recorder.absorb(task.__dict__.pop(_SHIPPED, ()))
            return sweep
        return wrapper


def _put_attrs(args, kwargs, written) -> Dict[str, Any]:
    # The written payload's size is read back from the store's entry file;
    # pickling the value again here would double the cost being measured.
    cache, kind, key = args[0], args[1], args[2]
    kb = cache._entry_path(kind, key).stat().st_size / 1024 if written else 0
    return {"kind": kind, "written": bool(written), "kb": kb}


# -- per-layer metrics ----------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("minijava.compile.calls", "count", "lower"),
    ("minijava.compile.self_s", "s", "lower"),
    ("minijava.compile.kb_per_s", "KB/s", "higher"),
    ("graal.analyze.self_s", "s", "lower"),
    ("graal.inline.self_s", "s", "lower"),
    ("image.build.regular.calls", "count", "lower"),
    ("image.build.instrumented.calls", "count", "lower"),
    ("image.build.optimized.calls", "count", "lower"),
    ("image.build.self_s", "s", "lower"),
    ("vm.calls", "count", "lower"),
    ("vm.ops", "count", "lower"),
    ("vm.self_s", "s", "lower"),
    ("vm.ops_per_s", "1/s", "higher"),
    ("runtime.measure.calls", "count", "lower"),
    ("runtime.measure.self_s", "s", "lower"),
    ("runtime.paging.touches", "count", "lower"),
    ("runtime.paging.self_s", "s", "lower"),
    ("runtime.faults", "count", "lower"),
    ("profiling.trace.calls", "count", "lower"),
    ("profiling.trace.self_s", "s", "lower"),
    ("profiling.trace.kb", "KB", "lower"),
    ("profiling.lost_records", "count", "lower"),
    ("postproc.calls", "count", "lower"),
    ("postproc.self_s", "s", "lower"),
    ("postproc.kb_per_s", "KB/s", "higher"),
    ("ordering.order.self_s", "s", "lower"),
    ("ordering.optimize.calls", "count", "lower"),
    ("ordering.optimize.self_s", "s", "lower"),
    ("ordering.cost_model.evals", "count", "lower"),
    ("ordering.cost_model.evals_per_s", "1/s", "higher"),
]
PER_LAYER += [(f"cache.{op}.{kind}.{stat}", unit, "lower")
              for op in ("get", "put") for kind in ALL_KINDS
              for stat, unit in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [
    ("cache.get.hit_ratio", "ratio", "higher"),
    ("cache.put.written_ratio", "ratio", "higher"),
    ("cache.put.kb", "KB", "lower"),
    ("sched.tasks", "count", "lower"),
    ("sched.task.self_s", "s", "lower"),
    ("sched.sweep.wall_s", "s", "lower"),
    ("sched.utilization", "ratio", "higher"),
    ("pipeline.fast_path.hit_ratio", "ratio", "higher"),
    ("trace.overhead_x", "x", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], units: int,
                  overhead_x: float) -> Dict[str, float]:
    """Every per-layer metric from the traced part's merged spans.

    Counts, self times and sizes are per unit of work (one sweep, warm
    pass or round of programs), so runs of different length compare;
    rates and ratios are over the whole traced part.
    """
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    leaves = leaf_totals(spans)

    def calls(*names: str) -> float:
        return sum(len(by_name[n]) for n in names) / units

    def self_s(*names: str, where: Callable[[Span], bool] = None) -> float:
        return sum(own[s["id"]] for n in names for s in by_name[n]
                   if where is None or where(s)) / units

    def attr_sum(name: str, attr: str) -> float:
        return sum(s["attrs"].get(attr, 0) for s in by_name[name])

    def count_where(name: str, where: Callable[[Span], bool]) -> int:
        return sum(1 for s in by_name[name] if where(s))

    paging_calls, paging_s = leaves.get("runtime.paging", (0, 0.0))
    evals, evals_s = leaves.get("ordering.cost_model", (0, 0.0))
    vm_ops = attr_sum("vm.run", "ops") + attr_sum("vm.run_single", "ops")
    sweep_capacity = sum((s["end"] - s["start"]) * s["attrs"]["workers"]
                         for s in by_name["sched.sweep"])
    gets, puts = by_name["cache.get"], by_name["cache.put"]
    out = {
        "minijava.compile.calls": calls("minijava.compile"),
        "minijava.compile.self_s": self_s("minijava.compile"),
        "minijava.compile.kb_per_s": _ratio(
            attr_sum("minijava.compile", "kb"),
            self_s("minijava.compile") * units),
        "graal.analyze.self_s": self_s("graal.analyze"),
        "graal.inline.self_s": self_s("graal.inline"),
        "image.build.self_s": self_s("image.build"),
        "vm.calls": calls(*VM_SPANS),
        "vm.ops": vm_ops / units,
        "vm.self_s": self_s(*VM_SPANS),
        "vm.ops_per_s": _ratio(vm_ops, self_s(*VM_SPANS) * units),
        "runtime.measure.calls": calls("runtime.measure"),
        "runtime.measure.self_s": self_s("runtime.measure"),
        "runtime.paging.touches": paging_calls / units,
        "runtime.paging.self_s": paging_s / units,
        "runtime.faults": attr_sum("runtime.measure", "faults") / units,
        "profiling.trace.calls": calls("profiling.trace"),
        "profiling.trace.self_s": self_s("profiling.trace"),
        "profiling.trace.kb": attr_sum("profiling.trace", "kb") / units,
        "profiling.lost_records": attr_sum("profiling.trace", "lost") / units,
        "postproc.calls": calls("postproc"),
        "postproc.self_s": self_s("postproc"),
        "postproc.kb_per_s": _ratio(attr_sum("postproc", "kb"),
                                    self_s("postproc") * units),
        "ordering.order.self_s": self_s("ordering.order"),
        "ordering.optimize.calls": calls("ordering.optimize"),
        "ordering.optimize.self_s": self_s("ordering.optimize"),
        "ordering.cost_model.evals": evals / units,
        "ordering.cost_model.evals_per_s": _ratio(evals, evals_s),
        "cache.get.hit_ratio": _ratio(
            count_where("cache.get", lambda s: s["attrs"].get("hit")),
            len(gets)),
        "cache.put.written_ratio": _ratio(
            count_where("cache.put", lambda s: s["attrs"].get("written")),
            len(puts)),
        "cache.put.kb": attr_sum("cache.put", "kb") / units,
        "sched.tasks": calls("sched.task"),
        "sched.task.self_s": self_s("sched.task"),
        "sched.sweep.wall_s": sum(s["end"] - s["start"]
                                  for s in by_name["sched.sweep"]) / units,
        "sched.utilization": _ratio(
            sum(s["end"] - s["start"] for s in by_name["sched.task"]),
            sweep_capacity),
        "pipeline.fast_path.hit_ratio": _ratio(
            count_where("pipeline.fast_path",
                        lambda s: s["attrs"].get("hit")),
            len(by_name["pipeline.fast_path"])),
        "trace.overhead_x": overhead_x,
    }
    for mode in (MODE_REGULAR, MODE_INSTRUMENTED, MODE_OPTIMIZED):
        out[f"image.build.{mode}.calls"] = count_where(
            "image.build", lambda s: s["attrs"].get("mode") == mode) / units
    for op, group in (("get", gets), ("put", puts)):
        for kind in ALL_KINDS:
            of_kind = lambda s, kind=kind: s["attrs"].get("kind") == kind
            out[f"cache.{op}.{kind}.calls"] = sum(
                1 for s in group if of_kind(s)) / units
            out[f"cache.{op}.{kind}.self_s"] = self_s(
                f"cache.{op}", where=of_kind)
    return {name: out[name] for name, _unit, _better in PER_LAYER}


def agreement_problems(spans: Sequence[Span],
                       phase_counts: Dict[str, int]) -> List[str]:
    """Where outside-in call counts disagree with the program's own
    ``phase.*`` counts over the same traced part (empty = agreement)."""
    counted = Counter(span["name"] for span in spans)
    return [f"phase.{phase}: program counted {phase_counts.get(phase, 0)}, "
            f"benchmark counted {counted[name]} {name} calls"
            for phase, name in PHASE_SPANS.items()
            if counted[name] != phase_counts.get(phase, 0)]
