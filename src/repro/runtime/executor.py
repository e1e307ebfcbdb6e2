"""Binary executor: runs a built image and measures startup behavior.

This is the measurement harness of the reproduction.  It wires the
interpreter's hooks to the paging simulator:

* entering a method touches the code bytes of the copy that executes — the
  inlined copy inside the caller's CU, or the method's own CU after a
  non-inlined call (plus the CU prologue);
* field/array/static accesses touch the accessed object's ``.svm_heap``
  pages; string-literal and folded constants touch their interned objects;
* startup touches the entry CU and the first pages of the native-library
  blob (libc initialization), which the ordering strategies cannot move
  (paper Appendix A).

The time model is ``base + ops * t_op + faults * device_latency (+ probe
costs for instrumented runs)``: startup of short-running workloads is
I/O-dominated, so layout quality shows up in time the way it does in the
paper.

Every run records its distinct touches in first-touch order
(:attr:`RunMetrics.touches`).  Pages are never evicted, so replaying that
record through a fresh page cache (:func:`replay_touches`) reproduces the
run's faults exactly; page maps, attribution and the ``cu-opt`` cost model
(:func:`text_touches`) are views of that replay, not runs of their own.

The layouts of one prepared image run the same program over the same CUs
and heap values, so their runs touch the same code and objects in the
same order; only the addresses differ.  :func:`layout_free_touches`
names each touch without its layout (CU and CU-relative offset, object
origin), :func:`placed_touches` places such a stream in another layout,
and :func:`derived_run` rebuilds every field of that layout's run from
one real run.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..image.binary import NativeImageBinary, RuntimeImage
from ..image.sections import HEAP_SECTION, PAGE_SIZE, TEXT_SECTION
from ..obs import metrics as obs_metrics
from ..vm.interpreter import Frame, Interpreter, RuntimeHooks, ThreadState
from .paging import SSD, IoDevice, PageCache


@dataclass(frozen=True)
class ExecutionConfig:
    """Cost model and run-control knobs."""

    device: IoDevice = SSD
    op_time_s: float = 2e-9
    base_startup_s: float = 150e-6
    #: native-blob pages touched unconditionally during process startup
    startup_native_pages: int = 8
    stop_on_first_response: bool = False
    max_ops: int = 50_000_000
    quantum: int = 400
    #: kernel fault-around window (pages mapped per fault on each side);
    #: 0 = per-page accounting as in the paper's measurements
    fault_around_pages: int = 0
    #: relative measurement noise (std-dev); 0 = deterministic
    time_jitter: float = 0.0
    jitter_seed: int = 0
    # probe costs (instrumented runs; Sec. 7.4 overhead model).  Calibrated
    # so the per-flavour overhead factors land in the paper's regime
    # (~1.2x-3.7x, method > cu, mmap write-through > buffered dumps).
    probe_method_entry_s: float = 900e-9
    probe_block_s: float = 8e-9  # path increments are register adds
    probe_heap_id_s: float = 40e-9
    probe_record_s: float = 60e-9
    dump_cost_s: float = 40e-6
    mmap_write_through_s: float = 600e-9

    def fingerprint(self) -> str:
        """Stable content digest of the cost model and run-control knobs.

        Keys cached run metrics (and, via the probe-cost fields, cached
        profiling outcomes): changing any knob invalidates exactly the
        artifacts whose content it shapes.
        """
        from ..cache.keys import fingerprint
        return fingerprint(self)


def native_startup_pages(binary: NativeImageBinary,
                         config: ExecutionConfig) -> int:
    """Pages of the unmovable native blob every start faults in first."""
    return max(min(config.startup_native_pages,
                   binary.text.native_blob_size // PAGE_SIZE), 0)


def replay_touches(binary: NativeImageBinary, config: ExecutionConfig,
                   touches: Iterable[Tuple[str, int, int]] = (),
                   fault_around: Optional[int] = None) -> PageCache:
    """A cold page cache after process startup, then ``touches`` in order.

    Sets each section's page limit, faults in the native-blob pages
    process startup touches before ``main`` (see
    :func:`native_startup_pages`), then makes each ``(section, offset,
    size)`` touch.  With no touches this is the cache a run starts from;
    with a run's :attr:`RunMetrics.touches` it reproduces that run's
    faults exactly, and at any ``fault_around`` window (``None`` =
    ``config.fault_around_pages``) the pages that window maps.
    """
    if fault_around is None:
        fault_around = config.fault_around_pages
    cache = PageCache(fault_around=fault_around)
    # Fault-around must never map pages past a section's end.
    cache.set_limit(TEXT_SECTION, binary.text.size)
    cache.set_limit(HEAP_SECTION, binary.heap.size)
    pages = native_startup_pages(binary, config)
    if pages:
        cache.touch(TEXT_SECTION, binary.text.native_blob_offset,
                    pages * PAGE_SIZE)
    for section, offset, size in touches:
        cache.touch(section, offset, size)
    return cache


#: one touch as no layout shapes it, ``(section, unit, offset, size)``:
#: a ``.text`` touch names its CU and the offset in it, a ``.svm_heap``
#: touch the object's origin (a string: its value) at offset 0
LayoutFreeTouch = Tuple[str, Any, int, int]


def _heap_unit(obj) -> Any:
    """The name of a placed object every layout of its build shares."""
    return obj.value if isinstance(obj.value, str) else obj.origin


def layout_free_touches(
        binary: NativeImageBinary,
        touches: Iterable[Tuple[str, int, int]]) -> List[LayoutFreeTouch]:
    """``touches`` of a run of ``binary``, with its layout taken out.

    A ``.text`` touch becomes (CU name, CU-relative offset), a heap touch
    (always a whole object) the object's
    :attr:`~repro.image.heap.HeapObject.origin`, or its value for a
    string.  Sizes and order are kept, so :func:`placed_touches` over the
    same ``binary`` gives ``touches`` back.
    """
    placed = binary.text.placed
    starts = [cu.offset for cu in placed]
    objects = {obj.address: obj for obj in binary.heap.ordered}
    stream: List[LayoutFreeTouch] = []
    for section, offset, size in touches:
        if section == TEXT_SECTION:
            cu = placed[bisect_right(starts, offset) - 1]
            stream.append((section, cu.cu.name, offset - cu.offset, size))
        else:
            stream.append((section, _heap_unit(objects[offset]), 0, size))
    return stream


def placed_touches(binary: NativeImageBinary,
                   stream: Iterable[LayoutFreeTouch]
                   ) -> List[Tuple[str, int, int]]:
    """A layout-free ``stream`` at ``binary``'s addresses.

    The inverse of :func:`layout_free_touches` for any layout of the
    prepared image the stream was taken on.
    """
    bases = {
        TEXT_SECTION: {placed.cu.name: placed.offset
                       for placed in binary.text.placed},
        HEAP_SECTION: {_heap_unit(obj): obj.address
                       for obj in binary.heap.ordered},
    }
    return [(section, bases[section][unit] + offset, size)
            for section, unit, offset, size in stream]


def text_touches(binary: NativeImageBinary,
                 metrics: "RunMetrics") -> List[Tuple[str, int, int]]:
    """The distinct ``.text`` touches of one run of ``binary``.

    The ``.text`` view of the run's layout-free touches: each range the
    run touched, in first-touch order, as (CU name, CU-relative start,
    end), up to the first response when the run responded — the point a
    microservice's startup is measured at.  The native-blob startup pages
    are not included (see :func:`native_startup_pages`).
    """
    touched = metrics.touches
    if metrics.response_touches is not None:
        touched = touched[:metrics.response_touches]
    text = [touch for touch in touched if touch[0] == TEXT_SECTION]
    return [(unit, offset, offset + size)
            for _section, unit, offset, size
            in layout_free_touches(binary, text)]


@dataclass
class RunMetrics:
    """Everything one execution produced."""

    ops: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    time_s: float = 0.0
    output: List[str] = field(default_factory=list)
    result: Any = None
    #: set when the workload responded (microservices: time to first response)
    first_response_ops: Optional[int] = None
    first_response_faults: Optional[Dict[str, int]] = None
    first_response_time_s: Optional[float] = None
    trace_event_counts: Dict[str, int] = field(default_factory=dict)
    #: distinct (section, offset, size) touches in first-touch order, the
    #: native-blob startup pages excluded; :func:`replay_touches` turns
    #: them back into every page-level view of the run
    touches: List[Tuple[str, int, int]] = field(default_factory=list)
    #: how many of ``touches`` the run had made at its first response
    response_touches: Optional[int] = None

    @property
    def text_faults(self) -> int:
        return self.faults.get(TEXT_SECTION, 0)

    @property
    def heap_faults(self) -> int:
        return self.faults.get(HEAP_SECTION, 0)

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    def faults_at_response(self, section: str) -> int:
        source = self.first_response_faults or self.faults
        return source.get(section, 0)


class ExecHooks(RuntimeHooks):
    """Interpreter hooks charging page touches (and forwarding to a tracer)."""

    def __init__(
        self,
        binary: NativeImageBinary,
        cache: PageCache,
        config: ExecutionConfig,
        tracer: Optional[Any] = None,
    ) -> None:
        self._binary = binary
        self._cache = cache
        self._config = config
        self._tracer = tracer
        if tracer is not None:
            # The interpreter calls these for the tracer alone, so it calls
            # the tracer's own methods; entries and heap accesses go
            # through the methods below, one tracer call each.
            self.leaders_for = tracer.leaders_for
            self.on_block = tracer.on_block
            self.on_method_exit = tracer.on_method_exit
        self.interpreter: Optional[Interpreter] = None
        self.responded = False
        self.response_snapshot: Optional[Dict[str, int]] = None
        self.response_ops: Optional[int] = None
        self.response_touches: Optional[int] = None
        #: (id of caller CU, id of method) -> (the entered frame's CU, the
        #: CU's root signature when the entry runs its prologue, else None)
        self._entries: Dict[Tuple[int, int], Tuple[Any, Optional[str]]] = {}
        #: (section, offset, size) of every touch this run made, in
        #: first-touch order; pages stay resident, so repeating one can
        #: never fault again
        self._touched: Dict[Tuple[str, int, int], None] = {}

    def _touch(self, section: str, offset: int, size: int) -> None:
        key = (section, offset, size)
        if key not in self._touched:
            self._touched[key] = None
            self._cache.touch(section, offset, size)

    # -- code ------------------------------------------------------------------

    def on_method_enter(self, frame: Frame, caller: Optional[Frame],
                        thread: ThreadState) -> None:
        caller_cu = caller.context if caller is not None else None
        entry = self._entries.get((id(caller_cu), id(frame.method)))
        if entry is None:
            entry = self._first_entry(frame.method, caller_cu)
        frame.context, prologue_of = entry
        if self._tracer is not None:
            self._tracer.on_method_enter(frame, caller, prologue_of, thread)

    def _first_entry(self, method, caller_cu) -> Tuple[Any, Optional[str]]:
        """Locate and touch the code a call from ``caller_cu`` runs.

        Memoized per (caller CU, method): a repeated entry touches the
        same bytes again, which can never fault.
        """
        placed, member = self._binary.code_location(method, caller_cu)
        if placed is None:
            entry: Tuple[Any, Optional[str]] = (caller_cu, None)
        else:
            offset, size = placed.member_range(member)
            if placed is caller_cu:
                self._touch(TEXT_SECTION, offset, size)
                entry = (placed, None)
            else:
                # A non-inlined entry runs the CU prologue too.
                self._touch(TEXT_SECTION, placed.offset,
                            offset - placed.offset + size)
                entry = (placed, placed.cu.name)
        self._entries[(id(caller_cu), id(method))] = entry
        return entry

    # -- heap ---------------------------------------------------------------------

    def on_object_access(self, obj: Any, op: str, thread: ThreadState) -> None:
        ref = getattr(obj, "image_ref", None)
        if ref is not None:
            self._touch(HEAP_SECTION, ref.address, ref.size)
        if self._tracer is not None:
            self._tracer.on_object_access(obj, op, thread)

    def on_const_str(self, sid: int) -> None:
        entry = self._binary.literal_objects.get(sid)
        if entry is not None:
            self._touch(HEAP_SECTION, entry.address, entry.size)

    def on_const_obj(self, token: str) -> None:
        entry = self._binary.fold_objects.get(token)
        if entry is not None:
            self._touch(HEAP_SECTION, entry.address, entry.size)

    # -- workload signals -------------------------------------------------------------

    def on_respond(self, value: Any) -> None:
        if not self.responded:
            self.responded = True
            self.response_snapshot = self._cache.snapshot_counts()
            assert self.interpreter is not None
            self.response_ops = self.interpreter.ops_executed
            self.response_touches = len(self._touched)
            on_respond = getattr(self._tracer, "on_respond", None)
            if on_respond is not None:
                on_respond(value)
        if self._config.stop_on_first_response:
            assert self.interpreter is not None
            self.interpreter.stop_requested = True


class BinaryExecutor:
    """Runs a binary with a cold page cache and reports metrics."""

    def __init__(self, binary: NativeImageBinary,
                 config: Optional[ExecutionConfig] = None,
                 tracer: Optional[Any] = None) -> None:
        self._binary = binary
        self._config = config or ExecutionConfig()
        self._tracer = tracer

    def run(self, run_index: int = 0) -> RunMetrics:
        """One cold execution (caches dropped beforehand, as in Sec. 7.1)."""
        config = self._config
        binary = self._binary
        # Process startup: native-library pages (unmovable code) fault first.
        cache = replay_touches(binary, config)
        hooks = ExecHooks(binary, cache, config, tracer=self._tracer)
        image: RuntimeImage = binary.instantiate()
        interp = Interpreter(
            binary.program,
            statics=image.statics,
            hooks=hooks,
            max_ops=config.max_ops,
            quantum=config.quantum,
        )
        hooks.interpreter = interp
        thread = interp.spawn_main()
        interp.run()
        if self._tracer is not None:
            if config.stop_on_first_response and hooks.responded:
                self._tracer.kill(interp)  # SIGKILL after first response
            else:
                self._tracer.terminate(interp)

        metrics = RunMetrics(
            ops=interp.ops_executed,
            faults=cache.snapshot_counts(),
            output=list(interp.output),
            result=thread.result,
            touches=list(hooks._touched),
            response_touches=hooks.response_touches,
        )
        if self._tracer is not None:
            metrics.trace_event_counts = self._tracer.event_counts()
        if hooks.responded:
            metrics.first_response_ops = hooks.response_ops
            metrics.first_response_faults = hooks.response_snapshot
        _set_times(metrics, config, run_index)
        registry = obs_metrics()
        registry.counter("exec.runs")
        registry.counter("exec.ops", metrics.ops)
        for section, count in metrics.faults.items():
            registry.counter(f"exec.faults.{section}", count)
        return metrics


# -- time model -------------------------------------------------------------------


def _set_times(metrics: RunMetrics, config: ExecutionConfig,
               run_index: int) -> None:
    """Fill ``metrics``' times from its ops, faults and probe counts."""
    metrics.time_s = _time_of(config, metrics.ops, metrics.faults,
                              metrics.trace_event_counts, run_index)
    if metrics.first_response_ops is not None:
        metrics.first_response_time_s = _time_of(
            config, metrics.first_response_ops,
            metrics.first_response_faults or {},
            metrics.trace_event_counts, run_index)


def _time_of(config: ExecutionConfig, ops: int, faults: Dict[str, int],
             trace_counts: Dict[str, int], run_index: int) -> float:
    time_s = config.base_startup_s
    time_s += ops * config.op_time_s
    time_s += config.device.fault_cost(sum(faults.values()))
    if trace_counts:
        time_s += trace_counts.get("method_entries", 0) * config.probe_method_entry_s
        time_s += trace_counts.get("cu_entries", 0) * config.probe_method_entry_s
        time_s += trace_counts.get("blocks", 0) * config.probe_block_s
        time_s += trace_counts.get("heap_ids", 0) * config.probe_heap_id_s
        time_s += trace_counts.get("path_records", 0) * config.probe_record_s
        time_s += trace_counts.get("dumps", 0) * config.dump_cost_s
        time_s += trace_counts.get("mmap_writes", 0) * config.mmap_write_through_s
    if config.time_jitter > 0:
        rng = random.Random((config.jitter_seed << 16) ^ run_index)
        time_s *= max(0.5, 1.0 + rng.gauss(0.0, config.time_jitter))
    return time_s


def derived_run(run: RunMetrics, stream: Iterable[LayoutFreeTouch],
                target: NativeImageBinary, config: ExecutionConfig,
                run_index: int = 0) -> RunMetrics:
    """The run of ``target`` that one untraced run implies, without running.

    ``run`` is a cold run under ``config`` of a layout of the prepared
    image ``target`` was laid out from, and ``stream`` its touches as
    :func:`layout_free_touches` names them.  ``target`` executes the same
    program over the same CUs and values, so its run makes the same
    touches at its own addresses: ops, output, result and the touch count
    at the first response carry over, faults (at the end and at the
    first response) come from :func:`replay_touches`, and times from the
    executor's time model at ``run_index``.  Every field equals what
    :func:`run_binary` of ``target`` would return.
    """
    touches = placed_touches(target, stream)
    cut = (len(touches) if run.response_touches is None
           else run.response_touches)
    cache = replay_touches(target, config, touches[:cut])
    at_response = cache.snapshot_counts()
    for section, offset, size in touches[cut:]:
        cache.touch(section, offset, size)
    derived = RunMetrics(
        ops=run.ops,
        faults=cache.snapshot_counts(),
        output=list(run.output),
        result=run.result,
        trace_event_counts=dict(run.trace_event_counts),
        touches=touches,
        response_touches=run.response_touches,
    )
    if run.first_response_ops is not None:
        derived.first_response_ops = run.first_response_ops
        derived.first_response_faults = at_response
    _set_times(derived, config, run_index)
    return derived


def run_binary(binary: NativeImageBinary,
               config: Optional[ExecutionConfig] = None,
               tracer: Optional[Any] = None,
               run_index: int = 0) -> RunMetrics:
    """Convenience wrapper: one cold run of ``binary``."""
    return BinaryExecutor(binary, config, tracer).run(run_index)
