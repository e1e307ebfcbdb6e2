"""Runtime side of the tracing profiler (paper Sec. 6.1).

Observes the instrumented execution through the interpreter hooks and fills
per-thread trace buffers with:

* ``CU_ENTRY`` records when control enters a compilation unit's prologue;
* ``METHOD_ENTRY`` records on every frame push of an instrumented method;
* ``PATH`` records — Ball–Larus path values per region, each carrying the
  identifiers of the image-heap objects accessed along the path (runtime
  allocations record the sentinel 0).

Path segments end at cut edges (loop back edges), at calls (flushed *before*
the callee's records so records nest in true execution order), and at
returns.

The tracer is table-driven: the first time the interpreter decodes a traced
method, :meth:`PathTracer.leaders_for` builds the method's table from its
:class:`~repro.profiling.cfg.MethodCfg` — for each block, the leader pc of
each successor maps to the edge's increment, whether it cuts, and the
successor — together with the method's encoded entry record and path-record
prefix.  A block transition is then one dictionary lookup, and an entry
record is bytes encoded once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..minijava.bytecode import HEAP_ACCESS_OPS, CompiledMethod
from ..vm.interpreter import Frame, Interpreter, ThreadState
from .cfg import MethodCfg
from .instrument import InstrumentationManifest
from .tracebuf import ThreadTraceBuffer, TraceSession
from .tracefile import (
    MODE_MMAP,
    TAG_PATH,
    encode_cu_entry,
    encode_fields,
    encode_method_entry,
)

#: Object-identifier sentinel for runtime-allocated (non-image) objects.
NON_IMAGE_ID = 0

#: one block's successors: leader pc -> (Ball–Larus increment, cut edge,
#: successor block, the successor's own row)
_Row = Dict[int, Tuple[int, bool, int, Any]]


class _MethodTable:
    """Path-tracing tables of one traced method, built once from its CFG."""

    __slots__ = ("leaders", "entry_record", "path_prefix", "rows", "starts")

    def __init__(self, cfg: MethodCfg, method_id: int) -> None:
        self.leaders = cfg.leaders
        self.entry_record = encode_method_entry(method_id)
        #: a PATH record's tag and method id, which every path shares
        self.path_prefix = encode_fields((TAG_PATH, method_id))
        self.rows: List[_Row] = [{} for _ in cfg.blocks]
        for edge in cfg.edges.values():
            self.rows[edge.source][cfg.blocks[edge.target].start] = (
                edge.increment, edge.cut, edge.target, self.rows[edge.target])
        #: leader pc -> (its block, the block's row), where regions start
        self.starts: Dict[int, Tuple[int, _Row]] = {
            block.start: (block.index, self.rows[block.index])
            for block in cfg.blocks}


class _Segment:
    """A traced frame's open path segment (``row`` is None between
    regions: before the first block and while a call is out)."""

    __slots__ = ("table", "buffer", "row", "start", "value", "ids")

    def __init__(self, table: _MethodTable, buffer: ThreadTraceBuffer) -> None:
        self.table = table
        self.buffer = buffer
        self.row: Optional[_Row] = None
        self.start = 0
        self.value = 0
        self.ids: List[int] = []


class PathTracer:
    """Collects traces during one instrumented execution."""

    def __init__(self, manifest: InstrumentationManifest, session: TraceSession) -> None:
        self._manifest = manifest
        self.session = session
        #: id(method) -> its table, or None when the method is not traced;
        #: a run's methods belong to its program, which outlives the run
        self._tables: Dict[int, Optional[_MethodTable]] = {}
        self._cu_records = {signature: encode_cu_entry(cu_id)
                            for signature, cu_id in manifest.cu_ids.items()}
        self.method_entries = 0
        self.cu_entries = 0
        self.path_records = 0
        self.heap_ids = 0
        self.blocks = 0

    # -- hook surface (called by ExecHooks) -----------------------------------

    def leaders_for(self, method: CompiledMethod) -> Optional[frozenset]:
        table = self._table(method)
        return table.leaders if table is not None else None

    def on_method_enter(self, frame: Frame, caller: Optional[Frame],
                        cu_entered: Optional[str], thread: ThreadState) -> None:
        """``frame`` was pushed by a call from ``caller``; ``cu_entered``
        names the CU whose prologue the entry ran, if it ran one."""
        if caller is not None:
            # A call ends its block with a cut fall-through edge whose
            # increment is 0, so the caller's segment value is final.
            state = caller.trace_state
            if state is not None and state.row is not None:
                self._emit(state, 0)
                state.row = None
        if cu_entered is not None:
            record = self._cu_records.get(cu_entered)
            if record is not None:
                self.cu_entries += 1
                self.session.buffer_for(thread.thread_id).append(record)
        table = self._table(frame.method)
        if table is None:
            frame.trace_state = None
            return
        self.method_entries += 1
        buffer = self.session.buffer_for(thread.thread_id)
        buffer.append(table.entry_record)
        frame.trace_state = _Segment(table, buffer)

    def on_method_exit(self, frame: Frame, thread: ThreadState) -> None:
        state = frame.trace_state
        if state is not None:
            if state.row is not None:
                self._emit(state, 0)
            frame.trace_state = None

    def on_block(self, frame: Frame, leader_pc: int, thread: ThreadState) -> None:
        state = frame.trace_state
        if state is None:
            return
        self.blocks += 1
        row = state.row
        if row is None:
            # Region start: method entry or resume after a call.
            state.start, state.row = state.table.starts[leader_pc]
            state.value = 0
            return
        step = row.get(leader_pc)
        if step is None:
            rows = state.table.rows
            current = next(i for i, r in enumerate(rows) if r is row)
            raise RuntimeError(
                f"{frame.method.signature}: untracked CFG edge "
                f"{current}->{state.table.starts[leader_pc][0]}"
            )
        increment, cut, block, state.row = step
        if cut:
            self._emit(state, increment)
            state.start = block
            state.value = 0
        else:
            state.value += increment

    def on_object_access(self, obj: Any, op: str, thread: ThreadState) -> None:
        if op not in HEAP_ACCESS_OPS:
            # e.g. ARRAYLEN touches pages but is not a traced access site.
            return
        state = thread.frames[-1].trace_state
        if state is None or state.row is None:
            return
        ref = getattr(obj, "image_ref", None)
        # Identifier 0 marks non-image objects; image objects use index + 1.
        state.ids.append(ref.index + 1 if ref is not None else NON_IMAGE_ID)
        self.heap_ids += 1

    # -- lifecycle ----------------------------------------------------------------

    def terminate(self, interp: Interpreter) -> None:
        """Normal program exit: flush buffers.

        Open path segments of frames that never returned (threads stopped
        mid-execution) are *not* emitted: their values do not decode to a
        region terminal.  Normally terminating threads flushed everything
        through ``on_method_exit`` already.
        """
        self.session.terminate_all()

    def kill(self, interp: Interpreter) -> None:
        """Abnormal termination (SIGKILL): in-buffer records are lost."""
        self.session.kill_all()

    def event_counts(self) -> Dict[str, int]:
        stats = self.session.total_stats()
        return {
            "method_entries": self.method_entries,
            "cu_entries": self.cu_entries,
            "path_records": self.path_records,
            "heap_ids": self.heap_ids,
            "blocks": self.blocks,
            "dumps": stats.dumps,
            "mmap_writes": (stats.records if self.session.mode == MODE_MMAP
                            else 0),
        }

    # -- internals ------------------------------------------------------------------

    def _table(self, method: CompiledMethod) -> Optional[_MethodTable]:
        key = id(method)
        if key in self._tables:
            return self._tables[key]
        signature = method.signature
        cfg = self._manifest.cfgs.get(signature)
        table = (None if cfg is None else
                 _MethodTable(cfg, self._manifest.method_ids[signature]))
        self._tables[key] = table
        return table

    def _emit(self, state: _Segment, increment: int) -> None:
        """Write ``state``'s segment, ending with an edge of ``increment``."""
        ids = state.ids
        state.buffer.append(state.table.path_prefix + encode_fields(
            (state.start, state.value + increment, len(ids), *ids)))
        ids.clear()
        self.path_records += 1
