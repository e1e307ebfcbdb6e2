"""Per-thread trace buffers with the paper's two dump modes (Sec. 6.1).

* ``MODE_DUMP_ON_FULL`` — records accumulate in a thread-local buffer that
  is flushed when full and on thread termination.  An *abnormal* termination
  (SIGKILL; the microservice workloads are killed after the first response)
  loses whatever is still buffered.
* ``MODE_MMAP`` — the buffer is memory-mapped into the trace file; the
  kernel persists every written record, so abnormal termination loses
  nothing.  We simulate this by writing through on every append.

Every flush (every record in MMAP mode) becomes a framed, CRC32-checksummed
chunk, so a trace damaged by an abnormal termination or storage fault stays
salvageable chunk-by-chunk (see :mod:`repro.profiling.tracefile`).

The buffers also count events and flushed bytes, which feeds the profiling
overhead model (Sec. 7.4).

Fault injection
---------------

Every failure mode the robustness test-suite exercises enters through one
injectable hook object (see :class:`repro.robustness.faults.FaultInjector`)
with three optional methods, all duck-typed so this module stays free of
robustness-package imports:

* ``on_record(buffer, record) -> bytes | None`` — observe/replace/drop one
  encoded record before it is buffered (mid-run kills are triggered here);
* ``on_flush(buffer, payload) -> bytes | None`` — observe/replace/drop one
  flush payload before it is framed and written;
* ``on_emit(buffer, data) -> bytes`` — transform the final file bytes as
  read back (truncation, bit flips, partial header writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .tracefile import MODE_DUMP_ON_FULL, MODE_MMAP, encode_chunk, encode_header

DEFAULT_BUFFER_BYTES = 64 * 1024


@dataclass
class TraceStats:
    """Accounting used by the overhead model."""

    records: int = 0
    bytes_written: int = 0
    dumps: int = 0
    lost_records: int = 0
    #: records larger than the buffer capacity, written through directly
    oversized_records: int = 0
    #: records discarded by an injected fault (dropped flushes etc.)
    faulted_records: int = 0

    def add(self, other: "TraceStats") -> None:
        self.records += other.records
        self.bytes_written += other.bytes_written
        self.dumps += other.dumps
        self.lost_records += other.lost_records
        self.oversized_records += other.oversized_records
        self.faulted_records += other.faulted_records


class ThreadTraceBuffer:
    """One thread's trace buffer backed by an in-memory 'file'."""

    def __init__(self, thread_id: int, mode: int,
                 capacity: int = DEFAULT_BUFFER_BYTES,
                 fault_hook: Optional[object] = None) -> None:
        if mode not in (MODE_DUMP_ON_FULL, MODE_MMAP):
            raise ValueError(f"unknown dump mode {mode}")
        self.thread_id = thread_id
        self.mode = mode
        self.capacity = capacity
        self.fault_hook = fault_hook
        self.stats = TraceStats()
        self._file = bytearray(encode_header(mode, thread_id))
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        self._killed = False
        if fault_hook is None or not hasattr(fault_hook, "on_record"):
            # No hook sees records: bind the mode's own path once.
            self.append = (self._write_through if mode == MODE_MMAP
                           else self._buffer)

    def append(self, record: bytes) -> None:
        """Store one encoded record."""
        if self._killed:
            return
        record = self.fault_hook.on_record(self, record)
        if record is None or self._killed:
            # The hook swallowed the record or killed the session
            # (mid-run kill at record N) before it was buffered.
            return
        if self.mode == MODE_MMAP:
            self._write_through(record)
        else:
            self._buffer(record)

    def _write_through(self, record: bytes) -> None:
        self.stats.records += 1
        self._write(record)

    def _buffer(self, record: bytes) -> None:
        self.stats.records += 1
        size = len(record)
        if self._pending_bytes + size > self.capacity:
            if size > self.capacity:
                # An oversized record can never fit the buffer; queueing
                # it would leave the pending buffer permanently over the
                # limit.  Write it through directly instead (and count it).
                self.flush()
                self.stats.oversized_records += 1
                self.stats.dumps += 1
                self._write(record)
                return
            self.flush()
        self._pending.append(record)
        self._pending_bytes += size

    def _dropped(self, record: bytes) -> None:
        """Appends after a kill reach nothing."""

    def flush(self) -> None:
        """Dump the pending buffer to the file (DUMP_ON_FULL mode)."""
        if not self._pending:
            return
        payload = b"".join(self._pending)
        pending_count = len(self._pending)
        self._pending.clear()
        self._pending_bytes = 0
        hook = self.fault_hook
        if hook is not None and hasattr(hook, "on_flush"):
            payload = hook.on_flush(self, payload)
            if payload is None:
                # Injected fault: this flush never reached the file.
                self.stats.faulted_records += pending_count
                self.stats.lost_records += pending_count
                return
        self.stats.dumps += 1
        self._write(payload)

    def _write(self, payload: bytes) -> None:
        """Persist one payload as a framed chunk."""
        payload = encode_chunk(payload)
        self._file += payload
        self.stats.bytes_written += len(payload)

    def terminate(self) -> None:
        """Normal thread termination: flush remaining records."""
        self.flush()

    def kill(self) -> None:
        """Abnormal termination (SIGKILL): buffered records are lost.

        In MMAP mode everything already reached the file, so nothing is
        lost — the reason the paper uses memory-mapped buffers for the
        microservice workloads.
        """
        self.stats.lost_records += len(self._pending)
        self._pending.clear()
        self._pending_bytes = 0
        self._killed = True
        self.append = self._dropped

    @property
    def data(self) -> bytes:
        """The trace-file contents as persisted so far.

        An ``on_emit`` fault hook transforms the bytes here — the injection
        point for storage-level damage (truncation, bit flips, partial
        header writes) that happens *after* the records were written.
        """
        data = bytes(self._file)
        hook = self.fault_hook
        if hook is not None and hasattr(hook, "on_emit"):
            data = hook.on_emit(self, data)
        return data


class TraceSession:
    """All per-thread buffers of one profiling run."""

    def __init__(self, mode: int = MODE_DUMP_ON_FULL,
                 capacity: int = DEFAULT_BUFFER_BYTES,
                 fault_hook: Optional[object] = None) -> None:
        self.mode = mode
        self.capacity = capacity
        self.fault_hook = fault_hook
        self._buffers: Dict[int, ThreadTraceBuffer] = {}
        if fault_hook is not None and hasattr(fault_hook, "attach"):
            fault_hook.attach(self)

    def buffer_for(self, thread_id: int) -> ThreadTraceBuffer:
        buffer = self._buffers.get(thread_id)
        if buffer is None:
            buffer = ThreadTraceBuffer(thread_id, self.mode, self.capacity,
                                       fault_hook=self.fault_hook)
            self._buffers[thread_id] = buffer
        return buffer

    def terminate_all(self) -> None:
        for buffer in self._buffers.values():
            buffer.terminate()

    def kill_all(self) -> None:
        for buffer in self._buffers.values():
            buffer.kill()

    def trace_files(self) -> List[bytes]:
        """Per-thread trace files, in thread-creation order."""
        return [self._buffers[tid].data for tid in sorted(self._buffers)]

    def total_stats(self) -> TraceStats:
        total = TraceStats()
        for buffer in self._buffers.values():
            total.add(buffer.stats)
        return total
