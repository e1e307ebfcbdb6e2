"""Deterministic, seed-driven fault injection for the tracing profiler.

A :class:`FaultPlan` is a small immutable description of *what* goes wrong;
a :class:`FaultInjector` executes it through the hook surface of
:class:`repro.profiling.tracebuf.ThreadTraceBuffer` (``on_record`` /
``on_flush`` / ``on_emit``).  Because plans are plain data and all
randomness is confined to :meth:`FaultPlan.random`, every failure mode is
exactly reproducible from a seed — the property the robustness tests and
the CI fuzz job rely on.

Fault kinds:

``truncate_at_byte``
    The trace file ends at byte N (storage loss, kill mid-flush when N
    lands inside the last chunk).
``drop_flush``
    The Nth buffer flush never reaches the file (lost write).
``bit_flip``
    One bit of the emitted file is flipped (storage corruption).
``kill_at_record``
    The whole session is SIGKILLed after the Nth appended record
    (mid-run abnormal termination; pending buffers are lost).
``partial_header``
    Only the first N (< 6) header bytes reach the file (kill during
    trace-file creation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..profiling.tracefile import HEADER_FIXED_BYTES

FAULT_TRUNCATE = "truncate_at_byte"
FAULT_DROP_FLUSH = "drop_flush"
FAULT_BIT_FLIP = "bit_flip"
FAULT_KILL_AT_RECORD = "kill_at_record"
FAULT_PARTIAL_HEADER = "partial_header"

ALL_FAULT_KINDS = (
    FAULT_TRUNCATE,
    FAULT_DROP_FLUSH,
    FAULT_BIT_FLIP,
    FAULT_KILL_AT_RECORD,
    FAULT_PARTIAL_HEADER,
)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    ``at`` is kind-specific: a byte offset (``truncate_at_byte``,
    ``bit_flip`` — taken modulo the file length at emit time), a flush
    index (``drop_flush``), a record index (``kill_at_record``), or a
    header byte count (``partial_header``).  ``thread_id`` restricts the
    fault to one thread's trace file (``None`` = any thread).
    """

    kind: str
    at: int = 0
    bit: int = 0  # bit_flip only: which bit (0-7) of the byte to flip
    thread_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"fault position must be >= 0, got {self.at}")

    def applies_to(self, thread_id: int) -> bool:
        return self.thread_id is None or self.thread_id == thread_id

    def describe(self) -> str:
        where = "" if self.thread_id is None else f" [thread {self.thread_id}]"
        if self.kind == FAULT_BIT_FLIP:
            return f"bit_flip(byte {self.at}, bit {self.bit}){where}"
        return f"{self.kind}({self.at}){where}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-labelled list of faults."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None

    @classmethod
    def of(cls, *faults: FaultSpec) -> "FaultPlan":
        return cls(faults=tuple(faults))

    @classmethod
    def random(cls, seed: int, n_faults: int = 2,
               kinds: Optional[Sequence[str]] = None) -> "FaultPlan":
        """A reproducible plan: same seed, same faults, forever."""
        rng = random.Random(seed)
        kinds = tuple(kinds or ALL_FAULT_KINDS)
        faults = []
        for _ in range(max(1, n_faults)):
            kind = rng.choice(kinds)
            if kind == FAULT_TRUNCATE:
                spec = FaultSpec(kind, at=rng.randint(HEADER_FIXED_BYTES, 4096))
            elif kind == FAULT_DROP_FLUSH:
                spec = FaultSpec(kind, at=rng.randint(0, 3))
            elif kind == FAULT_BIT_FLIP:
                spec = FaultSpec(kind, at=rng.randint(0, 4096),
                                 bit=rng.randint(0, 7))
            elif kind == FAULT_KILL_AT_RECORD:
                spec = FaultSpec(kind, at=rng.randint(1, 500))
            else:  # FAULT_PARTIAL_HEADER
                spec = FaultSpec(kind, at=rng.randint(0, HEADER_FIXED_BYTES - 1))
            faults.append(spec)
        return cls(faults=tuple(faults), seed=seed)

    def describe(self) -> str:
        label = "" if self.seed is None else f" (seed {self.seed})"
        if not self.faults:
            return f"no faults{label}"
        return "; ".join(f.describe() for f in self.faults) + label


class FaultInjector:
    """Executes a :class:`FaultPlan` through the trace-buffer hooks.

    Pass one as ``fault_hook=`` to
    :class:`repro.profiling.tracebuf.TraceSession`; the session calls
    :meth:`attach` so mid-run kill faults can reach every buffer.  One
    injector can be reused across profiling retries — per-run counters
    reset on every :meth:`attach`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.session = None
        #: human-readable log of faults that actually fired
        self.triggered: List[str] = []
        self._fired: set = set()
        self._records_seen = 0
        self._flushes_seen = 0

    # -- lifecycle -------------------------------------------------------

    def attach(self, session) -> None:
        """Bind to a new profiling session and reset per-run counters."""
        self.session = session
        self._records_seen = 0
        self._flushes_seen = 0

    def _fire(self, spec: FaultSpec, detail: str = "") -> None:
        key = (id(spec), detail)
        if key not in self._fired:
            self._fired.add(key)
            self.triggered.append(spec.describe() + (f" {detail}" if detail else ""))

    # -- hook surface (called by ThreadTraceBuffer) ------------------------

    def on_record(self, buffer, record: bytes) -> Optional[bytes]:
        self._records_seen += 1
        for spec in self.plan.faults:
            if (spec.kind == FAULT_KILL_AT_RECORD
                    and spec.applies_to(buffer.thread_id)
                    and self._records_seen == spec.at):
                self._fire(spec)
                if self.session is not None:
                    self.session.kill_all()
                else:
                    buffer.kill()
                return None
        return record

    def on_flush(self, buffer, payload: bytes) -> Optional[bytes]:
        index = self._flushes_seen
        self._flushes_seen += 1
        for spec in self.plan.faults:
            if (spec.kind == FAULT_DROP_FLUSH
                    and spec.applies_to(buffer.thread_id)
                    and index == spec.at):
                self._fire(spec)
                return None
        return payload

    def on_emit(self, buffer, data: bytes) -> bytes:
        """Apply storage-level damage to the emitted file bytes.

        Pure in ``data``, so repeated reads of ``buffer.data`` stay
        consistent.
        """
        for spec in self.plan.faults:
            if not spec.applies_to(buffer.thread_id):
                continue
            if spec.kind == FAULT_PARTIAL_HEADER:
                keep = min(spec.at, len(data))
                self._fire(spec, f"kept {keep} bytes")
                data = data[:keep]
            elif spec.kind == FAULT_TRUNCATE:
                if spec.at < len(data):
                    self._fire(spec, f"cut {len(data) - spec.at} bytes")
                    data = data[:spec.at]
            elif spec.kind == FAULT_BIT_FLIP:
                if data:
                    pos = spec.at % len(data)
                    mutated = bytearray(data)
                    mutated[pos] ^= 1 << (spec.bit % 8)
                    self._fire(spec, f"at byte {pos}")
                    data = bytes(mutated)
        return data
