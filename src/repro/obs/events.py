"""One record stream for how a run went, rendered two ways.

Every notable moment of a run is one record in the process-wide
:class:`EventLog`: pipeline phases (:func:`phase`), scheduler tasks and
sweeps, cache heals and evictions, degradation notes, quarantine
convictions, chaos injections and PGO epoch actions.  A record is a flat
dict ``{"kind", "seq", "ts", "pid", "tid", <causal ids>, <fields>}``; a
*span* is a record that also carries ``dur``, the
:func:`time.perf_counter` seconds its block took.  ``ts`` is wall-clock
seconds (anchored once per process, then advanced by ``perf_counter``),
so records from different processes share one timeline, and ``seq`` is
the log's own monotone order.

Causal ids come from :meth:`EventLog.context` scopes: nested scopes layer
their ids (inner wins) and the stack is thread-local, so a record
emitted inside ``context(task=...)`` and a :func:`phase` carries both the
task and the phase.

Worker processes record into their own log.  The scheduler drains each
attempt's records (:meth:`EventLog.mark` / :meth:`events_since`) into
the ``TaskResult`` and the parent :meth:`absorb`-s them once, so one log
covers the whole sweep.  The buffer is capped; overflow is counted in
:attr:`EventLog.dropped` and the ``trace.dropped_events`` metric, never
unbounded growth.

Two renderers read the same buffer: :meth:`EventLog.export` writes JSONL
(one record per line; ``repro trace --events``) and
:meth:`EventLog.export_chrome` writes Chrome trace-event JSON, one trace
event per record (``repro trace``; load it in ``chrome://tracing`` or
Perfetto).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from .metrics import metrics

#: hard cap on buffered records; overflow is counted, never grows unbounded
DEFAULT_MAX_EVENTS = 100_000

#: record keys the Chrome renderer maps onto trace-event fields; every
#: other key (kind, seq, causal ids, fields) travels in ``args``
_CHROME_FIELDS = ("ts", "dur", "pid", "tid")


def interned(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` with its keys and string values interned.

    Records shipped from workers arrive unpickled, each holding private
    copies of the same few key and name strings; interning them on absorb
    makes every buffered record share one object per distinct string.
    """
    return {sys.intern(key): sys.intern(value) if type(value) is str
            else value for key, value in record.items()}


class EventLog:
    """Append-only, capped record buffer with causal-id scoping."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._seq = 0
        self._wall0, self._perf0 = time.time(), time.perf_counter()
        self.max_events = max_events
        self.dropped = 0

    def _now(self) -> float:
        """This log's clock: wall-clock seconds advanced by perf_counter."""
        return self._wall0 + (time.perf_counter() - self._perf0)

    # -- causal scoping ------------------------------------------------------

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def context(self, **ids: Any) -> Iterator[None]:
        """Attach causal ids (``phase=...``, ``task=...``, ...) to every
        record emitted inside the block; scopes nest."""
        stack = self._stack()
        stack.append(dict(ids))
        try:
            yield
        finally:
            stack.pop()

    def current_ids(self) -> Dict[str, Any]:
        """The merged causal ids of the active scopes (inner wins)."""
        merged: Dict[str, Any] = {}
        for frame in self._stack():
            merged.update(frame)
        return merged

    # -- recording -----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> bool:
        """Sequence and buffer one record; False when dropped at the cap."""
        with self._lock:
            stored = len(self._events) < self.max_events
            if stored:
                record["seq"] = self._seq
                self._seq += 1
                self._events.append(record)
            else:
                self.dropped += 1
        if not stored:
            # Outside the log lock: the registry has its own.  The counter
            # makes record loss visible in ``repro stats`` and merges
            # across workers like any other metric.
            metrics().counter("trace.dropped_events")
        return stored

    def _record(self, kind: str, ts: float, fields: Dict[str, Any],
                dur: Optional[float] = None) -> Optional[Dict[str, Any]]:
        record: Dict[str, Any] = {"kind": kind, "pid": os.getpid(),
                                  "tid": threading.get_ident() & 0xFFFF}
        record.update(self.current_ids())
        record.update(fields)
        record["ts"] = ts
        if dur is not None:
            record["dur"] = dur
        return record if self._append(record) else None

    def emit(self, kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Record one point event; returns it (``None`` if dropped at cap).

        Explicit fields override scoped ids of the same name.
        """
        return self._record(kind, self._now(), fields)

    @contextmanager
    def span(self, kind: str, **fields: Any) -> Iterator[None]:
        """Record a block as one span, even when the block raises."""
        ts, start = self._now(), time.perf_counter()
        try:
            yield
        finally:
            self._record(kind, ts, fields, time.perf_counter() - start)

    # -- shipping (worker -> parent) -----------------------------------------

    def mark(self) -> int:
        """Position marker for :meth:`events_since` (per-task draining)."""
        with self._lock:
            return len(self._events)

    def events_since(self, mark: int) -> List[Dict[str, Any]]:
        """Records buffered after ``mark`` (detached copies)."""
        with self._lock:
            return [dict(event) for event in self._events[mark:]]

    def absorb(self, events: Iterable[Dict[str, Any]]) -> None:
        """Merge records shipped from another process's log.

        Each keeps its own ``pid``, ``tid`` and ``ts`` and is
        re-sequenced into this log's ``seq`` (the sender's survives as
        ``worker_seq``), so the absorbed stream still has one total
        order; keys and strings are :func:`interned`.
        """
        for shipped in events:
            record = interned(shipped)
            if "seq" in record:
                record["worker_seq"] = record["seq"]
            self._append(record)

    # -- reading / rendering -------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(event) for event in self._events]

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """Records of one kind, in ``seq`` order."""
        return [event for event in self.events if event.get("kind") == kind]

    def to_jsonl(self) -> str:
        """One key-sorted JSON object per line (trailing newline included)."""
        lines = [json.dumps(event, sort_keys=True, default=str)
                 for event in self.events]
        return "\n".join(lines) + ("\n" if lines else "")

    def export(self, path: Union[Path, str]) -> Path:
        """Write the records as JSONL; returns the written path."""
        target = Path(path)
        target.write_text(self.to_jsonl())
        return target

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event payload: one event per record.

        Spans become complete events (``ph: "X"``), other records
        process-scoped instants (``ph: "i"``).  A ``phase`` record is
        named after its phase, any other after its kind.  Timestamps are
        microseconds since the earliest record, so records absorbed from
        workers never start before zero.
        """
        records = self.events
        origin = min((record["ts"] for record in records), default=0.0)
        trace = []
        for record in records:
            kind = record["kind"]
            event = {
                "name": record["name"] if kind == "phase" else kind,
                "cat": kind.partition(".")[0],
                "ts": (record["ts"] - origin) * 1e6,
                "pid": record["pid"], "tid": record["tid"],
                "args": {key: value for key, value in record.items()
                         if key not in _CHROME_FIELDS},
            }
            if "dur" in record:
                event.update(ph="X", dur=record["dur"] * 1e6)
            else:
                event.update(ph="i", s="p")
            trace.append(event)
        return {
            "traceEvents": trace,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }

    def export_chrome(self, path: Union[Path, str]) -> Path:
        """Write the Chrome trace JSON; returns the written path."""
        target = Path(path)
        target.write_text(
            json.dumps(self.to_chrome(), sort_keys=True, default=str) + "\n")
        return target

    def reset(self) -> None:
        with self._lock:
            self._events = []
            self._seq = 0
            self.dropped = 0


_EVENT_LOG = EventLog()


def get_event_log() -> EventLog:
    """The process-wide log every call site records into."""
    return _EVENT_LOG


@contextmanager
def phase(name: str, **fields: Any) -> Iterator[None]:
    """Instrument one pipeline phase: a record, a counter and a duration.

    Inside the block ``phase=name`` is a causal id.  When the block
    completes it bumps ``phase.<name>`` (operational counter, *not* part
    of the deterministic plane: whether a phase ran depends on cache
    state and scheduling), observes ``phase.<name>.seconds`` and records
    one ``phase`` span with the same duration, so the ``phase`` records
    of a run always number the sum of its ``phase.<name>`` counters.  A
    block that raises records nothing.
    """
    log = _EVENT_LOG
    ts, start = log._now(), time.perf_counter()
    with log.context(phase=name):
        yield
        wall = time.perf_counter() - start
        registry = metrics()
        registry.counter(f"phase.{name}")
        registry.observe(f"phase.{name}.seconds", wall)
        log._record("phase", ts, dict(fields, name=name), wall)


__all__ = [
    "DEFAULT_MAX_EVENTS",
    "EventLog",
    "get_event_log",
    "phase",
]
