"""Span tracer with Chrome trace-event export.

Every pipeline phase (compile, trace, post-process, build, order, verify,
measure), every scheduler task, and notable point events (cache evictions,
degradation decisions, quarantine convictions) record into the
process-wide tracer.  Export is the Chrome trace-event JSON format
(``chrome://tracing`` / Perfetto): complete events (``ph: "X"``) for
spans, instant events (``ph: "i"``) for point events.

Worker processes keep their own tracer; the scheduler drains each task's
events (:meth:`SpanTracer.events_since`) into the ``TaskResult`` and
absorbs them into the parent tracer, so one exported trace shows the whole
sweep with per-process ``pid`` lanes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from .events import get_event_log, interned
from .metrics import metrics

#: hard cap on buffered events; overflow is counted, never grows unbounded
DEFAULT_MAX_EVENTS = 100_000


class SpanTracer:
    """Records spans/instants as ready-to-export trace-event dicts."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._epoch = time.perf_counter()
        self.max_events = max_events
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                dropped = True
            else:
                self._events.append(event)
                dropped = False
        if dropped:
            # Outside the tracer lock: the registry has its own.  The
            # counter makes silent span loss visible in ``repro stats``
            # and merges across workers like any other metric.
            metrics().counter("trace.dropped_events")

    @contextmanager
    def span(self, name: str, cat: str = "pipeline",
             **args: Any) -> Iterator[None]:
        """Measure a block as one complete ("X") trace event."""
        start = self._now_us()
        try:
            yield
        finally:
            self._emit({
                "name": name, "cat": cat, "ph": "X",
                "ts": start, "dur": self._now_us() - start,
                "pid": os.getpid(), "tid": threading.get_ident() & 0xFFFF,
                "args": args,
            })

    def instant(self, name: str, cat: str = "event", **args: Any) -> None:
        """Record a point event ("i", process scope)."""
        self._emit({
            "name": name, "cat": cat, "ph": "i", "s": "p",
            "ts": self._now_us(),
            "pid": os.getpid(), "tid": threading.get_ident() & 0xFFFF,
            "args": args,
        })

    # -- shipping (worker -> parent) ---------------------------------------

    def mark(self) -> int:
        """Position marker for :meth:`events_since` (per-task draining)."""
        with self._lock:
            return len(self._events)

    def events_since(self, mark: int) -> List[Dict[str, Any]]:
        """Events recorded after ``mark`` (detached copies)."""
        with self._lock:
            return [dict(event) for event in self._events[mark:]]

    def absorb(self, events: List[Dict[str, Any]]) -> None:
        """Merge events shipped from another process's tracer.

        Timestamps stay in the sender's own perf-counter timeline; the
        distinct ``pid`` keeps its lane separate in the trace viewer.
        Keys and strings are :func:`~repro.obs.events.interned`.
        """
        for event in events:
            self._emit(interned(event))

    # -- export ------------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON payload (``traceEvents`` object form)."""
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }

    def export(self, path: "Path | str") -> Path:
        """Write the Chrome trace JSON; returns the written path."""
        target = Path(path)
        target.write_text(json.dumps(self.to_chrome(), sort_keys=True) + "\n")
        return target

    def reset(self) -> None:
        with self._lock:
            self._events = []
            self.dropped = 0
            self._epoch = time.perf_counter()


_TRACER = SpanTracer()


def get_tracer() -> SpanTracer:
    """The process-wide tracer every instrument records into."""
    return _TRACER


def tracer() -> SpanTracer:
    """Alias of :func:`get_tracer` for terse call sites."""
    return _TRACER


@contextmanager
def phase(name: str, cat: str = "pipeline", **args: Any) -> Iterator[None]:
    """Instrument one pipeline phase: a span + a counter + a duration.

    Records ``phase.<name>`` (operational counter — *not* part of the
    deterministic plane; whether a phase actually ran depends on cache
    state and scheduling), observes ``phase.<name>.seconds``, and emits
    a ``phase`` event into the correlated event log with the phase name
    as a causal id for anything emitted inside the block.
    """
    registry = metrics()
    log = get_event_log()
    start = time.perf_counter()
    with log.context(phase=name):
        with get_tracer().span(name, cat=cat, **args):
            yield
        wall = time.perf_counter() - start
        registry.counter(f"phase.{name}")
        registry.observe(f"phase.{name}.seconds", wall)
        log.emit("phase", name=name, wall_s=wall)
