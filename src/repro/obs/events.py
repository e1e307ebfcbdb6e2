"""Correlated JSONL event log with causal ids.

The span tracer answers "how long did things take"; this log answers
"what *happened*, in what order, and during which unit of work".  Every
notable decision in the pipeline — degradation notes, chaos injections,
PGO epoch actions (refresh/rollback/quarantine), phase completions —
records one structured event carrying whatever causal ids are in scope
(``run`` / ``phase`` / ``task``), so a post-hoc reader can join the
stream against history entries, traces, and metrics by id instead of by
timestamp guesswork.

Mechanics mirror :class:`~repro.obs.spans.SpanTracer` deliberately:

* a process-wide singleton (:func:`get_event_log`) every call site
  appends to;
* worker processes accumulate into their own log; the scheduler drains
  each task's events (:meth:`EventLog.mark` / :meth:`events_since`)
  into the ``TaskResult`` and :meth:`absorb`-s them into the parent, so
  one exported stream covers the whole sweep;
* a hard buffer cap with a drop counter, never unbounded growth.

Causal ids are supplied by the :meth:`EventLog.context` context manager
— nested scopes layer their ids, so an event emitted inside
``context(run=...)`` → ``context(task=...)`` carries both.  The stack is
thread-local: concurrent threads do not see each other's scopes.

Export is JSONL, one event per line (:meth:`EventLog.export`), the
format ``repro report`` and the PGO timeline tests consume.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

#: hard cap on buffered events; overflow is counted, never grows unbounded
DEFAULT_MAX_EVENTS = 100_000


def interned(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` with its keys and string values interned.

    Records shipped from workers arrive unpickled, each holding private
    copies of the same few key and name strings; interning them on absorb
    makes every buffered record share one object per distinct string.
    Nested dicts (span ``args``) are interned the same way.
    """
    copy: Dict[str, Any] = {}
    for key, value in record.items():
        if type(value) is str:
            value = sys.intern(value)
        elif isinstance(value, dict):
            value = interned(value)
        copy[sys.intern(key)] = value
    return copy


class EventLog:
    """Append-only in-process event buffer with causal-id scoping."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._seq = 0
        self.max_events = max_events
        self.dropped = 0

    # -- causal scoping ------------------------------------------------------

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def context(self, **ids: Any) -> Iterator[None]:
        """Attach causal ids (``run=...``, ``phase=...``, ``task=...``)
        to every event emitted inside the block; scopes nest."""
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

    def emit(self, kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Record one event; returns it (or ``None`` if dropped at cap).

        The event is ``{"seq", "ts", "kind", <causal ids>, <fields>}``;
        explicit fields override scoped ids of the same name, and ``seq``
        is a per-log monotone sequence so readers can reconstruct exact
        order even when wall-clock timestamps collide.
        """
        event: Dict[str, Any] = {"kind": kind, "pid": os.getpid()}
        event.update(self.current_ids())
        event.update(fields)
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return None
            event["seq"] = self._seq
            event["ts"] = time.time()
            self._seq += 1
            self._events.append(event)
        return event

    # -- shipping (worker -> parent) -----------------------------------------

    def mark(self) -> int:
        """Position marker for :meth:`events_since` (per-task draining)."""
        with self._lock:
            return len(self._events)

    def events_since(self, mark: int) -> List[Dict[str, Any]]:
        """Events recorded after ``mark`` (detached copies)."""
        with self._lock:
            return [dict(event) for event in self._events[mark:]]

    def absorb(self, events: List[Dict[str, Any]]) -> None:
        """Merge events shipped from another process's log.

        Events are re-sequenced into the parent's ``seq`` space (their
        original sequence survives as ``worker_seq``) so the absorbed
        stream still has one total order; keys and strings are
        :func:`interned`.
        """
        with self._lock:
            for shipped in events:
                if len(self._events) >= self.max_events:
                    self.dropped += 1
                    continue
                event = interned(shipped)
                if "seq" in event:
                    event["worker_seq"] = event["seq"]
                event["seq"] = self._seq
                self._seq += 1
                self._events.append(event)

    # -- reading / export ----------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(event) for event in self._events]

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """Events of one kind, in emission order."""
        return [event for event in self.events if event.get("kind") == kind]

    def to_jsonl(self) -> str:
        """One key-sorted JSON object per line (trailing newline included)."""
        lines = [json.dumps(event, sort_keys=True, default=str)
                 for event in self.events]
        return "\n".join(lines) + ("\n" if lines else "")

    def export(self, path: Union[Path, str]) -> Path:
        """Write the JSONL event stream; returns the written path."""
        target = Path(path)
        target.write_text(self.to_jsonl())
        return target

    def reset(self) -> None:
        with self._lock:
            self._events = []
            self._seq = 0
            self.dropped = 0


_EVENT_LOG = EventLog()


def get_event_log() -> EventLog:
    """The process-wide event log every call site records into."""
    return _EVENT_LOG


def events() -> EventLog:
    """Alias of :func:`get_event_log` for terse call sites."""
    return _EVENT_LOG


__all__ = [
    "DEFAULT_MAX_EVENTS",
    "EventLog",
    "events",
    "get_event_log",
]
