"""In-memory span recorder for the benchmark's traced run.

A span is one call into a layer: its name, start and end (``perf_counter``
seconds, a clock shared by every process on the host), the id of the span
that was open when it started, and the cell id (``workload/strategy``) all
spans of one matrix cell share.  Very frequent leaf calls (page-cache
touches, cost-model evaluations) are not recorded one span each; their
count and time are added to the innermost open span's ``leaf`` totals.

Each process records into its own :class:`SpanRecorder`.  A forked worker
inherits the recorder and hands the spans of each task back with the
task's result (:meth:`SpanRecorder.take`); the parent merges them with
:meth:`SpanRecorder.absorb`.  Span ids carry the pid, so ids from
different processes never collide.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

Span = Dict[str, Any]


class SpanRecorder:
    """Records closed spans of one process; not thread-safe by design
    (every wrapped call runs on the main thread of its process)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: open spans, innermost last: [id, name, parent, cell, start, leaf]
        self._stack: List[list] = []
        self._seq = 0
        #: cell id stamped on every span opened from now on
        self.cell = ""

    @contextmanager
    def cell_scope(self, cell: str) -> Iterator[None]:
        """Stamp ``cell`` on every span opened inside the block."""
        outer, self.cell = self.cell, cell
        try:
            yield
        finally:
            self.cell = outer

    def top_name(self) -> Optional[str]:
        """Name of the innermost open span (``None`` when none is open)."""
        return self._stack[-1][1] if self._stack else None

    def open(self, name: str) -> list:
        self._seq += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [f"{os.getpid()}:{self._seq}", name, parent, self.cell,
                 time.perf_counter(), {}]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> Span:
        """Close the innermost open span; callers may fill its ``attrs``."""
        end = time.perf_counter()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        self._stack.pop()
        span = {"id": frame[0], "name": frame[1], "parent": frame[2],
                "cell": frame[3], "start": frame[4], "end": end,
                "leaf": frame[5], "attrs": {}}
        self.spans.append(span)
        return span

    def leaf(self, name: str, seconds: float) -> None:
        """Charge one leaf call to the innermost open span.

        The benchmark opens a span around all traced work, so a leaf call
        always has one; a call outside every span is not recorded.
        """
        if self._stack:
            totals = self._stack[-1][5].setdefault(name, [0, 0.0])
            totals[0] += 1
            totals[1] += seconds

    def mark(self) -> int:
        return len(self.spans)

    def take(self, mark: int) -> List[Span]:
        """Remove and return the spans closed since ``mark``."""
        taken = self.spans[mark:]
        del self.spans[mark:]
        return taken

    def absorb(self, spans: Iterable[Span]) -> None:
        """Merge spans recorded by another process (or taken earlier)."""
        self.spans.extend(spans)


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> self time: duration minus what its children cover.

    Children are the spans naming it as parent (parallel children from
    several workers may overlap, so their union is subtracted) plus the
    span's own leaf-call time.
    """
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(span["id"], ())
                   if min(e, end) > max(s, start)]
        leaf_s = sum(seconds for _calls, seconds in span["leaf"].values())
        result[span["id"]] = max(
            0.0, (end - start) - covered_length(clipped) - leaf_s)
    return result


def leaf_totals(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Leaf name -> [calls, seconds] summed over every span."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        for name, (calls, seconds) in span["leaf"].items():
            totals[name][0] += calls
            totals[name][1] += seconds
    return dict(totals)
