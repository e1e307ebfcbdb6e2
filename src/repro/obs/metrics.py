"""Process-wide metrics registry: counters, gauges, histograms.

The pipeline is instrumented at every stage (compile, trace, post-process,
build, order, verify, measure, plus cache and scheduler events); this
module is the sink those instruments write to.  Design constraints:

* **Deterministic snapshots.**  A :class:`MetricsSnapshot` is plain,
  picklable data whose :meth:`~MetricsSnapshot.as_dict` is key-sorted, so
  two snapshots can be compared byte-for-byte.  Counters under the
  ``sweep.`` namespace are derived *only* from canonical task results and
  must therefore agree between serial and parallel runs of the same
  matrix; :meth:`MetricsSnapshot.deterministic` extracts exactly that
  plane.  Operational counters (``cache.*``, ``phase.*``, ``exec.*``,
  ``sched.*``) legitimately depend on scheduling (which worker compiled,
  who won a cache race) and are excluded from it.

* **Mergeable across processes.**  Worker processes each accumulate into
  their own process-wide registry; the scheduler captures a per-task
  *delta* snapshot (:meth:`MetricsSnapshot.diff`), ships it back in the
  ``TaskResult``, and merges it into the parent registry — counter merge
  is addition, histogram merge adds counts, totals and quantile
  sketches, gauge merge takes the maximum, so merging is associative and
  commutative and the merged totals are independent of task order and
  worker count for the deterministic plane.

* **Cheap.**  Recording a counter is a dict add under a lock.

* **Percentiles.**  A histogram's distribution lives in one deterministic
  :class:`~repro.util.quantiles.QuantileSketch`, so p50/p95/p99 are
  exact (below the sketch cap) or bounded to 1% relative error — and
  because sketch merge is associative bucket-wise addition, the merged
  percentiles are byte-identical whether the observations were recorded
  serially or sharded across workers and folded back.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..util.quantiles import QuantileSketch

#: counter-name prefix of the deterministic plane (canonical-result-derived)
DETERMINISTIC_PREFIX = "sweep."


@dataclass
class HistogramSnapshot:
    """Frozen view of one histogram (picklable, mergeable)."""

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    #: deterministic quantile sketch (p50/p95/p99; merge-order-invariant)
    sketch: QuantileSketch = field(default_factory=QuantileSketch)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.sketch.observe(value)

    def quantile(self, q: float) -> Optional[float]:
        """Sketch-backed quantile (exact or within 1% relative error)."""
        return self.sketch.quantile(q)

    def merge(self, other: "HistogramSnapshot") -> None:
        self.count += other.count
        self.total += other.total
        for source in (other.min,):
            if source is not None:
                self.min = source if self.min is None else min(self.min, source)
        for source in (other.max,):
            if source is not None:
                self.max = source if self.max is None else max(self.max, source)
        self.sketch.merge(other.sketch)

    def diff(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """What accrued since ``earlier`` (same-histogram snapshots only).

        The count, the total and the quantile sketch are all monotone, so
        the delta is plain subtraction; min/max report current values.
        """
        return HistogramSnapshot(
            count=self.count - earlier.count,
            total=self.total - earlier.total,
            min=self.min, max=self.max,
            sketch=self.sketch.diff(earlier.sketch),
        )

    def copy(self) -> "HistogramSnapshot":
        return HistogramSnapshot(count=self.count, total=self.total,
                                 min=self.min, max=self.max,
                                 sketch=self.sketch.copy())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **self.sketch.quantiles(),
        }


@dataclass
class MetricsSnapshot:
    """Plain-data view of a registry at one instant."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def copy(self) -> "MetricsSnapshot":
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={k: v.copy() for k, v in self.histograms.items()},
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into this snapshot (in place; returns self).

        Counters add, histograms add counts, totals and sketches, gauges
        keep the maximum — all associative and commutative, so any merge order of the same
        deltas yields the same totals.
        """
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, value in other.gauges.items():
            current = self.gauges.get(name)
            self.gauges[name] = value if current is None else max(current, value)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = hist.copy()
            else:
                mine.merge(hist)
        return self

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What accrued since ``earlier`` (same-registry snapshots only).

        Counters and histograms are monotonic, so the delta is a
        plain subtraction; gauges report their current value.  Entries
        with a zero delta are dropped so deltas stay small on the wire.
        """
        delta = MetricsSnapshot()
        for name, n in self.counters.items():
            d = n - earlier.counters.get(name, 0)
            if d:
                delta.counters[name] = d
        delta.gauges = dict(self.gauges)
        for name, hist in self.histograms.items():
            prior = earlier.histograms.get(name)
            if prior is None:
                delta.histograms[name] = hist.copy()
                continue
            if hist.count == prior.count:
                continue
            delta.histograms[name] = hist.diff(prior)
        return delta

    def deterministic(self) -> Dict[str, int]:
        """The scheduling-independent counter plane (``sweep.*``), sorted.

        Serial and parallel runs of the same matrix must agree on this
        dict exactly; the determinism tests compare it byte-for-byte.
        """
        return {name: n for name, n in sorted(self.counters.items())
                if name.startswith(DETERMINISTIC_PREFIX)}

    def total(self, prefix: str) -> int:
        """Sum of the counters whose names start with ``prefix``."""
        return sum(n for name, n in self.counters.items()
                   if name.startswith(prefix))

    def as_dict(self) -> Dict[str, Any]:
        """Key-sorted plain-dict view (stable JSON serialization)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: hist.as_dict()
                           for name, hist in sorted(self.histograms.items())},
        }


class MetricsRegistry:
    """Mutable, thread-safe accumulation point for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = MetricsSnapshot()

    def counter(self, name: str, n: int = 1) -> int:
        """Add ``n`` to a counter; returns the new value."""
        with self._lock:
            value = self._state.counters.get(name, 0) + n
            self._state.counters[name] = value
            return value

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value (merge keeps the maximum)."""
        with self._lock:
            self._state.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a histogram."""
        with self._lock:
            hist = self._state.histograms.get(name)
            if hist is None:
                hist = self._state.histograms[name] = HistogramSnapshot()
            hist.observe(value)

    def snapshot(self) -> MetricsSnapshot:
        """A detached copy of the current state (safe to pickle/compare)."""
        with self._lock:
            return self._state.copy()

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker-process) snapshot into this registry."""
        with self._lock:
            self._state.merge(snapshot)

    def reset(self) -> None:
        """Drop all recorded metrics (test isolation)."""
        with self._lock:
            self._state = MetricsSnapshot()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrument records into."""
    return _REGISTRY


def metrics() -> MetricsRegistry:
    """Alias of :func:`get_registry` for terse call sites."""
    return _REGISTRY
