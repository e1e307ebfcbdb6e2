"""Mergeable deterministic quantile sketches.

The fleet-scale north star needs p50/p95/p99 cold-start latency, and the
bench trend gate needs those percentiles to be *comparable across runs
and processes*: a worker's sketch merged into the parent must report the
same quantiles as one process observing the whole stream.  The
frexp-bucketed histograms of :mod:`repro.obs.metrics` cannot do that —
one-bucket-per-octave resolution turns p95 and p99 into the same number.

:class:`QuantileSketch` is a two-mode sketch:

* **exact mode** — up to :data:`DEFAULT_EXACT_CAP` observations are kept
  as an exact multiset (``{value: count}``); quantile queries are exact
  nearest-rank order statistics.
* **bucket mode** — past the cap, observations collapse into DDSketch-
  style logarithmic buckets with relative accuracy
  :data:`DEFAULT_ALPHA`: bucket ``i`` holds values in
  ``(gamma^(i-1), gamma^i]`` with ``gamma = (1+alpha)/(1-alpha)``, and a
  quantile query returns the bucket midpoint, guaranteeing
  ``|reported - true| <= alpha * true`` (relative rank-value error).
  Zeros and negative values get their own stores, so the sketch accepts
  any finite observation.

Every piece of state is an integer count keyed by a value or a bucket
index, and bucketing a value is a pure per-value function — so merge is
bucket-wise addition: **associative, commutative, and representation-
deterministic**.  Whether a stream is observed serially, or split across
workers and merged in any order or grouping, the final sketch (and
therefore every reported percentile) is byte-identical; the hypothesis
properties in ``tests/test_quantiles.py`` hold exactly that line.  The
exact→bucket transition preserves this: the merged representation
depends only on the observed multiset and the total count, never on the
merge tree.

Counts are monotone, so a sketch also supports :meth:`diff` — the
scheduler's worker-delta fold ships per-task sketch deltas exactly like
counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

#: relative accuracy of bucket-mode quantiles (1% of the true value)
DEFAULT_ALPHA = 0.01

#: observations kept exactly before collapsing into buckets
DEFAULT_EXACT_CAP = 512

#: the percentiles every surface reports by default
REPORTED_QUANTILES = (0.5, 0.95, 0.99)


def _gamma(alpha: float) -> float:
    return (1.0 + alpha) / (1.0 - alpha)


@dataclass
class QuantileSketch:
    """Deterministic mergeable quantile sketch (exact below a cap).

    All mutating operations keep the invariant that the internal
    representation is a pure function of (observed multiset, alpha, cap)
    — the bedrock of the serial-vs-parallel identity guarantee.
    """

    alpha: float = DEFAULT_ALPHA
    cap: int = DEFAULT_EXACT_CAP
    count: int = 0
    #: exact multiset while ``count <= cap`` (None once bucketized)
    exact: Optional[Dict[float, int]] = field(default_factory=dict)
    #: bucket index -> count for positive values (bucket mode)
    positive: Dict[int, int] = field(default_factory=dict)
    #: bucket index of ``abs(value)`` -> count for negative values
    negative: Dict[int, int] = field(default_factory=dict)
    #: exact-zero observations (log buckets cannot hold zero)
    zeros: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.cap < 0:
            raise ValueError(f"cap must be >= 0, got {self.cap}")

    # -- recording -----------------------------------------------------------

    def _bucket_index(self, magnitude: float) -> int:
        """Log-bucket index of a positive magnitude (pure per-value)."""
        return math.ceil(math.log(magnitude) / math.log(_gamma(self.alpha)))

    def _bucket_value(self, index: int) -> float:
        """Representative (midpoint) value of bucket ``index``."""
        gamma = _gamma(self.alpha)
        return 2.0 * gamma ** index / (gamma + 1.0)

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``n`` observations of ``value``."""
        if n < 0:
            raise ValueError(f"observation count must be >= 0, got {n}")
        if not math.isfinite(value):
            raise ValueError(f"observations must be finite, got {value!r}")
        if n == 0:
            return
        value = float(value)
        if value == 0.0:
            # normalize -0.0: dict keys treat it as equal to +0.0 but
            # keep the first-inserted spelling, which would make the
            # representation depend on observation order
            value = 0.0
        self.count += n
        if self.exact is not None:
            self.exact[value] = self.exact.get(value, 0) + n
            if self.count > self.cap:
                self._densify()
            return
        self._bucket(value, n)

    def _bucket(self, value: float, n: int) -> None:
        if value == 0.0:
            self.zeros += n
        elif value > 0.0:
            index = self._bucket_index(value)
            self.positive[index] = self.positive.get(index, 0) + n
        else:
            index = self._bucket_index(-value)
            self.negative[index] = self.negative.get(index, 0) + n

    def _densify(self) -> None:
        """One-way exact -> bucket transition (count exceeded the cap)."""
        assert self.exact is not None
        items = self.exact
        self.exact = None
        for value, n in items.items():
            self._bucket(value, n)

    # -- merging / shipping --------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` in (in place; returns self).  Associative.

        Both sketches must share ``alpha`` and ``cap`` — quantile grids of
        different accuracy are not comparable and refusing loudly beats a
        silently wrong percentile.
        """
        if (other.alpha, other.cap) != (self.alpha, self.cap):
            raise ValueError(
                f"cannot merge sketches with different grids: "
                f"alpha/cap {self.alpha}/{self.cap} vs "
                f"{other.alpha}/{other.cap}")
        self.count += other.count
        if self.exact is not None and other.exact is not None:
            for value, n in other.exact.items():
                self.exact[value] = self.exact.get(value, 0) + n
            if self.count > self.cap:
                self._densify()
            return self
        if self.exact is not None:
            self._densify()
        self.zeros += other.zeros
        for index, n in other.positive.items():
            self.positive[index] = self.positive.get(index, 0) + n
        for index, n in other.negative.items():
            self.negative[index] = self.negative.get(index, 0) + n
        if other.exact is not None:
            for value, n in other.exact.items():
                self._bucket(value, n)
        return self

    def diff(self, earlier: "QuantileSketch") -> "QuantileSketch":
        """What accrued since ``earlier`` (same-stream snapshots only).

        Counts are monotone and the exact->bucket transition is one-way,
        so the delta is plain subtraction in whichever representation the
        *later* sketch is in.
        """
        delta = QuantileSketch(alpha=self.alpha, cap=self.cap)
        delta.count = self.count - earlier.count
        if self.exact is not None:
            # earlier is a prefix of the same stream => also exact
            prior = earlier.exact or {}
            delta.exact = {}
            for value, n in self.exact.items():
                d = n - prior.get(value, 0)
                if d:
                    delta.exact[value] = d
            return delta
        delta.exact = None
        prior_pos, prior_neg, prior_zero = _densified_view(earlier)
        delta.zeros = self.zeros - prior_zero
        for index, n in self.positive.items():
            d = n - prior_pos.get(index, 0)
            if d:
                delta.positive[index] = d
        for index, n in self.negative.items():
            d = n - prior_neg.get(index, 0)
            if d:
                delta.negative[index] = d
        return delta

    def copy(self) -> "QuantileSketch":
        return QuantileSketch(
            alpha=self.alpha, cap=self.cap, count=self.count,
            exact=dict(self.exact) if self.exact is not None else None,
            positive=dict(self.positive), negative=dict(self.negative),
            zeros=self.zeros,
        )

    # -- queries -------------------------------------------------------------

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (nearest-rank); ``None`` on an empty sketch.

        Exact mode returns the true order statistic; bucket mode returns
        a value within ``alpha`` relative error of it.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = max(1, math.ceil(q * self.count))
        seen = 0
        for value, n in self._ascending():
            seen += n
            if seen >= target:
                return value
        return None  # pragma: no cover - counts always sum to self.count

    def _ascending(self) -> Iterable[Tuple[float, int]]:
        """(value, count) pairs in ascending value order."""
        if self.exact is not None:
            yield from sorted(self.exact.items())
            return
        # negatives: larger magnitude bucket = smaller value
        for index in sorted(self.negative, reverse=True):
            yield -self._bucket_value(index), self.negative[index]
        if self.zeros:
            yield 0.0, self.zeros
        for index in sorted(self.positive):
            yield self._bucket_value(index), self.positive[index]

    def quantiles(self,
                  qs: Tuple[float, ...] = REPORTED_QUANTILES,
                  ) -> Dict[str, Optional[float]]:
        """The standard percentile report (``{"p50": ..., ...}``)."""
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Key-sorted plain-dict view (stable JSON serialization)."""
        return {
            "alpha": self.alpha,
            "cap": self.cap,
            "count": self.count,
            "exact": (sorted(self.exact.items())
                      if self.exact is not None else None),
            "negative": {str(k): v for k, v in sorted(self.negative.items())},
            "positive": {str(k): v for k, v in sorted(self.positive.items())},
            "zeros": self.zeros,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuantileSketch":
        """Inverse of :meth:`as_dict` (history-store deserialization)."""
        exact = payload.get("exact")
        return cls(
            alpha=payload["alpha"],
            cap=payload["cap"],
            count=payload["count"],
            exact=({float(v): int(n) for v, n in exact}
                   if exact is not None else None),
            positive={int(k): int(v)
                      for k, v in payload.get("positive", {}).items()},
            negative={int(k): int(v)
                      for k, v in payload.get("negative", {}).items()},
            zeros=payload.get("zeros", 0),
        )


def _densified_view(sketch: QuantileSketch,
                    ) -> Tuple[Dict[int, int], Dict[int, int], int]:
    """Bucket-mode view of a sketch without mutating it."""
    if sketch.exact is None:
        return sketch.positive, sketch.negative, sketch.zeros
    view = sketch.copy()
    view._densify()
    return view.positive, view.negative, view.zeros


def merge_sketches(sketches: Iterable[QuantileSketch]) -> QuantileSketch:
    """Merge any number of sketches into a fresh one (inputs untouched)."""
    merged: Optional[QuantileSketch] = None
    for sketch in sketches:
        if merged is None:
            merged = sketch.copy()
        else:
            merged.merge(sketch)
    return merged if merged is not None else QuantileSketch()


__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_EXACT_CAP",
    "REPORTED_QUANTILES",
    "QuantileSketch",
    "merge_sketches",
]
