"""Post-processing framework (paper Sec. 6.2).

Reads per-thread trace files, decodes path IDs back into event sequences
using the instrumentation manifest, and dispatches events to visitor-style
ordering analyses.  Each analysis keeps an ordered, duplicate-free set in
encounter order; after all events are consumed, the sets become the CSV
ordering profiles used by the optimizing build.

Multi-threaded traces are processed in thread-creation order and
concatenated, with duplicates removed (Sec. 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from ..ordering.ids import ALL_STRATEGIES
from ..ordering.profiles import (
    CallCountProfile,
    CodeOrderProfile,
    HeapOrderProfile,
    ProfileBundle,
    ProfileCompleteness,
)
from ..profiling.instrument import InstrumentationManifest
from ..profiling.tracefile import (
    CuEntryRecord,
    MethodEntryRecord,
    SalvageReport,
    TraceDecodeError,
    TraceRecord,
    parse_trace,
    parse_trace_lenient,
)

__all__ = [
    "MethodEntryEvent", "CuEntryEvent", "HeapAccessEvent", "TraceEvent",
    "TraceDecodeError", "decode_events", "decode_events_lenient",
    "LenientDecode", "OrderingAnalysis", "CuOrderAnalysis",
    "MethodOrderAnalysis", "HeapOrderAnalysis", "CallCountAnalysis",
    "run_analyses", "build_profiles",
]


# -- events -----------------------------------------------------------------


@dataclass(frozen=True)
class MethodEntryEvent:
    signature: str


@dataclass(frozen=True)
class CuEntryEvent:
    root_signature: str


@dataclass(frozen=True)
class HeapAccessEvent:
    object_index: int  # snapshot index in the instrumented build


TraceEvent = Union[MethodEntryEvent, CuEntryEvent, HeapAccessEvent]


def _record_events(
    manifest: InstrumentationManifest, record: TraceRecord
) -> List[TraceEvent]:
    """Decode one record against the manifest.

    Raises :class:`TraceDecodeError` when the record contradicts the
    manifest — an out-of-range ID or a path/site count mismatch, the
    signature of a trace from a different (mismatched) build.
    """
    try:
        if isinstance(record, MethodEntryRecord):
            return [MethodEntryEvent(manifest.method_signatures[record.method_id])]
        if isinstance(record, CuEntryRecord):
            return [CuEntryEvent(manifest.cu_signatures[record.cu_id])]
        cfg = manifest.cfg_for_id(record.method_id)
        sites = cfg.heap_sites_on_path(record.start_block, record.path_value)
    except TraceDecodeError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        raise TraceDecodeError(f"record contradicts manifest: {exc}") from exc
    if len(sites) != len(record.object_ids):
        raise TraceDecodeError(
            f"{cfg.method.signature}: path ({record.start_block}, "
            f"{record.path_value}) has {len(sites)} heap-access sites "
            f"but the record carries {len(record.object_ids)} IDs"
        )
    return [
        HeapAccessEvent(object_index=object_id - 1)
        for object_id in record.object_ids
        if object_id != 0  # 0 = runtime-allocated, not in the image
    ]


def decode_events(
    manifest: InstrumentationManifest, trace_data: bytes
) -> Iterable[TraceEvent]:
    """Decode one thread's trace file into its event sequence (strict)."""
    trace = parse_trace(trace_data)
    for record in trace.records:
        for event in _record_events(manifest, record):
            yield event


@dataclass
class LenientDecode:
    """Result of :func:`decode_events_lenient` for one trace file."""

    events: List[TraceEvent] = field(default_factory=list)
    salvage: SalvageReport = field(default_factory=SalvageReport)
    records_decoded: int = 0
    #: structurally fine records the manifest rejects (mismatched build)
    records_undecodable: int = 0


def decode_events_lenient(
    manifest: InstrumentationManifest, trace_data: bytes
) -> LenientDecode:
    """Best-effort decode: salvage the trace, skip undecodable records."""
    salvaged = parse_trace_lenient(trace_data)
    outcome = LenientDecode(salvage=salvaged.report)
    for record in salvaged.trace.records:
        try:
            events = _record_events(manifest, record)
        except TraceDecodeError:
            outcome.records_undecodable += 1
            continue
        outcome.records_decoded += 1
        outcome.events.extend(events)
    return outcome


# -- analyses ------------------------------------------------------------------


class OrderingAnalysis:
    """Base visitor: sees every event in execution order."""

    def accept(self, event: TraceEvent) -> None:
        raise NotImplementedError


class _OrderedSet:
    """Insertion-ordered set with O(1) membership."""

    def __init__(self) -> None:
        self._seen: set = set()
        self.items: List = []

    def add(self, item) -> None:
        if item not in self._seen:
            self._seen.add(item)
            self.items.append(item)


class CuOrderAnalysis(OrderingAnalysis):
    """First-entry order of compilation units (cu ordering, Sec. 4.1)."""

    def __init__(self) -> None:
        self._order = _OrderedSet()

    def accept(self, event: TraceEvent) -> None:
        if isinstance(event, CuEntryEvent):
            self._order.add(event.root_signature)

    def profile(self) -> CodeOrderProfile:
        return CodeOrderProfile(kind="cu", signatures=list(self._order.items))


class MethodOrderAnalysis(OrderingAnalysis):
    """First-entry order of methods (method ordering, Sec. 4.2)."""

    def __init__(self) -> None:
        self._order = _OrderedSet()

    def accept(self, event: TraceEvent) -> None:
        if isinstance(event, MethodEntryEvent):
            self._order.add(event.signature)

    def profile(self) -> CodeOrderProfile:
        return CodeOrderProfile(kind="method", signatures=list(self._order.items))


class HeapOrderAnalysis(OrderingAnalysis):
    """First-access order of image-heap objects under one ID strategy."""

    def __init__(self, manifest: InstrumentationManifest, strategy: str) -> None:
        self._manifest = manifest
        self.strategy = strategy
        self._order = _OrderedSet()

    def accept(self, event: TraceEvent) -> None:
        if isinstance(event, HeapAccessEvent):
            ids = self._manifest.object_ids.get(event.object_index)
            if ids is None:
                return
            self._order.add(ids[self.strategy])

    def profile(self) -> HeapOrderProfile:
        return HeapOrderProfile(strategy=self.strategy, ids=list(self._order.items))


class CallCountAnalysis(OrderingAnalysis):
    """Method call counts (standard Native-Image PGO content)."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def accept(self, event: TraceEvent) -> None:
        if isinstance(event, MethodEntryEvent):
            self.counts[event.signature] = self.counts.get(event.signature, 0) + 1

    def profile(self) -> CallCountProfile:
        return CallCountProfile(counts=dict(self.counts))


# -- driver ------------------------------------------------------------------------


def run_analyses(
    manifest: InstrumentationManifest,
    trace_files: List[bytes],
    analyses: List[OrderingAnalysis],
    lenient: bool = False,
) -> Optional[ProfileCompleteness]:
    """Feed all trace files (thread-creation order) through the analyses.

    Strict mode raises :class:`TraceDecodeError` on the first damaged trace
    and returns ``None``.  Lenient mode salvages what it can from every
    trace and returns a :class:`ProfileCompleteness` accounting of what was
    recovered vs. dropped.
    """
    if not lenient:
        for trace_data in trace_files:
            for event in decode_events(manifest, trace_data):
                for analysis in analyses:
                    analysis.accept(event)
        return None

    completeness = ProfileCompleteness(traces=len(trace_files))
    for trace_data in trace_files:
        outcome = decode_events_lenient(manifest, trace_data)
        report = outcome.salvage
        completeness.records_recovered += report.records_recovered
        completeness.records_unverified += report.records_unverified
        completeness.records_undecodable += outcome.records_undecodable
        completeness.corrupt_chunks += report.corrupt_chunks
        completeness.bytes_dropped += report.bytes_dropped
        completeness.notes.extend(report.notes)
        if not report.header_ok:
            completeness.traces_unreadable += 1
        elif not report.complete or outcome.records_undecodable:
            completeness.traces_damaged += 1
        for event in outcome.events:
            for analysis in analyses:
                analysis.accept(event)
    return completeness


def build_profiles(
    manifest: InstrumentationManifest,
    trace_files: List[bytes],
    strategies: Optional[List[str]] = None,
    lenient: bool = False,
) -> ProfileBundle:
    """One-stop post-processing: traces -> complete profile bundle.

    With ``lenient=True`` damaged traces are salvaged instead of raising,
    and the bundle's ``completeness`` annotates how much data survived.
    """
    cu_analysis = CuOrderAnalysis()
    method_analysis = MethodOrderAnalysis()
    call_analysis = CallCountAnalysis()
    heap_analyses = [
        HeapOrderAnalysis(manifest, strategy)
        for strategy in (strategies or list(ALL_STRATEGIES))
    ]
    analyses: List[OrderingAnalysis] = [cu_analysis, method_analysis, call_analysis]
    analyses.extend(heap_analyses)
    completeness = run_analyses(manifest, trace_files, analyses, lenient=lenient)

    bundle = ProfileBundle(completeness=completeness)
    bundle.code["cu"] = cu_analysis.profile()
    bundle.code["method"] = method_analysis.profile()
    bundle.calls = call_analysis.profile()
    for analysis in heap_analyses:
        bundle.heap[analysis.strategy] = analysis.profile()
    return bundle
