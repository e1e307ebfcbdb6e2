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
from typing import Dict, Iterable, List, Optional, Tuple, Union

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


class _RecordDecoder:
    """Decodes records against one manifest.

    One decoder serves one :func:`run_analyses` call: it memoizes each
    distinct entry record's event, each distinct ``(method, start block,
    path value)``'s heap-site count and each object's access event, since
    a trace repeats a few of them thousands of times.
    """

    def __init__(self, manifest: InstrumentationManifest) -> None:
        self._manifest = manifest
        self._method_entries: Dict[int, List[TraceEvent]] = {}
        self._cu_entries: Dict[int, List[TraceEvent]] = {}
        self._site_counts: Dict[Tuple[int, int, int], int] = {}
        self._accesses: Dict[int, HeapAccessEvent] = {}

    def events(self, record: TraceRecord) -> List[TraceEvent]:
        """Decode one record (do not mutate the returned list).

        Raises :class:`TraceDecodeError` when the record contradicts the
        manifest — an out-of-range ID or a path/site count mismatch, the
        signature of a trace from a different (mismatched) build.
        """
        manifest = self._manifest
        try:
            if isinstance(record, MethodEntryRecord):
                events = self._method_entries.get(record.method_id)
                if events is None:
                    events = self._method_entries[record.method_id] = [
                        MethodEntryEvent(
                            manifest.method_signatures[record.method_id])]
                return events
            if isinstance(record, CuEntryRecord):
                events = self._cu_entries.get(record.cu_id)
                if events is None:
                    events = self._cu_entries[record.cu_id] = [
                        CuEntryEvent(manifest.cu_signatures[record.cu_id])]
                return events
            path = (record.method_id, record.start_block, record.path_value)
            sites = self._site_counts.get(path)
            if sites is None:
                cfg = manifest.cfg_for_id(record.method_id)
                sites = self._site_counts[path] = len(
                    cfg.heap_sites_on_path(record.start_block,
                                           record.path_value))
        except TraceDecodeError:
            raise
        except (IndexError, KeyError, ValueError) as exc:
            raise TraceDecodeError(f"record contradicts manifest: {exc}") from exc
        object_ids = record.object_ids
        if sites != len(object_ids):
            raise TraceDecodeError(
                f"{manifest.cfg_for_id(record.method_id).method.signature}: "
                f"path ({record.start_block}, {record.path_value}) has "
                f"{sites} heap-access sites but the record carries "
                f"{len(object_ids)} IDs"
            )
        accesses = self._accesses
        events = []
        for object_id in object_ids:
            if object_id != 0:  # 0 = runtime-allocated, not in the image
                event = accesses.get(object_id)
                if event is None:
                    event = accesses[object_id] = HeapAccessEvent(
                        object_index=object_id - 1)
                events.append(event)
        return events


def _decode_events(decoder: _RecordDecoder,
                   trace_data: bytes) -> Iterable[TraceEvent]:
    trace = parse_trace(trace_data)
    for record in trace.records:
        for event in decoder.events(record):
            yield event


def decode_events(
    manifest: InstrumentationManifest, trace_data: bytes
) -> Iterable[TraceEvent]:
    """Decode one thread's trace file into its event sequence (strict)."""
    return _decode_events(_RecordDecoder(manifest), trace_data)


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
    return _decode_events_lenient(_RecordDecoder(manifest), trace_data)


def _decode_events_lenient(decoder: _RecordDecoder,
                           trace_data: bytes) -> LenientDecode:
    salvaged = parse_trace_lenient(trace_data)
    outcome = LenientDecode(salvage=salvaged.report)
    for record in salvaged.trace.records:
        try:
            events = decoder.events(record)
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
        #: object indices already accessed: a repeat adds nothing
        self._accessed: set = set()

    def accept(self, event: TraceEvent) -> None:
        if isinstance(event, HeapAccessEvent):
            index = event.object_index
            if index in self._accessed:
                return
            self._accessed.add(index)
            ids = self._manifest.object_ids.get(index)
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
    decoder = _RecordDecoder(manifest)
    if not lenient:
        for trace_data in trace_files:
            for event in _decode_events(decoder, trace_data):
                for analysis in analyses:
                    analysis.accept(event)
        return None

    completeness = ProfileCompleteness(traces=len(trace_files))
    for trace_data in trace_files:
        outcome = _decode_events_lenient(decoder, trace_data)
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
