"""Tests for post-processing (the fold, against the earlier parse, decode
and visitor path kept here as its oracle) and profile CSV I/O."""

import dataclasses
import random
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple, Union

import pytest

from repro.eval.pipeline import Workload, WorkloadPipeline
from repro.eval.scheduler import task_seed
from repro.ordering.ids import ALL_STRATEGIES
from repro.ordering.profiles import (
    CallCountProfile,
    CodeOrderProfile,
    HeapOrderProfile,
    ProfileBundle,
    ProfileCompleteness,
    load_bundle,
    read_code_profile,
    read_heap_profile,
    save_bundle,
    write_code_profile,
    write_heap_profile,
)
from repro.postproc.framework import TraceDecodeError, build_profiles
from repro.profiling.tracebuf import TraceSession
from repro.profiling.tracefile import (
    CHUNK_MARKER,
    HEADER_FIXED_BYTES,
    MAGIC,
    MODE_DUMP_ON_FULL,
    MODE_MMAP,
    TAG_CU_ENTRY,
    TAG_METHOD_ENTRY,
    TAG_PATH,
    VERSION_V2,
    CuEntryRecord,
    MethodEntryRecord,
    PathRecord,
    SalvageReport,
    TraceFile,
    encode_chunk,
    encode_cu_entry,
    encode_header,
    encode_method_entry,
    encode_path,
    parse_trace,
)
from repro.profiling.tracer import PathTracer
from repro.runtime.executor import run_binary
from repro.util.varint import VarintDecodeError, decode_uvarint
from repro.workloads import (
    AWFY_NAMES,
    MICROSERVICE_NAMES,
    awfy_workload,
    microservice_workload,
)

STATIC_SOURCE = """
class S { static int x; }
class A { static int a() { return 1; } }
class B { static int b() { return 2; } }
class Main { static int main() { S.x = A.a() + B.b(); return S.x; } }
"""


@pytest.fixture(scope="module")
def static_manifest():
    pipeline = WorkloadPipeline(Workload(name="pp", source=STATIC_SOURCE))
    return pipeline.build_instrumented().manifest


def _trace(*records: bytes) -> bytes:
    """A one-chunk trace file holding ``records``."""
    return (encode_header(MODE_DUMP_ON_FULL, 0, version=VERSION_V2)
            + encode_chunk(b"".join(records)))


class TestAnalyses:
    def test_method_order_dedup_keeps_first(self, static_manifest):
        order = ["A.a()", "B.b()", "A.a()", "Main.main()", "B.b()"]
        profiles = build_profiles(static_manifest, [_trace(
            *(encode_method_entry(static_manifest.method_ids[signature])
              for signature in order))])
        assert profiles.code["method"].signatures \
            == ["A.a()", "B.b()", "Main.main()"]
        assert list(profiles.calls.counts.items()) \
            == [("A.a()", 2), ("B.b()", 2), ("Main.main()", 1)]

    def test_cu_order_ignores_other_events(self, static_manifest):
        manifest = dataclasses.replace(static_manifest, cu_ids={},
                                       cu_signatures=[])
        manifest.register_cus(["Main.main()"])
        profiles = build_profiles(manifest, [_trace(
            encode_method_entry(manifest.method_ids["A.a()"]),
            encode_cu_entry(manifest.cu_ids["Main.main()"]),
        )])
        assert profiles.code["cu"].signatures == ["Main.main()"]
        assert profiles.code["method"].signatures == ["A.a()"]


class TestDecoding:
    def test_mismatched_id_count_raises(self, static_manifest):
        main_id = static_manifest.method_ids["A.a()"]
        # Hand-craft a path record with the wrong number of object IDs.
        bogus = _trace(encode_path(main_id, 0, 0, [1]))
        with pytest.raises(TraceDecodeError, match="heap-access sites"):
            build_profiles(static_manifest, [bogus])
        lenient = build_profiles(static_manifest, [bogus], lenient=True)
        assert lenient.completeness.records_undecodable == 1

    def test_zero_ids_skipped(self):
        pipeline = WorkloadPipeline(Workload(name="pp", source=STATIC_SOURCE))
        outcome = pipeline.profile()
        heap_ids = outcome.profiles.heap["heap_path"].ids
        assert 0 not in heap_ids


class TestProfileCsv:
    def test_code_profile_roundtrip(self, tmp_path):
        profile = CodeOrderProfile(kind="cu", signatures=["A.a()", "B.b(int)"])
        path = tmp_path / "code_cu.csv"
        write_code_profile(profile, path)
        loaded = read_code_profile(path)
        assert loaded.kind == "cu"
        assert loaded.signatures == profile.signatures

    def test_heap_profile_roundtrip(self, tmp_path):
        profile = HeapOrderProfile(strategy="heap_path", ids=[2**63 + 5, 7])
        path = tmp_path / "heap.csv"
        write_heap_profile(profile, path)
        loaded = read_heap_profile(path)
        assert loaded.strategy == "heap_path"
        assert loaded.ids == profile.ids

    def test_bundle_roundtrip(self, tmp_path):
        bundle = ProfileBundle()
        bundle.code["cu"] = CodeOrderProfile(kind="cu", signatures=["X.x()"])
        bundle.code["method"] = CodeOrderProfile(kind="method", signatures=["X.x()", "Y.y()"])
        bundle.heap["heap_path"] = HeapOrderProfile(strategy="heap_path", ids=[1, 2, 3])
        bundle.calls = CallCountProfile(counts={"X.x()": 10})
        save_bundle(bundle, tmp_path)
        loaded = load_bundle(tmp_path)
        assert loaded.code["cu"].signatures == ["X.x()"]
        assert loaded.code["method"].signatures == ["X.x()", "Y.y()"]
        assert loaded.heap["heap_path"].ids == [1, 2, 3]
        assert loaded.calls.counts == {"X.x()": 10}

    def test_wrong_file_kind_rejected(self, tmp_path):
        profile = HeapOrderProfile(strategy="heap_path", ids=[1])
        path = tmp_path / "heap.csv"
        write_heap_profile(profile, path)
        with pytest.raises(ValueError):
            read_code_profile(path)

    def test_end_to_end_bundle_survives_disk(self, tmp_path):
        source = """
        class S { static int x = 3; }
        class Main { static int main() { S.x = S.x + 1; return S.x; } }
        """
        pipeline = WorkloadPipeline(Workload(name="disk", source=source))
        outcome = pipeline.profile()
        save_bundle(outcome.profiles, tmp_path)
        loaded = load_bundle(tmp_path)
        from repro.eval.pipeline import STRATEGY_COMBINED

        binary = pipeline.build_optimized(loaded, STRATEGY_COMBINED)
        assert pipeline.measure(binary, 1)[0].result == 4


class TestCallCounts:
    def test_is_hot(self):
        counts = CallCountProfile(counts={"m": 9})
        assert counts.is_hot("m", 9)
        assert not counts.is_hot("m", 10)
        assert not counts.is_hot("absent", 1)


# -- the parent's post-processing path, kept as the oracle of the fold --------
#
# Parse every file into record objects (strict, or lenient salvage), decode
# each record into events against the manifest, and pass every event to six
# visitor analyses.  Copied from the implementation ``build_profiles``
# replaced; only names changed.


def _oracle_parse_header(data: bytes) -> Tuple[int, int, int, int]:
    if len(data) < HEADER_FIXED_BYTES:
        raise TraceDecodeError(
            f"truncated trace header: {len(data)} bytes, need at least "
            f"{HEADER_FIXED_BYTES}"
        )
    if data[:4] != MAGIC:
        raise TraceDecodeError("bad trace magic")
    version = data[4]
    if version != VERSION_V2:
        raise TraceDecodeError(f"unsupported trace version {version}")
    mode = data[5]
    try:
        thread_id, pos = decode_uvarint(data, HEADER_FIXED_BYTES)
    except VarintDecodeError as exc:
        raise TraceDecodeError(f"truncated trace header: {exc}") from exc
    return version, mode, thread_id, pos


def _oracle_parse_trace(data: bytes) -> TraceFile:
    version, mode, thread_id, pos = _oracle_parse_header(data)
    records = []
    while pos < len(data):
        payload, pos = _oracle_read_chunk(data, pos)
        records.extend(_oracle_iter_records(payload, 0, len(payload)))
    return TraceFile(mode=mode, thread_id=thread_id, records=records,
                     version=version)


def _oracle_read_chunk(data: bytes, pos: int) -> Tuple[bytes, int]:
    if data[pos] != CHUNK_MARKER:
        raise TraceDecodeError(
            f"expected chunk marker {CHUNK_MARKER:#x} at offset {pos}, "
            f"found {data[pos]:#x}"
        )
    try:
        payload_len, p = decode_uvarint(data, pos + 1)
    except VarintDecodeError as exc:
        raise TraceDecodeError(f"truncated chunk length at offset {pos}") from exc
    if p + 4 + payload_len > len(data):
        raise TraceDecodeError(
            f"truncated chunk at offset {pos}: need {payload_len} payload "
            f"bytes, file ends after {len(data) - p - 4}"
        )
    crc_stored = int.from_bytes(data[p:p + 4], "little")
    payload = bytes(data[p + 4:p + 4 + payload_len])
    if zlib.crc32(payload) != crc_stored:
        raise TraceDecodeError(f"chunk CRC mismatch at offset {pos}")
    return payload, p + 4 + payload_len


def _oracle_iter_records(data: bytes, pos: int, end: int):
    while pos < end:
        try:
            record, pos = _oracle_parse_one_record(data, pos, end)
        except TraceDecodeError as exc:
            raise TraceDecodeError(f"{exc} (at offset {pos})") from exc
        yield record


def _oracle_recover_record_prefix(data: bytes, pos: int, end: int):
    records = []
    while pos < end:
        try:
            record, nxt = _oracle_parse_one_record(data, pos, end)
        except TraceDecodeError:
            return records, pos
        records.append(record)
        pos = nxt
    return records, end


def _oracle_read_uvarints(data: bytes, pos: int, count: int,
                          out: List[int]) -> int:
    for _ in range(count):
        byte = data[pos]
        if byte < 0x80:
            out.append(byte)
            pos += 1
        else:
            value, pos = decode_uvarint(data, pos)
            out.append(value)
    return pos


def _oracle_parse_one_record(data: bytes, pos: int, end: int):
    tag = data[pos]
    fields: List[int] = []
    try:
        if tag == TAG_PATH:
            pos = _oracle_read_uvarints(data, pos + 1, 4, fields)
            method_id, start_block, path_value, count = fields
            ids: List[int] = []
            pos = _oracle_read_uvarints(data, pos, count, ids)
            record = PathRecord(method_id, start_block, path_value, tuple(ids))
        elif tag == TAG_METHOD_ENTRY:
            pos = _oracle_read_uvarints(data, pos + 1, 1, fields)
            record = MethodEntryRecord(fields[0])
        elif tag == TAG_CU_ENTRY:
            pos = _oracle_read_uvarints(data, pos + 1, 1, fields)
            record = CuEntryRecord(fields[0])
        else:
            raise TraceDecodeError(f"unknown trace record tag {tag:#x}")
    except IndexError as exc:
        raise TraceDecodeError("truncated record: truncated uvarint") from exc
    except VarintDecodeError as exc:
        raise TraceDecodeError(f"truncated record: {exc}") from exc
    if pos > end:
        raise TraceDecodeError(f"record overruns its frame by {pos - end} bytes")
    return record, pos


def _oracle_parse_trace_lenient(data: bytes):
    report = SalvageReport()
    empty = TraceFile(mode=0, thread_id=0, records=[], version=0)
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    if not isinstance(data, bytes):
        report.notes.append(f"not a byte string: {type(data).__name__}")
        return empty, report
    try:
        version, mode, thread_id, pos = _oracle_parse_header(data)
    except TraceDecodeError as exc:
        report.notes.append(f"unreadable header: {exc}")
        report.bytes_dropped = len(data)
        report.truncated = (len(data) < HEADER_FIXED_BYTES
                            or "truncated" in str(exc))
        return empty, report
    report.version = version
    report.header_ok = True
    trace = TraceFile(mode=mode, thread_id=thread_id, records=[],
                      version=version)
    _oracle_salvage_chunks(data, pos, trace, report)
    report.records_recovered = len(trace.records)
    return trace, report


def _oracle_salvage_chunks(data: bytes, pos: int, trace: TraceFile,
                           report: SalvageReport) -> None:
    end = len(data)
    while pos < end:
        if data[pos] != CHUNK_MARKER:
            pos = _oracle_resync(data, pos, report,
                                 "stray bytes between chunks")
            continue
        try:
            payload_len, p = decode_uvarint(data, pos + 1)
        except VarintDecodeError:
            report.truncated = True
            report.bytes_dropped += end - pos
            report.notes.append(f"torn chunk header at offset {pos}")
            return
        if p + 4 > end:
            report.truncated = True
            report.bytes_dropped += end - pos
            report.notes.append(f"torn chunk header at offset {pos}")
            return
        crc_stored = int.from_bytes(data[p:p + 4], "little")
        if p + 4 + payload_len > end:
            partial = data[p + 4:end]
            records, stop = _oracle_recover_record_prefix(partial, 0,
                                                          len(partial))
            trace.records.extend(records)
            report.records_unverified += len(records)
            report.truncated = True
            report.bytes_dropped += len(partial) - stop
            report.notes.append(
                f"torn tail chunk at offset {pos}: recovered "
                f"{len(records)} unverified records"
            )
            return
        payload = bytes(data[p + 4:p + 4 + payload_len])
        if zlib.crc32(payload) != crc_stored:
            report.corrupt_chunks += 1
            report.notes.append(f"chunk CRC mismatch at offset {pos}")
            pos = _oracle_resync(data, pos + 1, report, None)
            continue
        try:
            records = list(_oracle_iter_records(payload, 0, len(payload)))
        except TraceDecodeError:
            records, _stop = _oracle_recover_record_prefix(payload, 0,
                                                           len(payload))
            report.corrupt_chunks += 1
            report.notes.append(
                f"malformed payload in chunk at offset {pos}; kept "
                f"{len(records)} records"
            )
        else:
            report.chunks_ok += 1
        trace.records.extend(records)
        pos = p + 4 + payload_len


def _oracle_resync(data: bytes, pos: int, report: SalvageReport,
                   note: Optional[str]) -> int:
    nxt = data.find(bytes([CHUNK_MARKER]), pos)
    if nxt == -1:
        report.bytes_dropped += len(data) - pos
        if note:
            report.notes.append(f"{note} at offset {pos} (to end of file)")
        return len(data)
    report.bytes_dropped += nxt - pos
    if note and nxt > pos:
        report.notes.append(f"{note} at offsets {pos}..{nxt}")
    return nxt


@dataclass(frozen=True)
class _MethodEntryEvent:
    signature: str


@dataclass(frozen=True)
class _CuEntryEvent:
    root_signature: str


@dataclass(frozen=True)
class _HeapAccessEvent:
    object_index: int


_Event = Union[_MethodEntryEvent, _CuEntryEvent, _HeapAccessEvent]


class _OracleDecoder:
    def __init__(self, manifest) -> None:
        self._manifest = manifest
        self._method_entries: Dict[int, List[_Event]] = {}
        self._cu_entries: Dict[int, List[_Event]] = {}
        self._site_counts: Dict[Tuple[int, int, int], int] = {}
        self._accesses: Dict[int, _HeapAccessEvent] = {}

    def events(self, record) -> List[_Event]:
        manifest = self._manifest
        try:
            if isinstance(record, MethodEntryRecord):
                events = self._method_entries.get(record.method_id)
                if events is None:
                    events = self._method_entries[record.method_id] = [
                        _MethodEntryEvent(
                            manifest.method_signatures[record.method_id])]
                return events
            if isinstance(record, CuEntryRecord):
                events = self._cu_entries.get(record.cu_id)
                if events is None:
                    events = self._cu_entries[record.cu_id] = [
                        _CuEntryEvent(manifest.cu_signatures[record.cu_id])]
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
        events = []
        for object_id in object_ids:
            if object_id != 0:
                event = self._accesses.get(object_id)
                if event is None:
                    event = self._accesses[object_id] = _HeapAccessEvent(
                        object_index=object_id - 1)
                events.append(event)
        return events


class _OrderedSet:
    def __init__(self) -> None:
        self._seen: set = set()
        self.items: List = []

    def add(self, item) -> None:
        if item not in self._seen:
            self._seen.add(item)
            self.items.append(item)


class _CuOrder:
    def __init__(self) -> None:
        self.order = _OrderedSet()

    def accept(self, event: _Event) -> None:
        if isinstance(event, _CuEntryEvent):
            self.order.add(event.root_signature)


class _MethodOrder:
    def __init__(self) -> None:
        self.order = _OrderedSet()

    def accept(self, event: _Event) -> None:
        if isinstance(event, _MethodEntryEvent):
            self.order.add(event.signature)


class _HeapOrder:
    def __init__(self, manifest, strategy: str) -> None:
        self._manifest = manifest
        self.strategy = strategy
        self.order = _OrderedSet()
        self._accessed: set = set()

    def accept(self, event: _Event) -> None:
        if isinstance(event, _HeapAccessEvent):
            index = event.object_index
            if index in self._accessed:
                return
            self._accessed.add(index)
            ids = self._manifest.object_ids.get(index)
            if ids is None:
                return
            self.order.add(ids[self.strategy])


class _CallCounts:
    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def accept(self, event: _Event) -> None:
        if isinstance(event, _MethodEntryEvent):
            self.counts[event.signature] = self.counts.get(event.signature, 0) + 1


def _oracle_run_analyses(manifest, trace_files: Iterable[bytes], analyses,
                         lenient: bool) -> Optional[ProfileCompleteness]:
    decoder = _OracleDecoder(manifest)
    if not lenient:
        for trace_data in trace_files:
            for record in _oracle_parse_trace(trace_data).records:
                for event in decoder.events(record):
                    for analysis in analyses:
                        analysis.accept(event)
        return None
    trace_files = list(trace_files)
    completeness = ProfileCompleteness(traces=len(trace_files))
    for trace_data in trace_files:
        trace, report = _oracle_parse_trace_lenient(trace_data)
        events: List[_Event] = []
        undecodable = 0
        for record in trace.records:
            try:
                decoded = decoder.events(record)
            except TraceDecodeError:
                undecodable += 1
                continue
            events.extend(decoded)
        completeness.records_recovered += report.records_recovered
        completeness.records_unverified += report.records_unverified
        completeness.records_undecodable += undecodable
        completeness.corrupt_chunks += report.corrupt_chunks
        completeness.bytes_dropped += report.bytes_dropped
        completeness.notes.extend(report.notes)
        if not report.header_ok:
            completeness.traces_unreadable += 1
        elif not report.complete or undecodable:
            completeness.traces_damaged += 1
        for event in events:
            for analysis in analyses:
                analysis.accept(event)
    return completeness


def _oracle_build_profiles(manifest, trace_files: List[bytes],
                           lenient: bool = False) -> ProfileBundle:
    cu_order, method_order, call_counts = _CuOrder(), _MethodOrder(), _CallCounts()
    heap_orders = [_HeapOrder(manifest, strategy)
                   for strategy in ALL_STRATEGIES]
    completeness = _oracle_run_analyses(
        manifest, trace_files,
        [cu_order, method_order, call_counts, *heap_orders], lenient)
    bundle = ProfileBundle(completeness=completeness)
    bundle.code["cu"] = CodeOrderProfile(kind="cu",
                                         signatures=list(cu_order.order.items))
    bundle.code["method"] = CodeOrderProfile(
        kind="method", signatures=list(method_order.order.items))
    bundle.calls = CallCountProfile(counts=dict(call_counts.counts))
    for analysis in heap_orders:
        bundle.heap[analysis.strategy] = HeapOrderProfile(
            strategy=analysis.strategy, ids=list(analysis.order.items))
    return bundle


# -- the fold against the oracle -----------------------------------------------------


@lru_cache(maxsize=None)
def _traced(name: str):
    """The seed-1 instrumented build's manifest and its run's trace files."""
    workload = (microservice_workload(name) if name in MICROSERVICE_NAMES
                else awfy_workload(name))
    pipeline = WorkloadPipeline(workload)
    instrumented = pipeline.build_instrumented(seed=task_seed(1, name))
    mode = MODE_MMAP if workload.microservice else MODE_DUMP_ON_FULL
    session = TraceSession(mode=mode)
    run_binary(instrumented, pipeline.exec_config,
               tracer=PathTracer(instrumented.manifest, session))
    return instrumented.manifest, tuple(session.trace_files())


def _outcome(build, manifest, files, lenient):
    """What one post-processing of ``files`` gives: the profiles' digest,
    call counts in order and completeness, or the error it raised."""
    try:
        bundle = build(manifest, list(files), lenient=lenient)
    except TraceDecodeError as exc:
        return ("error", str(exc))
    completeness = (None if bundle.completeness is None
                    else dataclasses.asdict(bundle.completeness))
    return (bundle.digest(), list(bundle.calls.counts.items()), completeness)


def _assert_fold_equals_oracle(manifest, files):
    for lenient in (False, True):
        assert _outcome(build_profiles, manifest, files, lenient) \
            == _outcome(_oracle_build_profiles, manifest, files, lenient)


ALL_PROGRAMS = sorted(AWFY_NAMES + MICROSERVICE_NAMES)


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_fold_equals_the_visitor_path(name):
    manifest, files = _traced(name)
    _assert_fold_equals_oracle(manifest, files)
    outcome = _outcome(build_profiles, manifest, files, True)
    assert outcome[0] != "error" and outcome[2]["traces_damaged"] == 0


def _chunked(header: bytes, records) -> bytes:
    """A trace file of ``records`` in chunks of 97."""
    encoded = [_encode(record) for record in records]
    out = bytearray(header)
    for start in range(0, len(encoded), 97):
        out += encode_chunk(b"".join(encoded[start:start + 97]))
    return bytes(out)


def _encode(record) -> bytes:
    if isinstance(record, PathRecord):
        return encode_path(record.method_id, record.start_block,
                           record.path_value, list(record.object_ids))
    if isinstance(record, MethodEntryRecord):
        return encode_method_entry(record.method_id)
    return encode_cu_entry(record.cu_id)


def _contradicting(manifest, data: bytes, rng: random.Random) -> bytes:
    """``data`` with one record contradicting ``manifest``, in valid
    chunks: a path record's ID count off by one, or an out-of-range
    method, CU or path method ID."""
    trace = parse_trace(data)
    records = trace.records
    index = rng.randrange(len(records))
    record = records[index]
    kind = rng.randrange(3)
    if isinstance(record, PathRecord) and kind == 0:
        ids = list(record.object_ids)
        ids = ids[:-1] if ids and rng.random() < 0.5 else ids + [0]
        records[index] = dataclasses.replace(record, object_ids=tuple(ids))
    elif isinstance(record, PathRecord):
        records[index] = dataclasses.replace(
            record, method_id=len(manifest.method_signatures) + kind)
    elif isinstance(record, MethodEntryRecord):
        records[index] = MethodEntryRecord(
            len(manifest.method_signatures) + rng.randrange(200))
    else:
        records[index] = CuEntryRecord(len(manifest.cu_signatures) + kind)
    return _chunked(encode_header(trace.mode, trace.thread_id), records)


def _damaged(manifest, files, rng: random.Random) -> List[bytes]:
    """``files`` with one of them damaged: truncated (in the header, or
    anywhere), bit-flipped, its tail chunk torn, or a record contradicting
    the manifest, alone or before a bit flip."""
    files = list(files)
    which = rng.randrange(len(files))
    data = bytearray(files[which])
    kind = rng.randrange(5)
    if kind == 0:
        del data[rng.choice([rng.randrange(HEADER_FIXED_BYTES + 2),
                             rng.randrange(len(data))]):]
    elif kind == 2:  # torn tail chunk: cut inside the last chunk
        last = bytes(data).rfind(bytes([CHUNK_MARKER]))
        del data[rng.randrange(last + 1, len(data)):]
    elif kind >= 3:
        data = bytearray(_contradicting(manifest, bytes(data), rng))
    if kind == 1 or kind == 4:  # bit flips
        for _ in range(rng.randrange(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    files[which] = bytes(data)
    return files


#: programs whose traces the damage test starts from: two-byte method IDs
#: (Json), two-byte object IDs (micronaut), one-byte fields (Queens) and
#: a write-through trace, one record per chunk (quarkus)
DAMAGED_PROGRAMS = ["Json", "Queens", "micronaut", "quarkus"]


@pytest.mark.parametrize("name", DAMAGED_PROGRAMS)
def test_fold_equals_the_visitor_path_on_damaged_traces(name):
    manifest, files = _traced(name)
    trace = parse_trace(files[0])
    # The run's first 1,500 records in small chunks, and an undamaged
    # second file behind the one the damage may land in.
    base = _chunked(encode_header(trace.mode, trace.thread_id),
                    trace.records[:1500])
    for case in range(60):
        rng = random.Random(f"{name}/{case}")
        _assert_fold_equals_oracle(
            manifest, _damaged(manifest, [base, base], rng))
