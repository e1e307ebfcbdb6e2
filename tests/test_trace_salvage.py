"""Trace-format v2 (framed, checksummed chunks) and the salvage parser."""

import random
import zlib

import pytest

from repro.profiling.tracebuf import ThreadTraceBuffer, TraceSession
from repro.profiling.tracefile import (
    CHUNK_MARKER,
    MODE_DUMP_ON_FULL,
    MODE_MMAP,
    VERSION_V2,
    CuEntryRecord,
    MethodEntryRecord,
    PathRecord,
    TraceDecodeError,
    encode_chunk,
    encode_cu_entry,
    encode_header,
    encode_method_entry,
    encode_path,
    parse_trace,
    parse_trace_lenient,
)
from repro.util.varint import VarintDecodeError, decode_uvarint


def make_trace(mode=MODE_DUMP_ON_FULL, n_records=30, capacity=64):
    """A buffered trace with several flush chunks (one per record in MMAP
    mode)."""
    buffer = ThreadTraceBuffer(thread_id=7, mode=mode, capacity=capacity)
    for index in range(n_records):
        buffer.append(encode_method_entry(index))
        if index % 5 == 0:
            buffer.append(encode_path(index, 0, 3, [index + 1, 0]))
    buffer.terminate()
    return buffer.data


class TestFormatV2:
    def test_v2_roundtrip(self):
        trace = parse_trace(make_trace())
        expected = []
        for index in range(30):
            expected.append(MethodEntryRecord(index))
            if index % 5 == 0:
                expected.append(PathRecord(index, 0, 3, (index + 1, 0)))
        assert trace.records == expected
        assert trace.version == VERSION_V2
        assert trace.thread_id == 7

    def test_v2_mmap_write_through(self):
        buffer = ThreadTraceBuffer(0, MODE_MMAP)
        buffer.append(encode_method_entry(1))
        buffer.append(encode_cu_entry(2))
        assert parse_trace(buffer.data).records == [
            MethodEntryRecord(1), CuEntryRecord(2),
        ]

    def test_v2_crc_detects_payload_corruption(self):
        data = bytearray(make_trace())
        data[len(data) // 2] ^= 0x40
        with pytest.raises(TraceDecodeError):
            parse_trace(bytes(data))

    def test_v2_truncation_detected(self):
        data = make_trace()
        with pytest.raises(TraceDecodeError):
            parse_trace(data[:-3])

    def test_unknown_version_rejected(self):
        data = encode_header(MODE_DUMP_ON_FULL, 0, version=9)
        with pytest.raises(TraceDecodeError):
            parse_trace(data)

    def test_v1_header_is_unsupported(self):
        records = encode_method_entry(1) + encode_method_entry(2)
        data = encode_header(MODE_DUMP_ON_FULL, 0, version=1) + records
        with pytest.raises(TraceDecodeError,
                           match="unsupported trace version 1"):
            parse_trace(data)
        salvaged = parse_trace_lenient(data)
        assert salvaged.trace.records == []
        assert not salvaged.report.header_ok
        assert salvaged.report.bytes_dropped == len(data)
        assert any("unsupported trace version 1" in note
                   for note in salvaged.report.notes)


class TestTypedBoundsErrors:
    """Truncation must raise TraceDecodeError, never a bare IndexError."""

    @pytest.mark.parametrize("size", range(0, 6))
    def test_short_header_raises_typed_error(self, size):
        data = (b"NITR" + bytes([VERSION_V2, MODE_DUMP_ON_FULL]))[:size]
        with pytest.raises(TraceDecodeError):
            parse_trace(data)

    def test_header_truncated_mid_thread_id_varint(self):
        data = b"NITR" + bytes([VERSION_V2, MODE_DUMP_ON_FULL]) + b"\x80"
        with pytest.raises(TraceDecodeError):
            parse_trace(data)

    def test_record_truncated_mid_varint(self):
        data = encode_header(MODE_DUMP_ON_FULL, 0) + encode_chunk(b"\x01\x80")
        with pytest.raises(TraceDecodeError):
            parse_trace(data)

    def test_varint_truncation_is_typed(self):
        with pytest.raises(VarintDecodeError):
            decode_uvarint(b"\x80\x80")
        assert issubclass(VarintDecodeError, ValueError)
        assert issubclass(TraceDecodeError, ValueError)


class TestLenientIdentity:
    """On undamaged input, lenient == strict (the acceptance criterion)."""

    @pytest.mark.parametrize("mode", [MODE_DUMP_ON_FULL, MODE_MMAP])
    def test_identical_to_strict_parse(self, mode):
        data = make_trace(mode)
        strict = parse_trace(data)
        salvaged = parse_trace_lenient(data)
        assert salvaged.trace == strict
        assert salvaged.report.complete
        assert salvaged.report.records_recovered == len(strict.records)

    def test_empty_body_is_complete(self):
        data = encode_header(MODE_DUMP_ON_FULL, 3, version=VERSION_V2)
        salvaged = parse_trace_lenient(data)
        assert salvaged.trace == parse_trace(data)
        assert salvaged.report.complete


class TestSalvage:
    def test_v2_corrupt_chunk_skipped_others_survive(self):
        header = encode_header(MODE_DUMP_ON_FULL, 0, version=VERSION_V2)
        chunks = [encode_chunk(encode_method_entry(i)) for i in range(5)]
        blob = bytearray(header + b"".join(chunks))
        # Corrupt the payload byte of the middle chunk (last byte of it).
        offset = len(header) + len(chunks[0]) + len(chunks[1]) + len(chunks[2]) - 1
        blob[offset] ^= 0xFF
        salvaged = parse_trace_lenient(bytes(blob))
        assert salvaged.report.corrupt_chunks == 1
        assert salvaged.report.chunks_ok == 4
        ids = [r.method_id for r in salvaged.trace.records]
        assert ids == [0, 1, 3, 4]

    def test_v2_torn_tail_chunk_yields_unverified_prefix(self):
        """A kill mid-flush leaves a truncated-but-salvageable file."""
        header = encode_header(MODE_DUMP_ON_FULL, 0, version=VERSION_V2)
        first = encode_chunk(b"".join(encode_method_entry(i) for i in range(4)))
        torn = encode_chunk(b"".join(encode_method_entry(i) for i in range(4, 8)))
        blob = header + first + torn[:-3]  # flush cut off mid-write
        with pytest.raises(TraceDecodeError):
            parse_trace(blob)
        salvaged = parse_trace_lenient(blob)
        assert salvaged.report.truncated
        assert salvaged.report.records_unverified > 0
        ids = [r.method_id for r in salvaged.trace.records]
        assert ids[:4] == [0, 1, 2, 3]
        assert 4 <= len(ids) < 8  # prefix of the torn flush, never all of it

    def test_partial_header_salvages_nothing_but_reports(self):
        data = make_trace()[:4]
        salvaged = parse_trace_lenient(data)
        assert not salvaged.report.header_ok
        assert salvaged.report.truncated
        assert salvaged.trace.records == []

    def test_bad_magic_reported(self):
        salvaged = parse_trace_lenient(b"JUNKJUNKJUNK")
        assert not salvaged.report.header_ok
        assert salvaged.report.records_recovered == 0

    def test_crc_collision_resistant_framing(self):
        # Flipping the stored CRC itself (not the payload) must also be caught.
        header = encode_header(MODE_DUMP_ON_FULL, 0, version=VERSION_V2)
        chunk = bytearray(encode_chunk(encode_method_entry(1)))
        chunk[2] ^= 0x01  # inside the CRC field (marker, 1-byte len, crc...)
        salvaged = parse_trace_lenient(header + bytes(chunk))
        assert salvaged.report.corrupt_chunks == 1
        assert salvaged.trace.records == []


class TestSalvageFuzz:
    """parse_trace_lenient must never raise, whatever the bytes."""

    def test_seeded_random_and_mutated_blobs(self):
        base = make_trace()
        base_mmap = make_trace(MODE_MMAP)
        rng = random.Random(20250806)
        for case in range(150):
            kind = case % 3
            if kind == 0:  # pure noise
                blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 400)))
            else:  # mutate a real trace
                blob = bytearray(base if kind == 1 else base_mmap)
                for _ in range(rng.randrange(1, 8)):
                    action = rng.randrange(3)
                    if action == 0 and blob:
                        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                    elif action == 1 and blob:
                        del blob[rng.randrange(len(blob)):]
                    else:
                        blob += bytes(rng.randrange(256)
                                      for _ in range(rng.randrange(1, 16)))
                blob = bytes(blob)
            salvaged = parse_trace_lenient(blob)  # must not raise
            assert salvaged.report.records_recovered == len(salvaged.trace.records)


class TestOversizedRecords:
    def test_oversized_record_writes_through(self):
        """A record bigger than the buffer must not wedge the pending queue."""
        buffer = ThreadTraceBuffer(0, MODE_DUMP_ON_FULL, capacity=16)
        big = encode_path(1, 0, 0, list(range(64)))  # far beyond 16 bytes
        assert len(big) > buffer.capacity
        buffer.append(big)
        buffer.append(encode_method_entry(1))
        assert buffer.stats.oversized_records == 1
        assert len(buffer._pending) == 1  # only the small record is pending
        # The oversized record is already durable: a kill cannot lose it.
        buffer.kill()
        records = parse_trace(buffer.data).records
        assert any(getattr(r, "object_ids", None) == tuple(range(64))
                   for r in records)

    def test_oversized_record_preserves_order_after_terminate(self):
        buffer = ThreadTraceBuffer(0, MODE_DUMP_ON_FULL, capacity=16)
        big = encode_path(9, 0, 0, list(range(64)))
        buffer.append(encode_method_entry(1))
        buffer.append(big)
        buffer.append(encode_method_entry(2))
        buffer.terminate()
        records = parse_trace(buffer.data).records
        kinds = [type(r).__name__ for r in records]
        assert kinds == ["MethodEntryRecord", "PathRecord", "MethodEntryRecord"]
