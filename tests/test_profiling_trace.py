"""Tests for trace files, buffers (dump modes), and the runtime tracer."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.profiling.tracebuf import ThreadTraceBuffer, TraceSession
from repro.profiling.tracefile import (
    MODE_DUMP_ON_FULL,
    MODE_MMAP,
    TAG_PATH,
    CuEntryRecord,
    MethodEntryRecord,
    PathRecord,
    encode_cu_entry,
    encode_method_entry,
    encode_path,
    parse_trace,
    parse_trace_lenient,
)

#: values on each side of the one/two/three-byte varint boundaries, plus
#: 32- and 64-bit extremes
BOUNDARIES = (0, 127, 128, 16383, 16384, 2**32, 2**64 - 1)


def _leb128(value):
    """Reference unsigned LEB128: seven bits per byte, low group first."""
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


class TestTraceFileFormat:
    def test_roundtrip_mixed_records(self):
        buffer = ThreadTraceBuffer(thread_id=3, mode=MODE_DUMP_ON_FULL)
        buffer.append(encode_method_entry(7))
        buffer.append(encode_cu_entry(2))
        buffer.append(encode_path(7, 0, 5, [10, 0, 99]))
        buffer.terminate()
        trace = parse_trace(buffer.data)
        assert trace.thread_id == 3
        assert trace.mode == MODE_DUMP_ON_FULL
        assert trace.records == [
            MethodEntryRecord(7),
            CuEntryRecord(2),
            PathRecord(7, 0, 5, (10, 0, 99)),
        ]

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            parse_trace(b"XXXX\x01\x01\x00")

    def test_unknown_tag_rejected(self):
        buffer = ThreadTraceBuffer(0, MODE_MMAP)
        buffer.append(b"\x7f")
        with pytest.raises(ValueError):
            parse_trace(buffer.data)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 500),
                st.integers(0, 50),
                st.integers(0, 10_000),
                st.lists(st.integers(0, 2**64 - 1), max_size=5),
            ),
            max_size=20,
        )
    )
    def test_path_record_roundtrip(self, paths):
        buffer = ThreadTraceBuffer(1, MODE_MMAP)
        for method_id, start, value, ids in paths:
            buffer.append(encode_path(method_id, start, value, ids))
        trace = parse_trace(buffer.data)
        assert [
            (r.method_id, r.start_block, r.path_value, list(r.object_ids))
            for r in trace.records
        ] == paths

    @pytest.mark.parametrize("mode", [MODE_DUMP_ON_FULL, MODE_MMAP])
    def test_path_fields_at_varint_boundaries_round_trip(self, mode):
        """Every field at each one-, two- and multi-byte boundary encodes
        as plain LEB128 and parses back, strictly and leniently."""
        records = [(method_id, start, value,
                    [BOUNDARIES[(i + k) % len(BOUNDARIES)]
                     for k in range(i % 4)])
                   for i, (method_id, start, value) in enumerate(
                       itertools.product(BOUNDARIES, repeat=3))]
        records.append((1, 2, 3, list(range(120, 250))))  # 130 IDs
        buffer = ThreadTraceBuffer(128, mode)
        for method_id, start, value, ids in records:
            encoded = encode_path(method_id, start, value, ids)
            fields = [method_id, start, value, len(ids), *ids]
            assert encoded == bytes([TAG_PATH]) + b"".join(
                _leb128(field) for field in fields)
            buffer.append(encoded)
        buffer.terminate()
        expected = [PathRecord(method_id, start, value, tuple(ids))
                    for method_id, start, value, ids in records]
        assert parse_trace(buffer.data).records == expected
        salvaged = parse_trace_lenient(buffer.data)
        assert salvaged.report.complete
        assert salvaged.trace.records == expected


class TestDumpModes:
    def test_dump_on_full_flushes_at_capacity(self):
        buffer = ThreadTraceBuffer(0, MODE_DUMP_ON_FULL, capacity=16)
        for index in range(20):
            buffer.append(encode_method_entry(index))
        assert buffer.stats.dumps >= 1
        buffer.terminate()
        assert len(parse_trace(buffer.data).records) == 20

    def test_kill_loses_buffered_records(self):
        buffer = ThreadTraceBuffer(0, MODE_DUMP_ON_FULL, capacity=1 << 20)
        for index in range(5):
            buffer.append(encode_method_entry(index))
        buffer.kill()  # SIGKILL before any flush
        assert buffer.stats.lost_records == 5
        assert parse_trace(buffer.data).records == []

    def test_mmap_mode_survives_kill(self):
        buffer = ThreadTraceBuffer(0, MODE_MMAP)
        for index in range(5):
            buffer.append(encode_method_entry(index))
        buffer.kill()
        assert buffer.stats.lost_records == 0
        assert len(parse_trace(buffer.data).records) == 5

    def test_appends_after_kill_are_dropped(self):
        buffer = ThreadTraceBuffer(0, MODE_MMAP)
        buffer.kill()
        buffer.append(encode_method_entry(1))
        assert parse_trace(buffer.data).records == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ThreadTraceBuffer(0, 99)


class TestTraceSession:
    def test_one_buffer_per_thread(self):
        session = TraceSession(MODE_DUMP_ON_FULL)
        a = session.buffer_for(1)
        b = session.buffer_for(2)
        assert a is session.buffer_for(1)
        assert a is not b

    def test_files_in_thread_creation_order(self):
        session = TraceSession(MODE_MMAP)
        session.buffer_for(5).append(encode_method_entry(1))
        session.buffer_for(2).append(encode_method_entry(2))
        files = session.trace_files()
        assert parse_trace(files[0]).thread_id == 2
        assert parse_trace(files[1]).thread_id == 5

    def test_total_stats_aggregates(self):
        session = TraceSession(MODE_MMAP)
        session.buffer_for(0).append(encode_method_entry(1))
        session.buffer_for(1).append(encode_method_entry(2))
        stats = session.total_stats()
        assert stats.records == 2
        assert stats.bytes_written > 0
