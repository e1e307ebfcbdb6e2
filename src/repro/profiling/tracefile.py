"""Binary trace-file format (one file per thread; paper Sec. 6.1).

Layout (format version 2; version 1, a bare record stream, is no longer
read)::

    magic "NITR" | version u8 | mode u8 | thread_id uvarint | chunk...

The body is a sequence of *framed chunks*, one per buffer flush (one per
record in write-through/MMAP mode)::

    marker 0xC5 | payload_len uvarint | crc32 u32 LE | payload (records)

Framing localizes damage: a corrupt or torn chunk is skipped and the parser
resynchronizes on the next marker, so a salvage pass recovers every intact
flush around it.

Record kinds::

    0x01 METHOD_ENTRY  method_id
    0x02 CU_ENTRY      cu_id
    0x03 PATH          method_id start_block path_value n_ids id*n

``PATH`` records carry the object identifiers accessed along the path.  The
count is redundant with the decoded path (the paper stores only the IDs and
derives the count from the path); we keep it in the stream and *verify* it
against the decode, which doubles as an integrity check of the path
machinery.

:func:`decode_records` is the one record parser.  Over it,
:func:`record_batches` reads a file strictly, one record list per chunk:
any structural damage raises :class:`TraceDecodeError`.
:func:`salvage_batches` never raises — it recovers every verifiable chunk
and accounts what it dropped in a :class:`SalvageReport`.  Post-processing
folds those lists straight into profiles; :func:`parse_trace` and
:func:`parse_trace_lenient` turn them into record objects.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from ..util.varint import VarintDecodeError, decode_uvarint, encode_uvarint

MAGIC = b"NITR"
#: the one trace-format version written and read
VERSION_V2 = 2

#: minimum bytes before the thread-id varint can even start
HEADER_FIXED_BYTES = 6

#: start-of-chunk marker; deliberately not a valid record tag
CHUNK_MARKER = 0xC5
_MARKER = bytes([CHUNK_MARKER])
#: marker + 4 CRC bytes + at least 1 length byte
CHUNK_MIN_OVERHEAD = 6

MODE_DUMP_ON_FULL = 1
MODE_MMAP = 2

TAG_METHOD_ENTRY = 0x01
TAG_CU_ENTRY = 0x02
TAG_PATH = 0x03


class TraceDecodeError(ValueError):
    """A trace file is structurally invalid (truncated, corrupt, or it
    contradicts the instrumentation manifest)."""


@dataclass(frozen=True)
class MethodEntryRecord:
    method_id: int


@dataclass(frozen=True)
class CuEntryRecord:
    cu_id: int


@dataclass(frozen=True)
class PathRecord:
    method_id: int
    start_block: int
    path_value: int
    object_ids: Tuple[int, ...]


TraceRecord = Union[MethodEntryRecord, CuEntryRecord, PathRecord]


def encode_fields(fields: Sequence[int]) -> bytes:
    """The uvarints of ``fields``, back to back.

    A record is its tag and its fields, each one uvarint, so the
    concatenation of two field runs encodes the fields of both.
    """
    try:
        out = bytes(fields)
    except ValueError:  # a field over 255 (or a negative one)
        pass
    else:
        if out.isascii():  # every field under 0x80: one byte each
            return out
    return b"".join(map(encode_uvarint, fields))


def encode_method_entry(method_id: int) -> bytes:
    return encode_fields((TAG_METHOD_ENTRY, method_id))


def encode_cu_entry(cu_id: int) -> bytes:
    return encode_fields((TAG_CU_ENTRY, cu_id))


def encode_path(method_id: int, start_block: int, path_value: int,
                object_ids: List[int]) -> bytes:
    return encode_fields((TAG_PATH, method_id, start_block, path_value,
                          len(object_ids), *object_ids))


def encode_header(mode: int, thread_id: int, version: int = VERSION_V2) -> bytes:
    return MAGIC + bytes([version, mode]) + encode_uvarint(thread_id)


def encode_chunk(payload: bytes) -> bytes:
    """Frame one flush payload as a chunk (marker, length, CRC32)."""
    return b"".join((_MARKER, encode_uvarint(len(payload)),
                     zlib.crc32(payload).to_bytes(4, "little"), payload))


@dataclass
class TraceFile:
    """A parsed trace file."""

    mode: int
    thread_id: int
    records: List[TraceRecord]
    version: int = VERSION_V2


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

#: one decoded record as :func:`decode_records` returns it:
#: ``(TAG_METHOD_ENTRY, method_id)``, ``(TAG_CU_ENTRY, cu_id)`` or
#: ``(TAG_PATH, (method_id, start_block, path_value), object_ids)``
RawRecord = Tuple[Any, ...]


def decode_records(payload: bytes) -> Tuple[List[RawRecord], int,
                                            Optional[str]]:
    """Decode the records of one chunk payload, in order.

    Returns ``(records, stop, error)``: the records before the first one
    that does not decode, that record's offset (the payload's length when
    every record decodes) and why it does not (``None`` when all do).
    This is the one record parser: strict and lenient parsing and
    post-processing all read records through it.
    """
    records: List[RawRecord] = []
    append = records.append
    pos = 0
    end = len(payload)
    while pos < end:
        tag = payload[pos]
        # Fast paths: an ID of one or two bytes, every other field one
        # byte (``isascii``: every byte under 0x80).  A program with 128
        # to 16,383 methods has two-byte method IDs.
        if tag == TAG_PATH:
            head = payload[pos + 1:pos + 6]
            if len(head) >= 4 and head[:4].isascii():
                method_id, start_block, path_value, count = head[:4]
                body = pos + 5
            elif len(head) == 5 and head[1:].isascii():
                method_id = (head[0] & 0x7F) | (head[1] << 7)
                start_block, path_value, count = head[2:]
                body = pos + 6
            else:
                body = 0
            if body:
                ids = payload[body:body + count]
                if len(ids) == count and ids.isascii():
                    append((TAG_PATH, (method_id, start_block, path_value),
                            tuple(ids)))
                    pos = body + count
                    continue
        elif tag == TAG_METHOD_ENTRY or tag == TAG_CU_ENTRY:
            head = payload[pos + 1:pos + 3]
            if head and head[0] < 0x80:
                append((tag, head[0]))
                pos += 2
                continue
            if len(head) == 2 and head[1] < 0x80:
                append((tag, (head[0] & 0x7F) | (head[1] << 7)))
                pos += 3
                continue
        try:
            record, pos = _decode_record(payload, pos)
        except TraceDecodeError as exc:
            return records, pos, str(exc)
        append(record)
    return records, end, None


def _read_uvarints(data: bytes, pos: int, count: int,
                   out: List[int]) -> int:
    """Append ``count`` uvarints read at ``pos`` to ``out``; return the
    offset after them.  One-byte values are read inline."""
    for _ in range(count):
        byte = data[pos]
        if byte < 0x80:
            out.append(byte)
            pos += 1
        else:
            value, pos = decode_uvarint(data, pos)
            out.append(value)
    return pos


def _decode_record(data: bytes, pos: int) -> Tuple[RawRecord, int]:
    """Decode exactly one record at ``pos``, field by field; return
    ``(record, next_pos)`` or raise :class:`TraceDecodeError`."""
    tag = data[pos]
    fields: List[int] = []
    try:
        if tag == TAG_PATH:
            pos = _read_uvarints(data, pos + 1, 4, fields)
            method_id, start_block, path_value, count = fields
            ids: List[int] = []
            pos = _read_uvarints(data, pos, count, ids)
            return (TAG_PATH, (method_id, start_block, path_value),
                    tuple(ids)), pos
        if tag == TAG_METHOD_ENTRY or tag == TAG_CU_ENTRY:
            pos = _read_uvarints(data, pos + 1, 1, fields)
            return (tag, fields[0]), pos
    except IndexError as exc:
        # a one-byte read ran off the end of the frame
        raise TraceDecodeError("truncated record: truncated uvarint") from exc
    except VarintDecodeError as exc:
        raise TraceDecodeError(f"truncated record: {exc}") from exc
    raise TraceDecodeError(f"unknown trace record tag {tag:#x}")


def _as_record(record: RawRecord) -> TraceRecord:
    tag = record[0]
    if tag == TAG_PATH:
        return PathRecord(*record[1], record[2])
    if tag == TAG_METHOD_ENTRY:
        return MethodEntryRecord(record[1])
    return CuEntryRecord(record[1])


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------


def _parse_header(data: bytes) -> Tuple[int, int, int, int]:
    """Validate the header; return ``(version, mode, thread_id, body_pos)``."""
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


def record_batches(data: bytes) -> Iterator[List[RawRecord]]:
    """The records of a complete trace file, one list per chunk (strict).

    Raises :class:`TraceDecodeError` (a :class:`ValueError`) on any
    truncation or corruption, and on a header of any version but
    :data:`VERSION_V2`; a chunk's records come only once the whole chunk
    verified and decoded.
    """
    _version, _mode, _thread_id, pos = _parse_header(data)
    while pos < len(data):
        payload, pos = _read_chunk(data, pos)
        records, stop, error = decode_records(payload)
        if error is not None:
            raise TraceDecodeError(f"{error} (at offset {stop})")
        yield records


def parse_trace(data: bytes) -> TraceFile:
    """Parse a complete per-thread trace file, strictly.

    Raises :class:`TraceDecodeError` as :func:`record_batches` does.
    """
    version, mode, thread_id, _pos = _parse_header(data)
    records = [_as_record(record) for batch in record_batches(data)
               for record in batch]
    return TraceFile(mode=mode, thread_id=thread_id, records=records,
                     version=version)


def _read_chunk(data: bytes, pos: int) -> Tuple[bytes, int]:
    """Strictly read one framed chunk at ``pos``; return ``(payload, next)``."""
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


# ---------------------------------------------------------------------------
# lenient parsing (salvage)
# ---------------------------------------------------------------------------


@dataclass
class SalvageReport:
    """What a lenient parse recovered — and what it had to give up."""

    version: int = 0
    header_ok: bool = False
    records_recovered: int = 0
    #: records recovered from a torn tail chunk whose CRC could not be
    #: verified (a kill landed mid-flush)
    records_unverified: int = 0
    chunks_ok: int = 0
    corrupt_chunks: int = 0
    bytes_dropped: int = 0
    truncated: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when nothing at all was lost (identical to a strict parse)."""
        return (self.header_ok and self.corrupt_chunks == 0
                and not self.truncated and self.bytes_dropped == 0)

    def summary(self) -> str:
        status = "complete" if self.complete else "salvaged"
        parts = [
            f"{status}: {self.records_recovered} records recovered",
            f"{self.corrupt_chunks} corrupt chunks",
            f"{self.bytes_dropped} bytes dropped",
        ]
        if self.records_unverified:
            parts.append(f"{self.records_unverified} unverified (torn flush)")
        if self.truncated:
            parts.append("truncated")
        return ", ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()


@dataclass
class SalvagedTrace:
    """Result of :func:`parse_trace_lenient`."""

    trace: TraceFile
    report: SalvageReport


def parse_trace_lenient(data: bytes) -> SalvagedTrace:
    """Best-effort parse that never raises.

    * Keep every chunk whose CRC verifies, skip corrupt ones and
      resynchronize on the next chunk marker; a torn *tail* chunk (mid-flush
      kill) contributes its record prefix as *unverified* records.
    * Unreadable headers (an unsupported version included) yield an empty
      trace and a report saying why.

    On an uncorrupted input the recovered trace is identical to
    :func:`parse_trace` output and ``report.complete`` is True.
    """
    report = SalvageReport()
    records = [_as_record(record) for batch in salvage_batches(data, report)
               for record in batch]
    if not report.header_ok:
        return SalvagedTrace(
            TraceFile(mode=0, thread_id=0, records=[], version=0), report)
    version, mode, thread_id, _pos = _parse_header(bytes(data))
    return SalvagedTrace(
        TraceFile(mode=mode, thread_id=thread_id, records=records,
                  version=version), report)


def salvage_batches(data: bytes,
                    report: SalvageReport) -> Iterator[List[RawRecord]]:
    """The records a lenient parse recovers, one list per chunk.

    Never raises: what it skips or cannot verify, it accounts in
    ``report`` (see :func:`parse_trace_lenient`).
    """
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    if not isinstance(data, bytes):
        report.notes.append(f"not a byte string: {type(data).__name__}")
        return
    try:
        version, _mode, _thread_id, pos = _parse_header(data)
    except TraceDecodeError as exc:
        report.notes.append(f"unreadable header: {exc}")
        report.bytes_dropped = len(data)
        # Distinguish a partial header write (truncation) from corruption.
        report.truncated = (len(data) < HEADER_FIXED_BYTES
                            or "truncated" in str(exc))
        return
    report.version = version
    report.header_ok = True
    end = len(data)
    while pos < end:
        if data[pos] != CHUNK_MARKER:
            pos = _resync(data, pos, report, "stray bytes between chunks")
            continue
        try:
            payload_len, p = decode_uvarint(data, pos + 1)
            torn = p + 4 > end
        except VarintDecodeError:
            torn = True
        if torn:
            report.truncated = True
            report.bytes_dropped += end - pos
            report.notes.append(f"torn chunk header at offset {pos}")
            return
        crc_stored = int.from_bytes(data[p:p + 4], "little")
        if p + 4 + payload_len > end:
            # Torn tail chunk: a kill landed mid-flush.  The CRC covers the
            # full payload, so it cannot be verified — salvage the record
            # prefix of what did reach the file, flagged as unverified.
            partial = data[p + 4:end]
            records, stop, _error = decode_records(partial)
            report.records_unverified += len(records)
            report.records_recovered += len(records)
            report.truncated = True
            report.bytes_dropped += len(partial) - stop
            report.notes.append(
                f"torn tail chunk at offset {pos}: recovered "
                f"{len(records)} unverified records"
            )
            yield records
            return
        payload = data[p + 4:p + 4 + payload_len]
        if zlib.crc32(payload) != crc_stored:
            report.corrupt_chunks += 1
            report.notes.append(f"chunk CRC mismatch at offset {pos}")
            pos = _resync(data, pos + 1, report, None)
            continue
        records, _stop, error = decode_records(payload)
        if error is None:
            report.chunks_ok += 1
        else:
            # CRC-valid but malformed payload (writer bug or marker-aligned
            # corruption): keep the valid prefix.
            report.corrupt_chunks += 1
            report.notes.append(
                f"malformed payload in chunk at offset {pos}; kept "
                f"{len(records)} records"
            )
        report.records_recovered += len(records)
        pos = p + 4 + payload_len
        yield records


def _resync(data: bytes, pos: int, report: SalvageReport,
            note: "str | None") -> int:
    """Skip forward to the next chunk marker; account skipped bytes."""
    nxt = data.find(_MARKER, pos)
    if nxt == -1:
        report.bytes_dropped += len(data) - pos
        if note:
            report.notes.append(f"{note} at offset {pos} (to end of file)")
        return len(data)
    report.bytes_dropped += nxt - pos
    if note and nxt > pos:
        report.notes.append(f"{note} at offsets {pos}..{nxt}")
    return nxt


# ---------------------------------------------------------------------------
# trace-set container (artifact cache)
# ---------------------------------------------------------------------------

#: magic of the packed multi-trace container written by :func:`pack_traces`
PACK_MAGIC = b"NITP"


def pack_traces(files: List[bytes]) -> bytes:
    """Pack a profiling run's per-thread trace files into one blob.

    The content-addressed artifact cache stores each instrumented run's
    traces as a single payload; this is its (trivially versioned) framing::

        magic "NITP" | file count uvarint | per file: length uvarint | bytes

    The inverse is :func:`unpack_traces`.  Ordering is preserved exactly
    (thread-creation order matters to the ordering analyses).
    """
    out = bytearray(PACK_MAGIC)
    out += encode_uvarint(len(files))
    for data in files:
        out += encode_uvarint(len(data))
        out += data
    return bytes(out)


def unpack_traces(blob: bytes) -> List[bytes]:
    """Unpack a :func:`pack_traces` blob back into per-thread trace files.

    Raises :class:`TraceDecodeError` if the container framing is damaged
    (bad magic, truncated lengths, short payloads); damage *inside* an
    individual trace file is not this function's concern — feed the files
    to :func:`parse_trace_lenient` for that.
    """
    if blob[: len(PACK_MAGIC)] != PACK_MAGIC:
        raise TraceDecodeError("not a packed trace container (bad magic)")
    pos = len(PACK_MAGIC)
    try:
        count, pos = decode_uvarint(blob, pos)
        files: List[bytes] = []
        for _ in range(count):
            length, pos = decode_uvarint(blob, pos)
            if pos + length > len(blob):
                raise TraceDecodeError(
                    f"packed trace truncated: need {length} bytes at {pos}"
                )
            files.append(bytes(blob[pos : pos + length]))
            pos += length
    except VarintDecodeError as exc:
        raise TraceDecodeError(f"packed trace container damaged: {exc}") from exc
    if pos != len(blob):
        raise TraceDecodeError(
            f"packed trace has {len(blob) - pos} trailing byte(s)"
        )
    return files
