"""LEB128-style variable-length integer codec.

Trace files produced by the tracing profiler (Sec. 6.1 of the paper) store
path IDs and object identities compactly as unsigned LEB128.
"""

from __future__ import annotations

from typing import Tuple


class VarintDecodeError(ValueError):
    """A varint could not be decoded (truncated or overlong input).

    Subclasses :class:`ValueError` so existing ``except ValueError`` callers
    keep working; trace-level code re-wraps it into ``TraceDecodeError``.
    """


#: the one-byte encodings, of 0..127 (most traced fields)
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as unsigned LEB128."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode an unsigned LEB128 integer.

    Returns ``(value, next_offset)``.
    """
    if offset < 0 or offset > len(data):
        raise VarintDecodeError(f"uvarint offset {offset} out of range")
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise VarintDecodeError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise VarintDecodeError("uvarint too long")
