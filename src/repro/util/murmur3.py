"""Pure-Python implementation of MurmurHash3.

The paper's *structural hash* and *heap path* strategies (Algorithms 2 and 3)
compute 64-bit object identities with MurmurHash3 over a byte encoding of the
object.  We implement the x64 128-bit variant from scratch and expose a 64-bit
convenience wrapper (the low 64 bits of the 128-bit digest), plus the x86
32-bit variant used by some trace-file checksums.
"""

from __future__ import annotations

import struct

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF
# Little-endian block readers: two 64-bit words (x64), one 32-bit word (x86).
_BLOCKS_X64 = struct.Struct("<QQ")
_BLOCKS_X86 = struct.Struct("<I")


def _rotl64(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK64


def _rotl32(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    k ^= k >> 33
    return k


def _fmix32(h: int) -> int:
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def murmur3_x64_128(data: bytes, seed: int = 0) -> int:
    """Return the 128-bit MurmurHash3 (x64 variant) of ``data`` as an int."""
    c1 = 0x87C37B91114253D5
    c2 = 0x4CF5AD432745937F
    length = len(data)
    h1 = seed & _MASK64
    h2 = seed & _MASK64

    nblocks = length // 16
    # Rotations inlined.  One mask after each rotate-add-multiply-add is
    # exact: the bits it drops never reach the low 64 of the result.
    for k1, k2 in _BLOCKS_X64.iter_unpack(memoryview(data)[: nblocks * 16]):
        k1 = (k1 * c1) & _MASK64
        k1 = (((k1 << 31) | (k1 >> 33)) * c2) & _MASK64
        h1 ^= k1
        h1 = ((((h1 << 27) | (h1 >> 37)) + h2) * 5 + 0x52DCE729) & _MASK64

        k2 = (k2 * c2) & _MASK64
        k2 = (((k2 << 33) | (k2 >> 31)) * c1) & _MASK64
        h2 ^= k2
        h2 = ((((h2 << 31) | (h2 >> 33)) + h1) * 5 + 0x38495AB5) & _MASK64

    tail = data[nblocks * 16 :]
    k1 = 0
    k2 = 0
    tail_len = len(tail)
    if tail_len > 8:
        k2 = int.from_bytes(tail[8:], "little")
        k2 = (k2 * c2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * c1) & _MASK64
        h2 ^= k2
    if tail_len > 0:
        k1 = int.from_bytes(tail[:8], "little")
        k1 = (k1 * c1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * c2) & _MASK64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    return (h2 << 64) | h1


def murmur3_64(data: bytes, seed: int = 0) -> int:
    """Return a 64-bit MurmurHash3 digest (low half of the x64 128-bit hash)."""
    return murmur3_x64_128(data, seed) & _MASK64


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """Return the 32-bit MurmurHash3 (x86 variant) of ``data``."""
    c1 = 0xCC9E2D51
    c2 = 0x1B873593
    length = len(data)
    h1 = seed & _MASK32

    nblocks = length // 4
    for (k1,) in _BLOCKS_X86.iter_unpack(memoryview(data)[: nblocks * 4]):
        k1 = (k1 * c1) & _MASK32
        k1 = (((k1 << 15) | (k1 >> 17)) * c2) & _MASK32
        h1 ^= k1
        h1 = (((h1 << 13) | (h1 >> 19)) * 5 + 0xE6546B64) & _MASK32

    tail = data[nblocks * 4 :]
    if tail:
        k1 = int.from_bytes(tail, "little")
        k1 = (k1 * c1) & _MASK32
        k1 = _rotl32(k1, 15)
        k1 = (k1 * c2) & _MASK32
        h1 ^= k1

    h1 ^= length
    return _fmix32(h1)
