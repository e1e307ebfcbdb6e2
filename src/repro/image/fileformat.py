"""On-disk container for built images (the "binary file").

Native Image emits ELF; we emit **SNIB** ("Simulated Native-Image Binary"),
a small container that makes the layout tangible and inspectable:

```
header   : magic "SNIB" | version u16 | mode u8 | reserved u8
           text_size u64 | heap_size u64 | symbol count u32 | object count u32
symbols  : per CU: offset u64 | size u64 | member count u32 |
           root signature (len-prefixed utf-8) |
           per member: offset u32 | size u32 | signature
objects  : per heap object: address u64 | size u32 | root flag u8 |
           type name | inclusion reason (or "") |
           incremental/structural/heap-path IDs (u64 each)
.text    : deterministic filler bytes per CU (murmur-seeded), page-padded
.svm_heap: deterministic filler bytes per object
```

The byte payload is synthetic (we have no real machine code), but offsets,
sizes, and the symbol/object tables are the real layout — enough to diff
layouts across builds or feed external analysis, like ``objdump`` output.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..util.murmur3 import murmur3_64
from .binary import NativeImageBinary

MAGIC = b"SNIB"
VERSION = 1
_MODES = {"regular": 1, "instrumented": 2, "optimized": 3}
_MODE_NAMES = {v: k for k, v in _MODES.items()}

_ID_ORDER = ("incremental_id", "structural_hash", "heap_path")


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<H", len(data)) + data


def _unpack_str(data: bytes, pos: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from("<H", data, pos)
    pos += 2
    return data[pos : pos + length].decode("utf-8"), pos + length


@dataclass
class SnibSymbol:
    """One compilation unit in the symbol table."""

    root_signature: str
    offset: int
    size: int
    members: List[Tuple[str, int, int]] = field(default_factory=list)  # (sig, off, size)


@dataclass
class SnibObject:
    """One heap-snapshot object in the object table."""

    type_name: str
    address: int
    size: int
    is_root: bool
    reason: str
    ids: Dict[str, int] = field(default_factory=dict)


@dataclass
class SnibImage:
    """A parsed SNIB file."""

    mode: str
    text_size: int
    heap_size: int
    symbols: List[SnibSymbol]
    objects: List[SnibObject]

    def symbol(self, root_signature: str) -> Optional[SnibSymbol]:
        for sym in self.symbols:
            if sym.root_signature == root_signature:
                return sym
        return None

    def describe(self, max_rows: int = 20) -> str:
        """objdump-style textual dump."""
        lines = [
            f"SNIB image  mode={self.mode}  .text={self.text_size} B  "
            f".svm_heap={self.heap_size} B",
            f"{len(self.symbols)} compilation units, {len(self.objects)} heap objects",
            "",
            f"{'offset':>10}  {'size':>7}  symbol",
        ]
        for sym in self.symbols[:max_rows]:
            lines.append(f"{sym.offset:#10x}  {sym.size:7d}  {sym.root_signature}")
        if len(self.symbols) > max_rows:
            lines.append(f"... and {len(self.symbols) - max_rows} more")
        lines.append("")
        lines.append(f"{'address':>10}  {'size':>7}  object")
        for obj in self.objects[:max_rows]:
            marker = f"  [{obj.reason}]" if obj.is_root else ""
            lines.append(f"{obj.address:#10x}  {obj.size:7d}  {obj.type_name}{marker}")
        if len(self.objects) > max_rows:
            lines.append(f"... and {len(self.objects) - max_rows} more")
        return "\n".join(lines)


def write_snib(binary: NativeImageBinary, path: Path) -> int:
    """Serialize ``binary`` to ``path``; returns the file size in bytes."""
    symbols = bytearray()
    for placed in binary.text.placed:
        cu = placed.cu
        symbols += struct.pack("<QQI", placed.offset, cu.size, len(cu.members))
        symbols += _pack_str(cu.name)
        for member in cu.members:
            symbols += struct.pack("<II", member.offset, member.size)
            symbols += _pack_str(member.signature)

    objects = bytearray()
    for obj in binary.heap.ordered:
        objects += struct.pack("<QIB", obj.address, obj.size, 1 if obj.is_root else 0)
        objects += _pack_str(obj.type_name)
        objects += _pack_str(obj.root_reason or "")
        for strategy in _ID_ORDER:
            objects += struct.pack("<Q", binary.snapshot.id_of(obj, strategy))

    header = MAGIC + struct.pack(
        "<HBBQQII",
        VERSION,
        _MODES[binary.mode],
        0,
        binary.text.size,
        binary.heap.size,
        len(binary.text.placed),
        len(binary.heap.ordered),
    )

    text_payload = _section_payload(
        [(placed.offset, placed.cu.size, placed.cu.name) for placed in binary.text.placed],
        binary.text.size,
    )
    heap_payload = _section_payload(
        [(obj.address, obj.size, obj.type_name) for obj in binary.heap.ordered],
        binary.heap.size,
    )

    blob = header + bytes(symbols) + bytes(objects) + text_payload + heap_payload
    Path(path).write_bytes(blob)
    return len(blob)


def _section_payload(entries: List[Tuple[int, int, str]], total: int) -> bytes:
    """Deterministic filler bytes: each entity stamps its own hash pattern."""
    payload = bytearray(total)
    for offset, size, name in entries:
        pattern = murmur3_64(name.encode("utf-8")).to_bytes(8, "little")
        end = min(offset + size, total)
        for index in range(offset, end):
            payload[index] = pattern[(index - offset) % 8]
    return bytes(payload)


def read_snib(path: Path) -> SnibImage:
    """Parse a SNIB file's header and tables (payload bytes are skipped)."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a SNIB image")
    version, mode_code, _reserved, text_size, heap_size, n_symbols, n_objects = (
        struct.unpack_from("<HBBQQII", data, 4)
    )
    if version != VERSION:
        raise ValueError(f"{path}: unsupported SNIB version {version}")
    mode = _MODE_NAMES.get(mode_code)
    if mode is None:
        raise ValueError(f"{path}: unknown mode code {mode_code}")
    pos = 4 + struct.calcsize("<HBBQQII")

    symbols: List[SnibSymbol] = []
    for _ in range(n_symbols):
        offset, size, n_members = struct.unpack_from("<QQI", data, pos)
        pos += struct.calcsize("<QQI")
        root, pos = _unpack_str(data, pos)
        members: List[Tuple[str, int, int]] = []
        for _ in range(n_members):
            m_off, m_size = struct.unpack_from("<II", data, pos)
            pos += 8
            signature, pos = _unpack_str(data, pos)
            members.append((signature, m_off, m_size))
        symbols.append(
            SnibSymbol(root_signature=root, offset=offset, size=size, members=members)
        )

    objects: List[SnibObject] = []
    for _ in range(n_objects):
        address, size, root_flag = struct.unpack_from("<QIB", data, pos)
        pos += struct.calcsize("<QIB")
        type_name, pos = _unpack_str(data, pos)
        reason, pos = _unpack_str(data, pos)
        ids = {}
        for strategy in _ID_ORDER:
            (value,) = struct.unpack_from("<Q", data, pos)
            pos += 8
            ids[strategy] = value
        objects.append(
            SnibObject(
                type_name=type_name,
                address=address,
                size=size,
                is_root=bool(root_flag),
                reason=reason,
                ids=ids,
            )
        )

    return SnibImage(
        mode=mode,
        text_size=text_size,
        heap_size=heap_size,
        symbols=symbols,
        objects=objects,
    )
