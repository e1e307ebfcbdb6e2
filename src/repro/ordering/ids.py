"""Object-identity strategies (paper Sec. 5, Algorithms 1-3).

Each strategy computes a 64-bit ID per heap-snapshot object, used to match
the object-access trace of the *instrumented* build against the objects of
the *optimized* build:

* :func:`assign_incremental_ids` — Algorithm 1: per-type counters in
  traversal encounter order; the type ID occupies the top 32 bits so that
  divergence in one type does not shift the IDs of other types.
* :class:`StructuralHasher` — Algorithm 2: MurmurHash3 over a depth-bounded
  byte encoding of the object's type, fields, and neighbours
  (``MAX_DEPTH`` = 2 in the paper's evaluation).
* :func:`heap_path_hash` — Algorithm 3: MurmurHash3 over the first
  root-to-object path plus the root's heap-inclusion reason, with interned
  strings hashed by content.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..util.murmur3 import murmur3_32, murmur3_64
from ..vm.values import ArrayInstance, ObjectInstance, ResourceBlob, StaticsHolder
from .reasons import REASON_INTERNED_STRING

if TYPE_CHECKING:  # imported for annotations only (avoids an import cycle)
    from ..image.heap import HeapObject, HeapSnapshot

INCREMENTAL_ID = "incremental_id"
STRUCTURAL_HASH = "structural_hash"
HEAP_PATH = "heap_path"
ALL_STRATEGIES = (INCREMENTAL_ID, STRUCTURAL_HASH, HEAP_PATH)

#: The paper's experimentally chosen recursion bound for structural hashing.
DEFAULT_MAX_DEPTH = 2

_MASK32 = 0xFFFFFFFF


def type_id(type_name: str) -> int:
    """Stable 32-bit type identifier (types are identified by name across
    compilations; Sec. 5.1)."""
    return murmur3_32(type_name.encode("utf-8"))


# ---------------------------------------------------------------------------
# Algorithm 1: incremental IDs
# ---------------------------------------------------------------------------


def assign_incremental_ids(
    snapshot: HeapSnapshot, per_type: bool = True
) -> Dict[int, int]:
    """Assign incremental IDs in encounter order.

    With ``per_type`` (the paper's design), counters are segregated by type;
    the ablation mode ``per_type=False`` uses one global counter, which lets
    any divergence shift every later object's ID.

    Returns ``{object index: id}`` and stores the IDs on the objects.
    """
    counters: Dict[int, int] = {}
    ids: Dict[int, int] = {}
    global_counter = 0
    for obj in snapshot:
        tid = type_id(obj.type_name)
        if per_type:
            counters[tid] = counters.get(tid, 0) + 1
            value = (tid << 32) | (counters[tid] & _MASK32)
        else:
            global_counter += 1
            value = (tid << 32) | (global_counter & _MASK32)
        obj.ids[INCREMENTAL_ID] = value
        ids[obj.index] = value
    return ids


# ---------------------------------------------------------------------------
# Algorithm 2: structural hash
# ---------------------------------------------------------------------------


class StructuralHasher:
    """Depth-bounded structural hashing of heap values (Algorithm 2)."""

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
        self.max_depth = max_depth

    def hash_object(self, obj: HeapObject) -> int:
        return self.hash_value(obj.value)

    def hash_value(self, value: Any) -> int:
        return murmur3_64(bytes(self._encode(value, 0)))

    # -- encodeToBytes ------------------------------------------------------

    def _encode(self, value: Any, depth: int) -> bytearray:
        buffer = bytearray()
        if value is None:
            buffer.append(0)
            return buffer
        buffer += _type_name_of(value).encode("utf-8")
        should_recurse = depth < self.max_depth

        if isinstance(value, (bool, int, float, str)):
            buffer += _primitive_bytes(value)
        elif isinstance(value, ObjectInstance):
            for field_info in value.klass.all_instance_fields():
                child = value.fields.get(field_info.name)
                if should_recurse or _is_primitive_or_string(child):
                    buffer += field_info.type_name.encode("utf-8")
                    buffer += self._encode(child, depth + 1)
        elif isinstance(value, StaticsHolder):
            for field_name, child in value.fields.items():
                if should_recurse or _is_primitive_or_string(child):
                    buffer += field_name.encode("utf-8")
                    buffer += self._encode(child, depth + 1)
        elif isinstance(value, ArrayInstance):
            buffer += value.elem_type.encode("utf-8")
            buffer += _primitive_bytes(value.length)
            elem_primitive = value.elem_type in ("int", "double", "boolean", "String")
            if should_recurse or elem_primitive:
                for index, element in enumerate(value.values):
                    buffer += _primitive_bytes(index)
                    buffer += self._encode(element, depth + 1)
        elif isinstance(value, ResourceBlob):
            buffer += value.name.encode("utf-8")
            buffer += _primitive_bytes(value.size)
        else:  # pragma: no cover - exhaustive over heap values
            raise TypeError(f"cannot encode {type(value).__name__}")
        return buffer


def structural_hash(obj: HeapObject,
                    max_depth: int = DEFAULT_MAX_DEPTH) -> int:
    """One object's structural-hash ID (Algorithm 2)."""
    return StructuralHasher(max_depth).hash_object(obj)


# ---------------------------------------------------------------------------
# Algorithm 3: heap-path hash
# ---------------------------------------------------------------------------


def heap_path_hash(obj: Optional[HeapObject],
                   intern_special_case: bool = True) -> int:
    """Hash the first root-to-object path (Algorithm 3).

    ``intern_special_case`` reproduces line 4 of the algorithm: interned
    strings are hashed by content, because their path ("InternedString")
    would otherwise be identical for all of them.  Disabling it is the
    ablation discussed in DESIGN.md.
    """
    if obj is None:
        return 0
    buffer = bytearray()
    if (
        intern_special_case
        and obj.is_root
        and obj.root_reason == REASON_INTERNED_STRING
    ):
        buffer += str(obj.value).encode("utf-8")
        return murmur3_64(bytes(buffer))

    current: Optional[HeapObject] = obj
    while current is not None:
        buffer += current.type_name.encode("utf-8")
        if current.is_root:
            buffer += str(current.root_reason).encode("utf-8")
            break
        edge = current.parent_edge
        if isinstance(edge, int):
            buffer += _primitive_bytes(edge)
        else:
            buffer += str(edge).encode("utf-8")
        current = current.parent
    return murmur3_64(bytes(buffer))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _type_name_of(value: Any) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "double"
    if isinstance(value, str):
        return "String"
    if isinstance(value, StaticsHolder):
        return f"{value.class_name}$Statics"
    if isinstance(value, ResourceBlob):
        return "Resource"
    return value.type_name


def _is_primitive_or_string(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _primitive_bytes(value: Any) -> bytes:
    if value is None:
        return b"\x00"
    if isinstance(value, bool):
        return b"\x01" if value else b"\x02"
    if isinstance(value, int):
        return b"i" + (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    if isinstance(value, float):
        return b"d" + struct.pack("<d", value)
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    raise TypeError(f"not a primitive: {type(value).__name__}")
