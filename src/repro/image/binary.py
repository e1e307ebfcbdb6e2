"""The built Native-Image binary and its runtime instantiation.

A :class:`NativeImageBinary` bundles everything a run needs: the build's own
program clone, the laid-out sections, the heap snapshot with object
identities, the statics area, and — for instrumented builds — the
instrumentation manifest.

Each execution calls :meth:`NativeImageBinary.instantiate` to get a *fresh*
copy of the mutable image heap, mirroring how the OS maps the pristine
binary file anew for every process.  Clones keep their ``image_ref`` link to
the snapshot entry of the original object, so page-touch accounting keeps
working across runs without cross-run state leaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..graal.cunits import CompilationUnit, CuMember
from ..minijava.bytecode import CompiledMethod, Program
from ..vm.values import ArrayInstance, ObjectInstance, ResourceBlob, StaticsHolder
from .heap import HeapObject, HeapSnapshot
from .sections import HeapSection, PlacedCu, TextSection

MODE_REGULAR = "regular"
MODE_INSTRUMENTED = "instrumented"
MODE_OPTIMIZED = "optimized"


@dataclass
class RuntimeImage:
    """A per-run, mutable copy of the image heap."""

    statics: Dict[str, StaticsHolder]


@dataclass
class NativeImageBinary:
    """A fully built binary."""

    program: Program
    mode: str
    cus: List[CompilationUnit]
    text: TextSection
    snapshot: HeapSnapshot
    heap: HeapSection
    statics: Dict[str, StaticsHolder]
    #: string-literal table index -> snapshot entry (interned strings)
    literal_objects: Dict[int, HeapObject] = field(default_factory=dict)
    #: fold token -> snapshot entry (PGO-embedded code constants)
    fold_objects: Dict[str, HeapObject] = field(default_factory=dict)
    #: set on instrumented builds
    manifest: Any = None
    build_seed: int = 0
    #: which ordering produced this layout (diagnostics)
    code_ordering: Optional[str] = None
    heap_ordering: Optional[str] = None

    _cu_by_root: Dict[str, PlacedCu] = field(default_factory=dict)
    _inline_home: Dict[str, PlacedCu] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for placed in self.text.placed:
            self._cu_by_root[placed.cu.name] = placed
        # Fallback CU for methods inlined everywhere (no standalone CU):
        # the carrier with the smallest CU name, so every layout of one
        # build runs the same copy.
        for placed in self.text.placed:
            for member in placed.cu.members[1:]:
                home = self._inline_home.get(member.signature)
                if home is None or placed.cu.name < home.cu.name:
                    self._inline_home[member.signature] = placed

    # -- code lookup --------------------------------------------------------

    def placed_cu_for_root(self, signature: str) -> Optional[PlacedCu]:
        return self._cu_by_root.get(signature)

    def code_location(
        self, method: CompiledMethod, caller_cu: Optional[PlacedCu]
    ) -> "tuple[PlacedCu, CuMember] | tuple[None, None]":
        """Where ``method``'s code executes, given the caller's CU context.

        If the caller's CU inlined the method, execution stays in the caller
        CU (the inlined copy's bytes).  Otherwise control transfers to the
        method's own CU.  Methods with no standalone CU (inlined everywhere)
        fall back to the copy in the carrier CU with the smallest name.
        """
        signature = method.signature
        if caller_cu is not None:
            member = caller_cu.cu.member_for(signature)
            if member is not None and signature != caller_cu.cu.name:
                return caller_cu, member
        own = self._cu_by_root.get(signature)
        if own is not None:
            return own, own.cu.members[0]
        home = self._inline_home.get(signature)
        if home is not None:
            member = home.cu.member_for(signature)
            if member is not None:
                return home, member
        return None, None

    # -- binary facts ----------------------------------------------------------

    def layout_digest(self) -> int:
        """Stable 64-bit fingerprint of the final layout.

        Hashes every (CU name, offset) and (object index, address) pair, so
        two binaries share a digest iff their sections place the same things
        at the same offsets — the identity quarantine entries and
        verification reports use to name a layout.
        """
        from ..util.murmur3 import murmur3_64

        parts: List[str] = [self.mode, str(self.text.size), str(self.heap.size)]
        parts.extend(f"{p.cu.name}@{p.offset}" for p in self.text.placed)
        parts.extend(f"#{o.index}@{o.address}" for o in self.heap.ordered)
        return murmur3_64("|".join(parts).encode("utf-8"))

    @property
    def text_size(self) -> int:
        return self.text.size

    @property
    def heap_size(self) -> int:
        return self.heap.size

    def heap_object_count(self) -> int:
        return len(self.snapshot)

    # -- instantiation ------------------------------------------------------------

    def instantiate(self) -> RuntimeImage:
        """Fresh mutable copy of the image heap for one execution."""
        memo: Dict[int, Any] = {}
        statics: Dict[str, StaticsHolder] = {}
        for name, holder in self.statics.items():
            statics[name] = _clone_value(holder, memo)
        return RuntimeImage(statics=statics)


def _clone_value(value: Any, memo: Dict[int, Any]) -> Any:
    """Clone the mutable image heap; immutable leaves are shared."""
    if value is None or isinstance(value, (bool, int, float, str, ResourceBlob)):
        return value
    key = id(value)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(value, ObjectInstance):
        clone = ObjectInstance.__new__(ObjectInstance)
        clone.klass = value.klass
        clone.image_ref = value.image_ref
        clone.fields = {}
        memo[key] = clone
        for field_name, child in value.fields.items():
            clone.fields[field_name] = _clone_value(child, memo)
        return clone
    if isinstance(value, ArrayInstance):
        clone = ArrayInstance.__new__(ArrayInstance)
        clone.elem_type = value.elem_type
        clone.image_ref = value.image_ref
        clone.values = []
        memo[key] = clone
        clone.values.extend(_clone_value(child, memo) for child in value.values)
        return clone
    if isinstance(value, StaticsHolder):
        clone = StaticsHolder.__new__(StaticsHolder)
        clone.class_name = value.class_name
        clone.image_ref = value.image_ref
        clone.fields = {}
        memo[key] = clone
        for field_name, child in value.fields.items():
            clone.fields[field_name] = _clone_value(child, memo)
        return clone
    raise TypeError(f"cannot clone image value of type {type(value).__name__}")
