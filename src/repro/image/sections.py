"""Binary sections: ``.text`` and ``.svm_heap`` layout.

Addresses are section-relative byte offsets; the paging simulator charges
faults per 4 KiB page per section, matching how the paper attributes
perf-traced faults to section offset ranges (Sec. 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..graal.cunits import CompilationUnit, CuMember
from ..util.pagemath import PAGE_SIZE, pages_spanned as _pages_spanned
from .heap import HeapObject

CU_ALIGN = 16
OBJ_ALIGN = 8
# Historical private aliases; the validation package reads the public names.
_CU_ALIGN = CU_ALIGN
_OBJ_ALIGN = OBJ_ALIGN

TEXT_SECTION = ".text"
HEAP_SECTION = ".svm_heap"


@dataclass
class PlacedCu:
    """A CU at its final offset in ``.text``."""

    cu: CompilationUnit
    offset: int

    @property
    def end(self) -> int:
        return self.offset + self.cu.size

    def member_range(self, member: CuMember) -> Tuple[int, int]:
        """Absolute (offset, size) of a member's code."""
        return self.offset + member.offset, member.size


@dataclass
class TextSection:
    """The code section: ordered CUs plus a trailing native-library blob."""

    placed: List[PlacedCu] = field(default_factory=list)
    native_blob_offset: int = 0
    native_blob_size: int = 0
    size: int = 0


def layout_text(ordered_cus: List[CompilationUnit],
                native_blob_size: int = 0) -> TextSection:
    """Assign CU base offsets in the given order, then the native blob.

    The native blob models statically linked libraries at the end of
    ``.text`` — code we do not profile or reorder (paper Appendix A).
    """
    section = TextSection()
    offset = 0
    for cu in ordered_cus:
        placed = PlacedCu(cu=cu, offset=offset)
        section.placed.append(placed)
        offset += _align(cu.size, _CU_ALIGN)
    section.native_blob_offset = _align(offset, PAGE_SIZE)
    section.native_blob_size = native_blob_size
    section.size = section.native_blob_offset + native_blob_size
    return section


@dataclass
class HeapSection:
    """The heap-snapshot section: objects at their final addresses."""

    ordered: List[HeapObject] = field(default_factory=list)
    size: int = 0


def layout_heap(ordered_objects: List[HeapObject]) -> HeapSection:
    """Assign addresses in the given order and link values back to entries.

    Runtime values gain an ``image_ref`` pointing at their snapshot entry so
    executors can charge page touches (strings are reached through the
    literal/constant tables instead, since ``str`` carries no attributes).
    """
    section = HeapSection(ordered=ordered_objects)
    address = 0
    for obj in ordered_objects:
        obj.address = address
        address += _align(obj.size, _OBJ_ALIGN)
        if not isinstance(obj.value, str):
            obj.value.image_ref = obj
    section.size = address
    return section


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def expected_text_size(cus: List[CompilationUnit], native_blob_size: int) -> int:
    """The ``.text`` byte size any permutation of ``cus`` must produce.

    Both the packed CU area and the page-aligned native blob offset are
    permutation-invariant, so reordering never changes the section size —
    the invariant the layout verifier checks.
    """
    packed = sum(_align(cu.size, CU_ALIGN) for cu in cus)
    return _align(packed, PAGE_SIZE) + native_blob_size


def expected_heap_size(objects: List[HeapObject]) -> int:
    """The ``.svm_heap`` byte size any permutation of ``objects`` must produce."""
    return sum(_align(obj.size, OBJ_ALIGN) for obj in objects)


def pages_spanned(offset: int, size: int, page_size: int = PAGE_SIZE) -> range:
    """The page indices touched by a byte range.

    Delegates to the shared :func:`repro.util.pagemath.pages_spanned` so
    section layout, the paging simulator, the Fig. 6 maps, and the
    attribution layer all agree on spanning; kept as a re-export because
    callers historically import it from here.
    """
    return _pages_spanned(offset, size, page_size)
