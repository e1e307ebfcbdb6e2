"""Compilation units (CUs).

A CU is a root method plus every method body inlined into it (paper Sec. 2).
CUs are the unit of code layout: the ``.text`` section is a sequence of CUs,
and the code-ordering strategies permute exactly this sequence.  Each member
occupies a contiguous byte range inside its CU so the paging simulator can
charge page touches per executed method copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..minijava.bytecode import CompiledMethod

#: Fixed per-CU prologue (frame setup, deopt anchor, ...) in bytes.
CU_PROLOGUE_BYTES = 16


@dataclass
class CuMember:
    """One method body placed inside a CU (the root or an inlined copy)."""

    method: CompiledMethod
    offset: int  # byte offset inside the CU
    size: int  # machine-code bytes of this copy

    @property
    def signature(self) -> str:
        return self.method.signature


@dataclass
class CompilationUnit:
    """A root method and its inlined callees, with intra-CU layout."""

    root: CompiledMethod
    members: List[CuMember] = field(default_factory=list)
    inlined_signatures: frozenset = frozenset()

    @property
    def name(self) -> str:
        return self.root.signature

    @property
    def size(self) -> int:
        if not self.members:
            return CU_PROLOGUE_BYTES
        last = self.members[-1]
        return last.offset + last.size

    def member_for(self, signature: str) -> Optional[CuMember]:
        """The first placed copy of ``signature`` in this CU, if any."""
        for member in self.members:
            if member.signature == signature:
                return member
        return None

    def contains(self, signature: str) -> bool:
        return signature == self.root.signature or signature in self.inlined_signatures

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CU {self.name} ({len(self.members)} members, {self.size} B)>"


def layout_members(
    root: CompiledMethod,
    inline_bodies: List[CompiledMethod],
    size_fn: Callable[[CompiledMethod], int],
) -> CompilationUnit:
    """Assign intra-CU offsets: prologue, root body, then inlined bodies."""
    members: List[CuMember] = []
    offset = CU_PROLOGUE_BYTES
    for method in [root] + inline_bodies:
        size = size_fn(method)
        members.append(CuMember(method=method, offset=offset, size=size))
        offset += size
    return CompilationUnit(
        root=root,
        members=members,
        inlined_signatures=frozenset(m.signature for m in inline_bodies),
    )

