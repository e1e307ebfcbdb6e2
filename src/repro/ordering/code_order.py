"""Code-ordering strategies (paper Sec. 4).

The ``.text`` section is a sequence of compilation units.  By default Native
Image orders CUs alphabetically by root-method signature; the two strategies
reorder them by first-execution order from the profile:

* **cu ordering** (Sec. 4.1) — the profile lists CU *root* signatures in
  first-entry order; CUs are placed in that order.
* **method ordering** (Sec. 4.2) — the profile lists *method* signatures in
  first-entry order; a CU is ranked by the earliest-executed method it
  contains (root or inlined copy), which pays off when the optimized build's
  inliner made different decisions than the profiling build's.

Profile entries are matched to CUs by signature, as in the paper; CUs that
match nothing keep the default (alphabetical) order after all matched CUs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..graal.cunits import CompilationUnit
from .errors import OrderingError
from .profiles import CodeOrderProfile

CU_ORDERING = "cu"
METHOD_ORDERING = "method"
#: Search-derived CU placement order (repro.ordering.optimize): signatures
#: are CU roots like ``cu``, so it ranks through the same root matcher.
CU_OPT_ORDERING = "cu-opt"


def default_order(cus: List[CompilationUnit]) -> List[CompilationUnit]:
    """Native Image's default: alphabetical by root signature."""
    return sorted(cus, key=lambda cu: cu.name)


def order_compilation_units(
    cus: List[CompilationUnit],
    profile: Optional[CodeOrderProfile] = None,
    strict: bool = False,
) -> List[CompilationUnit]:
    """Order CUs for the ``.text`` section.

    Without a profile this is the default alphabetical order.  With a
    profile, matched CUs come first in profile order, then unmatched CUs
    alphabetically.  With ``strict=True``, profile signatures that resolve
    to no CU (root nor inlined member, per the profile kind) raise
    :class:`OrderingError` instead of being skipped.
    """
    if profile is None:
        return default_order(cus)
    if profile.kind in (CU_ORDERING, CU_OPT_ORDERING):
        ranks = _rank_by_root(cus, profile)
        known = {cu.name for cu in cus}
    elif profile.kind == METHOD_ORDERING:
        ranks = _rank_by_members(cus, profile)
        known = {member.signature for cu in cus for member in cu.members}
    else:
        raise OrderingError(
            f"unknown code-ordering kind {profile.kind!r}", kind=profile.kind
        )

    if strict:
        missing = [sig for sig in profile.signatures if sig not in known]
        if missing:
            raise OrderingError(
                f"{len(missing)} profile signature(s) resolve to no "
                f"compilation unit in this build (first: {missing[0]!r}); "
                "the profile is from a different build",
                kind=profile.kind,
                missing=missing,
            )

    matched = [cu for cu in cus if cu.name in ranks]
    unmatched = [cu for cu in cus if cu.name not in ranks]
    matched.sort(key=lambda cu: (ranks[cu.name], cu.name))
    unmatched.sort(key=lambda cu: cu.name)
    return matched + unmatched


def _rank_by_root(
    cus: List[CompilationUnit], profile: CodeOrderProfile
) -> Dict[str, int]:
    position = {signature: index for index, signature in enumerate(profile.signatures)}
    return {
        cu.name: position[cu.name] for cu in cus if cu.name in position
    }


def _rank_by_members(
    cus: List[CompilationUnit], profile: CodeOrderProfile
) -> Dict[str, int]:
    position = {signature: index for index, signature in enumerate(profile.signatures)}
    ranks: Dict[str, int] = {}
    for cu in cus:
        best = None
        for member in cu.members:
            rank = position.get(member.signature)
            if rank is not None and (best is None or rank < best):
                best = rank
        if best is not None:
            ranks[cu.name] = best
    return ranks

