"""Shared page arithmetic for sections, the paging simulator, and attribution.

Every layer that reasons about 4 KiB pages — section layout
(:mod:`repro.image.sections`), the demand-paging simulator
(:mod:`repro.runtime.paging`), the Fig. 6 page maps
(:mod:`repro.eval.pagemap`), and the startup
attribution layer (:mod:`repro.obs.attrib`) — must agree byte-for-byte on
which pages a byte range touches.  This module is the single source of that
arithmetic; duplicating the first/last-page computation is how off-by-one
spanning bugs creep in between layers.

Zero-length ranges span **no** pages: mapping zero bytes must not charge a
phantom fault (the :meth:`~repro.runtime.paging.PageCache.touch` contract).
Negative sizes are programming errors and raise.
"""

from __future__ import annotations

#: The simulated page size; matches the paper's 4 KiB accounting (Sec. 7.1).
PAGE_SIZE = 4096


def page_count(size_bytes: int, page_size: int = PAGE_SIZE) -> int:
    """Pages needed to hold ``size_bytes`` (0 bytes -> 0 pages)."""
    if size_bytes < 0:
        raise ValueError(f"negative size {size_bytes}")
    return (size_bytes + page_size - 1) // page_size


def pages_spanned(offset: int, size: int, page_size: int = PAGE_SIZE) -> range:
    """The page indices touched by a byte range.

    A zero-length range spans no pages (empty range) — mirroring
    :meth:`repro.runtime.paging.PageCache.touch`, which treats zero-length
    touches as no-ops rather than silently charging one page.
    """
    if size < 0:
        raise ValueError(f"negative size {size}")
    first = offset // page_size
    if size == 0:
        return range(first, first)
    last = (offset + size - 1) // page_size
    return range(first, last + 1)
