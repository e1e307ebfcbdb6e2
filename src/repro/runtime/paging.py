"""Demand-paging simulator.

Native-Image binaries are memory-mapped; the first access to each 4 KiB
page of ``.text`` or ``.svm_heap`` takes a major page fault that reads the
page from the (network) file system (paper Secs. 1-2).  The simulator
tracks residency per (section, page) and attributes faults to sections, the
same split the paper extracts from ``perf`` (Sec. 7.1).

Every run starts with a cold cache — the evaluation drops clean caches
between iterations, and so do we, trivially, by instantiating a fresh
:class:`PageCache` per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..util.pagemath import PAGE_SIZE, page_count, pages_spanned


@dataclass(frozen=True)
class IoDevice:
    """A storage device model: cost of servicing major page faults.

    The cost is per-event-capable: :meth:`fault_cost_at` prices the *i*-th
    fault of a run (0-based, counted across all sections, matching the
    executor's time model which charges total faults).  ``warmup_faults``
    models a cold device/queue: the first that-many faults each pay
    ``warmup_extra_s`` on top of the steady-state latency (0 by default, so
    the classic constant-latency accounting is unchanged).  The aggregate
    :meth:`fault_cost` is exactly the sum of the per-event costs — the
    attribution timeline depends on that identity.
    """

    name: str
    fault_latency_s: float
    #: first faults that pay an extra cold-start penalty (0 = none)
    warmup_faults: int = 0
    warmup_extra_s: float = 0.0

    def fault_cost_at(self, index: int) -> float:
        """Cost of the ``index``-th fault of a run (0-based)."""
        if index < 0:
            raise ValueError(f"negative fault index {index}")
        cost = self.fault_latency_s
        if index < self.warmup_faults:
            cost += self.warmup_extra_s
        return cost

    def fault_cost(self, faults: int) -> float:
        """Aggregate cost of ``faults`` faults (== sum of per-event costs)."""
        cost = faults * self.fault_latency_s
        warm = min(faults, self.warmup_faults)
        if warm > 0:
            cost += warm * self.warmup_extra_s
        return cost


#: A local SSD (the paper's primary device).
SSD = IoDevice(name="ssd", fault_latency_s=90e-6)
#: A network file system (the paper reports similar trends on NFS).
NFS = IoDevice(name="nfs", fault_latency_s=450e-6)

DEVICES = {d.name: d for d in (SSD, NFS)}


@dataclass
class PageCache:
    """Tracks resident pages and counts major faults per section.

    ``fault_around`` models the kernel's fault-around optimization: each
    major fault additionally maps that many neighbouring pages on each side
    *without* counting them as faults.  It is 0 by default (the paper's
    per-page accounting); the Fig. 6 visualization enables it to show the
    "mapped but not faulted" (red) pages.

    ``fault_log`` lists every major fault in the order it was charged, as
    ``(section, page, offset)``: ``offset`` is the byte offset of the access
    that pulled the page in, clamped to the page start for multi-page
    touches.  Fault-around neighbour pages are mapped but never logged —
    they are not faults.
    """

    page_size: int = PAGE_SIZE
    fault_around: int = 0
    resident: Set[Tuple[str, int]] = field(default_factory=set)
    faults: Dict[str, int] = field(default_factory=dict)
    fault_log: List[Tuple[str, int, int]] = field(default_factory=list)
    #: section -> page count; fault-around never maps past the last page
    page_limits: Dict[str, int] = field(default_factory=dict)

    def set_limit(self, section: str, size_bytes: int) -> None:
        """Register a section's byte size so fault-around stays in bounds.

        Without a limit, fault-around would map neighbour pages past the
        end of the section and ``resident_pages`` (Fig. 6) would show
        pages the section does not have.
        """
        self.page_limits[section] = page_count(max(size_bytes, 0),
                                               self.page_size)

    def touch(self, section: str, offset: int, size: int = 1) -> int:
        """Touch a byte range; returns the number of faults it caused.

        A zero-length touch is an explicit no-op (0 faults) — it maps no
        bytes, so it must not charge a phantom fault.  Negative sizes are
        programming errors and raise, like negative offsets.
        """
        if offset < 0:
            raise ValueError(f"negative offset {offset} in {section}")
        if size == 0:
            return 0
        new_faults = 0
        resident = self.resident
        for page in pages_spanned(offset, size, self.page_size):
            key = (section, page)
            if key not in resident:
                resident.add(key)
                new_faults += 1
                self.fault_log.append(
                    (section, page, max(offset, page * self.page_size)))
                if self.fault_around:
                    limit = self.page_limits.get(section)
                    lo = max(page - self.fault_around, 0)
                    hi = page + self.fault_around
                    if limit is not None:
                        hi = min(hi, limit - 1)
                    for near in range(lo, hi + 1):
                        resident.add((section, near))
        if new_faults:
            self.faults[section] = self.faults.get(section, 0) + new_faults
        return new_faults

    def fault_count(self, section: str) -> int:
        return self.faults.get(section, 0)

    def total_faults(self) -> int:
        return sum(self.faults.values())

    def resident_pages(self, section: str) -> Set[int]:
        return {page for (name, page) in self.resident if name == section}

    def faulted(self, section: str) -> Set[int]:
        """The pages of ``section`` that took a major fault."""
        return {page for (name, page, _offset) in self.fault_log
                if name == section}

    def snapshot_counts(self) -> Dict[str, int]:
        return dict(self.faults)
