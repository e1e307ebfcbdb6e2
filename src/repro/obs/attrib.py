"""Startup attribution: blame every first-touch fault on what lives there.

The pipeline's aggregate fault counts (Sec. 7.1's per-section split) say
*how much* cold startup paid, never *why*.  This module turns the paging
simulator's fault stream into a diagnosis, the lens Meta's function-layout
work and Newell & Pupyrev's reordering work use to debug layouts.
:func:`attribute` takes one run's fault log — the ``(section, page,
offset)`` list :class:`~repro.runtime.paging.PageCache` keeps, here from
replaying the touches the run recorded — prices each fault as a typed
:class:`FaultEvent` ``(logical_time, section, page, offset, cost)``, and
blames it on the compilation unit(s) / heap object(s) resident on the
faulted page, producing a :class:`StartupAttributionReport` with per-unit
fault shares, page co-tenancy, the first-touch timeline, and
front-density-over-time.

A fault on a page shared by *k* units is split into *k* equal blame shares
(computed exactly, with :class:`~fractions.Fraction`), so per-unit shares
always sum to the section's fault count.  Pages owned by nothing —
alignment gaps, the native-library blob — are blamed on the synthetic
units :data:`PADDING_UNIT` / :data:`NATIVE_BLOB_UNIT` so no fault ever
goes unaccounted.

Layering: this module only needs duck-typed access to the built binary
(``binary.text.placed`` / ``binary.heap.ordered``) and imports nothing
from the pipeline or the runtime at runtime, so every layer may use it
without cycles.
The differential explainer on top of it lives in
:mod:`repro.eval.explain` (surfaced as ``repro why``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..util.pagemath import page_count, pages_spanned

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from ..image.binary import NativeImageBinary
    from ..runtime.paging import IoDevice

#: synthetic tenant of the statically linked native-library pages of ``.text``
NATIVE_BLOB_UNIT = "<native blob>"
#: synthetic tenant of pages no unit occupies (alignment gaps)
PADDING_UNIT = "<padding>"

#: the fraction of a section counted as its "front" by the density curves
FRONT_FRACTION = 0.25


def _front_pages(reorderable_pages: int) -> int:
    """Pages in the front of a section's reorderable region (>= 1)."""
    return max(int(reorderable_pages * FRONT_FRACTION), 1)


def front_density(pages: Sequence[int], reorderable_pages: int) -> float:
    """Share of the faulted reorderable ``pages`` that sit in the front.

    The front is the first :data:`FRONT_FRACTION` of the reorderable
    pages.  Pages at or past ``reorderable_pages`` — the native blob of
    ``.text`` — are not counted at all: no layout can move them (Fig. 6's
    trailing region).  0.0 when no reorderable page faulted.  The page
    maps and the attribution curve both read this one definition.
    """
    counted = [page for page in pages if page < reorderable_pages]
    if not counted:
        return 0.0
    front = _front_pages(reorderable_pages)
    return sum(1 for page in counted if page < front) / len(counted)


@dataclass(frozen=True)
class FaultEvent:
    """One first-touch major fault, in the order the run charged it.

    ``logical_time`` is the 0-based global fault index of the run (counted
    across all sections, matching the executor's time model); ``offset``
    is the byte offset of the access that pulled the page in, clamped to
    the page start for multi-page touches; ``cost`` is the device's
    per-event price of this fault (:meth:`IoDevice.fault_cost_at`).
    """

    logical_time: int
    section: str
    page: int
    offset: int
    cost: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "t": self.logical_time,
            "section": self.section,
            "page": self.page,
            "offset": self.offset,
            "cost": self.cost,
        }


# -- section tenancy ----------------------------------------------------------


@dataclass
class SectionTenancy:
    """Who occupies which page of one section (the layout-side join key)."""

    section: str
    total_pages: int
    #: page -> unit labels resident on it, in layout order
    tenants: Dict[int, Tuple[str, ...]]
    #: unit label -> every page it occupies (layout span, not just faulted)
    unit_pages: Dict[str, Tuple[int, ...]]
    #: pages before this index are reorderable (.text: the native blob and
    #: everything after it is not); equals ``total_pages`` for ``.svm_heap``
    reorderable_pages: int = 0

    def tenants_of(self, page: int) -> Tuple[str, ...]:
        return self.tenants.get(page, (PADDING_UNIT,))


def _add_tenant(tenants: Dict[int, List[str]],
                unit_pages: Dict[str, List[int]],
                unit: str, pages: range) -> None:
    for page in pages:
        tenants.setdefault(page, []).append(unit)
    unit_pages.setdefault(unit, []).extend(pages)


def text_tenancy(binary: "NativeImageBinary") -> SectionTenancy:
    """Page tenancy of ``.text``: placed CUs plus the native blob."""
    from ..image.sections import TEXT_SECTION

    tenants: Dict[int, List[str]] = {}
    unit_pages: Dict[str, List[int]] = {}
    for placed in binary.text.placed:
        _add_tenant(tenants, unit_pages, placed.cu.name,
                    pages_spanned(placed.offset, placed.cu.size))
    if binary.text.native_blob_size > 0:
        _add_tenant(tenants, unit_pages, NATIVE_BLOB_UNIT,
                    pages_spanned(binary.text.native_blob_offset,
                                  binary.text.native_blob_size))
    return SectionTenancy(
        section=TEXT_SECTION,
        total_pages=page_count(binary.text.size),
        tenants={page: tuple(units) for page, units in tenants.items()},
        unit_pages={unit: tuple(sorted(set(pages)))
                    for unit, pages in unit_pages.items()},
        reorderable_pages=page_count(binary.text.native_blob_offset),
    )


def heap_object_label(obj: Any) -> str:
    """Stable-ish label of one heap object: type plus traversal index.

    Traversal indexes are assigned by the (deterministic, seed-fixed)
    snapshotter, so two builds of the same source at the same seed agree;
    across mismatched builds they drift exactly the way the paper's
    incremental IDs do (Sec. 5.1) — good enough for a diagnosis lens.
    """
    return f"{obj.type_name}#{obj.index}"


def heap_tenancy(binary: "NativeImageBinary") -> SectionTenancy:
    """Page tenancy of ``.svm_heap``: every snapshotted object."""
    from ..image.sections import HEAP_SECTION

    tenants: Dict[int, List[str]] = {}
    unit_pages: Dict[str, List[int]] = {}
    for obj in binary.heap.ordered:
        _add_tenant(tenants, unit_pages, heap_object_label(obj),
                    pages_spanned(obj.address, max(obj.size, 1)))
    total = max(page_count(binary.heap.size), 1)
    return SectionTenancy(
        section=HEAP_SECTION,
        total_pages=total,
        tenants={page: tuple(units) for page, units in tenants.items()},
        unit_pages={unit: tuple(sorted(set(pages)))
                    for unit, pages in unit_pages.items()},
        reorderable_pages=total,
    )


def binary_tenancies(binary: "NativeImageBinary") -> Dict[str, SectionTenancy]:
    """Both sections' tenancy maps, keyed by section name."""
    text = text_tenancy(binary)
    heap = heap_tenancy(binary)
    return {text.section: text, heap.section: heap}


# -- attribution --------------------------------------------------------------


@dataclass
class UnitBlame:
    """One unit's share of a section's startup faults."""

    unit: str
    #: exact share-weighted fault count (co-tenant faults split equally);
    #: per-section shares sum to *exactly* the section's fault count
    share: Fraction
    #: share-weighted I/O cost in seconds
    cost: float
    #: logical time of the first fault blamed on this unit
    first_touch: Optional[int]
    #: faulted pages this unit was blamed on
    pages: Tuple[int, ...]

    @property
    def faults(self) -> float:
        """The share as a float, for display and ranking."""
        return float(self.share)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "unit": self.unit,
            "faults": self.faults,
            "cost": self.cost,
            "first_touch": self.first_touch,
            "pages": list(self.pages),
        }


@dataclass
class TimelineEntry:
    """One fault of the first-touch timeline, with its blamed units."""

    event: FaultEvent
    units: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        payload = self.event.as_dict()
        payload["units"] = list(self.units)
        return payload


@dataclass
class SectionAttribution:
    """Everything the fault stream says about one section."""

    section: str
    fault_count: int
    total_cost: float
    #: blamed units, heaviest first (ties by name)
    units: List[UnitBlame] = field(default_factory=list)
    #: faulted page -> its (layout-order) tenants
    page_tenants: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: layout span of every unit in the section (moved-detection join key)
    unit_pages: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    reorderable_pages: int = 0

    @property
    def front_quarter_pages(self) -> int:
        """Pages in the section's reorderable front quarter (>= 1)."""
        return _front_pages(self.reorderable_pages)

    def cotenancy(self) -> Dict[str, Tuple[str, ...]]:
        """Who shares a *faulted* page with whom (symmetric by construction)."""
        neighbours: Dict[str, set] = {}
        for tenants in self.page_tenants.values():
            for unit in tenants:
                neighbours.setdefault(unit, set()).update(
                    other for other in tenants if other != unit
                )
        return {unit: tuple(sorted(others))
                for unit, others in sorted(neighbours.items())}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "section": self.section,
            "fault_count": self.fault_count,
            "total_cost": self.total_cost,
            "reorderable_pages": self.reorderable_pages,
            "front_quarter_pages": self.front_quarter_pages,
            "units": [blame.as_dict() for blame in self.units],
            "cotenancy": {unit: list(others)
                          for unit, others in self.cotenancy().items()},
        }


@dataclass
class StartupAttributionReport:
    """The full diagnosis of one cold run's fault stream."""

    label: str
    sections: Dict[str, SectionAttribution]
    #: all faults in logical-time order, each with its blamed units
    timeline: List[TimelineEntry]
    #: per section: :func:`front_density` of its faults so far, sampled
    #: after each section fault
    front_density: Dict[str, List[float]]

    @property
    def total_faults(self) -> int:
        return sum(section.fault_count for section in self.sections.values())

    @property
    def total_cost(self) -> float:
        return math.fsum(section.total_cost for section in self.sections.values())

    def section(self, name: str) -> SectionAttribution:
        return self.sections[name]

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic, JSON-ready view (key-sorted where it matters)."""
        return {
            "label": self.label,
            "total_faults": self.total_faults,
            "total_cost": self.total_cost,
            "sections": {name: self.sections[name].as_dict()
                         for name in sorted(self.sections)},
            "timeline": [entry.as_dict() for entry in self.timeline],
            "front_density": {name: list(curve)
                              for name, curve in sorted(self.front_density.items())},
        }


def attribute(
    binary: "NativeImageBinary",
    faults: Sequence[Tuple[str, int, int]],
    device: Optional["IoDevice"] = None,
    label: str = "",
) -> StartupAttributionReport:
    """Join one run's fault log against ``binary``'s section maps.

    Inputs: the built binary the run executed, its fault log as
    ``(section, page, offset)`` in charge order
    (:attr:`~repro.runtime.paging.PageCache.fault_log`), and the device
    that prices each fault (:meth:`IoDevice.fault_cost_at`; ``None`` =
    free).  Returns the :class:`StartupAttributionReport`.
    """
    tenancies = binary_tenancies(binary)

    shares: Dict[Tuple[str, str], Fraction] = {}
    costs: Dict[Tuple[str, str], float] = {}
    first_touch: Dict[Tuple[str, str], int] = {}
    blamed_pages: Dict[Tuple[str, str], set] = {}
    section_cost: Dict[str, List[float]] = {}
    section_pages: Dict[str, List[int]] = {}
    page_tenants: Dict[str, Dict[int, Tuple[str, ...]]] = {}
    timeline: List[TimelineEntry] = []

    for index, (section, page, offset) in enumerate(faults):
        event = FaultEvent(
            logical_time=index, section=section, page=page, offset=offset,
            cost=device.fault_cost_at(index) if device else 0.0,
        )
        tenancy = tenancies.get(section)
        tenants = (tenancy.tenants_of(page) if tenancy is not None
                   else (PADDING_UNIT,))
        share = Fraction(1, len(tenants))
        cost_share = event.cost / len(tenants)
        for unit in tenants:
            key = (section, unit)
            shares[key] = shares.get(key, Fraction(0)) + share
            costs[key] = costs.get(key, 0.0) + cost_share
            first_touch.setdefault(key, index)
            blamed_pages.setdefault(key, set()).add(page)
        section_cost.setdefault(section, []).append(event.cost)
        section_pages.setdefault(section, []).append(page)
        page_tenants.setdefault(section, {})[page] = tenants
        timeline.append(TimelineEntry(event=event, units=tenants))

    front: Dict[str, List[float]] = {}
    for name, pages in section_pages.items():
        tenancy = tenancies.get(name)
        reorderable = tenancy.reorderable_pages if tenancy is not None else 0
        front[name] = [front_density(pages[:count], reorderable)
                       for count in range(1, len(pages) + 1)]

    sections: Dict[str, SectionAttribution] = {}
    for name, tenancy in tenancies.items():
        section_units = [
            UnitBlame(
                unit=unit,
                share=shares[(sec, unit)],
                cost=costs[(sec, unit)],
                first_touch=first_touch.get((sec, unit)),
                pages=tuple(sorted(blamed_pages[(sec, unit)])),
            )
            for (sec, unit) in shares
            if sec == name
        ]
        section_units.sort(key=lambda blame: (-blame.share, blame.unit))
        sections[name] = SectionAttribution(
            section=name,
            fault_count=len(section_pages.get(name, ())),
            total_cost=math.fsum(section_cost.get(name, ())),
            units=section_units,
            page_tenants=dict(sorted(page_tenants.get(name, {}).items())),
            unit_pages=tenancy.unit_pages,
            reorderable_pages=tenancy.reorderable_pages,
        )
    return StartupAttributionReport(
        label=label,
        sections=sections,
        timeline=timeline,
        front_density=front,
    )
