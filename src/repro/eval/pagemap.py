"""Page maps of one run: Fig. 6's ``.text`` map and its heap analogue.

Renders one character cell per 4 KiB page of a section:

* ``#`` (green in the paper) — the page took a major fault;
* ``o`` (red) — the page is mapped but caused no fault (paged in by the
  kernel's fault-around);
* ``.`` (black) — the page is not mapped at all;
* ``N`` — unmapped pages of the statically linked native blob (not
  reorderable; the trailing region of Fig. 6).

A map is built from a run, not by running: the run's recorded touches
are replayed through the paging simulator at the map's fault-around
window (:func:`~repro.runtime.executor.replay_touches`).

The ``.svm_heap`` map is the paper's stated future work (Appendix A: "a
similar visualization for the heap-snapshot section ... may enable a
fine-grained analysis of the included objects").  It adds which object
types live on each page — read off the attribution's heap tenancy walk —
and the share of snapshot objects on faulted pages (the paper measures
~4% of objects accessed on AWFY).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..image.binary import NativeImageBinary
from ..image.sections import HEAP_SECTION, TEXT_SECTION
from ..obs.attrib import front_density, heap_tenancy, text_tenancy
from ..runtime.executor import ExecutionConfig, RunMetrics, replay_touches
from .pipeline import (
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    Workload,
    WorkloadPipeline,
)

#: the paper strategy each section's optimized map shows, and the
#: fault-around window it is drawn at (Fig. 6 shows mapped-no-fault pages)
PAPER_MAPS = {
    TEXT_SECTION: (STRATEGY_CU, 2),
    HEAP_SECTION: (STRATEGY_HEAP_PATH, 0),
}


@dataclass
class PageMap:
    """The page-level fault picture of one run's section."""

    section: str
    cells: str  # one character per page
    faulted: int
    mapped_not_faulted: int
    unmapped: int
    #: pages before this index are reorderable (``.text``: up to the
    #: native blob; ``.svm_heap``: every page)
    reorderable_pages: int
    #: ``.svm_heap`` only: page -> object types on it, most common first
    page_types: Dict[int, List[Tuple[str, int]]] = field(default_factory=dict)
    #: ``.svm_heap`` only: objects on faulted pages / all objects
    accessed_fraction: float = 0.0

    @property
    def front_density(self) -> float:
        """:func:`~repro.obs.attrib.front_density` of the faulted pages."""
        pages = [page for page, cell in enumerate(self.cells) if cell == "#"]
        return front_density(pages, self.reorderable_pages)

    def render(self, width: int = 64) -> str:
        rows = [
            self.cells[index : index + width]
            for index in range(0, len(self.cells), width)
        ]
        legend = (
            f"# faulted: {self.faulted}   o mapped-no-fault: "
            f"{self.mapped_not_faulted}   "
        )
        if self.section == HEAP_SECTION:
            legend += (f". untouched: {self.unmapped}   objects on faulted "
                       f"pages: {self.accessed_fraction:.0%}")
        else:
            legend += f". unmapped: {self.unmapped}"
        return "\n".join(rows + [legend])

    def hot_page_report(self, top: int = 8) -> str:
        """What actually lives on the faulted pages (``.svm_heap``)."""
        lines = ["faulted pages (object types per page):"]
        shown = 0
        for page in sorted(self.page_types):
            if self.cells[page] != "#":
                continue
            types = ", ".join(f"{name} x{count}"
                              for name, count in self.page_types[page][:4])
            lines.append(f"  page {page:4d}: {types}")
            shown += 1
            if shown >= top:
                remaining = self.faulted - shown
                if remaining > 0:
                    lines.append(f"  ... and {remaining} more faulted pages")
                break
        return "\n".join(lines)


def page_map(
    binary: NativeImageBinary,
    run: RunMetrics,
    section: str = TEXT_SECTION,
    exec_config: Optional[ExecutionConfig] = None,
    fault_around_pages: int = 0,
) -> PageMap:
    """Build ``section``'s page map of ``run``, one run of ``binary``.

    Replays the run's touches under ``exec_config`` at a fault-around
    window of ``fault_around_pages`` on each side of a fault.
    """
    cache = replay_touches(binary, exec_config or ExecutionConfig(),
                           run.touches, fault_around_pages)
    faulted = cache.faulted(section)
    resident = cache.resident_pages(section)
    tenancy = (heap_tenancy(binary) if section == HEAP_SECTION
               else text_tenancy(binary))

    cells: List[str] = []
    counts = {"#": 0, "o": 0, ".": 0}
    for page in range(tenancy.total_pages):
        if page in faulted:
            cell = "#"
        elif page in resident:
            cell = "o"
        else:
            cell = "."
        counts[cell] += 1
        if page >= tenancy.reorderable_pages and cell == ".":
            cell = "N"
        cells.append(cell)
    result = PageMap(
        section=section,
        cells="".join(cells),
        faulted=counts["#"],
        mapped_not_faulted=counts["o"],
        unmapped=counts["."],
        reorderable_pages=tenancy.reorderable_pages,
    )
    if section == HEAP_SECTION:
        # heap tenants are ``heap_object_label``s: "<type>#<index>"
        result.page_types = {
            page: Counter(label.rpartition("#")[0]
                          for label in labels).most_common()
            for page, labels in tenancy.tenants.items()
        }
        on_faulted = sum(1 for pages in tenancy.unit_pages.values()
                         if not faulted.isdisjoint(pages))
        result.accessed_fraction = on_faulted / max(len(binary.heap.ordered),
                                                     1)
    return result


def layout_page_maps(workload: Workload, section: str = TEXT_SECTION,
                     seed: int = 1) -> Tuple[PageMap, PageMap]:
    """Fig. 6's pair: the regular build vs the section's paper strategy.

    The regular image is built and profiled at ``seed``, the optimized one
    (``cu`` for ``.text``, ``heap path`` for ``.svm_heap``) at
    ``seed + 1``; each map draws one measured run of its build.
    """
    strategy, fault_around = PAPER_MAPS[section]
    pipeline = WorkloadPipeline(workload)
    regular = pipeline.build_baseline(seed=seed)
    outcome = pipeline.profile(seed=seed)
    optimized = pipeline.build_optimized(outcome.profiles, strategy,
                                         seed=seed + 1)
    regular_map, optimized_map = (
        page_map(binary, pipeline.measure(binary)[0], section,
                 pipeline.exec_config, fault_around)
        for binary in (regular, optimized))
    return regular_map, optimized_map


def compare_page_maps(regular: PageMap, optimized: PageMap,
                      width: int = 64) -> str:
    """The regular and the optimized map stacked, as in the appendix."""
    strategy, _fault_around = PAPER_MAPS[optimized.section]
    return "\n".join([
        "(a) regular binary",
        regular.render(width),
        "",
        f"(b) binary optimized with the {strategy.name} strategy",
        optimized.render(width),
    ])
