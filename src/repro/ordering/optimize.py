"""Search-based layout optimization: beat first-use ordering.

The paper's strategies *replay* first-use order; this module *searches*
for a better ``.text`` CU order.  A :class:`CostModel` scores a virtual
layout by replaying the executor's own ``.text`` touches, taken from one
run of the default-layout reference build
(:func:`repro.runtime.executor.text_touches`), over the CU offsets that
layout would have.  The executor touches the same CU-relative ranges
in every layout of one build, so the model's count is the count a real
start of that layout takes (tested against built binaries).

One optimizer proposes a candidate: **greedy chain merging**
(ext-TSP-style, Newell & Pupyrev), which merges unit chains at the
junction with the highest co-access gain over the page-co-access graph
(:mod:`repro.ordering.coaccess`) until no merge helps.  The seed ``cu``
order is always a candidate too and wins ties, so the search never
predicts worse than ``cu``.  The heap is not searched: the paper's
heap-path ordering already packs the hot heap into one page, the floor.

The winner flows back into the pipeline as a first-class strategy:
``cu-opt`` is a :class:`~repro.ordering.profiles.CodeOrderProfile` whose
signatures are the chosen CU placement order (ranked like ``cu``).  Every
built candidate passes the PR-2 structural oracle before it is measured.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..image.sections import CU_ALIGN, PAGE_SIZE, TEXT_SECTION
from .coaccess import CoAccessGraph, build_coaccess_graph, layout_objective
from .profiles import CodeOrderProfile, ProfileBundle

if TYPE_CHECKING:  # annotation-only: the image/runtime layers must not be
    # imported at module scope — ordering/__init__ is reached from
    # graal.inliner while image.binary is still initializing, so the
    # executor is imported lazily inside the functions that need it.
    from ..image.binary import NativeImageBinary
    from ..runtime.executor import ExecutionConfig, RunMetrics

#: The profile kind the optimizer registers.
CU_OPT_ORDERING = "cu-opt"

OPTIMIZER_GREEDY = "greedy"


# ---------------------------------------------------------------------------
# The cost oracle: the recorded touches replayed over a virtual layout
# ---------------------------------------------------------------------------


@dataclass
class CostModel:
    """First-touch ``.text`` fault count of a CU permutation.

    Mirrors the paging simulator byte-for-byte: CUs pack at ``CU_ALIGN``
    (the ``layout_text`` rule), each recorded touch covers
    ``[base + start, base + end)`` of its CU in the virtual layout, and the
    fault count is the number of distinct pages touched plus
    ``constant_faults`` (the startup native-blob pages, which no
    permutation can avoid).
    """

    #: CU name -> size in bytes
    units: Dict[str, int]
    #: distinct (CU name, CU-relative start, end) touches, first-touch order
    touches: Tuple[Tuple[str, int, int], ...]
    page_size: int = PAGE_SIZE
    constant_faults: int = 0

    def offsets(self, order: Sequence[str]) -> Dict[str, int]:
        """Base offset of each CU when placed in ``order``."""
        result: Dict[str, int] = {}
        offset = 0
        for name in order:
            result[name] = offset
            offset += _align(self.units[name], CU_ALIGN)
        return result

    def faults(self, order: Sequence[str]) -> int:
        """First-touch faults of the layout ``order``."""
        offsets = self.offsets(order)
        resident: set = set()
        page = self.page_size
        for name, start, end in self.touches:
            if end > start:
                base = offsets[name]
                resident.update(range((base + start) // page,
                                      (base + end - 1) // page + 1))
        return len(resident) + self.constant_faults


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


@dataclass
class LayoutProblem:
    """The ``.text`` search instance: units, oracle, graph, seed order."""

    model: CostModel
    graph: CoAccessGraph
    #: the seed strategy's full layout order (always a candidate)
    seed_order: Tuple[str, ...]
    #: units the run touches, in first-touch order
    hot: Tuple[str, ...]
    #: untouched units, placed after every hot unit (their order is
    #: cost-neutral; kept in seed-relative order for stability)
    cold_tail: Tuple[str, ...]


# ---------------------------------------------------------------------------
# Problem construction from a reference binary + profile bundle
# ---------------------------------------------------------------------------


def has_seed_profile(bundle: ProfileBundle) -> bool:
    """Whether ``bundle`` has a usable ``cu`` or ``method`` profile.

    A search starts from one; without it there is nothing to search from,
    and callers skip code optimization before running anything.
    """
    return any(profile is not None and profile.signatures
               for profile in (bundle.code_profile("cu"),
                               bundle.code_profile("method")))


def code_problem(binary: "NativeImageBinary", run: "RunMetrics",
                 bundle: ProfileBundle,
                 exec_config: Optional["ExecutionConfig"] = None,
                 ) -> LayoutProblem:
    """Build the ``.text`` search instance.

    ``binary`` is the default-layout reference build and ``run`` one run
    of it under ``exec_config``; the model replays that run's ``.text``
    touches.  ``bundle`` supplies the seed order (see
    :func:`has_seed_profile`).
    """
    from ..runtime.executor import (
        ExecutionConfig,
        native_startup_pages,
        text_touches,
    )

    config = exec_config or ExecutionConfig()
    touches = text_touches(binary, run)
    units = {placed.cu.name: placed.cu.size for placed in binary.text.placed}
    model = CostModel(units=units, touches=tuple(touches),
                      constant_faults=native_startup_pages(binary, config))
    hot = tuple(dict.fromkeys(name for name, _start, _end in touches))
    seed_order = _code_seed_order(binary, bundle)
    hot_set = set(hot)
    return LayoutProblem(
        model=model, graph=build_coaccess_graph([(hot, 1)]),
        seed_order=tuple(seed_order), hot=hot,
        cold_tail=tuple(name for name in seed_order if name not in hot_set),
    )


def _code_seed_order(binary: "NativeImageBinary",
                     bundle: ProfileBundle) -> List[str]:
    """The CU order the seed ``cu`` strategy would lay out."""
    from .code_order import order_compilation_units

    profile = bundle.code_profile("cu")
    if profile is None or not profile.signatures:
        profile = None  # default (alphabetical) order
    ordered = order_compilation_units(
        [placed.cu for placed in binary.text.placed], profile)
    return [cu.name for cu in ordered]


# ---------------------------------------------------------------------------
# The optimizer
# ---------------------------------------------------------------------------


def chain_merge_order(graph: CoAccessGraph, hot: Sequence[str],
                      window: int = 0) -> List[str]:
    """Ext-TSP-style greedy chain merging over the co-access graph.

    Every hot unit (names must be distinct) starts as a singleton chain;
    each step merges the (ordered) chain pair whose junction adds the most
    locality objective, until no merge has positive gain; equal gains go
    to the smaller ``(left head, right head)``.  Each merge adds exactly
    its junction gain to :func:`~repro.ordering.coaccess.layout_objective`
    (intra-chain gaps are preserved by concatenation).  Remaining chains
    concatenate in first-touch order of their heads; that can drop
    cross-chain credit the first-touch order ``hot`` earned, so ``hot``
    itself is returned when it scores higher — the result never loses to
    it, the property the hypothesis suite checks.

    Gains are exact integers: the objective scaled by ``window`` times the
    LCM of the edge weights' denominators.  Each ordered pair's gain is
    computed once and kept (in a max-heap keyed by gain, then heads) until
    a merge changes one of its chains; only the merged chain's pairs are
    recomputed, so for ``n`` hot units and window ``w`` the merge costs
    O(n²·w²) where rescanning every pair after each merge cost O(n³·w²).
    """
    window = window or graph.window
    if len(set(hot)) != len(hot):
        raise ValueError("chain merging needs distinct hot units")
    #: head unit -> its chain; a merged chain keeps its left part's head
    chains: Dict[str, List[str]] = {name: [name] for name in hot}
    head_of = {name: name for name in hot}
    index_of = dict.fromkeys(hot, 0)
    #: head -> merges its chain took part in (stale heap entries differ)
    version = dict.fromkeys(hot, 0)
    links = _integer_links(graph, chains.keys())
    heap: List[Tuple[int, str, str, int, int]] = []

    def queue_gains(head: str, as_right: bool) -> None:
        """Queue the gain of every pair with ``head``'s chain on the left
        (and, with ``as_right``, on the right).

        A pair's gain sums ``weight * (window - gap)`` over the edges
        between the left chain's last and the right chain's first
        ``window - 1`` units that end up less than ``window`` apart.
        """
        chain = chains[head]
        gains: Dict[Tuple[str, str], int] = {}
        for near in range(min(window - 1, len(chain))):
            # the near-th unit from the end of the left chain
            for unit, weight in links[chain[-1 - near]].items():
                other = head_of[unit]
                gap = near + index_of[unit] + 1
                if other != head and gap < window:
                    pair = (head, other)
                    gains[pair] = gains.get(pair, 0) + weight * (window - gap)
            if not as_right:
                continue
            # the near-th unit from the start of the right chain
            for unit, weight in links[chain[near]].items():
                other = head_of[unit]
                gap = len(chains[other]) - index_of[unit] + near
                if other != head and gap < window:
                    pair = (other, head)
                    gains[pair] = gains.get(pair, 0) + weight * (window - gap)
        for (left, right), gain in gains.items():
            if gain > 0:
                heapq.heappush(heap, (-gain, left, right,
                                      version[left], version[right]))

    # every singleton pair, each counted once from its left unit
    for head in hot:
        queue_gains(head, as_right=False)
    while heap:
        _gain, left, right, left_version, right_version = heapq.heappop(heap)
        if (right not in chains or left not in chains
                or version[left] != left_version
                or version[right] != right_version):
            continue  # a merge since queuing changed one of the chains
        merged, absorbed = chains[left], chains.pop(right)
        for offset, unit in enumerate(absorbed, start=len(merged)):
            head_of[unit] = left
            index_of[unit] = offset
        merged.extend(absorbed)
        version[left] += 1
        queue_gains(left, as_right=True)
    rank = {name: index for index, name in enumerate(hot)}
    ordered = sorted(chains.values(),
                     key=lambda chain: min(rank[name] for name in chain))
    merged_order = [name for chain in ordered for name in chain]
    if (layout_objective(graph, merged_order, window)
            < layout_objective(graph, hot, window)):
        return list(hot)
    return merged_order


def _integer_links(graph: CoAccessGraph,
                   units: AbstractSet[str]) -> Dict[str, Dict[str, int]]:
    """Each unit's neighbours among ``units``, with every edge weight
    scaled by the LCM of the weights' denominators to an exact integer
    (one positive factor for all, so no comparison of gains changes)."""
    weights = {(u, v): Fraction(weight)
               for (u, v), weight in graph.weights.items()
               if u != v and weight and u in units and v in units}
    scale = math.lcm(*(weight.denominator for weight in weights.values()))
    links: Dict[str, Dict[str, int]] = {name: {} for name in units}
    for (u, v), weight in weights.items():
        links[u][v] = links[v][u] = (weight.numerator
                                     * (scale // weight.denominator))
    return links


# ---------------------------------------------------------------------------
# The search driver
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    """Outcome of one ``.text`` layout search."""

    #: the winning full placement order (hot permutation + cold tail)
    order: List[str]
    best_name: str
    best_cost: int
    seed_cost: int
    #: cost of every candidate that ran, by family name (incl. "seed")
    costs: Dict[str, int] = field(default_factory=dict)
    units: int = 0
    hot_units: int = 0


def search_order(problem: LayoutProblem) -> SearchResult:
    """Score the seed order and the greedy order; keep the cheaper.

    The seed strategy's own order is always a candidate and wins ties, so
    the result never predicts worse than the seed strategy — the
    never-worse gate the bench ``optimize`` phase asserts on measured
    runs.
    """
    model = problem.model
    candidates: Dict[str, List[str]] = {"seed": list(problem.seed_order)}
    if problem.hot:
        candidates[OPTIMIZER_GREEDY] = (
            chain_merge_order(problem.graph, problem.hot)
            + list(problem.cold_tail))
    costs = {name: model.faults(order) for name, order in candidates.items()}
    # the seed order wins ties, so cu-opt replaces cu only when strictly
    # better, keeping results stable across runs
    best_name = min(costs, key=lambda name: (costs[name], name != "seed"))
    return SearchResult(
        order=list(candidates[best_name]),
        best_name=best_name,
        best_cost=costs[best_name],
        seed_cost=costs["seed"],
        costs=costs,
        units=len(model.units),
        hot_units=len(problem.hot),
    )


def with_search_order(bundle: ProfileBundle,
                      result: SearchResult) -> ProfileBundle:
    """``bundle`` plus a ``cu-opt`` profile placing ``result.order``."""
    profile = CodeOrderProfile(kind=CU_OPT_ORDERING,
                               signatures=list(result.order))
    return replace(bundle, code={**bundle.code, CU_OPT_ORDERING: profile})


def synthesize_optimizer_profiles(
    binary: "NativeImageBinary",
    run: "RunMetrics",
    bundle: ProfileBundle,
    exec_config: Optional["ExecutionConfig"] = None,
) -> Tuple[ProfileBundle, Optional[SearchResult]]:
    """Augment ``bundle`` with the search-derived ``cu-opt`` ordering.

    ``binary`` is a *reference* build (default layout, PGO inlining) that
    supplies unit sizes, and ``run`` one run of it under ``exec_config``
    whose touches the search scores layouts with (the pipeline passes the
    run every layout of the build shares).  Returns a new bundle carrying
    the ``cu-opt`` profile and the search it came from; the input bundle
    is never mutated.  An existing ``cu-opt`` profile is kept (synthesis
    is idempotent), and without a usable seed profile nothing is added
    and the existing degradation ladder falls back to the default layout;
    either way nothing is searched and the search is ``None``.
    Deterministic: same (binary, run, bundle, exec_config) ⇒
    byte-identical profiles.
    """
    if CU_OPT_ORDERING in bundle.code or not has_seed_profile(bundle):
        return bundle, None
    result = search_order(code_problem(binary, run, bundle, exec_config))
    return with_search_order(bundle, result), result


# ---------------------------------------------------------------------------
# Workload-level driver (CLI / api / bench phase)
# ---------------------------------------------------------------------------


@dataclass
class SectionOptimization:
    """The ``.text`` optimizer-vs-seed verdict on real binaries."""

    section: str = "code"
    strategy: str = CU_OPT_ORDERING
    seed_strategy: str = "cu"
    skipped: bool = False
    reason: str = ""
    units: int = 0
    hot_units: int = 0
    #: measured ``.text`` faults of the seed strategy's built binary
    seed_faults: int = 0
    #: measured ``.text`` faults of the optimizer strategy's built binary
    optimized_faults: int = 0
    #: the search's predicted cost (== optimized_faults; tested)
    predicted_faults: int = 0
    #: per-family candidate costs from the search
    optimizer_costs: Dict[str, int] = field(default_factory=dict)
    best_optimizer: str = ""
    #: PR-2 structural oracle verdict on the built optimizer layout
    verified: bool = False
    #: differential execution vs baseline matched
    differential_ok: bool = False

    @property
    def improved(self) -> bool:
        return not self.skipped and self.optimized_faults < self.seed_faults

    @property
    def never_worse(self) -> bool:
        return self.skipped or self.optimized_faults <= self.seed_faults

    def as_dict(self) -> Dict[str, object]:
        return {
            "section": self.section,
            "strategy": self.strategy,
            "seed_strategy": self.seed_strategy,
            "skipped": self.skipped,
            "reason": self.reason,
            "units": self.units,
            "hot_units": self.hot_units,
            "seed_faults": self.seed_faults,
            "optimized_faults": self.optimized_faults,
            "predicted_faults": self.predicted_faults,
            "optimizer_costs": dict(self.optimizer_costs),
            "best_optimizer": self.best_optimizer,
            "verified": self.verified,
            "differential_ok": self.differential_ok,
            "improved": self.improved,
            "never_worse": self.never_worse,
        }


@dataclass
class OptimizationReport:
    """Everything ``repro optimize`` measured for one workload."""

    workload: str
    seed: int
    sections: List[SectionOptimization] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Never-worse, structurally verified, differentially clean."""
        return all(
            section.skipped or (section.never_worse and section.verified
                                and section.differential_ok)
            for section in self.sections
        )

    @property
    def improved_sections(self) -> int:
        return sum(1 for section in self.sections if section.improved)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "sections": [section.as_dict() for section in self.sections],
            "ok": self.ok,
            "improved_sections": self.improved_sections,
        }

    def describe(self) -> str:
        lines = [f"optimize [{self.workload}] seed {self.seed}:"]
        for section in self.sections:
            if section.skipped:
                lines.append(f"  {section.strategy}: skipped ({section.reason})")
                continue
            delta = section.seed_faults - section.optimized_faults
            pct = (100.0 * delta / section.seed_faults
                   if section.seed_faults else 0.0)
            verdict = ("improved" if section.improved else
                       "tied" if section.never_worse else "WORSE")
            lines.append(
                f"  {section.strategy} vs {section.seed_strategy}: "
                f"{section.seed_faults} -> {section.optimized_faults} faults "
                f"({verdict}, -{delta} / {pct:.1f}%) via "
                f"{section.best_optimizer} "
                f"[{section.hot_units}/{section.units} hot units, "
                f"verified={'yes' if section.verified else 'NO'}, "
                f"differential={'ok' if section.differential_ok else 'FAIL'}]"
            )
        return "\n".join(lines)


def optimize_workload(pipeline, seed: int = 0,
                      iterations: int = 1) -> OptimizationReport:
    """Score one workload's ``cu-opt`` layout against ``cu``.

    ``pipeline`` is a :class:`~repro.eval.pipeline.WorkloadPipeline`.  The
    search numbers (unit counts, candidate costs, winner, predicted
    faults) are those of the one search the pipeline's ``cu-opt`` build
    is laid out from (``pipeline.last_search``): the search a cached
    build stored, or else the one the build runs in its ``optimize``
    phase.  The built ``cu-opt`` binary runs the structural layout
    verifier and the differential execution oracle.  Fault numbers are
    the measured ``.text`` faults (at first response for microservices)
    of ``pipeline.measure`` runs of the *built* ``cu`` and ``cu-opt``
    binaries; with a warm cache and the sweep's ``iterations`` and
    ``seed`` these are the sweep's own cells.
    """
    from ..eval.pipeline import STRATEGY_CU, STRATEGY_CU_OPT
    from ..validation.differential import run_differential
    from ..validation.invariants import verify_layout

    bundle = pipeline.profile(seed=seed).profiles
    entry = SectionOptimization()
    report = OptimizationReport(workload=pipeline.workload.name, seed=seed,
                                sections=[entry])
    if not has_seed_profile(bundle):
        entry.skipped = True
        entry.reason = "no usable seed profile for code"
        return report
    opt_binary = pipeline.build_optimized(bundle, STRATEGY_CU_OPT, seed=seed)
    result = pipeline.last_search
    if result is None:
        entry.skipped = True
        entry.reason = "the cu-opt ordering is quarantined"
        return report
    entry.units = result.units
    entry.hot_units = result.hot_units
    entry.optimizer_costs = dict(result.costs)
    entry.best_optimizer = result.best_name
    entry.predicted_faults = result.best_cost
    seed_binary = pipeline.build_optimized(bundle, STRATEGY_CU, seed=seed)
    baseline = pipeline.build_baseline(seed=seed)
    entry.verified = verify_layout(opt_binary).ok
    entry.differential_ok = run_differential(
        baseline, opt_binary, pipeline.exec_config,
        workload=pipeline.workload.name, strategy=STRATEGY_CU_OPT.name,
        microservice=pipeline.workload.microservice,
    ).matches
    entry.seed_faults, entry.optimized_faults = (
        pipeline.measure(binary, iterations, seed)[0]
        .faults_at_response(TEXT_SECTION)
        for binary in (seed_binary, opt_binary))
    return report
