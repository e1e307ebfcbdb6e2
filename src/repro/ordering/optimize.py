"""Search-based layout optimization: beat first-use ordering.

The paper's strategies *replay* first-use order; this module *searches* for
a better ``.text`` CU order against an exact cost oracle.  Two optimizers
run over the page-co-access graph (:mod:`repro.ordering.coaccess`) and a
:class:`CostModel` whose cost function is the exact simulated first-touch
fault count of a virtual layout — the same accounting the PR-7
``replay_faults`` machinery applies to real binaries:

* **greedy chain merging** (ext-TSP-style, Newell & Pupyrev) — merge unit
  chains at the junction with the highest co-access gain until no merge
  helps; maximizes the locality objective
  :func:`~repro.ordering.coaccess.layout_objective`;
* **seeded annealing** — local search over hot-unit permutations (swap +
  segment-relocate moves) whose cost is the exact simulated fault count;
  same seed ⇒ byte-identical layout.

Why search can win at all: under whole-CU touches, first-use order is
provably optimal (any permutation of a contiguous hot prefix spans the same
pages).  But the executor touches the *prologue prefix* ``[cu_start,
member_end)`` on a non-inlined entry — a CU whose tail members were inlined
elsewhere and never entered leaves cold bytes behind its hot prefix, so the
hot bytes of many CUs can be packed into fewer pages by interleaving short
hot prefixes, which plain first-use order never does.  The cost model
mirrors exactly that member-granular touch rule, so "optimizer never loses
to its seed strategy" holds by construction: the seed strategy's own
layout is always a candidate, and the search keeps the best-seen order.
The heap is not searched: the paper's heap-path ordering already packs the
hot heap into one page, the floor.

The winner flows back into the pipeline as a first-class strategy:
``cu-opt`` is a :class:`~repro.ordering.profiles.CodeOrderProfile` whose
signatures are the chosen CU placement order (ranked like ``cu``).  Every
built candidate passes the PR-2 structural oracle before it is measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..image.sections import CU_ALIGN, PAGE_SIZE, TEXT_SECTION
from ..util.murmur3 import murmur3_32
from .coaccess import (
    CoAccessGraph,
    DEFAULT_WINDOW,
    build_coaccess_graph,
    layout_objective,
)
from .profiles import CodeOrderProfile, ProfileBundle

if TYPE_CHECKING:  # annotation-only: the image/runtime layers must not be
    # imported at module scope — ordering/__init__ is reached from
    # graal.inliner while image.binary is still initializing, so executor
    # and paging are imported lazily inside the functions that need them.
    from ..image.binary import NativeImageBinary
    from ..runtime.executor import ExecutionConfig

#: The profile kind the optimizer registers.
CU_OPT_ORDERING = "cu-opt"

OPTIMIZER_GREEDY = "greedy"
OPTIMIZER_ANNEAL = "anneal"
ALL_OPTIMIZERS = (OPTIMIZER_GREEDY, OPTIMIZER_ANNEAL)

#: Candidate preference on cost ties — the seed strategy's own order wins
#: ties so an optimizer only replaces the paper's layout when strictly
#: better-or-equal-by-this-order, keeping results stable across runs.
_CANDIDATE_PREFERENCE = ("seed",) + ALL_OPTIMIZERS


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs of the layout search (all deterministic given ``seed``)."""

    #: annealing cost evaluations (greedy chain merging is budget-free)
    budget: int = 600
    #: RNG seed for the annealing refiner; same seed ⇒ identical layout
    seed: int = 13
    #: co-access temporal-proximity window (first-touch rank positions)
    window: int = DEFAULT_WINDOW

    def fingerprint(self) -> str:
        return f"budget{self.budget}/seed{self.seed}/win{self.window}"


# ---------------------------------------------------------------------------
# The cost oracle: exact simulated faults of a virtual layout
# ---------------------------------------------------------------------------


@dataclass
class CostModel:
    """Exact simulated first-touch fault count of a CU permutation.

    Mirrors the paging simulator byte-for-byte: CUs pack at ``CU_ALIGN``
    (the ``layout_text`` rule), each event touches the first ``end``
    bytes of its CU in the virtual layout, and the fault count is the
    number of distinct pages touched plus ``constant_faults`` (the
    startup native-blob pages, which no permutation can avoid).
    """

    #: CU name -> size in bytes
    units: Dict[str, int]
    #: first-touch stream of (CU name, prologue-prefix end)
    events: Tuple[Tuple[str, int], ...]
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
        """Simulated first-touch faults of the layout ``order``."""
        offsets = self.offsets(order)
        resident: set = set()
        page = self.page_size
        for name, end in self.events:
            if end > 0:
                base = offsets[name]
                resident.update(range(base // page,
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
    #: units the events actually touch, in first-touch order
    hot: Tuple[str, ...]
    #: untouched units, placed after every hot unit (their order is
    #: cost-neutral; kept in seed-relative order for stability)
    cold_tail: Tuple[str, ...]


# ---------------------------------------------------------------------------
# Problem construction from a reference binary + profile bundle
# ---------------------------------------------------------------------------


def _method_homes(binary: "NativeImageBinary") -> Dict[str, Tuple[str, int]]:
    """Map method signature -> (home CU name, prologue-prefix end).

    The home is the method's own CU when it has one, else the
    lexicographically-smallest CU carrying an inlined copy — a
    layout-invariant stand-in for the executor's "first inlined copy"
    fallback, so the event stream does not depend on the layout being
    scored.  The prefix end is ``member.offset + member.size``: a
    non-inlined entry executes the CU prologue up to the member's end.
    """
    carriers: Dict[str, List[Tuple[str, int]]] = {}
    for placed in binary.text.placed:
        cu = placed.cu
        for member in cu.members:
            carriers.setdefault(member.signature, []).append(
                (cu.name, member.offset + member.size))
    homes: Dict[str, Tuple[str, int]] = {}
    for signature, copies in carriers.items():
        own = [entry for entry in copies if entry[0] == signature]
        homes[signature] = own[0] if own else min(copies)
    return homes


def _code_events(binary: "NativeImageBinary",
                 bundle: ProfileBundle) -> Optional[List[Tuple[str, int]]]:
    """(CU name, prefix end) touch stream in method-first-entry order.

    Prefers the member-granular ``method`` profile; falls back to
    whole-CU touches from the ``cu`` profile; ``None`` when neither is
    usable (the caller then skips code optimization entirely).
    """
    method_profile = bundle.code_profile("method")
    if method_profile is not None and method_profile.signatures:
        homes = _method_homes(binary)
        events = [homes[sig] for sig in method_profile.signatures
                  if sig in homes]
        if events:
            return events
    cu_profile = bundle.code_profile("cu")
    if cu_profile is not None and cu_profile.signatures:
        sizes = {placed.cu.name: placed.cu.size
                 for placed in binary.text.placed}
        events = [(sig, sizes[sig]) for sig in cu_profile.signatures
                  if sig in sizes]
        if events:
            return events
    return None


def code_problem(binary: "NativeImageBinary", bundle: ProfileBundle,
                 config: OptimizeConfig,
                 exec_config: Optional[ExecutionConfig] = None,
                 ) -> Optional[LayoutProblem]:
    """Build the ``.text`` search instance, or ``None`` without profiles."""
    from ..runtime.executor import ExecutionConfig, native_startup_pages

    raw_events = _code_events(binary, bundle)
    if raw_events is None:
        return None
    units = {placed.cu.name: placed.cu.size for placed in binary.text.placed}
    model = CostModel(units=units, events=tuple(raw_events),
                      constant_faults=native_startup_pages(
                          binary, exec_config or ExecutionConfig()))
    hot: List[str] = []
    seen: set = set()
    for name, _end in raw_events:
        if name not in seen:
            seen.add(name)
            hot.append(name)
    seed_order = _code_seed_order(binary, bundle)
    cold_tail = tuple(name for name in seed_order if name not in seen)
    graph = build_coaccess_graph([(hot, 1)], window=config.window)
    return LayoutProblem(
        model=model, graph=graph, seed_order=tuple(seed_order),
        hot=tuple(hot), cold_tail=cold_tail,
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
# The two optimizers
# ---------------------------------------------------------------------------


def chain_merge_order(graph: CoAccessGraph, hot: Sequence[str],
                      window: int = 0) -> List[str]:
    """Ext-TSP-style greedy chain merging over the co-access graph.

    Every hot unit starts as a singleton chain; each step merges the
    (ordered) chain pair whose junction adds the most locality objective,
    until no merge has positive gain.  Each merge adds exactly its junction
    gain to :func:`~repro.ordering.coaccess.layout_objective` (intra-chain
    gaps are preserved by concatenation).  Remaining chains concatenate in
    first-touch order of their heads; that can drop cross-chain credit the
    first-touch order ``hot`` earned, so ``hot`` itself is returned when it
    scores higher — the result never loses to it, the property the
    hypothesis suite checks.
    """
    window = window or graph.window
    chains: List[List[str]] = [[name] for name in hot]
    rank = {name: index for index, name in enumerate(hot)}
    while len(chains) > 1:
        best_gain = Fraction(0)
        best_pair: Optional[Tuple[int, int]] = None
        for i, left in enumerate(chains):
            for j, right in enumerate(chains):
                if i == j:
                    continue
                gain = _junction_gain(graph, left, right, window)
                if gain > best_gain or (
                    gain == best_gain and best_pair is not None and gain > 0
                    and (chains[best_pair[0]][0], chains[best_pair[1]][0])
                    > (left[0], right[0])
                ):
                    best_gain = gain
                    best_pair = (i, j)
        if best_pair is None or best_gain <= 0:
            break
        i, j = best_pair
        merged = chains[i] + chains[j]
        chains = [chain for index, chain in enumerate(chains)
                  if index not in (i, j)]
        chains.append(merged)
    chains.sort(key=lambda chain: min(rank[name] for name in chain))
    merged = [name for chain in chains for name in chain]
    if (layout_objective(graph, merged, window)
            < layout_objective(graph, hot, window)):
        return list(hot)
    return merged


def _junction_gain(graph: CoAccessGraph, left: Sequence[str],
                   right: Sequence[str], window: int) -> Fraction:
    """Objective gained by concatenating ``left + right`` at the junction."""
    gain = Fraction(0)
    for p in range(min(window - 1, len(left))):
        u = left[-1 - p]
        for q in range(len(right)):
            gap = p + q + 1
            if gap >= window:
                break
            weight = graph.weight(u, right[q])
            if weight:
                gain += weight * Fraction(window - gap, window)
    return gain


def anneal_order(model: CostModel, start_hot: Sequence[str],
                 cold_tail: Sequence[str], config: OptimizeConfig,
                 rng: random.Random) -> Tuple[List[str], int]:
    """Seeded simulated annealing over hot-unit permutations.

    Cost is the exact simulated fault count (:meth:`CostModel.faults`);
    moves are position swaps and short segment relocations; the best-seen
    state is kept, so the result never costs more than the start.  Fully
    reproducible: all randomness comes from ``rng``.
    """
    state = list(start_hot)
    tail = list(cold_tail)
    if len(state) < 2 or config.budget <= 0:
        return state, model.faults(state + tail)
    cost = model.faults(state + tail)
    best, best_cost = list(state), cost
    temperature = max(2.0, 0.1 * cost)
    floor = 0.05
    alpha = (floor / temperature) ** (1.0 / max(config.budget, 1))
    n = len(state)
    for _step in range(config.budget):
        neighbor = list(state)
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            neighbor[i], neighbor[j] = neighbor[j], neighbor[i]
        else:
            length = 1 + rng.randrange(min(3, n))
            i = rng.randrange(n - length + 1)
            segment = neighbor[i:i + length]
            del neighbor[i:i + length]
            k = rng.randrange(len(neighbor) + 1)
            neighbor[k:k] = segment
        new_cost = model.faults(neighbor + tail)
        delta = new_cost - cost
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            state, cost = neighbor, new_cost
            if cost < best_cost:
                best, best_cost = list(state), cost
        temperature = max(temperature * alpha, floor)
    return best, best_cost


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

    @property
    def improved(self) -> bool:
        return self.best_cost < self.seed_cost


def search_order(problem: LayoutProblem,
                 config: OptimizeConfig) -> SearchResult:
    """Run both optimizers and keep the cheapest layout.

    Greedy chain merging runs first; annealing then starts from the
    cheaper of the seed and greedy orders.  The seed strategy's own order
    is always a candidate and wins ties, so the result never simulates
    worse than the seed strategy — the never-worse gate the bench
    ``optimize`` phase asserts.
    """
    model = problem.model
    tail = list(problem.cold_tail)
    candidates: Dict[str, List[str]] = {"seed": list(problem.seed_order)}
    costs = {"seed": model.faults(candidates["seed"])}
    if problem.hot:
        greedy = chain_merge_order(problem.graph, problem.hot,
                                   config.window) + tail
        candidates[OPTIMIZER_GREEDY] = greedy
        costs[OPTIMIZER_GREEDY] = model.faults(greedy)
        start = candidates[_cheapest(costs)]
        hot_set = set(problem.hot)
        start_hot = [name for name in start if name in hot_set]
        # the salt is the searched section's name; a different salt would
        # move every annealed layout
        rng = random.Random((config.seed << 16) ^ murmur3_32(b"code"))
        annealed, annealed_cost = anneal_order(model, start_hot, tail,
                                               config, rng)
        candidates[OPTIMIZER_ANNEAL] = annealed + tail
        costs[OPTIMIZER_ANNEAL] = annealed_cost
    best_name = _cheapest(costs)
    return SearchResult(
        order=list(candidates[best_name]),
        best_name=best_name,
        best_cost=costs[best_name],
        seed_cost=costs["seed"],
        costs=costs,
        units=len(model.units),
        hot_units=len(problem.hot),
    )


def _cheapest(costs: Dict[str, int]) -> str:
    """The lowest-cost candidate, ties broken by ``_CANDIDATE_PREFERENCE``."""
    return min(costs, key=lambda name: (costs[name],
                                        _CANDIDATE_PREFERENCE.index(name)))


def synthesize_optimizer_profiles(
    binary: "NativeImageBinary",
    bundle: ProfileBundle,
    config: Optional[OptimizeConfig] = None,
) -> ProfileBundle:
    """Augment ``bundle`` with the search-derived ``cu-opt`` ordering.

    ``binary`` is a *reference* build (default layout, PGO inlining) that
    supplies unit sizes.  Returns a new bundle carrying the ``cu-opt``
    profile (an existing one is kept — synthesis is idempotent); the
    input bundle is never mutated.  Without a usable seed profile nothing
    is added, and the existing degradation ladder falls back to the
    default layout.  Deterministic: same (binary, bundle, config) ⇒
    byte-identical profiles.
    """
    if CU_OPT_ORDERING in bundle.code:
        return bundle
    config = config or OptimizeConfig()
    problem = code_problem(binary, bundle, config)
    if problem is None:
        return bundle
    result = search_order(problem, config)
    profile = CodeOrderProfile(kind=CU_OPT_ORDERING,
                               signatures=list(result.order))
    return replace(bundle, code={**bundle.code, CU_OPT_ORDERING: profile})


# ---------------------------------------------------------------------------
# The common oracle on real binaries (apples-to-apples comparison)
# ---------------------------------------------------------------------------


def simulated_faults(
    binary: "NativeImageBinary",
    bundle: ProfileBundle,
    config: Optional[ExecutionConfig] = None,
) -> int:
    """Member-granular simulated first-touch ``.text`` faults of a *real*
    binary.

    The same touch rules the :class:`CostModel` scores virtual layouts
    with, applied to a built binary's actual offsets: startup native-blob
    pages, then each profiled method's CU-prologue prefix (``method``
    profile first-entry order; whole-CU touches when only a ``cu`` profile
    exists).  Scoring the seed and optimizer binaries with this one oracle
    makes optimizer-vs-paper comparisons apples-to-apples; for a
    ``cu-opt`` build it reproduces the search's predicted cost exactly
    (property-tested).  Pure: same inputs ⇒ same count.
    """
    from ..runtime.executor import ExecutionConfig, touch_native_startup
    from ..runtime.paging import PageCache

    config = config or ExecutionConfig()
    cache = PageCache()
    cache.set_limit(TEXT_SECTION, binary.text.size)
    touch_native_startup(cache, binary, config)
    raw_events = _code_events(binary, bundle)
    if raw_events is not None:
        placed_by_name = {placed.cu.name: placed
                          for placed in binary.text.placed}
        for name, end in raw_events:
            placed = placed_by_name.get(name)
            if placed is not None:
                cache.touch(TEXT_SECTION, placed.offset, end)
    return cache.snapshot_counts().get(TEXT_SECTION, 0)


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
    #: oracle faults of the seed strategy's built binary
    seed_faults: int = 0
    #: oracle faults of the optimizer strategy's built binary
    optimized_faults: int = 0
    #: the search's predicted cost (== optimized_faults; property-tested)
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
    config: OptimizeConfig
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
            "budget": self.config.budget,
            "search_seed": self.config.seed,
            "window": self.config.window,
            "optimizers": list(ALL_OPTIMIZERS),
            "sections": [section.as_dict() for section in self.sections],
            "ok": self.ok,
            "improved_sections": self.improved_sections,
        }

    def describe(self) -> str:
        lines = [f"optimize [{self.workload}] budget {self.config.budget}, "
                 f"search seed {self.config.seed}:"]
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


def optimize_workload(pipeline, seed: int = 0) -> OptimizationReport:
    """Search one workload's ``.text`` layout and score the winner vs ``cu``.

    ``pipeline`` is a :class:`~repro.eval.pipeline.WorkloadPipeline`; its
    ``optimize_config`` drives the search (so the builds the pipeline
    produces and the search scored here agree exactly).  The built
    ``cu-opt`` candidate runs the PR-2 structural verifier and the
    differential execution oracle before its faults count.  Fault numbers
    come from :func:`simulated_faults` on the *built* binaries — the same
    oracle for the seed strategy and the optimizer.
    """
    from ..eval.pipeline import STRATEGY_CU, STRATEGY_CU_OPT
    from ..validation.differential import run_differential
    from ..validation.invariants import verify_layout

    config = pipeline.optimize_config
    bundle = pipeline.profile(seed=seed).profiles
    entry = SectionOptimization()
    report = OptimizationReport(workload=pipeline.workload.name, seed=seed,
                                config=config, sections=[entry])
    reference = pipeline.build_optimized(bundle, None, seed=seed)
    baseline = pipeline.build_baseline(seed=seed)
    problem = code_problem(reference, bundle, config)
    if problem is None:
        entry.skipped = True
        entry.reason = "no usable seed profile for code"
        return report
    result = search_order(problem, config)
    entry.units = result.units
    entry.hot_units = result.hot_units
    entry.optimizer_costs = dict(result.costs)
    entry.best_optimizer = result.best_name
    entry.predicted_faults = result.best_cost
    seed_binary = pipeline.build_optimized(bundle, STRATEGY_CU, seed=seed)
    opt_binary = pipeline.build_optimized(bundle, STRATEGY_CU_OPT, seed=seed)
    entry.verified = verify_layout(opt_binary).ok
    entry.differential_ok = run_differential(
        baseline, opt_binary, pipeline.exec_config,
        workload=pipeline.workload.name, strategy=STRATEGY_CU_OPT.name,
        microservice=pipeline.workload.microservice,
    ).matches
    entry.seed_faults = simulated_faults(seed_binary, bundle,
                                         pipeline.exec_config)
    entry.optimized_faults = simulated_faults(opt_binary, bundle,
                                              pipeline.exec_config)
    return report
