"""Seeded multi-epoch drift scenarios: synthetic traffic over real traces.

The simulator is deterministic — re-running a workload reproduces its
trace bit-for-bit — so "traffic drift" is modelled the way a fleet sees
it: live traffic is a *weighted mix* of traffic variants (endpoint
populations exercising overlapping but different method/object subsets),
and the mix shifts over epochs.  :func:`synthesize_variants` derives the
variants from the workload's genuinely traced profile with seeded subset
sampling + rotation, so each variant touches a different (but real)
slice of the program in a different first-use order; a layout built for
one variant's mix then measurably underperforms when another variant
dominates — exactly the staleness the loop must detect and repair.

:func:`run_scenario` drives a :class:`~repro.pgo.loop.PgoLoop` through a
scripted schedule: steady traffic, a genuine shift at ``drift_epoch``
(the loop must auto-refresh and strictly cut replayed faults), and
optionally an injected-bad candidate at ``inject_bad_epoch`` (the canary
gate must quarantine it and roll back).  The whole scenario is a pure
function of ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..eval.pipeline import StrategySpec, WorkloadPipeline
from ..obs import metrics
from ..ordering.ids import ALL_STRATEGIES
from ..ordering.profiles import (
    CallCountProfile,
    CodeOrderProfile,
    HeapOrderProfile,
    ProfileBundle,
)
from ..robustness.chaos import ChaosPolicy
from ..validation.mutate import MUTATE_SWAP_CU_OFFSETS, LayoutMutationPlan
from .drift import DriftThresholds
from .loop import (
    ACTION_REFRESH,
    ACTION_RETAIN,
    ACTION_ROLLBACK,
    CanaryPolicy,
    EpochOutcome,
    PgoLoop,
)
from .merge import WeightedProfile


@dataclass(frozen=True)
class TrafficVariant:
    """One synthetic traffic population (a slice of the true trace)."""

    name: str
    bundle: ProfileBundle


#: fraction of every ordering component a shifted variant drops
DROP_FRACTION = 0.35
#: fraction of the hot set each shifted variant replaces with previously
#: cold units (new-endpoint traffic)
ADOPT_FRACTION = 0.75


def _perturb_sequence(items: Sequence, universe: Sequence,
                      rng: random.Random) -> List:
    """A seeded traffic shift over ``items``: drop, rotate, adopt cold units.

    Dropping and *adopting* change which units this traffic touches (what
    drives distinct-page fault counts — adopted units come from
    ``universe``, the binary's full population, modelling a new endpoint
    turning cold code hot); rotating changes the first-use *order* (what
    drives rank distance).  Adopted units land interleaved through the
    front of the order — they are the shifted traffic's new hot set, and
    a stale layout has them scattered at default positions.
    """
    items = list(items)
    if len(items) <= 1:
        return items
    keep = max(1, len(items) - int(round(len(items) * DROP_FRACTION)))
    chosen = sorted(rng.sample(range(len(items)), keep))
    subset = [items[index] for index in chosen]
    if len(subset) > 1:
        pivot = rng.randrange(1, len(subset))
        subset = subset[pivot:] + subset[:pivot]
    hot = set(items)
    cold = [unit for unit in universe if unit not in hot]
    adopt = min(len(cold), int(round(len(items) * ADOPT_FRACTION)))
    if adopt > 0:
        for unit in rng.sample(cold, adopt):
            subset.insert(rng.randrange(0, max(1, len(subset) // 2) + 1),
                          unit)
    return subset


def population(binary) -> Dict[str, Dict[str, List]]:
    """The full unit population of a built binary, in default-layout order.

    ``{"code": {kind: [units...]}, "heap": {strategy: [ids...]}}`` — the
    universe shifted traffic adopts newly-hot units from.
    """
    code: Dict[str, List] = {
        "cu": [placed.cu.name for placed in binary.text.placed],
    }
    seen = set()
    methods: List[str] = []
    for placed in binary.text.placed:
        for member in placed.cu.members:
            if member.signature not in seen:
                seen.add(member.signature)
                methods.append(member.signature)
    code["method"] = methods
    heap: Dict[str, List] = {}
    for obj in binary.heap.ordered:
        for strategy in ALL_STRATEGIES:
            heap.setdefault(strategy, []).append(
                binary.snapshot.id_of(obj, strategy))
    return {"code": code, "heap": heap}


def synthesize_variants(
    base: ProfileBundle,
    count: int = 3,
    seed: int = 7,
    universe: Optional[Dict[str, Dict[str, List]]] = None,
) -> List[TrafficVariant]:
    """Derive ``count`` traffic variants from one genuinely traced bundle.

    Variant 0 (``steady``) is the traced profile itself; each further
    variant drops a seeded ~:data:`DROP_FRACTION` of every ordering
    component, rotates the remainder, and (when a ``universe`` from
    :func:`population` is given) adopts ~:data:`ADOPT_FRACTION` previously
    cold units — a traffic population with a genuinely different hot set,
    which is what makes a stale layout *cost* faults rather than merely
    look reordered.  Call counts are shared (the same code runs, at
    shifted frequencies the merge averages out).  Deterministic in
    ``seed``.
    """
    universe = universe or {"code": {}, "heap": {}}
    variants = [TrafficVariant(name="steady", bundle=base)]
    for index in range(1, max(1, count)):
        rng = random.Random((seed << 8) | index)
        bundle = ProfileBundle()
        for kind in sorted(base.code):
            bundle.code[kind] = CodeOrderProfile(
                kind=kind,
                signatures=_perturb_sequence(
                    base.code[kind].signatures,
                    universe["code"].get(kind, ()), rng),
            )
        for strategy in sorted(base.heap):
            bundle.heap[strategy] = HeapOrderProfile(
                strategy=strategy,
                ids=_perturb_sequence(
                    base.heap[strategy].ids,
                    universe["heap"].get(strategy, ()), rng),
            )
        bundle.calls = CallCountProfile(counts=dict(base.calls.counts))
        variants.append(TrafficVariant(name=f"shift-{index}", bundle=bundle))
    return variants


@dataclass(frozen=True)
class DriftScenario:
    """A scripted multi-epoch traffic schedule (pure function of seed)."""

    epochs: int = 3
    seed: int = 7
    #: epoch at which live traffic genuinely shifts (variant 1 dominates)
    drift_epoch: int = 1
    #: epoch whose drift-triggered candidate is damaged before the gate
    #: (traffic shifts again here so a rebuild actually happens); None =
    #: no injection
    inject_bad_epoch: Optional[int] = None
    mutation: str = MUTATE_SWAP_CU_OFFSETS

    def mix_weights(self, epoch: int, count: int) -> Dict[int, float]:
        """The traffic mix at ``epoch``: ``{variant index: share}``.

        Pre-drift traffic is pure ``steady`` — the future-hot variants
        must be genuinely *unseen* at bootstrap, or their units would be
        baked into the stale layout and drift would cost nothing.  After
        each shift the previously dominant variant keeps a small residual
        share (traffic moves, it does not teleport).
        """
        if self.inject_bad_epoch is not None and epoch >= self.inject_bad_epoch:
            shift = 2
        elif epoch >= self.drift_epoch:
            shift = 1
        else:
            shift = 0
        shift = min(shift, count - 1)
        if shift == 0:
            return {0: 1.0}
        mix = {0: 0.10, shift: 0.85}
        # residual share of the variant that dominated the previous phase
        previous = min(shift - 1, count - 1)
        if previous > 0:
            mix[previous] = 0.05
        else:
            mix[0] = 0.15
        return mix


@dataclass
class ScenarioOutcome:
    """Everything a scenario run produced, JSON-ready."""

    workload: str
    strategy: str
    scenario: DriftScenario
    bootstrap: EpochOutcome
    epochs: List[EpochOutcome] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)

    @property
    def refreshes(self) -> int:
        return sum(1 for e in self.epochs if e.action == ACTION_REFRESH)

    @property
    def rollbacks(self) -> int:
        return sum(1 for e in self.epochs if e.action == ACTION_ROLLBACK)

    @property
    def retained(self) -> int:
        return sum(1 for e in self.epochs if e.action == ACTION_RETAIN)

    @property
    def stale_served(self) -> int:
        return sum(1 for e in self.epochs if e.stale_served)

    @property
    def unguarded_regressions(self) -> int:
        return sum(1 for e in self.epochs if e.unguarded_regression)

    @property
    def ok(self) -> bool:
        """The headline invariant: no epoch shipped an unguarded loss."""
        return self.unguarded_regressions == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "seed": self.scenario.seed,
            "epochs": [e.as_dict() for e in self.epochs],
            "bootstrap": self.bootstrap.as_dict(),
            "refreshes": self.refreshes,
            "rollbacks": self.rollbacks,
            "retained": self.retained,
            "stale_served": self.stale_served,
            "quarantined": list(self.quarantined),
            "unguarded_regressions": self.unguarded_regressions,
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"pgo scenario [{self.workload} / {self.strategy}] "
            f"seed {self.scenario.seed}: {len(self.epochs)} epoch(s), "
            f"{self.refreshes} refresh(es), {self.rollbacks} rollback(s), "
            f"{self.retained} retained, "
            f"{self.unguarded_regressions} unguarded regression(s)",
            self.bootstrap.describe(),
        ]
        lines.extend(e.describe() for e in self.epochs)
        if self.quarantined:
            lines.append("quarantined candidate layout(s): "
                         + "; ".join(self.quarantined))
        lines.append("invariant: deployed layout never regressed past the "
                     "gate threshold"
                     if self.ok else
                     "INVARIANT VIOLATED: an epoch shipped an unguarded "
                     "regression")
        return "\n".join(lines)


def run_scenario(
    pipeline: WorkloadPipeline,
    strategy: StrategySpec,
    scenario: Optional[DriftScenario] = None,
    thresholds: Optional[DriftThresholds] = None,
    canary: Optional[CanaryPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
) -> ScenarioOutcome:
    """Drive one loop through a scripted drift scenario; deterministic."""
    scenario = scenario or DriftScenario()
    profiled = pipeline.profile(seed=scenario.seed)
    universe = population(pipeline.build_baseline(seed=scenario.seed))
    variants = synthesize_variants(profiled.profiles, seed=scenario.seed,
                                   universe=universe)
    loop = PgoLoop(pipeline, strategy, thresholds=thresholds, canary=canary,
                   chaos=chaos, seed=scenario.seed)

    def mix_for(epoch: int) -> List[WeightedProfile]:
        weights = scenario.mix_weights(epoch, len(variants))
        return [
            WeightedProfile(label=variants[index].name, weight=weight,
                            bundle=variants[index].bundle)
            for index, weight in sorted(weights.items())
        ]

    bootstrap = loop.bootstrap(mix_for(0), epoch=0)
    epochs: List[EpochOutcome] = []
    for epoch in range(scenario.epochs):
        plan = None
        if epoch == scenario.inject_bad_epoch:
            plan = LayoutMutationPlan.single(scenario.mutation,
                                             pick=scenario.seed)
        epochs.append(loop.observe(mix_for(epoch), epoch,
                                   mutation_plan=plan))
    outcome = ScenarioOutcome(
        workload=pipeline.workload.name,
        strategy=strategy.name,
        scenario=scenario,
        bootstrap=bootstrap,
        epochs=epochs,
        quarantined=[entry.describe()
                     for entry in loop.quarantine.entries.values()],
    )
    metrics().gauge("pgo.scenario.unguarded_regressions",
                    float(outcome.unguarded_regressions))
    return outcome
