"""Drift detection: is the deployed layout still right for live traffic?

Two complementary signals, both cheap enough to run every epoch:

* **rank distance** — a normalized Spearman-footrule over first-use
  orderings: how far each symbol/object moved between the profile the
  deployed layout was built from and the profile live traffic produces
  now.  Entries absent from one side sit at normalized rank 1.0 ("after
  everything seen"), so churn — new hot endpoints, vanished ones — counts
  as movement.  0.0 = identical orderings, →1.0 = unrelated.
* **replayed fault delta** — the deployed *layout* replayed under the
  live profile through the paging simulator: touch the live first-use
  order against the deployed binary's actual section layout in a fresh
  :class:`~repro.runtime.paging.PageCache` and count first-touch faults.
  Compared against the fault count recorded when the layout was deployed
  (its traffic-it-was-built-for baseline), this measures what staleness
  actually *costs*, not just that orderings moved.

Either signal crossing its bound (:class:`DriftThresholds` for the rank
distance, :data:`MAX_FAULT_REGRESSION` for the fault delta) marks the
:class:`DriftReport` drifted; the loop then rebuilds a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..eval.pipeline import StrategySpec, relevant_faults
from ..image.binary import NativeImageBinary
from ..image.sections import HEAP_SECTION, TEXT_SECTION
from ..ordering.profiles import ProfileBundle
from ..runtime.executor import ExecutionConfig, replay_touches
from ..runtime.paging import PageCache


# ---------------------------------------------------------------------------
# Fault replay through the paging simulator
# ---------------------------------------------------------------------------


def replay_faults(
    binary: NativeImageBinary,
    bundle: ProfileBundle,
    spec: StrategySpec,
    config: Optional[ExecutionConfig] = None,
) -> Dict[str, int]:
    """First-touch faults of ``bundle``'s first-use order on ``binary``.

    Touches a fresh page cache the way startup would: the native-blob
    pages the loader always drags in, then every code unit in the
    profile's first-use order (CU roots or method member ranges, per the
    strategy's code kind), then every heap object the profile's ID order
    names (a binary computes any strategy's IDs when first read, so
    replay works against any binary).  Returns per-section fault counts.
    Pure: no interpreter run, same inputs → same counts.
    """
    cache = replay_touches(binary, config or ExecutionConfig(),
                           fault_around=0)
    code_kind = spec.code_ordering
    if code_kind is not None:
        profile = bundle.code_profile(code_kind)
        if profile is not None:
            _touch_code(cache, binary, code_kind, profile.signatures)
    heap_kind = spec.heap_ordering
    if heap_kind is not None:
        profile = bundle.heap_profile(heap_kind)
        if profile is not None:
            _touch_heap(cache, binary, heap_kind, profile.ids)
    return cache.snapshot_counts()


def _touch_code(cache: PageCache, binary: NativeImageBinary,
                kind: str, signatures: Sequence[str]) -> None:
    # "cu-opt" profiles list CU roots in search-derived placement order;
    # their replay semantics are whole-CU touches, exactly like "cu".
    if kind in ("cu", "cu-opt"):
        for signature in signatures:
            placed = binary.placed_cu_for_root(signature)
            if placed is not None:
                cache.touch(TEXT_SECTION, placed.offset, placed.cu.size)
        return
    # method kind: touch each method's member range wherever it landed
    members: Dict[str, Tuple[int, int]] = {}
    for placed in binary.text.placed:
        for member in placed.cu.members:
            members.setdefault(member.signature, placed.member_range(member))
    for signature in signatures:
        span = members.get(signature)
        if span is not None:
            cache.touch(TEXT_SECTION, span[0], span[1])


def _touch_heap(cache: PageCache, binary: NativeImageBinary,
                strategy: str, ids: Sequence[int]) -> None:
    by_id: Dict[int, List] = {}
    for obj in binary.heap.ordered:
        object_id = binary.snapshot.id_of(obj, strategy)
        if object_id is not None:
            by_id.setdefault(object_id, []).append(obj)
    for object_id in ids:
        for obj in by_id.get(object_id, ()):
            cache.touch(HEAP_SECTION, obj.address, obj.size)


def expected_faults(
    binary: NativeImageBinary,
    mix: Sequence[Tuple[ProfileBundle, float]],
    spec: StrategySpec,
    config: Optional[ExecutionConfig] = None,
) -> float:
    """Weighted mean replayed fault count of ``binary`` under a traffic mix.

    ``mix`` is ``(bundle, weight)`` pairs; weights are normalized, so the
    result is the expected first-touch fault count of one start drawn
    from that traffic.  Exact rational arithmetic keeps the expectation
    independent of pair order and weight scale.
    """
    if not mix:
        return 0.0
    total = Fraction(0)
    weight_sum = Fraction(0)
    for bundle, weight in mix:
        fraction = Fraction(weight)
        if fraction == 0:
            continue
        counts = replay_faults(binary, bundle, spec, config)
        total += fraction * relevant_faults(counts, spec)
        weight_sum += fraction
    if weight_sum == 0:
        return 0.0
    return float(total / weight_sum)


# ---------------------------------------------------------------------------
# Rank distance
# ---------------------------------------------------------------------------


def _footrule(left: Sequence, right: Sequence) -> float:
    """Normalized Spearman footrule over the union; absent = rank 1.0."""
    left_ranks = {entry: Fraction(index + 1, len(left) + 1)
                  for index, entry in enumerate(left)}
    right_ranks = {entry: Fraction(index + 1, len(right) + 1)
                   for index, entry in enumerate(right)}
    union = set(left_ranks) | set(right_ranks)
    if not union:
        return 0.0
    one = Fraction(1)
    total = sum(
        abs(left_ranks.get(entry, one) - right_ranks.get(entry, one))
        for entry in union
    )
    return float(total / len(union))


def rank_distance(
    deployed: ProfileBundle,
    live: ProfileBundle,
    spec: StrategySpec,
) -> Tuple[float, Dict[str, float]]:
    """Per-component footrule distances + the max as the headline score.

    Only the components the strategy actually lays out are compared (a
    heap-only strategy does not drift because code orderings moved).
    """
    components: Dict[str, float] = {}
    if spec.code_ordering is not None:
        kind = spec.code_ordering
        left = deployed.code_profile(kind)
        right = live.code_profile(kind)
        components[f"code:{kind}"] = _footrule(
            left.signatures if left else (),
            right.signatures if right else (),
        )
    if spec.heap_ordering is not None:
        kind = spec.heap_ordering
        left = deployed.heap_profile(kind)
        right = live.heap_profile(kind)
        components[f"heap:{kind}"] = _footrule(
            left.ids if left else (), right.ids if right else (),
        )
    score = max(components.values(), default=0.0)
    return score, components


# ---------------------------------------------------------------------------
# The detector
# ---------------------------------------------------------------------------


#: max tolerated relative fault regression of the deployed layout under
#: live traffic vs its deployment-time baseline
MAX_FAULT_REGRESSION = 0.05


@dataclass(frozen=True)
class DriftThresholds:
    """When is drift actionable?  This bound or
    :data:`MAX_FAULT_REGRESSION` crossing triggers."""

    #: max tolerated rank distance (footrule, 0..1) before re-layout
    max_rank_distance: float = 0.15


@dataclass
class DriftReport:
    """Everything one drift check measured, and the verdict."""

    workload: str = ""
    strategy: str = ""
    epoch: int = 0
    deployed_version: int = 0
    live_digest: str = ""
    #: headline rank distance (max over components)
    rank_distance: float = 0.0
    components: Dict[str, float] = field(default_factory=dict)
    #: deployed layout replayed under live traffic (expected faults)
    deployed_live_faults: float = 0.0
    #: the deployment-time baseline it is judged against
    deployed_baseline_faults: float = 0.0
    #: relative regression ((live - baseline) / baseline); 0 when baseline=0
    fault_regression: float = 0.0
    thresholds: DriftThresholds = field(default_factory=DriftThresholds)
    drifted: bool = False
    reasons: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "epoch": self.epoch,
            "deployed_version": self.deployed_version,
            "live_digest": self.live_digest,
            "rank_distance": self.rank_distance,
            "components": dict(self.components),
            "deployed_live_faults": self.deployed_live_faults,
            "deployed_baseline_faults": self.deployed_baseline_faults,
            "fault_regression": self.fault_regression,
            "drifted": self.drifted,
            "reasons": list(self.reasons),
        }

    def describe(self) -> str:
        verdict = "DRIFTED" if self.drifted else "fresh"
        head = (f"drift check [{self.workload} / {self.strategy}] "
                f"epoch {self.epoch} vs profile v{self.deployed_version}: "
                f"{verdict} (rank distance {self.rank_distance:.3f}, "
                f"fault regression {self.fault_regression:+.1%})")
        if not self.reasons:
            return head
        return head + "\n" + "\n".join(f"  - {r}" for r in self.reasons)


def detect_drift(
    *,
    workload: str,
    spec: StrategySpec,
    deployed_profile: ProfileBundle,
    deployed_binary: NativeImageBinary,
    live_bundle: ProfileBundle,
    live_mix: Sequence[Tuple[ProfileBundle, float]],
    epoch: int,
    deployed_version: int = 0,
    baseline_faults: float = 0.0,
    thresholds: Optional[DriftThresholds] = None,
    config: Optional[ExecutionConfig] = None,
) -> DriftReport:
    """Compare the deployed layout's profile against live traffic.

    Inputs: the profile the deployed layout was built from, the deployed
    binary itself (for fault replay), the merged live profile and the raw
    live mix it came from, plus the deployment-time ``baseline_faults``.
    Returns a :class:`DriftReport`; never raises on content — a live
    profile missing whole components simply scores maximal movement.
    """
    thresholds = thresholds or DriftThresholds()
    score, components = rank_distance(deployed_profile, live_bundle, spec)
    live_faults = expected_faults(deployed_binary, live_mix, spec, config)
    if baseline_faults > 0:
        regression = (live_faults - baseline_faults) / baseline_faults
    else:
        regression = 0.0
    report = DriftReport(
        workload=workload,
        strategy=spec.name,
        epoch=epoch,
        deployed_version=deployed_version,
        live_digest=live_bundle.digest(),
        rank_distance=score,
        components=components,
        deployed_live_faults=live_faults,
        deployed_baseline_faults=baseline_faults,
        fault_regression=regression,
        thresholds=thresholds,
    )
    if score > thresholds.max_rank_distance:
        report.drifted = True
        report.reasons.append(
            f"rank distance {score:.3f} exceeds the "
            f"{thresholds.max_rank_distance:.3f} threshold "
            f"({_worst_component(components)})"
        )
    if regression > MAX_FAULT_REGRESSION:
        report.drifted = True
        report.reasons.append(
            f"deployed layout costs {live_faults:.1f} expected faults under "
            f"live traffic vs {baseline_faults:.1f} at deployment "
            f"({regression:+.1%}, threshold "
            f"{MAX_FAULT_REGRESSION:+.1%})"
        )
    return report


def _worst_component(components: Dict[str, float]) -> str:
    if not components:
        return "no components"
    name = max(components, key=lambda key: components[key])
    return f"worst component {name} at {components[name]:.3f}"
