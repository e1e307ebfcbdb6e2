"""Heap-snapshot ordering: matching profile IDs to objects (paper Sec. 5).

The heap-ordering step "attempts to match the semantically same objects in
the heap snapshot and in the profiles by exploiting their identifiers and
hence reorders the former according to the latter" (Sec. 3).  Identities are
64-bit IDs computed by one of the three strategies in
:mod:`repro.ordering.ids`; because builds diverge, matching is best-effort:

* each profile ID is matched against the optimized build's objects carrying
  the same strategy ID;
* when several objects share an ID (hash collision, or several objects with
  the same heap path), they are all placed at that profile position in
  default order — a deliberate tie-break that keeps the layout stable;
* unmatched objects keep the default (traversal) order, after all matched
  objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from .errors import OrderingError
from .profiles import HeapOrderProfile

if TYPE_CHECKING:  # imported for annotations only (avoids an import cycle)
    from ..image.heap import HeapObject, HeapSnapshot


@dataclass
class MatchReport:
    """Diagnostics of one profile-to-snapshot matching pass."""

    strategy: str
    profile_entries: int
    matched_profile_entries: int
    matched_objects: int
    total_objects: int
    #: distinct IDs carried by more than one object, across the *whole*
    #: snapshot — collisions among unmatched objects count too, since they
    #: degrade the next profiling run even if this profile missed them
    colliding_ids: int
    #: of those, IDs that a profile entry actually matched
    colliding_matched_ids: int = 0
    #: objects involved in any collision (matched or not)
    colliding_objects: int = 0

    @property
    def profile_match_rate(self) -> float:
        if self.profile_entries == 0:
            return 0.0
        return self.matched_profile_entries / self.profile_entries

    @property
    def colliding_unmatched_ids(self) -> int:
        return self.colliding_ids - self.colliding_matched_ids

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.strategy}] {self.matched_profile_entries}/{self.profile_entries} "
            f"profile entries matched; {self.matched_objects}/{self.total_objects} "
            f"objects placed by profile; {self.colliding_ids} colliding IDs "
            f"({self.colliding_matched_ids} matched, "
            f"{self.colliding_unmatched_ids} unmatched, "
            f"{self.colliding_objects} objects)"
        )


def match_and_order(
    snapshot: HeapSnapshot,
    profile: HeapOrderProfile,
    strict: bool = False,
) -> "tuple[List[HeapObject], MatchReport]":
    """Match profile IDs against snapshot objects; return layout + report.

    With ``strict=True`` a profile ID that matches no snapshot object raises
    :class:`OrderingError` (naming the unmatched IDs) instead of being
    skipped — the profile references objects absent from this build.
    """
    strategy = profile.strategy
    by_id: Dict[int, List[HeapObject]] = {}
    for obj in snapshot:
        object_id = snapshot.id_of(obj, strategy)
        if object_id is None:
            raise OrderingError(
                f"snapshot object #{obj.index} has no {strategy!r} ID",
                kind=strategy,
            )
        by_id.setdefault(object_id, []).append(obj)

    placed: List[HeapObject] = []
    placed_indices: set = set()
    matched_entries = 0
    matched_ids: set = set()
    unmatched_profile_ids: List[int] = []
    for object_id in profile.ids:
        bucket = by_id.get(object_id)
        if not bucket:
            unmatched_profile_ids.append(object_id)
            continue
        matched_entries += 1
        matched_ids.add(object_id)
        # Colliding IDs: all carriers land at this profile position, in
        # default (snapshot-index) order — the deterministic tie-break.
        for obj in sorted(bucket, key=lambda o: o.index):
            if obj.index not in placed_indices:
                placed_indices.add(obj.index)
                placed.append(obj)

    if strict and unmatched_profile_ids:
        raise OrderingError(
            f"{len(unmatched_profile_ids)} profile ID(s) match no object in "
            f"this build's snapshot (first: "
            f"{unmatched_profile_ids[0]:#018x}); the profile is from a "
            "different build",
            kind=strategy,
            missing=unmatched_profile_ids,
        )

    rest = [obj for obj in snapshot if obj.index not in placed_indices]
    colliding = {oid: bucket for oid, bucket in by_id.items() if len(bucket) > 1}
    report = MatchReport(
        strategy=strategy,
        profile_entries=len(profile.ids),
        matched_profile_entries=matched_entries,
        matched_objects=len(placed),
        total_objects=len(snapshot),
        colliding_ids=len(colliding),
        colliding_matched_ids=sum(1 for oid in colliding if oid in matched_ids),
        colliding_objects=sum(len(bucket) for bucket in colliding.values()),
    )
    return placed + rest, report
