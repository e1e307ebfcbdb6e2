"""Weighted profile merge with provenance.

The profile service's merge step: post-processed traffic slices, each a
:class:`WeightedProfile`, are coalesced by content and folded by
:func:`repro.ordering.profiles.merge_bundles` into one first-use ordering
profile whose :class:`ProfileProvenance` records exactly which sources
voted at which weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..ordering.errors import OrderingError
from ..ordering.profiles import ProfileBundle, merge_bundles
from .lifecycle import ProfileProvenance, TraceSource


@dataclass(frozen=True)
class WeightedProfile:
    """One post-processed traffic slice ready to vote in a merge."""

    label: str
    weight: float
    bundle: ProfileBundle
    #: usable records behind the bundle (0 = synthetic / unknown)
    records: int = 0
    salvaged: bool = False


def coalesce_mix(mix: Sequence[WeightedProfile]) -> List[WeightedProfile]:
    """Fold duplicate-content sources into one reweighted vote.

    The merge primitives treat identical inputs as an error (silent
    double-voting); a traffic *mix* legitimately produces identical
    bundles — two endpoints exercising the same paths — so the mix layer
    coalesces them by content digest, summing weights, before merging.
    """
    by_digest: Dict[str, WeightedProfile] = {}
    order: List[str] = []
    for source in mix:
        digest = source.bundle.digest()
        if digest in by_digest:
            merged = by_digest[digest]
            by_digest[digest] = replace(
                merged,
                weight=merged.weight + source.weight,
                label=f"{merged.label}+{source.label}",
                records=merged.records + source.records,
                salvaged=merged.salvaged or source.salvaged,
            )
        else:
            by_digest[digest] = source
            order.append(digest)
    return [by_digest[digest] for digest in order]


def merge_mix(
    mix: Sequence[WeightedProfile],
    workload: str,
    epoch: int,
    notes: Sequence[str] = (),
) -> Tuple[ProfileBundle, ProfileProvenance]:
    """Merge a traffic mix into one profile + its provenance record.

    Raises the merge layer's typed :class:`OrderingError` on degenerate
    mixes (empty after rejection, all-zero weights); duplicate-content
    sources are coalesced first (see :func:`coalesce_mix`), so only truly
    broken inputs raise.
    """
    mix = coalesce_mix(mix)
    if not mix:
        raise OrderingError(
            f"no usable trace sources survived ingestion for {workload!r}; "
            "cannot produce a merged profile", kind="profile-bundle",
        )
    bundle = merge_bundles([source.bundle for source in mix],
                           [source.weight for source in mix])
    provenance = ProfileProvenance(
        workload=workload,
        epoch=epoch,
        sources=tuple(
            TraceSource(
                label=source.label,
                weight=source.weight,
                records=source.records,
                salvaged=source.salvaged,
                digest=source.bundle.digest(),
            )
            for source in mix
        ),
        notes=tuple(notes),
    )
    return bundle, provenance
