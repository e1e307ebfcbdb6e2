"""Ordering-profile data model and CSV I/O.

The post-processing framework (paper Sec. 6.2) emits one CSV file per
ordering analysis; Native Image consumes them in the optimizing build.  We
mirror that: each profile is an ordered, duplicate-free sequence, written as
a CSV with a small header.

Reader functions (:func:`read_code_profile`, :func:`read_heap_profile`,
:func:`read_call_counts`) raise :class:`ValueError` on files that are not
profiles of the expected kind and propagate :class:`OSError` for unreadable
paths; writers overwrite their target atomically enough for single-writer
use (the content-addressed cache handles concurrent writers).
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import OrderingError


#: Code-order profile kinds: the paper's two first-use orderings plus the
#: search-derived placement order of :mod:`repro.ordering.optimize`.
CODE_ORDER_KINDS = ("cu", "method", "cu-opt")


@dataclass
class CodeOrderProfile:
    """First-execution order of CU roots (``cu``) or methods (``method``).

    The ``cu-opt`` kind carries a *search-derived* CU placement order
    (every signature is a CU root, like ``cu``, but the order came from the
    layout optimizer rather than first execution).
    """

    kind: str  # one of CODE_ORDER_KINDS
    signatures: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in CODE_ORDER_KINDS:
            raise ValueError(f"unknown code-order kind {self.kind!r}")


@dataclass
class HeapOrderProfile:
    """First-access order of image-heap objects, as strategy-specific IDs.

    ``strategy`` is an ID-strategy name ("incremental_id",
    "structural_hash", "heap_path").
    """

    strategy: str
    ids: List[int] = field(default_factory=list)


@dataclass
class CallCountProfile:
    """Method call counts (the paper's standard PGO profile content)."""

    counts: Dict[str, int] = field(default_factory=dict)

    def count(self, signature: str) -> int:
        return self.counts.get(signature, 0)

    def is_hot(self, signature: str, threshold: int) -> bool:
        return self.count(signature) >= threshold


@dataclass
class ProfileCompleteness:
    """How much of the raw trace data survived into a profile bundle.

    Filled in by :func:`repro.postproc.framework.build_profiles` when it
    runs in lenient (salvage) mode; ``None`` on a bundle means the traces
    were parsed strictly, i.e. they were complete by construction.
    """

    traces: int = 0
    #: traces that needed salvage (damaged but partially recovered)
    traces_damaged: int = 0
    #: traces that yielded nothing at all (unreadable header, total loss)
    traces_unreadable: int = 0
    records_recovered: int = 0
    #: records from torn tail chunks whose CRC could not be verified
    records_unverified: int = 0
    #: structurally valid records that contradict the manifest
    #: (mismatched-build symptom) and were skipped
    records_undecodable: int = 0
    corrupt_chunks: int = 0
    bytes_dropped: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def usable_records(self) -> int:
        return self.records_recovered - self.records_undecodable

    @property
    def complete(self) -> bool:
        return (self.traces_damaged == 0 and self.traces_unreadable == 0
                and self.records_undecodable == 0 and self.corrupt_chunks == 0
                and self.bytes_dropped == 0)

    def summary(self) -> str:
        status = "complete" if self.complete else "partial"
        return (
            f"{status}: {self.usable_records} usable records from "
            f"{self.traces} trace(s); {self.traces_damaged} damaged, "
            f"{self.traces_unreadable} unreadable, "
            f"{self.records_undecodable} undecodable record(s), "
            f"{self.corrupt_chunks} corrupt chunk(s), "
            f"{self.bytes_dropped} byte(s) dropped"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()


@dataclass
class ProfileBundle:
    """Everything a profiling run produces for the optimizing build.

    Inputs come from :func:`repro.postproc.framework.build_profiles`;
    consumers are the optimized build (ordering + PGO inlining) and the
    content-addressed cache (via :meth:`digest`).  Lookup methods return
    ``None`` for absent kinds/strategies — callers decide whether that is a
    degradation (fallback to default layout) or an error
    (:class:`ValueError` from :meth:`NativeImageBuilder.build`).
    """

    code: Dict[str, CodeOrderProfile] = field(default_factory=dict)
    heap: Dict[str, HeapOrderProfile] = field(default_factory=dict)
    calls: CallCountProfile = field(default_factory=CallCountProfile)
    #: salvage annotation (lenient post-processing only; None = parsed
    #: strictly from undamaged traces)
    completeness: Optional[ProfileCompleteness] = None

    def code_profile(self, kind: str) -> Optional[CodeOrderProfile]:
        """The ``"cu"``/``"method"`` ordering, or ``None`` if not traced."""
        return self.code.get(kind)

    def heap_profile(self, strategy: str) -> Optional[HeapOrderProfile]:
        """The named ID-strategy ordering, or ``None`` if not traced."""
        return self.heap.get(strategy)

    def digest(self) -> str:
        """SHA-256 content digest of every profile in the bundle.

        Two bundles with identical orderings and call counts digest
        identically regardless of how they were produced (fresh run,
        salvage, CSV round-trip); completeness annotations are metadata
        and deliberately excluded.  Used to key optimized builds in the
        artifact cache: a re-profiled workload whose orderings did not
        actually change still hits its cached measurements.
        """
        hasher = hashlib.sha256()
        for kind in sorted(self.code):
            hasher.update(f"code:{kind}\n".encode("utf-8"))
            for signature in self.code[kind].signatures:
                hasher.update(signature.encode("utf-8") + b"\n")
        for strategy in sorted(self.heap):
            hasher.update(f"heap:{strategy}\n".encode("utf-8"))
            for object_id in self.heap[strategy].ids:
                hasher.update((object_id & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
        hasher.update(b"calls\n")
        for signature in sorted(self.calls.counts):
            hasher.update(
                f"{signature}={self.calls.counts[signature]}\n".encode("utf-8")
            )
        return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Weighted multi-trace merge
# ---------------------------------------------------------------------------
#
# Production PGO folds profiles from heterogeneous traffic mixes into one
# ordering (the GraalVM loop merges N iprof files before the rebuild).  The
# primitives below aggregate N profiles under positive weights with *exact*
# rational arithmetic, so three algebraic guarantees hold by construction
# (and are property-tested in tests/test_pgo.py):
#
# * input-order invariance — merging a permutation of the same weighted
#   inputs yields the identical profile (Fraction sums are exact, ties
#   break deterministically);
# * weight-scale invariance — scaling every weight by the same positive
#   factor changes nothing (scores are normalized by total weight);
# * N=1 identity — merging a single profile reproduces it exactly.
#
# An entry's merged position is its weighted mean *normalized first-use
# rank*, where a profile that never saw the entry votes rank 1.0 ("after
# everything I did see"): entries that most of the traffic touches early
# land early, rarely-touched entries sink to the tail.  Degenerate inputs
# (empty set, all-zero weights, duplicated traces) raise a typed
# :class:`OrderingError` instead of silently producing a garbage ordering
# that an optimized build would then bake into a layout.


def _check_merge_inputs(items: Sequence[object], weights: Sequence[float],
                        kind: str, digests: Sequence[str]) -> List[Fraction]:
    """Validate merge inputs; return the weights as exact fractions.

    Raises :class:`OrderingError` (``kind=kind``) on an empty input set, a
    length mismatch, negative or all-zero weights, and duplicated inputs
    (two traces with identical content would silently double-vote).
    """
    if not items:
        raise OrderingError(
            f"cannot merge an empty {kind} set: at least one profile is "
            "required", kind=kind,
        )
    if len(weights) != len(items):
        raise OrderingError(
            f"{len(items)} {kind} input(s) but {len(weights)} weight(s)",
            kind=kind,
        )
    fractions = []
    for index, weight in enumerate(weights):
        if weight < 0:
            raise OrderingError(
                f"negative weight {weight!r} for {kind} input {index}",
                kind=kind,
            )
        fractions.append(Fraction(weight))
    if not any(fractions):
        raise OrderingError(
            f"all-zero weights: the merged {kind} would be degenerate "
            "(no input can contribute)", kind=kind,
        )
    seen: Dict[str, int] = {}
    for index, digest in enumerate(digests):
        if digest in seen:
            raise OrderingError(
                f"duplicate {kind} inputs at positions {seen[digest]} and "
                f"{index}: identical traces would double-vote; deduplicate "
                "(or reweight) before merging",
                kind=kind, missing=(seen[digest], index),
            )
        seen[digest] = index
    return fractions


def _merge_ranked(sequences: Sequence[Sequence], weights: Sequence[Fraction],
                  sort_key) -> List:
    """Order the union of ``sequences`` by weighted mean normalized rank.

    An entry absent from a sequence is charged that sequence's weight at
    normalized rank 1.0; ties break towards the entry more traffic
    actually saw, then by ``sort_key`` for full determinism.
    """
    total = sum(weights)
    rank_maps = [
        ({entry: position for position, entry in enumerate(sequence)},
         len(sequence) + 1, weight)
        for sequence, weight in zip(sequences, weights)
    ]
    union = set()
    for ranks, _, _ in rank_maps:
        union.update(ranks)
    scores: Dict[object, Tuple[Fraction, Fraction]] = {}
    for entry in union:
        score = Fraction(0)
        seen_weight = Fraction(0)
        for ranks, denominator, weight in rank_maps:
            position = ranks.get(entry)
            if position is None:
                score += weight  # absent = normalized rank 1.0
            else:
                score += weight * Fraction(position + 1, denominator)
                seen_weight += weight
        scores[entry] = (score / total, seen_weight)
    return sorted(union,
                  key=lambda entry: (scores[entry][0], -scores[entry][1],
                                     sort_key(entry)))


def merge_code_profiles(profiles: Sequence[CodeOrderProfile],
                        weights: Sequence[float],
                        dedup: bool = True) -> CodeOrderProfile:
    """Weighted merge of N same-kind code orderings into one.

    Raises :class:`OrderingError` on degenerate inputs (see
    :func:`_check_merge_inputs`) and on mixed kinds (a ``cu`` ordering
    cannot merge with a ``method`` ordering).  ``dedup=False`` skips the
    duplicate-input check — for callers like :func:`merge_bundles` that
    already deduplicate at a coarser granularity, where two *distinct*
    bundles may legitimately share one identical component.
    """
    digests = ([f"{p.kind}:" + "\x1f".join(p.signatures) for p in profiles]
               if dedup else ())
    fractions = _check_merge_inputs(profiles, weights, "code-order", digests)
    kinds = {profile.kind for profile in profiles}
    if len(kinds) > 1:
        raise OrderingError(
            f"cannot merge code orderings of mixed kinds {sorted(kinds)}",
            kind="code-order",
        )
    merged = _merge_ranked([p.signatures for p in profiles], fractions,
                           sort_key=lambda signature: signature)
    return CodeOrderProfile(kind=profiles[0].kind, signatures=merged)


def merge_heap_profiles(profiles: Sequence[HeapOrderProfile],
                        weights: Sequence[float],
                        dedup: bool = True) -> HeapOrderProfile:
    """Weighted merge of N same-strategy heap orderings into one."""
    digests = ([
        f"{p.strategy}:" + "\x1f".join(f"{i:x}" for i in p.ids)
        for p in profiles
    ] if dedup else ())
    fractions = _check_merge_inputs(profiles, weights, "heap-order", digests)
    strategies = {profile.strategy for profile in profiles}
    if len(strategies) > 1:
        raise OrderingError(
            "cannot merge heap orderings of mixed strategies "
            f"{sorted(strategies)}", kind="heap-order",
        )
    merged = _merge_ranked([p.ids for p in profiles], fractions,
                           sort_key=lambda object_id: object_id)
    return HeapOrderProfile(strategy=profiles[0].strategy, ids=merged)


def merge_call_counts(profiles: Sequence[CallCountProfile],
                      weights: Sequence[float],
                      dedup: bool = True) -> CallCountProfile:
    """Weighted mean of N call-count profiles (rounded half-up).

    The mean (not the sum) keeps the result weight-scale-invariant and
    reduces to the input for N=1; with heterogeneous traffic mixes it is
    the expected per-start call count, which is what PGO inlining wants.
    """
    digests = ([
        "\x1f".join(f"{s}={p.counts[s]}" for s in sorted(p.counts))
        for p in profiles
    ] if dedup else ())
    fractions = _check_merge_inputs(profiles, weights, "call-count", digests)
    total = sum(fractions)
    merged: Dict[str, int] = {}
    signatures = set()
    for profile in profiles:
        signatures.update(profile.counts)
    for signature in sorted(signatures):
        mean = sum(
            weight * profile.counts.get(signature, 0)
            for profile, weight in zip(profiles, fractions)
        ) / total
        count = int(mean) + (1 if mean - int(mean) >= Fraction(1, 2) else 0)
        if count > 0:
            merged[signature] = count
    return CallCountProfile(counts=merged)


def merge_bundles(bundles: Sequence[ProfileBundle],
                  weights: Sequence[float]) -> ProfileBundle:
    """Weighted merge of N profile bundles into one first-use bundle.

    Each code kind / heap strategy is merged across the bundles that carry
    it (with their weights); kinds carried only by zero-weight bundles are
    dropped.  Only profile *content* merges here: per-source provenance
    (which traces contributed, at what weights, from which epoch) is not a
    bundle field — since PR 7 it travels separately as
    :class:`repro.pgo.lifecycle.ProfileProvenance`, stored as
    ``provenance.json`` next to the CSV bundle in the profile store.  The
    one accounting that does live on the bundle is salvage completeness
    (:class:`ProfileCompleteness`), summed across annotated inputs.
    Raises :class:`OrderingError` on an empty bundle set, mismatched
    weights, all-zero weights, or duplicate bundles (identical content
    digest).

    Weight-scale invariance — scaling every weight by the same positive
    factor changes nothing (exercised as a doctest by the test suite):

    >>> left = ProfileBundle(code={"cu": CodeOrderProfile("cu", ["a", "b"])})
    >>> right = ProfileBundle(code={"cu": CodeOrderProfile("cu", ["b", "c"])})
    >>> merged = merge_bundles([left, right], [1, 3])
    >>> scaled = merge_bundles([left, right], [10, 30])
    >>> merged.code["cu"].signatures
    ['b', 'c', 'a']
    >>> scaled.code["cu"].signatures == merged.code["cu"].signatures
    True
    >>> scaled.digest() == merged.digest()
    True
    """
    fractions = _check_merge_inputs(
        bundles, weights, "profile-bundle",
        [bundle.digest() for bundle in bundles],
    )
    merged = ProfileBundle()
    code_kinds = sorted({kind for bundle in bundles for kind in bundle.code})
    for kind in code_kinds:
        carriers = [(bundle.code[kind], weight)
                    for bundle, weight in zip(bundles, fractions)
                    if kind in bundle.code]
        if not any(weight for _, weight in carriers):
            continue
        merged.code[kind] = merge_code_profiles(
            [profile for profile, _ in carriers],
            [weight for _, weight in carriers],
            dedup=False,
        )
    heap_kinds = sorted({kind for bundle in bundles for kind in bundle.heap})
    for strategy in heap_kinds:
        carriers = [(bundle.heap[strategy], weight)
                    for bundle, weight in zip(bundles, fractions)
                    if strategy in bundle.heap]
        if not any(weight for _, weight in carriers):
            continue
        merged.heap[strategy] = merge_heap_profiles(
            [profile for profile, _ in carriers],
            [weight for _, weight in carriers],
            dedup=False,
        )
    merged.calls = merge_call_counts([bundle.calls for bundle in bundles],
                                     weights, dedup=False)
    annotated = [bundle.completeness for bundle in bundles
                 if bundle.completeness is not None]
    if annotated:
        combined = ProfileCompleteness()
        for completeness in annotated:
            combined.traces += completeness.traces
            combined.traces_damaged += completeness.traces_damaged
            combined.traces_unreadable += completeness.traces_unreadable
            combined.records_recovered += completeness.records_recovered
            combined.records_unverified += completeness.records_unverified
            combined.records_undecodable += completeness.records_undecodable
            combined.corrupt_chunks += completeness.corrupt_chunks
            combined.bytes_dropped += completeness.bytes_dropped
            combined.notes.extend(completeness.notes)
        merged.completeness = combined
    return merged


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def write_code_profile(profile: CodeOrderProfile, path: Path) -> None:
    """Write a code-ordering profile as ``order,signature`` rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", profile.kind])
        for index, signature in enumerate(profile.signatures):
            writer.writerow([index, signature])


def read_code_profile(path: Path) -> CodeOrderProfile:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][0] != "kind":
        raise ValueError(f"{path}: not a code-ordering profile")
    kind = rows[0][1]
    signatures = [row[1] for row in rows[1:]]
    return CodeOrderProfile(kind=kind, signatures=signatures)


def write_heap_profile(profile: HeapOrderProfile, path: Path) -> None:
    """Write a heap-ordering profile as ``order,id`` rows (IDs in hex)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["strategy", profile.strategy])
        for index, object_id in enumerate(profile.ids):
            writer.writerow([index, f"{object_id:016x}"])


def read_heap_profile(path: Path) -> HeapOrderProfile:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][0] != "strategy":
        raise ValueError(f"{path}: not a heap-ordering profile")
    strategy = rows[0][1]
    ids = [int(row[1], 16) for row in rows[1:]]
    return HeapOrderProfile(strategy=strategy, ids=ids)


def write_call_counts(profile: CallCountProfile, path: Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["signature", "count"])
        for signature in sorted(profile.counts):
            writer.writerow([signature, profile.counts[signature]])


def read_call_counts(path: Path) -> CallCountProfile:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["signature", "count"]:
        raise ValueError(f"{path}: not a call-count profile")
    return CallCountProfile(counts={sig: int(count) for sig, count in rows[1:]})


def save_bundle(bundle: ProfileBundle, directory: Path) -> None:
    """Persist a bundle into ``directory`` (one CSV per profile)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind, profile in bundle.code.items():
        write_code_profile(profile, directory / f"code_{kind}.csv")
    for strategy, profile in bundle.heap.items():
        write_heap_profile(profile, directory / f"heap_{strategy}.csv")
    write_call_counts(bundle.calls, directory / "call_counts.csv")


def load_bundle(directory: Path) -> ProfileBundle:
    """Load a bundle previously written by :func:`save_bundle`."""
    directory = Path(directory)
    bundle = ProfileBundle()
    for path in sorted(directory.glob("code_*.csv")):
        profile = read_code_profile(path)
        bundle.code[profile.kind] = profile
    for path in sorted(directory.glob("heap_*.csv")):
        profile = read_heap_profile(path)
        bundle.heap[profile.strategy] = profile
    counts_path = directory / "call_counts.csv"
    if counts_path.exists():
        bundle.calls = read_call_counts(counts_path)
    return bundle
