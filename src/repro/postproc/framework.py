"""Post-processing framework (paper Sec. 6.2).

Reads per-thread trace files and folds their records straight into the
ordering profiles, using the instrumentation manifest to decode path IDs:

* CU first-entry order (cu ordering, Sec. 4.1);
* method first-entry order and call counts, in one dict (method ordering,
  Sec. 4.2, and the standard Native-Image PGO call counts);
* first-accessed image-heap objects, mapped to each ID strategy's IDs
  once the traces are read (heap ordering, Sec. 5).

Each verified chunk's records are folded as they come (see
:func:`repro.profiling.tracefile.record_batches`); every path record's
object-ID count is checked against its decoded path, once per distinct
``(method, start block, path value)`` for the decode.

Multi-threaded traces are processed in thread-creation order and
concatenated, with duplicates removed (Sec. 7.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ordering.ids import ALL_STRATEGIES
from ..ordering.profiles import (
    CallCountProfile,
    CodeOrderProfile,
    HeapOrderProfile,
    ProfileBundle,
    ProfileCompleteness,
)
from ..profiling.instrument import InstrumentationManifest
from ..profiling.tracefile import (
    TAG_METHOD_ENTRY,
    TAG_PATH,
    RawRecord,
    SalvageReport,
    TraceDecodeError,
    record_batches,
    salvage_batches,
)

__all__ = ["TraceDecodeError", "build_profiles"]


class _ProfileFold:
    """The profiles of one manifest's traces, folded record by record."""

    def __init__(self, manifest: InstrumentationManifest) -> None:
        self._manifest = manifest
        #: CU id -> None, in first-entry order
        self.cus: Dict[int, None] = {}
        #: method id -> entries, in first-entry order
        self.calls: Dict[int, int] = {}
        #: object id (snapshot index + 1; 0 for runtime objects) -> None,
        #: in first-access order
        self.objects: Dict[int, None] = {}
        #: (method id, start block, path value) -> heap-access sites
        self._sites: Dict[Tuple[int, int, int], int] = {}

    def fold(self, records: List[RawRecord], strict: bool) -> int:
        """Fold ``records`` in; return how many contradict the manifest.

        A record that contradicts the manifest — an out-of-range ID or a
        path/site count mismatch, the signature of a trace from a
        different (mismatched) build — is skipped, or with ``strict``
        raises :class:`TraceDecodeError`.
        """
        calls = self.calls
        objects = self.objects
        sites = self._sites
        rejected = 0
        for record in records:
            tag = record[0]
            if tag == TAG_PATH:
                _tag, path, object_ids = record
                count = sites.get(path)
                if count is None or count != len(object_ids):
                    try:
                        self._check_path(path, object_ids)
                    except TraceDecodeError:
                        if strict:
                            raise
                        rejected += 1
                        continue
                for object_id in object_ids:
                    if object_id not in objects:
                        objects[object_id] = None
            elif tag == TAG_METHOD_ENTRY:
                method_id = record[1]
                entries = calls.get(method_id)
                if entries is not None:
                    calls[method_id] = entries + 1
                elif self._known(self._manifest.method_signatures,
                                 method_id, strict):
                    calls[method_id] = 1
                else:
                    rejected += 1
            else:
                cu_id = record[1]
                if cu_id in self.cus:
                    continue
                if self._known(self._manifest.cu_signatures, cu_id, strict):
                    self.cus[cu_id] = None
                else:
                    rejected += 1
        return rejected

    @staticmethod
    def _known(signatures: List[str], index: int, strict: bool) -> bool:
        """Whether an entry record's ID names one of ``signatures``."""
        try:
            signatures[index]
        except IndexError as exc:
            if strict:
                raise TraceDecodeError(
                    f"record contradicts manifest: {exc}") from exc
            return False
        return True

    def _check_path(self, path: Tuple[int, int, int],
                    object_ids: Tuple[int, ...]) -> None:
        """Decode ``path`` and check its record's ID count against it."""
        manifest = self._manifest
        method_id, start_block, path_value = path
        count = self._sites.get(path)
        if count is None:
            try:
                cfg = manifest.cfg_for_id(method_id)
                count = len(cfg.heap_sites_on_path(start_block, path_value))
            except (IndexError, KeyError, ValueError) as exc:
                raise TraceDecodeError(
                    f"record contradicts manifest: {exc}") from exc
            self._sites[path] = count
        if count != len(object_ids):
            raise TraceDecodeError(
                f"{manifest.cfg_for_id(method_id).method.signature}: "
                f"path ({start_block}, {path_value}) has "
                f"{count} heap-access sites but the record carries "
                f"{len(object_ids)} IDs"
            )

    def bundle(self, strategies: List[str],
               completeness: Optional[ProfileCompleteness]) -> ProfileBundle:
        manifest = self._manifest
        methods = manifest.method_signatures
        bundle = ProfileBundle(completeness=completeness)
        bundle.code["cu"] = CodeOrderProfile(
            kind="cu",
            signatures=[manifest.cu_signatures[cu_id] for cu_id in self.cus])
        bundle.code["method"] = CodeOrderProfile(
            kind="method", signatures=[methods[m] for m in self.calls])
        bundle.calls = CallCountProfile(
            counts={methods[m]: n for m, n in self.calls.items()})
        # 0 marks a runtime-allocated object, which is not in the image.
        accessed = [manifest.object_ids.get(object_id - 1)
                    for object_id in self.objects if object_id != 0]
        accessed = [ids for ids in accessed if ids is not None]
        for strategy in strategies:
            bundle.heap[strategy] = HeapOrderProfile(
                strategy=strategy,
                ids=list(dict.fromkeys(ids[strategy] for ids in accessed)))
        return bundle


def build_profiles(
    manifest: InstrumentationManifest,
    trace_files: List[bytes],
    strategies: Optional[List[str]] = None,
    lenient: bool = False,
) -> ProfileBundle:
    """One-stop post-processing: traces -> complete profile bundle.

    Trace files are read in thread-creation order.  Strict mode raises
    :class:`TraceDecodeError` on the first damaged trace: its first
    structural fault (anywhere in the file) or else its first record that
    contradicts the manifest.  With ``lenient=True`` damaged traces are
    salvaged instead, records that contradict the manifest are skipped,
    and the bundle's ``completeness`` accounts how much data survived.
    """
    fold = _ProfileFold(manifest)
    completeness = None
    if not lenient:
        for trace_data in trace_files:
            batches = record_batches(trace_data)
            for records in batches:
                try:
                    fold.fold(records, strict=True)
                except TraceDecodeError:
                    # Structural damage later in the file is reported
                    # first, as a parse of the whole file would.
                    for _records in batches:
                        pass
                    raise
    else:
        completeness = ProfileCompleteness(traces=len(trace_files))
        for trace_data in trace_files:
            report = SalvageReport()
            rejected = 0
            for records in salvage_batches(trace_data, report):
                rejected += fold.fold(records, strict=False)
            completeness.records_recovered += report.records_recovered
            completeness.records_unverified += report.records_unverified
            completeness.records_undecodable += rejected
            completeness.corrupt_chunks += report.corrupt_chunks
            completeness.bytes_dropped += report.bytes_dropped
            completeness.notes.extend(report.notes)
            if not report.header_ok:
                completeness.traces_unreadable += 1
            elif not report.complete or rejected:
                completeness.traces_damaged += 1
    return fold.bundle(strategies or list(ALL_STRATEGIES), completeness)
