"""Content-addressed on-disk artifact store.

Layout::

    <root>/
      trace/ab/abcdef....pkl      artifact payload (pickle)
      trace/ab/abcdef....json     sidecar metadata (toolchain, created, note)
      profile/..., image/..., metrics/..., program/...

Entries are immutable: a key fully determines the payload, so a ``put`` of
an existing key is a no-op.  Writes go through a temporary file that is
fsynced and then ``os.replace``d, so concurrent writers (the parallel
scheduler's worker processes) can race on the same key without ever
exposing a torn file, and a power cut between write and rename cannot
leave a short payload under the final name.  Temporary files orphaned by a
killed writer are swept on the next store open.

Every sidecar records a CRC32 of the payload; reads verify it before
unpickling, so a corrupted or truncated entry (storage rot, a torn write
outside the rename window) is *detected*, evicted, and recomputed by the
caller — never unpickled into garbage.  Failure modes are non-fatal by
design: an unreadable, stale, or checksum-mismatched payload is treated as
a miss (self-healing), and I/O errors during ``put`` skip the write;
nothing here ever raises into the pipeline.

``fault_injector`` is the chaos hook (see
:class:`repro.robustness.chaos.ChaosCacheInjector`): an object whose
``before_io(op, kind, key)`` may raise a transient :class:`OSError` and
whose ``after_put(kind, key, path)`` may damage the just-written payload.
Both failure shapes are absorbed by the store itself, which is exactly
what the chaos tests assert.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from ..obs import get_event_log, metrics
from .keys import TOOLCHAIN_VERSION

#: artifact namespaces (subdirectories of the cache root)
KIND_PROGRAM = "program"
KIND_TRACE = "trace"
KIND_PROFILE = "profile"
KIND_IMAGE = "image"
KIND_METRICS = "metrics"
#: small rung-decision records (verification/degradation/quarantine) stored
#: beside each optimized image, loadable without the image payload itself
KIND_REPORT = "report"
ALL_KINDS = (KIND_PROGRAM, KIND_TRACE, KIND_PROFILE, KIND_IMAGE,
             KIND_METRICS, KIND_REPORT)


def _writer_alive(name: str) -> bool:
    """Whether the process that staged ``.tmp-<pid>-…`` is still running."""
    pid = name[len(".tmp-"):].partition("-")[0]
    # os.kill(pid, 0) probes a process only on POSIX; elsewhere signal 0
    # would deliver a real signal, so every staging file counts as orphaned.
    if os.name != "posix" or not pid.isdigit():
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


class ArtifactCache:
    """Content-addressed pickle store with stale and size-bound eviction.

    Parameters
    ----------
    root:
        Cache directory (created on demand).  Safe to share between
        processes; all writes are atomic renames.
    toolchain:
        Identity recorded with every entry; entries recorded under a
        different toolchain are treated as misses and evicted lazily
        (or eagerly via :meth:`evict_stale`).
    max_entries_per_kind:
        Optional ceiling per namespace; the oldest entries (by creation
        stamp, tie-broken by insertion sequence then key) are evicted
        once a ``put`` exceeds it.
    """

    def __init__(self, root: Path, toolchain: str = TOOLCHAIN_VERSION,
                 max_entries_per_kind: Optional[int] = None,
                 memo_entries: int = 64) -> None:
        self.root = Path(root)
        self.toolchain = toolchain
        self.max_entries_per_kind = max_entries_per_kind
        #: chaos hook: ``before_io(op, kind, key)`` may raise OSError,
        #: ``after_put(kind, key, path)`` may damage the written payload.
        #: Armed per task by the scheduler's chaos machinery; None = off.
        self.fault_injector = None
        self._sweep_orphans()
        # In-memory LRU over disk loads: repeat lookups of the same key
        # (six strategies sharing one baseline image / profile) skip the
        # unpickle, which dominates warm-path wall-clock.  Entries are
        # immutable by contract, so handing out the same object is safe;
        # only successful *disk* loads are memoized, keeping the disk the
        # source of truth right after a put.
        self._memo: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._memo_entries = memo_entries
        # Monotonic insertion sequence recorded in every sidecar: the
        # ``created`` wall-clock stamp alone cannot order entries written
        # faster than clock resolution (and goes backwards on clock
        # steps), so eviction tie-breaks on (created, seq, key).
        self._seq = 0

    # -- paths -----------------------------------------------------------------

    def _entry_path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def _meta_path(self, kind: str, key: str) -> Path:
        return self._entry_path(kind, key).with_suffix(".json")

    def _sweep_orphans(self) -> int:
        """Delete ``.tmp-*`` files a killed writer left behind.

        ``put`` stages payloads in ``.tmp-<pid>-*`` files next to their
        final path; a process killed between write and rename orphans one.
        They are invisible to lookups (the final name was never created)
        but accumulate dead space, so every store open sweeps them.  A file
        whose writer still runs is a put in flight — sweep workers open
        the shared store while others write — and is kept.  Returns the
        number of orphans removed.
        """
        if not self.root.exists():
            return 0
        removed = 0
        for orphan in self.root.glob("*/*/.tmp-*"):
            if _writer_alive(orphan.name):
                continue
            try:
                orphan.unlink()
                removed += 1
            except OSError:
                continue
        if removed:
            metrics().counter("cache.orphans_swept", removed)
        return removed

    def _transient_error(self, kind: str, op: str) -> None:
        """Account one absorbed I/O error (read → miss, write → skip)."""
        metrics().counter(f"cache.io_error.{op}")
        get_event_log().emit("cache.io_error", artifact=kind, op=op)

    # -- lookup ----------------------------------------------------------------

    def contains(self, kind: str, key: str) -> bool:
        """Whether an entry exists (without counting a hit or a miss)."""
        return self._entry_path(kind, key).exists()

    def get(self, kind: str, key: str) -> Optional[Any]:
        """Load an artifact; ``None`` on miss.

        A stale (different-toolchain) or missing entry counts as a miss
        and is deleted so the caller's rebuild replaces it.  A payload
        whose CRC32 sidecar does not match — or that fails to unpickle —
        is *healed*: detected, evicted, counted, and reported as a miss so
        the caller recomputes; corrupted bytes are never returned.  A
        transient I/O error (including an armed ``fault_injector``) is a
        plain miss that leaves the entry in place for the next reader.
        """
        memo_key = (kind, key)
        if memo_key in self._memo:
            self._memo.move_to_end(memo_key)
            metrics().counter(f"cache.hit.{kind}")
            return self._memo[memo_key]
        injector = self.fault_injector
        if injector is not None:
            try:
                injector.before_io("get", kind, key)
            except OSError:
                self._transient_error(kind, "get")
                return self._miss(kind)
        path = self._entry_path(kind, key)
        try:
            meta = json.loads(self._meta_path(kind, key).read_text())
        except (OSError, ValueError):
            self._delete(kind, key)
            return self._miss(kind)
        if meta.get("toolchain") != self.toolchain:
            self._delete(kind, key)
            return self._miss(kind)
        try:
            payload = path.read_bytes()
        except OSError:
            self._delete(kind, key)
            return self._miss(kind)
        crc = meta.get("crc32")
        if crc is not None and zlib.crc32(payload) != crc:
            return self._heal(kind, key, "checksum mismatch")
        try:
            value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any damage shape, never raise
            # Legacy entry without a checksum, or a corruption the CRC
            # cannot see (it covers the bytes we read, not the pickle
            # semantics): still detect-evict-recompute.
            return self._heal(kind, key, "undecodable payload")
        metrics().counter(f"cache.hit.{kind}")
        if self._memo_entries > 0:
            self._memo[memo_key] = value
            while len(self._memo) > self._memo_entries:
                self._memo.popitem(last=False)
        return value

    def _miss(self, kind: str) -> None:
        metrics().counter(f"cache.miss.{kind}")
        return None

    def _heal(self, kind: str, key: str, reason: str) -> None:
        """Evict a corrupted entry and account the self-heal as a miss."""
        self._delete(kind, key)
        metrics().counter(f"cache.heal.{kind}")
        get_event_log().emit("cache.heal", artifact=kind, key=key,
                             reason=reason)
        return self._miss(kind)

    def put(self, kind: str, key: str, value: Any,
            note: str = "") -> bool:
        """Store an artifact; returns whether a new entry was written.

        A value that cannot be pickled is skipped (``False``) rather than
        raised — caching is an accelerator, never a correctness gate.  So
        is any I/O error during the write (disk full, transient storage
        fault, an armed ``fault_injector``): the entry simply is not
        stored and the caller keeps its computed value.
        """
        path = self._entry_path(kind, key)
        injector = self.fault_injector
        try:
            if injector is not None:
                injector.before_io("put", kind, key)
            if path.exists():
                return False
            try:
                payload = pickle.dumps(value,
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except (TypeError, AttributeError, pickle.PicklingError):
                return False
            path.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write(path, payload)
            self._seq += 1
            meta = {
                "toolchain": self.toolchain,
                "created": time.time(),
                "seq": self._seq,
                "kind": kind,
                "key": key,
                "crc32": zlib.crc32(payload),
                "note": note,
            }
            self._atomic_write(self._meta_path(kind, key),
                               json.dumps(meta, sort_keys=True)
                               .encode("utf-8"))
        except OSError:
            self._transient_error(kind, "put")
            return False
        metrics().counter(f"cache.put.{kind}")
        if injector is not None:
            injector.after_put(kind, key, path)
        if self.max_entries_per_kind is not None:
            self._evict_over_limit(kind)
        return True

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        """Write-fsync-rename so the final name never holds a torn file.

        Without the fsync a crash after ``os.replace`` could surface a
        payload whose data blocks never reached the disk — the classic
        torn-write window.  The checksum sidecar would still catch it on
        read, but durability-before-visibility keeps the window closed in
        the first place.
        """
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".tmp-{os.getpid()}-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- eviction ----------------------------------------------------------------

    def _delete(self, kind: str, key: str) -> None:
        self._memo.pop((kind, key), None)
        for path in (self._entry_path(kind, key), self._meta_path(kind, key)):
            try:
                path.unlink()
            except OSError:
                pass

    def entries(self, kind: str) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """All (key, metadata) pairs of one namespace."""
        base = self.root / kind
        if not base.exists():
            return
        for meta_path in sorted(base.glob("*/*.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            yield meta_path.stem, meta

    def entry_count(self, kind: str) -> int:
        base = self.root / kind
        return sum(1 for _ in base.glob("*/*.pkl")) if base.exists() else 0

    def evict_stale(self) -> int:
        """Delete every entry recorded under a different toolchain.

        Returns the number of entries evicted.  Run this after upgrading
        the repo (or switching Python versions) to reclaim dead space;
        lookups already skip stale entries lazily either way.
        """
        evicted = 0
        for kind in ALL_KINDS:
            for key, meta in list(self.entries(kind)):
                if meta.get("toolchain") != self.toolchain:
                    self._delete(kind, key)
                    evicted += 1
        if evicted:
            metrics().counter("cache.evict", evicted)
            get_event_log().emit("cache.evict_stale", evicted=evicted)
        return evicted

    def _evict_over_limit(self, kind: str) -> None:
        limit = self.max_entries_per_kind
        assert limit is not None
        # Oldest-first by creation stamp, tie-broken by the monotonic
        # insertion sequence and finally the key: equal timestamps from
        # fast successive puts (or a backwards clock step within one
        # stamp) can no longer scramble the eviction order.  Entries
        # written before sequence numbers existed sort oldest (-1).
        aged = sorted(
            self.entries(kind),
            key=lambda item: (item[1].get("created", 0.0),
                              item[1].get("seq", -1),
                              item[0]),
        )
        excess = len(aged) - limit
        for key, _meta in aged[:max(excess, 0)]:
            self._delete(kind, key)
            metrics().counter("cache.evict")
            get_event_log().emit("cache.evict", artifact=kind, key=key)

    def clear(self) -> None:
        """Delete every entry (the directory tree stays in place)."""
        for kind in ALL_KINDS:
            for key, _meta in list(self.entries(kind)):
                self._delete(kind, key)

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> str:
        """Entry counts on disk plus this process's ``cache.*`` counters."""
        lines = [f"artifact cache at {self.root} ({self.toolchain})"]
        for kind in ALL_KINDS:
            count = self.entry_count(kind)
            if count:
                lines.append(f"  {kind}: {count} entries")
        counts = metrics().snapshot()
        hits, misses = counts.total("cache.hit."), counts.total("cache.miss.")
        rate = hits / (hits + misses) if hits + misses else 0.0
        lines.append(f"  this process: {hits} hits / {misses} misses "
                     f"({rate:.0%}), {counts.total('cache.put.')} puts, "
                     f"{counts.total('cache.evict')} evictions, "
                     f"{counts.total('cache.heal.')} healed, "
                     f"{counts.total('cache.io_error.')} I/O errors absorbed")
        return "\n".join(lines)
