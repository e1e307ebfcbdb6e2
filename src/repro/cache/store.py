"""Content-addressed on-disk artifact store.

Layout::

    <root>/
      trace/ab/abcdef....pkl      artifact payload (pickle)
      trace/ab/abcdef....json     sidecar metadata (toolchain, created, note)
      profile/..., metrics/..., report/..., program/...

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
caller — never unpickled into garbage; a sidecar that lost its ``crc32``
counts as a mismatch.  Failure modes are non-fatal by design: an unreadable,
stale (different-toolchain), or checksum-mismatched entry is treated as a
miss and deleted (self-healing), and I/O errors during ``put`` skip the
write; nothing here ever raises into the pipeline.  Entries are never
evicted otherwise; :meth:`ArtifactCache.clear` empties the store.

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
#: built images; the pipeline no longer stores them (laying a build out
#: again costs less than loading it), but :meth:`ArtifactCache.clear`
#: still removes the ones an older cache holds
KIND_IMAGE = "image"
KIND_METRICS = "metrics"
#: small per-build records under each optimized build's key: its rung
#: decisions (verification/degradation/quarantine) and, for ``cu-opt``,
#: the layout search it was laid out from
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
    """Content-addressed, self-healing pickle store.

    Parameters
    ----------
    root:
        Cache directory (created on demand).  Safe to share between
        processes; all writes are atomic renames.
    toolchain:
        Identity recorded with every entry; entries recorded under a
        different toolchain are treated as misses and deleted when read.
    """

    def __init__(self, root: Path, toolchain: str = TOOLCHAIN_VERSION,
                 memo_entries: int = 64) -> None:
        self.root = Path(root)
        self.toolchain = toolchain
        #: chaos hook: ``before_io(op, kind, key)`` may raise OSError,
        #: ``after_put(kind, key, path)`` may damage the written payload.
        #: Armed per task by the scheduler's chaos machinery; None = off.
        self.fault_injector = None
        self._sweep_orphans()
        # In-memory LRU over disk loads: repeat lookups of the same key
        # (seven strategies sharing one profile) skip the unpickle, which
        # dominates warm-path wall-clock.  Entries are
        # immutable by contract, so handing out the same object is safe;
        # only successful *disk* loads are memoized, keeping the disk the
        # source of truth right after a put.
        self._memo: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._memo_entries = memo_entries

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
        whose sidecar CRC32 is missing or does not match — or that fails
        to unpickle — is *healed*: detected, evicted, counted, and
        reported as a miss so the caller recomputes; corrupted bytes are
        never returned.  A
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
        if type(crc) is not int or zlib.crc32(payload) != crc:
            # A rotted sidecar that lost its ``crc32`` key is damage too:
            # every writer records one.
            return self._heal(kind, key, "checksum mismatch")
        try:
            value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any damage shape, never raise
            # A corruption the CRC cannot see (it covers the bytes we
            # read, not the pickle semantics): still detect-evict-recompute.
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
        stored and the caller keeps its computed value.  A written
        entry bumps ``cache.put.<kind>`` and adds its payload size to
        ``cache.put_bytes.<kind>``.
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
            meta = {
                "toolchain": self.toolchain,
                "created": time.time(),
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
        metrics().counter(f"cache.put_bytes.{kind}", len(payload))
        if injector is not None:
            injector.after_put(kind, key, path)
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

    # -- deletion ----------------------------------------------------------------

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

    def clear(self) -> None:
        """Delete every entry (the directory tree stays in place)."""
        for kind in ALL_KINDS:
            for key, _meta in list(self.entries(kind)):
                self._delete(kind, key)
