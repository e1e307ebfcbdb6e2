"""Content-addressed cache keys for pipeline artifacts.

Every cacheable artifact of the evaluation pipeline — compiled programs,
raw trace files, post-processed ordering profiles, run metrics, and the
per-build reports — is addressed by a SHA-256 digest of *everything that
determines its content*:

* the workload's MiniJava source text,
* the build/execution/policy configuration (fingerprinted from the
  dataclass fields, canonically serialized),
* the ordering strategy,
* the build seed, and
* the toolchain version (:data:`TOOLCHAIN_VERSION`), so artifacts from an
  older code revision or a different Python major.minor can never be
  confused with current ones.

Keys are pure functions of their inputs: the same (source, strategy,
config, seed, toolchain) always derives the same key, and any edit to any
ingredient derives a different key.  There is deliberately no "update"
notion — a changed input is a *different* artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Any, Optional

from .. import __version__

#: bump when the cached payload layout changes incompatibly (3: no image
#: entries, and a ``cu-opt`` build's report entry carries its layout search)
CACHE_SCHEMA = 3

#: identity of the toolchain that produced an artifact; part of every key's
#: sidecar metadata and the stale-eviction criterion
TOOLCHAIN_VERSION = (
    f"repro-{__version__}/py{sys.version_info.major}.{sys.version_info.minor}"
    f"/cache-v{CACHE_SCHEMA}"
)


def _canon(value: Any) -> Any:
    """Reduce ``value`` to JSON-serializable canonical form.

    Dataclasses become ``{"__dc__": <class name>, <field>: ...}`` maps,
    mappings are key-sorted by the JSON encoder, and sets are sorted.
    Raises :class:`TypeError` for values with no canonical form (functions,
    open handles, ...) rather than silently fingerprinting their ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__dc__": type(value).__name__}
        for field in dataclasses.fields(value):
            out[field.name] = _canon(getattr(value, field.name))
        return out
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(item) for item in value)
    if isinstance(value, bytes):
        return {"__bytes__": hashlib.sha256(value).hexdigest()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for a cache key")


def fingerprint(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``.

    Used to reduce configuration dataclasses (:class:`BuildConfig`,
    :class:`ExecutionConfig`, policies) to a stable string that changes
    exactly when any field changes.  Raises :class:`TypeError` if ``value``
    contains something non-canonicalizable.
    """
    payload = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def source_digest(source: str) -> str:
    """Digest of a workload's MiniJava source text (byte-exact)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _derive(kind: str, *parts: Optional[str]) -> str:
    material = "\x1f".join([TOOLCHAIN_VERSION, kind] + [p or "" for p in parts])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def program_key(src_digest: str) -> str:
    """Key of a compiled :class:`~repro.minijava.bytecode.Program`."""
    return _derive("program", src_digest)


def trace_key(src_digest: str, build_fp: str, profiler_fp: str,
              seed: int) -> str:
    """Key of the raw per-thread trace files of one instrumented run.

    ``profiler_fp`` fingerprints everything that shapes the traces beyond
    the build itself: dump mode, probe cost model, microservice flag.
    """
    return _derive("trace", src_digest, build_fp, profiler_fp, str(seed))


def profile_key(src_digest: str, build_fp: str, profiler_fp: str,
                seed: int, policy_fp: str) -> str:
    """Key of a post-processed :class:`ProfilingOutcome`.

    Includes the degradation-policy fingerprint: lenient/strict parsing and
    retry behaviour are part of what the outcome *is*.
    """
    return _derive("profile", src_digest, build_fp, profiler_fp, str(seed),
                   policy_fp)


def image_key(src_digest: str, build_fp: str, mode: str,
              code_ordering: Optional[str], heap_ordering: Optional[str],
              profiles_digest: str, seed: int) -> str:
    """Key of one build: it addresses the build's measurements and report.

    The image itself is not stored (laying it out again costs less than
    loading it).  ``profiles_digest`` is empty for regular/instrumented
    builds; for optimized builds it binds the key to the exact profile
    content that guided the build (so a re-profiled workload re-measures)
    — for the search-based strategies, the seed profiles plus the search
    configuration.
    """
    return _derive("image", src_digest, build_fp, mode, code_ordering,
                   heap_ordering, profiles_digest, str(seed))


def metrics_key(img_key: str, exec_fp: str, iterations: int, seed: int,
                watchdog_fp: str) -> str:
    """Key of the measured :class:`RunMetrics` list of one image."""
    return _derive("metrics", img_key, exec_fp, str(iterations), str(seed),
                   watchdog_fp)
