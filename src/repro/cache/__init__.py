"""Content-addressed artifact cache for the evaluation pipeline.

Keys every expensive pipeline artifact — compiled programs, raw traces,
post-processed ordering profiles, built images, and run metrics — by a
digest of (workload source, ordering strategy, build/execution/policy
configuration, toolchain version, seed), so unchanged combinations are
loaded instead of rebuilt.  See :mod:`repro.cache.keys` for the key
derivations and :mod:`repro.cache.store` for the on-disk store.

Arm it on a pipeline::

    from repro.cache import ArtifactCache
    pipeline = WorkloadPipeline(workload, cache=ArtifactCache(Path(".cache")))

or let :class:`repro.eval.scheduler.SweepScheduler` /
``python -m repro bench`` manage one for a whole sweep.
"""

from .keys import (
    CACHE_SCHEMA,
    TOOLCHAIN_VERSION,
    fingerprint,
    image_key,
    metrics_key,
    profile_key,
    program_key,
    source_digest,
    trace_key,
)
from .store import (
    ALL_KINDS,
    KIND_IMAGE,
    KIND_METRICS,
    KIND_PROFILE,
    KIND_PROGRAM,
    KIND_REPORT,
    KIND_TRACE,
    ArtifactCache,
)

__all__ = [
    "ALL_KINDS",
    "ArtifactCache",
    "CACHE_SCHEMA",
    "KIND_IMAGE",
    "KIND_METRICS",
    "KIND_PROFILE",
    "KIND_PROGRAM",
    "KIND_REPORT",
    "KIND_TRACE",
    "TOOLCHAIN_VERSION",
    "fingerprint",
    "image_key",
    "metrics_key",
    "profile_key",
    "program_key",
    "source_digest",
    "trace_key",
]
