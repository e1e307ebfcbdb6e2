"""Degradation policy and report for the profile→optimize pipeline.

Related PGO systems stress that production profiles are routinely stale,
partial, or from a mismatched build; layout tooling must degrade gracefully
rather than abort (Hoag et al., arXiv:2211.09285; Makor et al.,
arXiv:2502.20536).  The policy below encodes the ladder the pipeline
descends when a profiling run goes wrong:

1. parse leniently and accept a *salvaged* profile if any record
   survives;
2. otherwise retry profiling up to ``max_retries`` more times with
   exponential-backoff-style seed perturbation (a fresh build + run);
3. at build time, if the heap-ID match rate against the snapshot falls
   below ``min_match_rate`` (the profile is from a mismatched build —
   exactly what the paper's three ID strategies of Sec. 5 try to prevent),
   drop the heap ordering and keep the default traversal layout;
4. if the built layout fails structural verification
   (:func:`repro.validation.verify_layout`), quarantine the (workload,
   strategy) combination and roll back to the default layout — a proven-bad
   ordering must never be measured;
5. as the last rung, build with the default (build-order) layout.

Every decision is recorded in a :class:`DegradationReport`, surfaced
through :mod:`repro.api` and the ``repro robustness``/``repro verify`` CLI
subcommands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..ordering.profiles import ProfileCompleteness

if TYPE_CHECKING:  # type-only: validation must stay importable on its own
    from ..validation.invariants import LayoutVerificationReport


@dataclass(frozen=True)
class DegradationPolicy:
    """Knobs of the degradation ladder."""

    #: additional profiling attempts after the first one fails
    max_retries: int = 2
    #: heap-ID profile-to-snapshot match-rate floor; below it the heap
    #: ordering is dropped (mismatched-build guard)
    min_match_rate: float = 0.25
    #: base of the seed perturbation between retries
    seed_stride: int = 101

    def retry_seed(self, seed: int, attempt: int) -> int:
        """Seed for the given attempt (0 = the original seed).

        The perturbation grows like an exponential backoff — attempt ``k``
        moves ``seed_stride * (2^k - 1)`` away — so retries quickly leave
        the neighbourhood of a seed whose build happens to tickle a fault.
        """
        return seed + self.seed_stride * ((1 << attempt) - 1)


@dataclass
class ProfilingAttempt:
    """One profiling try and how it ended."""

    attempt: int
    seed: int
    status: str  # "ok" | "salvaged" | "empty" | "error"
    records: int = 0
    detail: str = ""

    def describe(self) -> str:
        extra = f": {self.detail}" if self.detail else ""
        return (f"attempt {self.attempt} (seed {self.seed}): {self.status}, "
                f"{self.records} records{extra}")


@dataclass
class DegradationReport:
    """Everything the degradation machinery decided, and why."""

    workload: str = ""
    strategy: str = ""
    attempts: List[ProfilingAttempt] = field(default_factory=list)
    completeness: Optional[ProfileCompleteness] = None
    #: where the profile that fed the build came from
    profile_source: str = "profiled"  # "profiled" | "salvaged" | "none"
    code_fallback: bool = False
    heap_fallback: bool = False
    heap_match_rate: Optional[float] = None
    #: the built layout failed structural verification and was replaced by
    #: a default-layout rebuild (quarantine-and-rollback rung)
    layout_fallback: bool = False
    #: the (workload, strategy) ordering profile is now quarantined
    quarantined: bool = False
    #: the convicting verification report, when the rung fired
    verification: Optional["LayoutVerificationReport"] = None
    degraded: bool = False
    reasons: List[str] = field(default_factory=list)

    def note(self, reason: str) -> None:
        self.degraded = True
        self.reasons.append(reason)
        from ..obs import get_event_log, metrics
        metrics().counter("robustness.degradation.notes")
        get_event_log().emit("degradation", workload=self.workload,
                             strategy=self.strategy, reason=reason)

    def summary(self) -> str:
        lines = [f"degradation report [{self.workload}"
                 + (f" / {self.strategy}" if self.strategy else "") + "]"]
        for attempt in self.attempts:
            lines.append(f"  {attempt.describe()}")
        lines.append(f"  profile source: {self.profile_source}")
        if self.completeness is not None:
            lines.append(f"  profile data: {self.completeness.summary()}")
        if self.heap_match_rate is not None:
            lines.append(f"  heap ID match rate: {self.heap_match_rate:.0%}")
        if self.code_fallback:
            lines.append("  code ordering: fell back to default (alphabetical)")
        if self.heap_fallback:
            lines.append("  heap ordering: fell back to default (traversal)")
        if self.layout_fallback:
            lines.append("  layout verification: FAILED; rolled back to the "
                         "default layout"
                         + (" and quarantined the ordering profile"
                            if self.quarantined else ""))
        if self.verification is not None and not self.verification.ok:
            for line in self.verification.summary().splitlines():
                lines.append(f"    {line}")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        if not self.degraded:
            lines.append("  no degradation: profile complete, build fully optimized")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()
