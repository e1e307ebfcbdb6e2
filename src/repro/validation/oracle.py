"""The full layout-verification oracle and its pipeline-facing policy.

:class:`VerificationPolicy` is what callers hand to
:class:`repro.eval.pipeline.WorkloadPipeline` to arm verification:
structural checks after every optimized build (with quarantine-and-rollback
on a breach), optional watchdog budgets around workload runs, and — for the
oracle proper — differential execution.  :func:`verify_strategy` composes
all three pillars for one (workload, strategy) pair and returns a
:class:`VerificationOutcome`; ``repro verify`` and
:meth:`repro.api.NativeImageToolchain.verify` are thin wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from .differential import DifferentialReport, run_differential
from .invariants import LayoutVerificationReport, verify_layout
from .mutate import LayoutMutator
from .watchdog import WatchdogBudget

if TYPE_CHECKING:  # pipeline imports this module; keep the cycle type-only
    from ..eval.pipeline import StrategySpec, WorkloadPipeline
    from ..robustness.degradation import DegradationReport


@dataclass(frozen=True)
class VerificationPolicy:
    """Knobs of the verification layer, as armed on a pipeline.

    An armed pipeline structurally verifies every optimized build; a
    violation quarantines the (workload, strategy) pair and rolls the
    build back to the default layout.
    """

    #: quarantine convicted combinations (False = report + rollback only)
    quarantine: bool = True
    #: watchdog budgets applied to pipeline workload runs (None = unbounded)
    watchdog: Optional[WatchdogBudget] = None
    #: test/CLI hook: damages optimized layouts right after the build so
    #: the quarantine-and-rollback path can be demonstrated end to end
    mutator: Optional[LayoutMutator] = None


@dataclass
class VerificationOutcome:
    """Everything the oracle established for one (workload, strategy)."""

    workload: str
    strategy: str
    #: structural report of the final optimized binary (post-rollback if
    #: a violation forced one)
    structural: Optional[LayoutVerificationReport] = None
    #: structural report of the convicted binary, when rollback happened
    convicted: Optional[LayoutVerificationReport] = None
    baseline_structural: Optional[LayoutVerificationReport] = None
    differential: Optional[DifferentialReport] = None
    degradation: Optional["DegradationReport"] = None
    quarantined: bool = False
    rolled_back: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every pillar that ran came back clean."""
        if self.quarantined or self.rolled_back:
            return False
        for report in (self.structural, self.baseline_structural):
            if report is not None and not report.ok:
                return False
        if self.differential is not None and not self.differential.matches:
            return False
        return True

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [f"verification [{self.workload} / {self.strategy}]: {verdict}"]
        if self.baseline_structural is not None:
            lines.append("  baseline " + self.baseline_structural.summary())
        if self.convicted is not None:
            lines.append("  convicted " + _indent(self.convicted.summary()))
        if self.structural is not None:
            lines.append("  optimized " + _indent(self.structural.summary()))
        if self.differential is not None:
            lines.append("  " + _indent(self.differential.summary()))
        if self.quarantined:
            lines.append("  ordering profile quarantined; "
                         "optimized build rolled back to default layout")
        for note in self.notes:
            lines.append(f"  - {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()


def _indent(text: str) -> str:
    lines = text.splitlines()
    return "\n    ".join(lines)


def verify_strategy(
    pipeline: "WorkloadPipeline",
    strategy: "StrategySpec",
    seed: int = 0,
    differential: bool = True,
    watchdog: Optional[WatchdogBudget] = None,
) -> VerificationOutcome:
    """Run the full oracle for one strategy on one workload.

    Profiles once, builds baseline and optimized binaries, checks the
    structural invariants of both, and (by default) runs the differential
    execution oracle under the given watchdog budgets.  The pipeline's own
    verification rung — if armed via :class:`VerificationPolicy` — fires
    inside ``build_optimized``, so an injected violation shows up here as
    ``quarantined``/``rolled_back`` with the convicting report attached.
    """
    workload = pipeline.workload
    outcome = VerificationOutcome(workload=workload.name, strategy=strategy.name)

    baseline = pipeline.build_baseline(seed=seed)
    outcome.baseline_structural = verify_layout(baseline)

    profiling = pipeline.profile(seed=seed)
    optimized = pipeline.build_optimized(profiling.profiles, strategy, seed=seed)
    outcome.degradation = pipeline.last_degradation_report

    # The pipeline's verification rung may already have convicted the
    # ordering and rolled back; mirror its verdict.
    if outcome.degradation is not None:
        outcome.quarantined = getattr(outcome.degradation, "quarantined", False)
        outcome.rolled_back = getattr(outcome.degradation, "layout_fallback",
                                      False)
        convicted = getattr(outcome.degradation, "verification", None)
        if convicted is not None and not convicted.ok:
            outcome.convicted = convicted

    # The pipeline records the final build's report when its rung is armed.
    final_report = getattr(pipeline, "last_verification_report", None)
    outcome.structural = (final_report if final_report is not None
                          else verify_layout(optimized))

    if differential:
        outcome.differential = run_differential(
            baseline, optimized, pipeline.exec_config,
            workload=workload.name, strategy=strategy.name,
            microservice=workload.microservice, watchdog=watchdog,
        )
    return outcome
