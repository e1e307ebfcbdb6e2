"""The guarded continuous-PGO loop: drift → candidate → canary → deploy.

One :class:`PgoLoop` keeps one workload's deployed layout fresh *and
safe*.  Each epoch it merges the weighted live traffic mix, checks it
against the deployed layout's profile (:mod:`repro.pgo.drift`), and on
drift rebuilds a candidate layout through the cached pipeline.  The
candidate does not ship until it clears the **canary gate**, which
composes every prior safety rail:

1. the PR-2 structural oracle (``verify_layout``) — a malformed candidate
   short-circuits the gate outright;
2. the PR-2 differential oracle — candidate behavior must be identical to
   the regular baseline build;
3. a PR-4-style regression gate — the candidate's expected first-touch
   faults under live traffic must not exceed the deployed layout's by
   more than ``CanaryPolicy.max_regression``;
4. on a fault-gate loss, PR-5 attribution names the blamed symbols.

A failing candidate is convicted into the pipeline's PR-2
:class:`QuarantineRegistry` (keyed ``strategy@vN`` so only that profile
version is barred, never the strategy itself) and the epoch lands on the
PR-1 :class:`DegradationReport` ladder: **refresh** (gate passed) →
**retain-stale** (gate failed, deployed layout kept) → **default layout**
(gate failed and nothing healthy is deployed).  The loop's headline
invariant — asserted by scenarios and the bench ``pgo`` phase — is that
the deployed layout's expected fault count never regresses past the gate
threshold at any epoch, no matter what the candidates do.

A :class:`~repro.robustness.chaos.ChaosPolicy` carrying the
``stale_profile`` class makes the profile service serve an old version as
"live", so tests can exercise the missed-refresh/recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..eval.explain import attributed_run, explain_reports
from ..eval.pipeline import StrategySpec, WorkloadPipeline
from ..image.binary import MODE_OPTIMIZED, NativeImageBinary
from ..obs import get_event_log, metrics
from ..ordering.profiles import ProfileBundle
from ..robustness.chaos import CHAOS_STALE_PROFILE, ChaosPolicy
from ..robustness.degradation import DegradationReport
from ..validation.differential import run_differential
from ..validation.invariants import verify_layout
from ..validation.mutate import LayoutMutationPlan, LayoutMutator
from .drift import DriftReport, DriftThresholds, detect_drift, expected_faults
from .lifecycle import DeployedLayout, ProfileStore, ProfileVersion
from .merge import WeightedProfile, coalesce_mix, merge_mix

ACTION_BOOTSTRAP = "bootstrap"
ACTION_RETAIN = "retain"
ACTION_REFRESH = "refresh"
ACTION_ROLLBACK = "rollback"
ACTION_DEFAULT_LAYOUT = "default-layout"


@dataclass(frozen=True)
class CanaryPolicy:
    """What the canary gate checks before a candidate may ship."""

    verify_structure: bool = True
    differential: bool = True
    #: max tolerated relative fault regression of the candidate vs the
    #: deployed layout, both replayed under live traffic (0.0 = strict)
    max_regression: float = 0.0
    #: run the PR-5 attribution explainer on a fault-gate loss
    attribute_blame: bool = True
    top_blamed: int = 3


@dataclass
class EpochOutcome:
    """Everything one loop iteration decided, and why."""

    epoch: int
    action: str = ACTION_RETAIN
    drift: Optional[DriftReport] = None
    deployed_version_before: Optional[int] = None
    deployed_version_after: Optional[int] = None
    candidate_version: Optional[int] = None
    candidate_layout_digest: Optional[int] = None
    #: expected faults under live traffic (the epoch's common yardstick)
    candidate_faults: Optional[float] = None
    deployed_faults_before: Optional[float] = None
    deployed_faults_after: Optional[float] = None
    gate_max_regression: float = 0.0
    gate_failures: List[str] = field(default_factory=list)
    #: symbols PR-5 attribution blamed for a fault-gate loss
    blamed: List[str] = field(default_factory=list)
    #: quarantine key the candidate was convicted under (rollback only)
    quarantined: Optional[str] = None
    stale_served: bool = False
    degradation: Optional[DegradationReport] = None
    notes: List[str] = field(default_factory=list)

    @property
    def unguarded_regression(self) -> bool:
        """Did this epoch leave the fleet worse off past the gate bound?"""
        if self.deployed_faults_before is None:
            return False
        if self.deployed_faults_after is None:
            return False
        allowed = self.deployed_faults_before * (1.0 + self.gate_max_regression)
        return self.deployed_faults_after > allowed + 1e-9

    def as_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "action": self.action,
            "drift": self.drift.as_dict() if self.drift else None,
            "deployed_version_before": self.deployed_version_before,
            "deployed_version_after": self.deployed_version_after,
            "candidate_version": self.candidate_version,
            "candidate_layout_digest": self.candidate_layout_digest,
            "candidate_faults": self.candidate_faults,
            "deployed_faults_before": self.deployed_faults_before,
            "deployed_faults_after": self.deployed_faults_after,
            "gate_failures": list(self.gate_failures),
            "blamed": list(self.blamed),
            "quarantined": self.quarantined,
            "stale_served": self.stale_served,
            "unguarded_regression": self.unguarded_regression,
            "notes": list(self.notes),
        }

    def describe(self) -> str:
        head = f"epoch {self.epoch}: {self.action}"
        extras: List[str] = []
        if self.drift is not None:
            extras.append(f"drift {self.drift.rank_distance:.3f}")
        if self.candidate_faults is not None:
            extras.append(f"candidate {self.candidate_faults:.1f} faults")
        if self.deployed_faults_after is not None:
            extras.append(f"deployed {self.deployed_faults_after:.1f} faults")
        if self.quarantined:
            extras.append(f"quarantined {self.quarantined}")
        if self.stale_served:
            extras.append("stale profile served")
        if extras:
            head += " (" + ", ".join(extras) + ")"
        lines = [head]
        lines.extend(f"  ! {failure}" for failure in self.gate_failures)
        lines.extend(f"  · {note}" for note in self.notes)
        return "\n".join(lines)


class PgoLoop:
    """One workload's self-healing profile/layout lifecycle."""

    def __init__(
        self,
        pipeline: WorkloadPipeline,
        strategy: StrategySpec,
        thresholds: Optional[DriftThresholds] = None,
        canary: Optional[CanaryPolicy] = None,
        chaos: Optional[ChaosPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.pipeline = pipeline
        self.spec = strategy
        self.thresholds = thresholds or DriftThresholds()
        self.canary = canary or CanaryPolicy()
        self.chaos = chaos
        self.seed = seed
        self.workload = pipeline.workload.name
        self.store = ProfileStore(self.workload)
        #: convictions land in the pipeline's shared registry
        self.quarantine = pipeline.quarantine
        self.deployed: Optional[DeployedLayout] = None
        self.deployed_binary: Optional[NativeImageBinary] = None
        self.history: List[EpochOutcome] = []

    # -- deployment ---------------------------------------------------------

    def bootstrap(self, mix: Sequence[WeightedProfile],
                  epoch: int = 0) -> EpochOutcome:
        """Initial deployment: build and ship the first layout, ungated.

        The first layout has nothing to regress against; its expected
        fault count under its own traffic becomes the drift baseline.
        """
        mix = coalesce_mix(mix)
        bundle, provenance = merge_mix(mix, self.workload, epoch)
        version = self.store.publish(bundle, provenance)
        binary = self.pipeline.build_optimized(bundle, self.spec,
                                               seed=self.seed)
        faults = self._expected(binary, mix)
        self._deploy(version, binary, faults, epoch)
        outcome = EpochOutcome(
            epoch=epoch, action=ACTION_BOOTSTRAP,
            deployed_version_after=version.version,
            candidate_version=version.version,
            candidate_layout_digest=binary.layout_digest(),
            candidate_faults=faults,
            deployed_faults_after=faults,
            gate_max_regression=self.canary.max_regression,
        )
        outcome.notes.append(
            f"bootstrapped {self.spec.name!r} layout from profile "
            f"v{version.version} ({faults:.1f} expected faults)"
        )
        self._finalize(outcome, epoch)
        return outcome

    def _deploy(self, version: ProfileVersion, binary: NativeImageBinary,
                faults: float, epoch: int,
                strategy_name: Optional[str] = None) -> None:
        self.store.deploy(version.version)
        self.deployed = DeployedLayout(
            profile_version=version.version,
            strategy=strategy_name or self.spec.name,
            layout_digest=binary.layout_digest(),
            baseline_faults=faults,
            epoch=epoch,
        )
        self.deployed_binary = binary
        registry = metrics()
        registry.gauge("pgo.deployed.version", float(version.version))
        registry.gauge("pgo.deployed.expected_faults", faults)

    # -- the loop body ------------------------------------------------------

    def observe(
        self,
        mix: Sequence[WeightedProfile],
        epoch: int,
        mutation_plan: Optional[LayoutMutationPlan] = None,
    ) -> EpochOutcome:
        """One loop iteration against this epoch's live traffic mix.

        ``mutation_plan`` (tests/scenarios only) damages the candidate
        after it is built — the canary gate must catch it.  Returns the
        epoch's :class:`EpochOutcome`; the deployed layout afterwards is
        never worse than before beyond the gate bound.
        """
        registry = metrics()
        registry.counter("pgo.epochs")
        outcome = EpochOutcome(
            epoch=epoch, gate_max_regression=self.canary.max_regression,
            deployed_version_before=(
                self.deployed.profile_version if self.deployed else None),
        )
        mix = self._chaos_mix(coalesce_mix(mix), epoch, outcome)
        bundle, provenance = merge_mix(
            mix, self.workload, epoch,
            notes=("served stale by chaos",) if outcome.stale_served else (),
        )
        if self.deployed is None or self.deployed_binary is None:
            self._gated_deploy(bundle, provenance, mix, epoch, mutation_plan,
                               outcome)
            self._finalize(outcome, epoch)
            return outcome
        deployed_profile = self.store.version(
            self.deployed.profile_version).bundle
        report = detect_drift(
            workload=self.workload,
            spec=self.spec,
            deployed_profile=deployed_profile,
            deployed_binary=self.deployed_binary,
            live_bundle=bundle,
            live_mix=[(source.bundle, source.weight) for source in mix],
            epoch=epoch,
            deployed_version=self.deployed.profile_version,
            baseline_faults=self.deployed.baseline_faults,
            thresholds=self.thresholds,
            config=self.pipeline.exec_config,
        )
        outcome.drift = report
        outcome.deployed_faults_before = report.deployed_live_faults
        registry.gauge("pgo.drift.score", report.rank_distance)
        registry.gauge("pgo.drift.fault_regression", report.fault_regression)
        if not report.drifted:
            outcome.action = ACTION_RETAIN
            outcome.deployed_faults_after = report.deployed_live_faults
            outcome.deployed_version_after = self.deployed.profile_version
            registry.counter("pgo.retained")
            self._finalize(outcome, epoch)
            return outcome
        self._gated_deploy(bundle, provenance, mix, epoch, mutation_plan,
                           outcome)
        self._finalize(outcome, epoch)
        return outcome

    # -- internals ----------------------------------------------------------

    def _chaos_mix(self, mix: List[WeightedProfile], epoch: int,
                   outcome: EpochOutcome) -> List[WeightedProfile]:
        """Let an armed chaos policy swap live traffic for a stale profile."""
        if self.chaos is None or not len(self.store):
            return mix
        fault = self.chaos.fault_for(
            self.workload, f"pgo:{self.spec.name}:epoch{epoch}", 0)
        if fault != CHAOS_STALE_PROFILE:
            return mix
        stale = self.store.latest()
        outcome.stale_served = True
        outcome.notes.append(
            f"chaos: profile service served stale v{stale.version} "
            f"(collected at epoch {stale.provenance.epoch}) as live traffic"
        )
        metrics().counter("pgo.stale_served")
        return [WeightedProfile(
            label=f"stale:v{stale.version}", weight=1.0, bundle=stale.bundle,
        )]

    def _expected(self, binary: NativeImageBinary,
                  mix: Sequence[WeightedProfile]) -> float:
        return expected_faults(
            binary, [(source.bundle, source.weight) for source in mix],
            self.spec, self.pipeline.exec_config,
        )

    def _build_candidate(
        self, bundle: ProfileBundle,
        mutation_plan: Optional[LayoutMutationPlan],
    ) -> NativeImageBinary:
        """Build the candidate; mutated candidates bypass the cache.

        A mutation damages the binary *object* in place — letting that
        object enter the artifact cache would poison every later hit, so
        injected-bad candidates are built directly on the builder.
        """
        if mutation_plan is None:
            return self.pipeline.build_optimized(bundle, self.spec,
                                                 seed=self.seed)
        candidate = self.pipeline.builder().build(
            mode=MODE_OPTIMIZED,
            profiles=bundle,
            code_ordering=self.spec.code_ordering,
            heap_ordering=self.spec.heap_ordering,
            seed=self.seed,
        )
        mutator = LayoutMutator(mutation_plan)
        mutator.mutate(candidate)
        return candidate

    def _gated_deploy(
        self,
        bundle: ProfileBundle,
        provenance,
        mix: Sequence[WeightedProfile],
        epoch: int,
        mutation_plan: Optional[LayoutMutationPlan],
        outcome: EpochOutcome,
    ) -> None:
        """Publish the live profile, build a candidate, push it through
        the gate, and deploy it (refresh) if it passes.

        A failing candidate is quarantined and the epoch drops one rung:
        with a deployed layout it is retained (rollback, retain-stale);
        with none — drift was never measured, so this is the first
        deployment — the ladder bottoms out in the default layout (PGO
        inlining only, no ordering), which always verifies clean.
        """
        stale = self.deployed
        version = self.store.publish(bundle, provenance)
        outcome.candidate_version = version.version
        candidate = self._build_candidate(bundle, mutation_plan)
        outcome.candidate_layout_digest = candidate.layout_digest()
        if mutation_plan is not None and stale is not None:
            outcome.notes.append(
                "injected layout mutation(s): "
                + ", ".join(m.describe() for m in mutation_plan.mutations)
            )
        failures = self._canary(candidate, mix, outcome)
        registry = metrics()
        if not failures:
            faults = outcome.candidate_faults
            self._deploy(version, candidate, faults, epoch)
            outcome.action = ACTION_REFRESH
            outcome.deployed_faults_after = faults
            outcome.deployed_version_after = version.version
            registry.counter("pgo.refreshes")
            if stale is not None:
                outcome.notes.append(
                    f"canary gate passed; deployed profile v{version.version} "
                    f"({faults:.1f} vs {outcome.deployed_faults_before:.1f} "
                    "expected faults under live traffic)"
                )
            return
        # -- rollback ladder -------------------------------------------------
        outcome.gate_failures = failures
        registry.counter("pgo.rollbacks")
        registry.counter("pgo.quarantines")
        key = f"{self.spec.name}@v{version.version}"
        self.quarantine.quarantine(
            self.workload, key,
            "canary gate failed: " + "; ".join(failures),
            layout_digest=outcome.candidate_layout_digest or 0,
        )
        outcome.quarantined = key
        degradation = DegradationReport(workload=self.workload)
        degradation.strategy = self.spec.name
        degradation.layout_fallback = True
        degradation.quarantined = True
        if stale is not None:
            outcome.action = ACTION_ROLLBACK
            outcome.deployed_faults_after = outcome.deployed_faults_before
            outcome.deployed_version_after = stale.profile_version
            degradation.note(
                f"candidate layout {key} failed the canary gate "
                f"({'; '.join(failures)}); rolled back to deployed profile "
                f"v{stale.profile_version} (retain-stale)"
            )
        else:
            fallback = self.pipeline.build_optimized(bundle, None,
                                                     seed=self.seed)
            faults = self._expected(fallback, mix)
            self._deploy(version, fallback, faults, epoch,
                         strategy_name="default")
            outcome.action = ACTION_DEFAULT_LAYOUT
            outcome.deployed_faults_after = faults
            outcome.deployed_version_after = version.version
            degradation.note(
                f"candidate layout {key} failed the canary gate with no "
                "healthy deployment to retain; deployed the default layout "
                "(last rung)"
            )
        outcome.degradation = degradation

    def _canary(self, candidate: NativeImageBinary,
                mix: Sequence[WeightedProfile],
                outcome: EpochOutcome) -> List[str]:
        """Run the gate; returns failure descriptions (empty = shippable)."""
        failures: List[str] = []
        if self.canary.verify_structure:
            report = verify_layout(candidate)
            if not report.ok:
                codes = ", ".join(sorted(report.codes()))
                failures.append(
                    f"structural verification failed ({codes})")
                # an untrustworthy layout is not worth running or replaying
                return failures
        if self.canary.differential:
            baseline = self.pipeline.build_baseline(seed=self.seed)
            diff = run_differential(
                baseline, candidate, self.pipeline.exec_config,
                workload=self.workload, strategy=self.spec.name,
                microservice=self.pipeline.workload.microservice,
            )
            if not diff.matches:
                first = diff.divergences[0].describe()
                failures.append(
                    f"differential oracle found "
                    f"{len(diff.divergences)} divergence(s): {first}")
        candidate_faults = self._expected(candidate, mix)
        outcome.candidate_faults = candidate_faults
        if outcome.deployed_faults_before is not None:
            allowed = (outcome.deployed_faults_before
                       * (1.0 + self.canary.max_regression))
            if candidate_faults > allowed + 1e-9:
                failures.append(
                    f"fault regression gate: candidate costs "
                    f"{candidate_faults:.1f} expected faults under live "
                    f"traffic vs deployed {outcome.deployed_faults_before:.1f}"
                    f" (allowed {allowed:.1f})")
                if self.canary.attribute_blame:
                    outcome.blamed = self._blame(candidate)
                    if outcome.blamed:
                        failures[-1] += ("; blamed: "
                                         + ", ".join(outcome.blamed))
        return failures

    def _blame(self, candidate: NativeImageBinary) -> List[str]:
        """PR-5 attribution: which symbols explain the candidate's loss."""
        try:
            deployed_report = attributed_run(
                self.pipeline, self.deployed_binary,
                label=f"{self.workload}/deployed")
            candidate_report = attributed_run(
                self.pipeline, candidate,
                label=f"{self.workload}/candidate")
            why = explain_reports(deployed_report, candidate_report,
                                  workload=self.workload,
                                  strategy=self.spec.name)
            return why.top_blamed(self.canary.top_blamed)
        except Exception as exc:  # blame is advisory, never fatal
            return [f"<attribution failed: {type(exc).__name__}>"]

    def _finalize(self, outcome: EpochOutcome, epoch: int) -> None:
        registry = metrics()
        if self.deployed is not None:
            age = max(0, epoch - self.deployed.epoch)
            registry.gauge("pgo.deployed.age", float(age))
            if age > 0:
                registry.counter("pgo.stale_epochs")
        if outcome.unguarded_regression:
            registry.counter("pgo.unguarded_regressions")
        self._emit_epoch_events(outcome, epoch)
        self.history.append(outcome)

    def _emit_epoch_events(self, outcome: EpochOutcome, epoch: int) -> None:
        """Epoch markers for the correlated event log.

        One ``pgo.epoch`` event per loop iteration plus point events for
        the moments downstream readers care about (drift detection,
        refresh publication, rollback, quarantine conviction) — together
        the stream reconstructs the epoch timeline exactly, which
        ``tests/test_pgo.py`` asserts.
        """
        log = get_event_log()
        with log.context(workload=self.workload, strategy=self.spec.name):
            if outcome.drift is not None and outcome.drift.drifted:
                log.emit("pgo.drift", epoch=epoch,
                         rank_distance=outcome.drift.rank_distance,
                         fault_regression=outcome.drift.fault_regression)
            if outcome.action in (ACTION_REFRESH, ACTION_BOOTSTRAP):
                log.emit("pgo.refresh", epoch=epoch,
                         version=outcome.deployed_version_after,
                         faults=outcome.deployed_faults_after)
            if outcome.action in (ACTION_ROLLBACK, ACTION_DEFAULT_LAYOUT):
                log.emit("pgo.rollback", epoch=epoch,
                         gate_failures=list(outcome.gate_failures),
                         blamed=list(outcome.blamed))
            if outcome.quarantined:
                log.emit("pgo.quarantine", epoch=epoch,
                         key=outcome.quarantined)
            log.emit("pgo.epoch", epoch=epoch, action=outcome.action,
                     version=outcome.deployed_version_after,
                     stale_served=outcome.stale_served,
                     unguarded_regression=outcome.unguarded_regression)
