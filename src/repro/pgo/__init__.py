"""Continuous PGO: profile lifecycle, drift detection, guarded re-layout.

Production PGO is a cycle, not a one-shot (instrument → load → profile →
rebuild): profiles go stale as traffic shifts, and a re-layout driven by
a bad or drifted profile can *regress* startup.  This package is the
simulated profile service that closes the loop safely:

* :mod:`repro.pgo.lifecycle` — versioned profile artifacts with full
  provenance (source traces, weights, toolchain, age) and the deployed
  pointer;
* :mod:`repro.pgo.merge` — weighted merge of N traffic slices into one
  first-use ordering profile;
* :mod:`repro.pgo.drift` — rank-distance + replayed-fault drift checks
  against the deployed layout;
* :mod:`repro.pgo.loop` — the canary-gated refresh/rollback loop
  composing the structural oracle, differential oracle, regression gate,
  attribution blame, quarantine, and the degradation ladder;
* :mod:`repro.pgo.scenario` — seeded multi-epoch drift scenarios over
  synthetic traffic mixes (the `repro pgo` CLI and CI smoke driver).
"""

from .drift import (
    DriftReport,
    DriftThresholds,
    detect_drift,
    expected_faults,
    rank_distance,
    relevant_faults,
    replay_faults,
)
from .lifecycle import (
    DeployedLayout,
    ProfileProvenance,
    ProfileStore,
    ProfileVersion,
    TraceSource,
)
from .loop import (
    ACTION_BOOTSTRAP,
    ACTION_DEFAULT_LAYOUT,
    ACTION_REFRESH,
    ACTION_RETAIN,
    ACTION_ROLLBACK,
    CanaryPolicy,
    EpochOutcome,
    PgoLoop,
)
from .merge import (
    WeightedProfile,
    coalesce_mix,
    merge_mix,
)
from .scenario import (
    DriftScenario,
    ScenarioOutcome,
    TrafficVariant,
    run_scenario,
    synthesize_variants,
)

__all__ = [
    "DriftReport", "DriftThresholds", "detect_drift", "expected_faults",
    "rank_distance", "relevant_faults", "replay_faults",
    "DeployedLayout", "ProfileProvenance", "ProfileStore", "ProfileVersion",
    "TraceSource",
    "ACTION_BOOTSTRAP", "ACTION_DEFAULT_LAYOUT", "ACTION_REFRESH",
    "ACTION_RETAIN", "ACTION_ROLLBACK",
    "CanaryPolicy", "EpochOutcome", "PgoLoop",
    "WeightedProfile", "coalesce_mix", "merge_mix",
    "DriftScenario", "ScenarioOutcome", "TrafficVariant", "run_scenario",
    "synthesize_variants",
]
