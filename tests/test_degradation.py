"""Graceful pipeline degradation: salvage, retries, and layout fallback.

The acceptance scenario: a microservice workload whose trace is
fault-injected still completes ``run_strategy`` without raising, produces
an optimized binary (salvaged profile or default-layout fallback), and the
``DegradationReport`` states what was salvaged vs. dropped.
"""

import pytest

from repro.api import NativeImageToolchain
from repro.cli import main
from repro.eval.pipeline import (
    STRATEGY_COMBINED,
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    Workload,
    WorkloadPipeline,
)
from repro.ordering.profiles import HeapOrderProfile, ProfileBundle
from repro.robustness import (
    FAULT_BIT_FLIP,
    FAULT_KILL_AT_RECORD,
    FAULT_PARTIAL_HEADER,
    FAULT_TRUNCATE,
    DegradationPolicy,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)

MICRO_SOURCE = """
class S { static int x; }
class Main {
    static int main() {
        for (int i = 0; i < 60; i++) S.x = S.x + i;
        respond("ready " + S.x);
        for (int i = 0; i < 2000; i++) S.x = S.x + 1;
        return S.x;
    }
}
"""


def micro_workload():
    return Workload(name="micro-deg", source=MICRO_SOURCE, microservice=True)


class TestEndToEndDegradation:
    def test_fault_injected_microservice_completes_run_strategy(self):
        """Truncation + corrupt chunk; the full acceptance criterion."""
        injector = FaultInjector(FaultPlan.of(
            FaultSpec(FAULT_BIT_FLIP, at=700, bit=2),   # one corrupt chunk
            FaultSpec(FAULT_TRUNCATE, at=1200),          # plus a torn tail
        ))
        pipeline = WorkloadPipeline(
            micro_workload(),
            degradation_policy=DegradationPolicy(max_retries=1),
            fault_hook=injector,
        )
        baseline, optimized = pipeline.run_strategy(STRATEGY_COMBINED, seed=1)
        assert baseline and optimized  # both binaries ran and were measured
        report = pipeline.last_degradation_report
        assert report is not None
        assert report.degraded
        assert report.profile_source in ("salvaged", "none")
        completeness = report.completeness
        assert completeness is not None
        # The report must state what was salvaged vs. dropped.
        assert completeness.records_recovered > 0
        assert (completeness.bytes_dropped > 0
                or completeness.corrupt_chunks > 0)
        assert "salvaged" in report.summary() or "fall back" in report.summary()

    def test_total_trace_loss_falls_back_to_default_layout(self):
        """A partial header write makes every attempt unreadable."""
        injector = FaultInjector(FaultPlan.of(
            FaultSpec(FAULT_PARTIAL_HEADER, at=2)))
        policy = DegradationPolicy(max_retries=1)
        pipeline = WorkloadPipeline(
            micro_workload(), degradation_policy=policy, fault_hook=injector,
        )
        baseline, optimized = pipeline.run_strategy(STRATEGY_COMBINED, seed=1)
        assert baseline and optimized
        report = pipeline.last_degradation_report
        assert report.profile_source == "none"
        assert (report.code_fallback or report.heap_fallback
                or report.layout_fallback)
        assert report.code_fallback and report.heap_fallback
        # One attempt + max_retries retries, all empty.
        assert len(report.attempts) == policy.max_retries + 1
        assert all(a.status in ("empty", "error") for a in report.attempts)

    def test_retry_seeds_are_perturbed_exponentially(self):
        policy = DegradationPolicy(seed_stride=100)
        assert [policy.retry_seed(5, k) for k in range(4)] == [5, 105, 305, 705]

    def test_clean_run_reports_no_degradation(self):
        pipeline = WorkloadPipeline(
            micro_workload(), degradation_policy=DegradationPolicy(),
        )
        _baseline, _optimized = pipeline.run_strategy(STRATEGY_COMBINED, seed=1)
        report = pipeline.last_degradation_report
        assert report is not None
        assert not report.degraded
        assert report.profile_source == "profiled"
        assert report.completeness.complete
        assert not (report.code_fallback or report.heap_fallback
                    or report.layout_fallback)

    def test_degraded_equals_clean_when_no_faults(self):
        """The degradation machinery must not change a healthy build."""
        plain = WorkloadPipeline(micro_workload())
        robust = WorkloadPipeline(
            micro_workload(), degradation_policy=DegradationPolicy(),
        )
        plain_binary = plain.build_optimized(
            plain.profile(seed=1).profiles, STRATEGY_CU, seed=1)
        robust_binary = robust.build_optimized(
            robust.profile(seed=1).profiles, STRATEGY_CU, seed=1)
        assert ([cu.name for cu in plain_binary.cus]
                == [cu.name for cu in robust_binary.cus])


class TestMismatchedProfiles:
    def test_low_match_rate_triggers_heap_fallback(self):
        """Profiles whose IDs match nothing model a mismatched build."""
        pipeline = WorkloadPipeline(
            micro_workload(),
            degradation_policy=DegradationPolicy(min_match_rate=0.5),
        )
        outcome = pipeline.profile(seed=1)
        bogus = ProfileBundle(
            code=dict(outcome.profiles.code),
            heap={"heap_path": HeapOrderProfile(
                strategy="heap_path", ids=[0xDEAD, 0xBEEF, 0xF00D])},
            calls=outcome.profiles.calls,
        )
        binary = pipeline.build_optimized(bogus, STRATEGY_HEAP_PATH, seed=1)
        assert binary.mode == "optimized"
        report = pipeline.last_degradation_report
        assert report.heap_fallback
        assert report.heap_match_rate == 0.0
        # Fallback means default traversal order, not a half-matched layout.
        assert binary.heap_ordering is None

    def test_empty_profiles_strip_orderings_instead_of_raising(self):
        pipeline = WorkloadPipeline(
            micro_workload(), degradation_policy=DegradationPolicy(),
        )
        binary = pipeline.build_optimized(ProfileBundle(), STRATEGY_COMBINED,
                                          seed=1)
        assert binary.mode == "optimized"
        report = pipeline.last_degradation_report
        assert report.code_fallback and report.heap_fallback

    def test_without_policy_missing_profiles_still_raise(self):
        """Strict behavior is preserved when degradation is not armed."""
        pipeline = WorkloadPipeline(micro_workload())
        with pytest.raises(ValueError):
            pipeline.build_optimized(ProfileBundle(), STRATEGY_COMBINED, seed=1)


class TestApiSurface:
    def test_toolchain_exposes_degradation_report(self):
        injector = FaultInjector(FaultPlan.of(
            FaultSpec(FAULT_KILL_AT_RECORD, at=40)))
        toolchain = NativeImageToolchain.from_source(
            MICRO_SOURCE, name="api-deg", microservice=True,
            degradation_policy=DegradationPolicy(max_retries=0),
            fault_hook=injector,
        )
        comparison = toolchain.optimize_and_compare("cu+heap path", seed=1)
        assert comparison.speedup > 0
        report = toolchain.last_degradation_report
        assert report is not None
        assert report.attempts


class TestCli:
    def test_robustness_subcommand(self, capsys):
        assert main([
            "robustness", "quarkus",
            "--faults", "bit_flip:900:1", "truncate_at_byte:1500",
            "--retries", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "degradation report" in out
        assert "faults fired" in out
        assert "[quarkus / cu+heap path]" in out

    def test_robustness_rejects_unknown_fault(self):
        with pytest.raises(SystemExit):
            main(["robustness", "quarkus", "--faults", "gremlins:3"])
