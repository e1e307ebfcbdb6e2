"""Oracle tests: differential execution, watchdogs, quarantine-and-rollback."""

import pytest

from repro.api import NativeImageToolchain
from repro.cli import main as cli_main
from repro.eval.pipeline import (
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    STRATEGY_INCREMENTAL,
    STRATEGY_METHOD,
    STRATEGY_STRUCTURAL,
    Workload,
    WorkloadPipeline,
)
from repro.runtime.executor import RunMetrics
from repro.validation import (
    LayoutMutationPlan,
    LayoutMutator,
    VerificationPolicy,
    WatchdogBudget,
    run_with_watchdog,
    verify_layout,
    verify_strategy,
)
from repro.validation.watchdog import (
    OUTCOME_DEADLINE_EXCEEDED,
    OUTCOME_OPS_EXCEEDED,
)
from repro.workloads.awfy.suite import awfy_workload
from repro.workloads.microservices.suite import microservice_workload

TIMED_OUT = (OUTCOME_OPS_EXCEEDED, OUTCOME_DEADLINE_EXCEEDED)


def small_awfy(name="Bounce"):
    return awfy_workload(name, ballast_subsystems=4)


class TestDifferentialOracle:
    @pytest.mark.parametrize("spec", [
        STRATEGY_CU, STRATEGY_METHOD,
        STRATEGY_INCREMENTAL, STRATEGY_STRUCTURAL, STRATEGY_HEAP_PATH,
    ], ids=lambda s: s.name)
    def test_awfy_strategies_behave_identically(self, spec):
        pipeline = WorkloadPipeline(small_awfy(), verification=VerificationPolicy())
        outcome = verify_strategy(pipeline, spec, seed=1)
        assert outcome.ok, outcome.summary()
        assert outcome.differential is not None
        assert outcome.differential.matches
        assert outcome.differential.compared_signatures > 0

    def test_microservice_first_response_compared(self):
        pipeline = WorkloadPipeline(
            microservice_workload("quarkus"), verification=VerificationPolicy()
        )
        outcome = verify_strategy(pipeline, STRATEGY_HEAP_PATH, seed=1)
        assert outcome.ok, outcome.summary()


class TestWatchdog:
    def test_ops_budget_trips(self):
        pipeline = WorkloadPipeline(small_awfy())
        binary = pipeline.build_baseline(seed=1)
        report = run_with_watchdog(binary, pipeline.exec_config,
                                   WatchdogBudget(max_ops=100))
        assert report.outcome in TIMED_OUT
        assert report.outcome == "ops-budget-exceeded"
        assert report.metrics is None

    def test_deadline_trips(self):
        pipeline = WorkloadPipeline(small_awfy())
        binary = pipeline.build_baseline(seed=1)
        report = run_with_watchdog(binary, pipeline.exec_config,
                                   WatchdogBudget(deadline_s=1e-6))
        assert report.outcome == "deadline-exceeded"
        assert report.outcome in TIMED_OUT

    def test_run_finishing_past_its_deadline_trips(self):
        # The run ends well within one GIL switch interval, so the watchdog
        # thread only wakes after it finished; it still overran 1 us.
        source = "class Main { static int main() { return 6 * 7; } }"
        pipeline = WorkloadPipeline(Workload(name="tiny", source=source))
        binary = pipeline.build_baseline(seed=1)
        report = run_with_watchdog(binary, pipeline.exec_config,
                                   WatchdogBudget(deadline_s=1e-6))
        assert report.outcome == "deadline-exceeded"
        assert report.metrics is None

    def test_generous_budget_completes(self):
        pipeline = WorkloadPipeline(small_awfy())
        binary = pipeline.build_baseline(seed=1)
        report = run_with_watchdog(
            binary, pipeline.exec_config,
            WatchdogBudget(max_ops=10_000_000, deadline_s=60.0),
        )
        assert report.completed
        assert isinstance(report.metrics, RunMetrics)

    def test_measure_is_bounded_and_noted(self):
        policy = VerificationPolicy(watchdog=WatchdogBudget(max_ops=50))
        pipeline = WorkloadPipeline(small_awfy(), verification=policy)
        binary = pipeline.build_baseline(seed=1)
        metrics = pipeline.measure(binary, iterations=2, seed=1)
        assert len(metrics) == 2
        assert len(pipeline.last_watchdog_reports) == 2
        assert all(r.outcome in TIMED_OUT
                   for r in pipeline.last_watchdog_reports)
        report = pipeline.last_degradation_report
        assert report is not None
        assert any("ops-budget-exceeded" in reason for reason in report.reasons)


class TestQuarantineAndRollback:
    def test_injected_violation_convicts_and_rolls_back(self):
        mutator = LayoutMutator(
            LayoutMutationPlan.single("duplicate_object", pick=3)
        )
        pipeline = WorkloadPipeline(
            small_awfy(), verification=VerificationPolicy(mutator=mutator)
        )
        outcome = verify_strategy(pipeline, STRATEGY_HEAP_PATH, seed=1)
        assert not outcome.ok
        assert outcome.quarantined and outcome.rolled_back
        assert outcome.convicted is not None and not outcome.convicted.ok
        # the rolled-back (final) build verifies clean
        assert outcome.structural is not None and outcome.structural.ok
        report = outcome.degradation
        assert report is not None
        assert report.layout_fallback and report.quarantined
        assert report.verification is not None
        assert "layout verification" in report.summary()
        assert pipeline.quarantine.is_quarantined("Bounce", "heap path")

    def test_subsequent_builds_skip_quarantined_ordering(self):
        mutator = LayoutMutator(LayoutMutationPlan.single("shrink_heap"))
        pipeline = WorkloadPipeline(
            small_awfy(), verification=VerificationPolicy(mutator=mutator)
        )
        profiling = pipeline.profile(seed=1)
        first = pipeline.build_optimized(profiling.profiles,
                                         STRATEGY_HEAP_PATH, seed=1)
        assert first.heap_ordering is None  # convicted and rolled back
        # disarm the mutator: the layouts are healthy again, but the
        # conviction must stick until the quarantine is released
        pipeline.verification = VerificationPolicy()
        second = pipeline.build_optimized(profiling.profiles,
                                          STRATEGY_HEAP_PATH, seed=1)
        assert second.heap_ordering is None  # quarantine short-circuits
        report = pipeline.last_degradation_report
        assert report.quarantined
        assert any("quarantined" in reason for reason in report.reasons)
        # other strategies are unaffected
        other = pipeline.build_optimized(profiling.profiles,
                                         STRATEGY_CU, seed=1)
        assert other.code_ordering == "cu"

    def test_release_lifts_quarantine(self):
        mutator = LayoutMutator(LayoutMutationPlan.single("drop_cu"))
        pipeline = WorkloadPipeline(
            small_awfy(), verification=VerificationPolicy(mutator=mutator)
        )
        profiling = pipeline.profile(seed=1)
        pipeline.build_optimized(profiling.profiles, STRATEGY_CU, seed=1)
        assert pipeline.quarantine.is_quarantined("Bounce", "cu")
        assert pipeline.quarantine.release("Bounce", "cu")
        assert not pipeline.quarantine.is_quarantined("Bounce", "cu")

    def test_quarantine_disabled_still_rolls_back(self):
        mutator = LayoutMutator(LayoutMutationPlan.single("shrink_text"))
        pipeline = WorkloadPipeline(
            small_awfy(),
            verification=VerificationPolicy(mutator=mutator, quarantine=False),
        )
        profiling = pipeline.profile(seed=1)
        binary = pipeline.build_optimized(profiling.profiles,
                                          STRATEGY_CU, seed=1)
        assert binary.code_ordering is None  # rolled back...
        assert len(pipeline.quarantine) == 0  # ...but not quarantined
        assert pipeline.last_degradation_report.layout_fallback


class TestToolchainFacade:
    def test_verify_passes_clean(self):
        toolchain = NativeImageToolchain(
            small_awfy(), verification=VerificationPolicy()
        )
        outcome = toolchain.verify("heap path", seed=1)
        assert outcome.ok
        assert toolchain.last_verification_report is not None
        assert toolchain.last_verification_report.ok
        assert len(toolchain.quarantine) == 0

    def test_verify_build_checks_any_binary(self):
        toolchain = NativeImageToolchain(small_awfy())
        assert verify_layout(toolchain.build(seed=1)).ok

    def test_unknown_strategy_rejected(self):
        toolchain = NativeImageToolchain(small_awfy())
        with pytest.raises(KeyError):
            toolchain.verify("bogus")


class TestVerifyCLI:
    def test_clean_run_exits_zero(self, capsys):
        code = cli_main(["verify", "Bounce", "--strategy", "heap path",
                         "--no-differential"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "1 ok, 0 failed" in out

    def test_injected_mutation_exits_nonzero(self, capsys):
        code = cli_main(["verify", "Bounce", "--strategy", "heap path",
                         "--no-differential", "--mutate", "shrink_heap"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "quarantined" in out
        assert "injected mutations:" in out

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["verify", "Bounce", "--strategy", "bogus"])

    def test_unknown_mutation_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["verify", "Bounce", "--mutate", "bogus"])
