"""One interpreter run per prepared image.

The optimized layouts of one prepared image run one program over the same
compilation units and heap values, so their runs touch the same code and
objects in the same order at different addresses.  The pipeline runs one
of them and derives every other run from that run's layout-free touches
(``phase.replay``).  These tests pin that each derived field equals a real
run of the layout, that an object's origin names one value in every
layout, and which binaries always run for real (``phase.measure``).
"""

from dataclasses import replace

import pytest

from repro.cache import ArtifactCache
from repro.eval.pipeline import (
    ALL_STRATEGY_SPECS,
    STRATEGY_COMBINED,
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    Workload,
    WorkloadPipeline,
)
from repro.eval.scheduler import task_seed
from repro.obs import get_registry
from repro.runtime.executor import (
    derived_run,
    layout_free_touches,
    placed_touches,
    run_binary,
)
from repro.validation.mutate import LayoutMutationPlan, LayoutMutator
from repro.validation.oracle import VerificationPolicy
from repro.validation.watchdog import WatchdogBudget
from repro.workloads import awfy_workload, microservice_workload

ITERATIONS = 2

#: responds, then touches code, a string and heap pages it had not yet
RESPONDS_THEN_WORKS = """
class Config { static String[] names = new String[3];
    static { names[0] = "a"; names[1] = "bb"; names[2] = "ccc"; } }
class Table { static int[] data = new int[2048];
    static { for (int i = 0; i < 2048; i += 512) data[i] = i; } }
class Tail {
    static int sum() {
        int s = "tail".length();
        for (int i = 0; i < 2048; i += 512) s += Table.data[i];
        return s;
    }
}
class Main {
    static int main() {
        int warm = Config.names[2].length();
        respond("ready " + Config.names[1]);
        return warm + Tail.sum();
    }
}
"""


def workload(name):
    if name == "quarkus":
        return microservice_workload(name)
    return awfy_workload(name)


def runs_of(before):
    """The real and derived runs since ``before``, by phase name."""
    counters = get_registry().snapshot().diff(before).counters
    return {name: counters[f"phase.{name}"] for name in ("measure", "replay")
            if counters.get(f"phase.{name}")}


@pytest.fixture(scope="module", params=["Queens", "quarkus"])
def layouts(request):
    """(name, pipeline, seed, runs while building, the 8 optimized
    layouts: the 7 strategies and cu-opt's reference build)."""
    name = request.param
    seed = task_seed(1, name)
    pipeline = WorkloadPipeline(workload(name))
    profiles = pipeline.profile(seed=seed).profiles
    before = get_registry().snapshot()
    binaries = {spec.name: pipeline.build_optimized(profiles, spec,
                                                    seed=seed)
                for spec in ALL_STRATEGY_SPECS}
    binaries["reference"] = pipeline.build_optimized(profiles, None,
                                                     seed=seed)
    return name, pipeline, seed, runs_of(before), binaries


def test_derived_runs_equal_real_runs(layouts):
    """Every RunMetrics field of the pipeline's runs of the 8 layouts,
    at two iterations, equals a real run at the same run index; only the
    cu-opt search's run of the reference build executed."""
    name, pipeline, seed, building, binaries = layouts
    config = pipeline.exec_config
    assert building == {"measure": 1}
    before = get_registry().snapshot()
    measured = {label: pipeline.measure(binary, ITERATIONS, seed)
                for label, binary in binaries.items()}
    assert runs_of(before) == {"replay": len(binaries) * ITERATIONS}
    streams = set()
    for label, binary in binaries.items():
        for index, derived in enumerate(measured[label]):
            real = run_binary(binary, config, run_index=(seed << 8) | index)
            assert derived == real, (label, index)
        stream = layout_free_touches(binary, real.touches)
        assert placed_touches(binary, stream) == real.touches, label
        streams.add(tuple(stream))
    assert len(streams) == 1
    responded = measured["cu"][0].first_response_faults is not None
    assert responded == (name == "quarkus")


def test_run_index_reaches_the_time_model(layouts):
    """With time jitter on, a derived run's times follow its own run
    index, as a real run's do."""
    _, pipeline, seed, _, binaries = layouts
    config = replace(pipeline.exec_config, time_jitter=0.05, jitter_seed=9)
    source = binaries["reference"]
    run = run_binary(source, config, run_index=1)
    stream = layout_free_touches(source, run.touches)
    target = binaries["cu+heap path"]
    derived = derived_run(run, stream, target, config, run_index=2)
    assert derived == run_binary(target, config, run_index=2)
    assert derived.time_s != run.time_s


def test_a_run_that_goes_on_past_its_first_response():
    """The first-response fields of a derived run stop at the response
    even when the run faults after it."""
    pipeline = WorkloadPipeline(Workload(name="tail",
                                         source=RESPONDS_THEN_WORKS))
    profiles = pipeline.profile(seed=1).profiles
    binaries = [pipeline.build_optimized(profiles, spec, seed=1)
                for spec in (STRATEGY_CU, STRATEGY_COMBINED)]
    before = get_registry().snapshot()
    runs = [pipeline.measure(binary, 1, seed=1)[0] for binary in binaries]
    assert runs_of(before) == {"measure": 1, "replay": 1}
    for binary, run in zip(binaries, runs):
        assert run == run_binary(binary, pipeline.exec_config,
                                 run_index=1 << 8)
        assert run.response_touches < len(run.touches)
        assert run.first_response_faults != run.faults


def test_origins_name_one_value_in_every_layout(layouts):
    """Every non-string object has an origin, no two objects of a
    snapshot share one, and one origin names the same type and size in
    all 8 snapshots."""
    _, _, _, _, binaries = layouts
    values = {}
    for label, binary in binaries.items():
        objects = [obj for obj in binary.snapshot
                   if not isinstance(obj.value, str)]
        assert all(obj.origin is not None for obj in objects), label
        values[label] = {obj.origin: (obj.type_name, obj.size)
                         for obj in objects}
        assert len(values[label]) == len(objects), label
    reference = values["reference"]
    assert all(seen == reference for seen in values.values())


class TestRealRuns:
    """Binaries from another prepare, and budgeted runs, always run."""

    SEED = 3

    def test_regular_and_instrumented_binaries_run(self):
        pipeline = WorkloadPipeline(awfy_workload("Queens"))
        regular = pipeline.build_baseline(seed=self.SEED)
        instrumented = pipeline.build_instrumented(seed=self.SEED)
        before = get_registry().snapshot()
        pipeline.measure(regular, ITERATIONS, self.SEED)
        pipeline.measure(instrumented, ITERATIONS, self.SEED)
        assert runs_of(before) == {"measure": 2 * ITERATIONS}

    def test_cache_loaded_binary_runs(self, tmp_path):
        """The cache keeps no image, so a warm pipeline builds a layout
        another pipeline built again, from its own kept prepared image,
        and that layout shares the one real run."""
        first = WorkloadPipeline(awfy_workload("Queens"),
                                 cache=ArtifactCache(tmp_path))
        profiles = first.profile(seed=self.SEED).profiles
        first.build_optimized(profiles, STRATEGY_CU, seed=self.SEED)
        pipeline = WorkloadPipeline(awfy_workload("Queens"),
                                    cache=ArtifactCache(tmp_path))
        profiles = pipeline.profile(seed=self.SEED).profiles
        built = pipeline.build_optimized(profiles, STRATEGY_HEAP_PATH,
                                         seed=self.SEED)
        before = get_registry().snapshot()
        rebuilt = pipeline.build_optimized(profiles, STRATEGY_CU,
                                           seed=self.SEED)
        counters = get_registry().snapshot().diff(before).counters
        assert counters["phase.build"] == 1
        assert "phase.prepare" not in counters
        pipeline.measure(built, 1, self.SEED)
        pipeline.measure(rebuilt, ITERATIONS, self.SEED)
        assert runs_of(before) == {"measure": 1, "replay": ITERATIONS}

    def test_mutator_armed_binaries_run(self):
        mutator = LayoutMutator(
            LayoutMutationPlan.single("duplicate_object", pick=3))
        pipeline = WorkloadPipeline(
            awfy_workload("Queens"),
            verification=VerificationPolicy(mutator=mutator))
        profiles = pipeline.profile(seed=self.SEED).profiles
        binaries = [pipeline.build_optimized(profiles, spec, seed=self.SEED)
                    for spec in (STRATEGY_CU, STRATEGY_HEAP_PATH)]
        before = get_registry().snapshot()
        for binary in binaries:
            pipeline.measure(binary, ITERATIONS, self.SEED)
        assert runs_of(before) == {"measure": 2 * ITERATIONS}

    def test_runs_under_a_watchdog_budget_run(self):
        budget = WatchdogBudget(max_ops=10_000_000, deadline_s=60.0)
        pipeline = WorkloadPipeline(
            awfy_workload("Queens"),
            verification=VerificationPolicy(watchdog=budget))
        profiles = pipeline.profile(seed=self.SEED).profiles
        binaries = [pipeline.build_optimized(profiles, spec, seed=self.SEED)
                    for spec in (STRATEGY_CU, STRATEGY_HEAP_PATH)]
        before = get_registry().snapshot()
        for binary in binaries:
            pipeline.measure(binary, ITERATIONS, self.SEED)
        assert runs_of(before) == {"measure": 2 * ITERATIONS}
        assert len(pipeline.last_watchdog_reports) == ITERATIONS
