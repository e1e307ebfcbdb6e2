"""Workload tests: AWFY golden results, microservice behaviour, ballast."""

import pickle

import pytest

from repro.eval.pipeline import STRATEGY_COMBINED, WorkloadPipeline
from repro.minijava import compile_source
from repro.workloads.awfy.suite import AWFY_NAMES, awfy_workload
from repro.workloads.ballast import generate_ballast
from repro.workloads.microservices.suite import (
    MICROSERVICE_NAMES,
    microservice_workload,
)

#: Checksums of one startup-sized iteration (stable across builds/orderings).
GOLDEN = {
    "Bounce": 210,
    "CD": 11,
    "DeltaBlue": 7,
    "Havlak": 96049,
    "Json": 621,
    "List": 6,
    "Mandelbrot": 135,
    "NBody": 169069,  # == round(-energy * 1e6); energy ~ -0.169069 (n-body)
    "Permute": 8660,  # the AWFY-expected permutation count for 6 elements
    "Queens": 505,  # 5 solved boards, 5 total solutions
    "Richards": 11003,
    "Sieve": 168,  # primes below 1000
    "Storage": 341,  # nodes of a depth-5 4-ary tree: (4^5 - 1) / 3
    "Towers": 1023,  # 2^10 - 1 moves
}


class TestAwfyGoldenResults:
    @pytest.mark.parametrize("name", AWFY_NAMES)
    def test_baseline_result(self, name):
        pipeline = WorkloadPipeline(awfy_workload(name))
        metrics = pipeline.measure(pipeline.build_baseline(), 1)[0]
        assert metrics.result == GOLDEN[name]
        assert metrics.output[-1] == f"{name}: {GOLDEN[name]}"

    @pytest.mark.parametrize("name", ["Bounce", "Havlak", "Richards", "Json"])
    def test_optimized_builds_preserve_semantics(self, name):
        """Reordering must never change program results."""
        pipeline = WorkloadPipeline(awfy_workload(name))
        outcome = pipeline.profile(seed=5)
        optimized = pipeline.build_optimized(outcome.profiles, STRATEGY_COMBINED, seed=6)
        metrics = pipeline.measure(optimized, 1)[0]
        assert metrics.result == GOLDEN[name]

    def test_all_names_present(self):
        assert len(AWFY_NAMES) == 14
        assert set(GOLDEN) == set(AWFY_NAMES)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            awfy_workload("Nope")

    def test_ballast_differs_across_benchmarks(self):
        a = awfy_workload("Bounce").source
        b = awfy_workload("Towers").source
        assert a != b


class TestMicroservices:
    @pytest.mark.parametrize("name", MICROSERVICE_NAMES)
    def test_first_response_is_json_hello(self, name):
        pipeline = WorkloadPipeline(microservice_workload(name))
        binary = pipeline.build_baseline()
        metrics = pipeline.measure(binary, 1)[0]
        assert metrics.first_response_time_s is not None
        # the respond() payload is captured through hooks; check the server
        # actually built the JSON body by re-running without kill
        assert metrics.first_response_ops > 0

    def test_names(self):
        assert MICROSERVICE_NAMES == ["micronaut", "quarkus", "spring"]
        with pytest.raises(KeyError):
            microservice_workload("express")

    def test_spring_is_heaviest(self):
        sizes = {}
        for name in MICROSERVICE_NAMES:
            pipeline = WorkloadPipeline(microservice_workload(name))
            binary = pipeline.build_baseline()
            sizes[name] = (binary.heap_size, binary.text_size)
        assert sizes["spring"][0] > sizes["quarkus"][0]

    def test_multithreaded_startup(self):
        pipeline = WorkloadPipeline(microservice_workload("spring"))
        outcome = pipeline.profile(seed=0)
        # spring spawns 3 background threads + main = 4 trace files
        assert outcome.instrumented_metrics.trace_event_counts["method_entries"] > 0
        assert outcome.lost_records == 0

    def test_resources_in_image_heap(self):
        pipeline = WorkloadPipeline(microservice_workload("micronaut"))
        binary = pipeline.build_baseline()
        resources = [o for o in binary.snapshot if o.type_name == "Resource"]
        assert len(resources) == 2
        assert all(o.root_reason == "Resource" for o in resources)


class TestBallast:
    def test_deterministic_in_seed(self):
        assert generate_ballast(seed=3) == generate_ballast(seed=3)
        assert generate_ballast(seed=3) != generate_ballast(seed=4)

    def test_compiles_standalone(self):
        source = generate_ballast(seed=1, subsystems=4)
        source += "\nclass Main { static int main() { RuntimeSystem.boot(); return RuntimeSystem.bootResult; } }"
        program = compile_source(source)
        assert program.entry_method() is not None

    def test_cold_code_reachable_but_not_executed(self):
        source = generate_ballast(seed=1, subsystems=6, touched_subsystems=2)
        source += "\nclass Main { static int main() { RuntimeSystem.boot(); return RuntimeSystem.bootResult; } }"
        from repro.eval.pipeline import Workload

        pipeline = WorkloadPipeline(Workload(name="ballast", source=source))
        binary = pipeline.build_baseline()
        outcome = pipeline.profile(seed=0)
        executed = set(outcome.profiles.code["method"].signatures)
        compiled = {cu.name for cu in binary.cus}
        # most compiled code never executes (the paper's premise)
        assert len(executed) < len(compiled) / 2

    def test_scales_with_parameters(self):
        small = generate_ballast(seed=1, subsystems=4)
        large = generate_ballast(seed=1, subsystems=12)
        assert len(large) > len(small) * 2


@pytest.mark.parametrize("name", ["Json", "spring"])
def test_compiled_workload_round_trips_through_pickle(name):
    """A compiled program (what the artifact cache stores) unpickles with
    the same bytecode in every method."""
    workload = (microservice_workload(name) if name in MICROSERVICE_NAMES
                else awfy_workload(name))
    program = workload.compile()
    copy = pickle.loads(pickle.dumps(program))
    assert copy.classes.keys() == program.classes.keys()
    for class_name, cls in program.classes.items():
        methods = copy.classes[class_name].methods
        assert methods.keys() == cls.methods.keys()
        for key, method in cls.methods.items():
            assert methods[key].code == method.code, method.signature
    assert copy.string_literals == program.string_literals
