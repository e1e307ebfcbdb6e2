#!/usr/bin/env python3
"""Extending the system: plug in a custom object-identity strategy.

The paper's three strategies (incremental id / structural hash / heap path)
trade matching robustness against precision.  This example adds a fourth —
`type+size` buckets — plugs it through the ID/match/reorder machinery, and
compares its profile match rate and fault reduction against the built-ins
on a microservice workload.

Run:  python examples/custom_strategy.py
"""

from repro.eval.pipeline import WorkloadPipeline
from repro.image.sections import HEAP_SECTION
from repro.ordering.heap_order import match_and_order
from repro.ordering.ids import ALL_STRATEGIES, type_id
from repro.ordering.profiles import HeapOrderProfile
from repro.runtime.executor import run_binary
from repro.image.sections import layout_heap
from repro.workloads.microservices.suite import microservice_workload

CUSTOM = "type_size"


def assign_type_size_ids(snapshot) -> None:
    """A deliberately coarse strategy: ID = (type, object size)."""
    for obj in snapshot:
        obj.ids[CUSTOM] = (type_id(obj.type_name) << 32) | (obj.size & 0xFFFFFFFF)


def main() -> None:
    pipeline = WorkloadPipeline(microservice_workload("micronaut"))

    # 1. profile with the instrumented build; derive the custom profile from
    #    the manifest's per-object IDs (recomputed with our strategy).
    instrumented = pipeline.build_instrumented(seed=1)
    assign_type_size_ids(instrumented.snapshot)
    outcome = pipeline.profile(seed=1)

    # Translate the heap-path access order into custom IDs via object index.
    heap_path_profile = outcome.profiles.heap["heap_path"]
    snapshot = instrumented.snapshot
    index_of = {snapshot.id_of(obj, "heap_path"): obj.index for obj in snapshot}
    custom_ids = []
    for hp_id in heap_path_profile.ids:
        index = index_of.get(hp_id)
        if index is not None:
            custom_ids.append(snapshot.id_of(snapshot.objects[index], CUSTOM))
    custom_profile = HeapOrderProfile(strategy=CUSTOM, ids=custom_ids)

    # 2. build the optimized image, reorder its heap with the custom IDs.
    optimized = pipeline.build_optimized(outcome.profiles, None, seed=2)
    assign_type_size_ids(optimized.snapshot)
    ordered, report = match_and_order(optimized.snapshot, custom_profile)
    layout_heap(ordered)  # re-assign addresses in the custom order

    baseline = pipeline.build_baseline(seed=2)
    base_faults = run_binary(baseline, pipeline.exec_config).faults_at_response(
        HEAP_SECTION
    )
    custom_faults = run_binary(optimized, pipeline.exec_config).faults_at_response(
        HEAP_SECTION
    )

    print("custom 'type+size' strategy on micronaut")
    print(f"  match report : {report}")
    print(f"  heap faults  : baseline {base_faults} -> custom {custom_faults} "
          f"({base_faults / max(custom_faults, 1):.2f}x)")

    # 3. compare with the three built-in strategies.
    for strategy in ALL_STRATEGIES:
        binary = pipeline.builder().build(
            mode="optimized",
            profiles=outcome.profiles,
            heap_ordering=strategy,
            seed=2,
        )
        faults = run_binary(binary, pipeline.exec_config).faults_at_response(
            HEAP_SECTION
        )
        match = binary.heap_match
        print(
            f"  {strategy:16s}: faults {faults} "
            f"({base_faults / max(faults, 1):.2f}x), "
            f"match rate {match.profile_match_rate:.0%}"
        )


if __name__ == "__main__":
    main()
