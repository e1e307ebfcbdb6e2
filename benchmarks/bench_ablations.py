"""Ablation benches for the design choices called out in DESIGN.md.

Not figures from the paper, but measurements supporting its design claims:

1. per-type vs. global incremental-ID counters (Sec. 5.1's rationale);
2. structural-hash MAX_DEPTH sweep (the paper picked 2 experimentally);
3. path cutting vs. uncut path-count blowup (Sec. 6.1);
4. the interned-string special case in heap-path hashing (Alg. 3 line 4);
5. SSD vs. NFS device models (Sec. 7.1: "similar results" on NFS).
"""

from dataclasses import replace

from conftest import save_figure

from repro.eval.pipeline import (
    STRATEGY_COMBINED,
    STRATEGY_INCREMENTAL,
    Workload,
    WorkloadPipeline,
)
from repro.eval.plotting import render_table
from repro.image.builder import BuildConfig
from repro.image.sections import HEAP_SECTION
from repro.ordering.heap_order import match_and_order
from repro.profiling.cfg import build_cfg
from repro.runtime.executor import ExecutionConfig
from repro.runtime.paging import NFS
from repro.workloads.awfy.suite import awfy_workload
from repro.workloads.microservices.suite import microservice_workload


def _heap_factor(pipeline, config_override=None, strategy=STRATEGY_INCREMENTAL):
    outcome = pipeline.profile(seed=1)
    baseline = pipeline.build_baseline(seed=3)
    base = pipeline.measure(baseline, 1)[0].faults_at_response(HEAP_SECTION)
    optimized = pipeline.build_optimized(outcome.profiles, strategy, seed=3)
    opt = pipeline.measure(optimized, 1)[0].faults_at_response(HEAP_SECTION)
    return base / max(opt, 1)


def test_ablation_per_type_vs_global_incremental(benchmark):
    """Per-type counters contain divergence; a global counter amplifies it."""

    def run():
        workload = microservice_workload("micronaut")
        per_type = WorkloadPipeline(workload, build_config=BuildConfig())
        global_cfg = replace(BuildConfig(), incremental_per_type=False)
        global_counter = WorkloadPipeline(workload, build_config=global_cfg)
        return _heap_factor(per_type), _heap_factor(global_counter)

    per_type_factor, global_factor = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "Ablation 1: incremental-ID counter scope (micronaut, heap faults)",
        ["variant", "reduction factor"],
        [["per-type (paper)", f"{per_type_factor:.2f}x"],
         ["global counter", f"{global_factor:.2f}x"]],
    )
    print("\n" + table)
    save_figure("ablation1_incremental_scope.txt", table)
    assert per_type_factor >= global_factor - 0.15


def test_ablation_structural_max_depth(benchmark):
    """Deeper hashing trades collisions for cross-build match failures."""

    def run():
        workload = microservice_workload("micronaut")
        rows = []
        for depth in (0, 1, 2, 3, 4):
            config = BuildConfig().with_max_depth(depth)
            pipeline = WorkloadPipeline(workload, build_config=config)
            outcome = pipeline.profile(seed=1)
            optimized = pipeline.builder().build(
                mode="optimized",
                profiles=outcome.profiles,
                heap_ordering="structural_hash",
                seed=3,
            )
            profile = outcome.profiles.heap["structural_hash"]
            _, report = match_and_order(optimized.snapshot, profile)
            rows.append((depth, report.profile_match_rate, report.colliding_ids))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "Ablation 2: structural-hash MAX_DEPTH (micronaut)",
        ["depth", "profile match rate", "colliding IDs"],
        [[str(d), f"{rate:.2f}", str(collisions)] for d, rate, collisions in rows],
    )
    print("\n" + table)
    save_figure("ablation2_max_depth.txt", table)
    collisions_by_depth = [collisions for _, _, collisions in rows]
    # collisions shrink (or stay) as the hash sees more of the object
    assert collisions_by_depth[0] >= collisions_by_depth[-1]


def test_ablation_path_cutting(benchmark):
    """Without cutting, the branchy method's path table explodes."""
    branchy_body = "int a = 1;\n" + "\n".join(
        f"if (a > {i}) a = a + {i}; else a = a - {i};" for i in range(30)
    ) + "\nreturn a;"
    source = f"class Main {{ static int main() {{ {branchy_body} }} }}"

    def run():
        from repro.minijava import compile_source

        method = compile_source(source).get_class("Main").methods["main"]
        cut = build_cfg(method)  # default threshold
        uncut = build_cfg(method, max_paths=1 << 62)
        return cut.max_region_paths(), uncut.max_region_paths()

    cut_paths, uncut_paths = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "Ablation 3: path cutting (30-branch method)",
        ["variant", "max paths per region"],
        [["with cutting (paper)", str(cut_paths)],
         ["without cutting", str(uncut_paths)]],
    )
    print("\n" + table)
    save_figure("ablation3_path_cutting.txt", table)
    assert uncut_paths == 2**30
    assert cut_paths <= 1 << 16


def test_ablation_interned_string_special_case(benchmark):
    """Without Alg. 3 line 4, all interned-string roots hash identically."""

    def run():
        workload = awfy_workload("Json")
        special = WorkloadPipeline(workload, build_config=BuildConfig())
        plain_cfg = replace(BuildConfig(), heap_path_intern_special=False)
        plain = WorkloadPipeline(workload, build_config=plain_cfg)

        def colliding(pipeline):
            binary = pipeline.build_baseline()
            from collections import Counter

            snapshot = binary.snapshot
            counts = Counter(snapshot.id_of(o, "heap_path") for o in snapshot)
            return sum(1 for c in counts.values() if c > 1)

        return colliding(special), colliding(plain)

    with_special, without_special = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "Ablation 4: interned-string special case in heap-path hashing (Json)",
        ["variant", "colliding heap-path IDs"],
        [["with special case (paper)", str(with_special)],
         ["without", str(without_special)]],
    )
    print("\n" + table)
    save_figure("ablation4_intern_special_case.txt", table)
    assert without_special > with_special


def test_ablation_nfs_vs_ssd(benchmark):
    """The paper reports similar trends on NFS; the factors should agree,
    with larger absolute savings on the slower device."""

    def run():
        workload = awfy_workload("Bounce")
        ssd = WorkloadPipeline(workload)
        nfs = WorkloadPipeline(workload,
                               exec_config=replace(ExecutionConfig(), device=NFS))
        out = {}
        for name, pipeline in (("ssd", ssd), ("nfs", nfs)):
            outcome = pipeline.profile(seed=1)
            baseline = pipeline.build_baseline(seed=3)
            optimized = pipeline.build_optimized(outcome.profiles,
                                                 STRATEGY_COMBINED, seed=3)
            base_t = pipeline.measure(baseline, 1)[0].time_s
            opt_t = pipeline.measure(optimized, 1)[0].time_s
            out[name] = (base_t / opt_t, (base_t - opt_t) * 1000.0)
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "Ablation 5: device model (Bounce, cu+heap path)",
        ["device", "speedup", "absolute saving (ms)"],
        [[name, f"{speedup:.2f}x", f"{saved:.2f}"]
         for name, (speedup, saved) in result.items()],
    )
    print("\n" + table)
    save_figure("ablation5_devices.txt", table)
    assert result["nfs"][0] > 1.0 and result["ssd"][0] > 1.0
    assert result["nfs"][1] > result["ssd"][1]  # bigger absolute saving on NFS
