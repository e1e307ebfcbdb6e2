"""Build once, lay out many: one prepared image serves a program's
optimized layouts, and object IDs are computed when first read.

The pins are one SHA-256 per build of the seed-1 matrix cells of Queens
and quarkus — the regular build, the instrumented build, the 7 strategy
builds and the default-layout reference build of ``cu-opt``.  Each digest
covers the layout digest, the CU and heap orders, every object ID of all
three kinds and one run's faults, first-response faults and touches.
They were taken when every build prepared on its own builder and
assigned all IDs eagerly; they must hold for builds laid out from one
shared prepared image and for builds that each prepare afresh.
"""

import hashlib
import pickle

import pytest

from repro.eval.pipeline import ALL_STRATEGY_SPECS, WorkloadPipeline
from repro.eval.scheduler import (
    SchedulerConfig,
    SweepScheduler,
    reset_worker_state,
    task_seed,
)
from repro.image.builder import BuildConfig, NativeImageBuilder
from repro.ordering.ids import (
    ALL_STRATEGIES,
    HEAP_PATH,
    INCREMENTAL_ID,
    STRUCTURAL_HASH,
    assign_incremental_ids,
    heap_path_hash,
    structural_hash,
)
from repro.runtime.executor import run_binary
from repro.workloads import awfy_workload, microservice_workload

PINS = {
    "Queens": {
        "regular": "c52cd2e18ee7b8a770d6f932c5b342537af05ae7df309c9a39193bbb513cc268",
        "instrumented": "599853770d05991e74dc6912db20772c765b107f6a91548446da61d7c3677165",
        "cu": "d1ec00e4173ea165c37588129fd35a24b97e71df7036197aacfc23d5e23c67b0",
        "method": "6bce3bc7bd92884fa508cb90e2ea0683cd3af92567575648c675a77c8c62ac23",
        "incremental id": "44c6014d36c345697c81300b6a0e4c63b813da5ea83f3453c67b83ef684a639a",
        "structural hash": "b4ee0f13bb1de4e044029a7b54f73c49a664b67ea5447c62cae699dae5bff03c",
        "heap path": "51a223db16bba2ed3ba1ae4859b4ca2ee6f71627eb4d02a3c5127f1458f426a3",
        "cu+heap path": "f8408e5ac446abe611a6f91eb1df0dc8923bb89a3fff1f37c7dc699bd5ab977f",
        "cu-opt": "d1ec00e4173ea165c37588129fd35a24b97e71df7036197aacfc23d5e23c67b0",
        "reference": "8fd0536204b7f5990fcfdd5d16c49fb5597ddbd76e44d57501c0f670d2dd04ff",
    },
    "quarkus": {
        "regular": "f28d09b53cd99c77ab36d9189ec10097945135134dd1771236e279bae14524f7",
        "instrumented": "a3744340e770136db93085abad28255f8628655c0355170bc5627aca581e94a4",
        "cu": "ad8c9e3e0522e3985c6d90d2e04f7899f41fc0065814969039a348e0aa115fa7",
        "method": "b534436244529d3ee9202cf7444a318a9cfdb47c5459e1504cbcb37c6e1ff366",
        "incremental id": "00680ea86e79df83a06574d2eab079e95746d7aa59a2571d87ff94a208a1a8fc",
        "structural hash": "66be39fbc0987f502e202b72e107777b240fdd271bea846108dcfd38c81d6371",
        "heap path": "96cec915229c6c5519fd86b615fc07cb808640423d88aa9c3fc6575b88c2e1ab",
        "cu+heap path": "fe635e606de2a89aa2d3f27a1a071ec4d42d5710e164b9247f26016ae6e0468f",
        "cu-opt": "ad8c9e3e0522e3985c6d90d2e04f7899f41fc0065814969039a348e0aa115fa7",
        "reference": "9382286d438258a025957094e711423dfa7c5c7b59e81292d8d58af77e59dfbb",
    },
}

def every_object(algorithm):
    """A one-object ID algorithm run over a whole snapshot, returning
    ``{object index: ID}`` as :func:`assign_incremental_ids` does."""
    return lambda snapshot, option: {obj.index: algorithm(obj, option)
                                     for obj in snapshot}


#: kind -> (whole-snapshot algorithm, the BuildConfig field holding its
#: option)
ALGORITHMS = {
    INCREMENTAL_ID: (assign_incremental_ids, "incremental_per_type"),
    STRUCTURAL_HASH: (every_object(structural_hash), "structural_max_depth"),
    HEAP_PATH: (every_object(heap_path_hash), "heap_path_intern_special"),
}


def workload(name):
    if name in ("quarkus", "spring"):
        return microservice_workload(name)
    return awfy_workload(name)


def prepare_afresh(pipeline):
    """Give every build of ``pipeline`` a builder of its own, as a
    pipeline with a non-pure hook armed does."""
    pipeline.builder = lambda: NativeImageBuilder(pipeline.program,
                                                  pipeline.build_config)
    return pipeline


def all_builds(pipeline, seed):
    """The profiles and every binary of the program's seed cells, in
    sweep build order."""
    builds = {"regular": pipeline.build_baseline(seed=seed)}
    profiles = pipeline.profile(seed=seed).profiles
    builds["instrumented"] = pipeline.build_instrumented(seed=seed)
    for spec in ALL_STRATEGY_SPECS:
        builds[spec.name] = pipeline.build_optimized(profiles, spec,
                                                     seed=seed)
    builds["reference"] = pipeline.build_optimized(profiles, None, seed=seed)
    return profiles, builds


def run_fields(binary, config):
    """One run's faults, first-response faults and touch stream."""
    metrics = run_binary(binary, config)
    first = metrics.first_response_faults
    return (f"{sorted(metrics.faults.items())}\n"
            f"{sorted(first.items()) if first is not None else None}\n"
            + "\n".join(f"{section} {offset} {size}"
                        for section, offset, size in metrics.touches))


def build_digest(binary, config):
    digest = hashlib.sha256()
    digest.update(f"{binary.layout_digest()}\n".encode())
    digest.update(("|".join(p.cu.name for p in binary.text.placed)
                   + "\n").encode())
    digest.update((",".join(str(o.index) for o in binary.heap.ordered)
                   + "\n").encode())
    snapshot = binary.snapshot
    for kind in ALL_STRATEGIES:
        ids = ",".join(str(snapshot.id_of(obj, kind)) for obj in snapshot)
        digest.update(f"{kind}:{ids}\n".encode())
    digest.update(run_fields(binary, config).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(PINS))
def shared(request):
    """(name, pipeline, profiles, builds) of one program, the optimized
    builds laid out from one shared prepared image."""
    name = request.param
    pipeline = WorkloadPipeline(workload(name))
    return (name, pipeline) + all_builds(pipeline, task_seed(1, name))


@pytest.mark.parametrize("name", sorted(PINS))
def test_pins_when_each_build_prepares_afresh(name):
    pipeline = prepare_afresh(WorkloadPipeline(workload(name)))
    _, builds = all_builds(pipeline, task_seed(1, name))
    config = pipeline.exec_config
    assert {key: build_digest(binary, config)
            for key, binary in builds.items()} == PINS[name]


def test_pins_when_layouts_share_one_prepared_image(shared):
    name, pipeline, _, builds = shared
    config = pipeline.exec_config
    optimized = [binary for key, binary in builds.items()
                 if key not in ("regular", "instrumented")]
    # the 8 optimized layouts run one program clone: one prepare
    assert len({id(binary.program) for binary in optimized}) == 1
    assert {key: build_digest(binary, config)
            for key, binary in builds.items()} == PINS[name]


def test_a_layout_leaves_earlier_binaries_unchanged(shared):
    name, pipeline, profiles, _ = shared
    config = pipeline.exec_config
    laid_out = []
    for spec in ALL_STRATEGY_SPECS:
        binary = pipeline.build_optimized(profiles, spec,
                                          seed=task_seed(1, name))
        for earlier, before in laid_out:
            assert earlier.program is binary.program
            assert (earlier.layout_digest(), run_fields(earlier, config)) \
                == before, (earlier.code_ordering, earlier.heap_ordering)
        laid_out.append((binary, (binary.layout_digest(),
                                  run_fields(binary, config))))


def test_each_binary_carries_its_own_heap_match_report(shared):
    _, _, profiles, builds = shared
    assert builds["reference"].heap_match is None
    for spec in ALL_STRATEGY_SPECS:
        match = builds[spec.name].heap_match
        if spec.heap_ordering is None:
            assert match is None, spec.name
        else:
            profile = profiles.heap_profile(spec.heap_ordering)
            assert match.strategy == spec.heap_ordering
            assert match.profile_entries == len(profile.ids)


def test_ids_on_demand_equal_eager_assignment(shared):
    _, pipeline, _, builds = shared
    options = pipeline.build_config
    for key, binary in builds.items():
        snapshot = binary.snapshot
        for kind, (assign, field) in ALGORITHMS.items():
            on_demand = [snapshot.id_of(obj, kind) for obj in snapshot]
            eager = assign(snapshot, getattr(options, field))
            assert on_demand == [eager[obj.index] for obj in snapshot], \
                (key, kind)


@pytest.mark.parametrize("name", ["Queens", "spring"])
def test_manifest_ids_read_lazily_equal_whole_snapshot_assignment(name):
    """The instrumented manifest's ``object_ids[i]`` (read here in reverse
    index order) equals ``{kind: snapshot.id_of(obj, kind)}`` and what the
    whole-snapshot algorithms assign to a second build of the same seed."""
    seed = task_seed(1, name)
    binary = WorkloadPipeline(workload(name)).build_instrumented(seed=seed)
    snapshot, object_ids = binary.snapshot, binary.manifest.object_ids
    lazy = {obj.index: object_ids[obj.index]
            for obj in reversed(snapshot.objects)}
    pipeline = WorkloadPipeline(workload(name))
    fresh = pipeline.build_instrumented(seed=seed).snapshot
    eager = {kind: assign(fresh, getattr(pipeline.build_config, field))
             for kind, (assign, field) in ALGORITHMS.items()}
    assert len(object_ids) == len(snapshot) == len(fresh)
    for obj in snapshot:
        assert lazy[obj.index] == {kind: snapshot.id_of(obj, kind)
                                   for kind in ALL_STRATEGIES}
        assert lazy[obj.index] == {kind: eager[kind][obj.index]
                                   for kind in ALL_STRATEGIES}
    assert object_ids.get(len(snapshot)) is None
    assert object_ids.get(-1) is None


def test_unpickled_snapshot_computes_ids_with_its_build_options():
    config = BuildConfig(incremental_per_type=False, structural_max_depth=0,
                         heap_path_intern_special=False)
    pipeline = WorkloadPipeline(workload("Queens"), build_config=config)
    binary = pipeline.build_baseline(seed=1)
    copy = pickle.loads(pickle.dumps(binary))
    for kind, (assign, field) in ALGORITHMS.items():
        eager = assign(binary.snapshot, getattr(config, field))
        expected = [eager[obj.index] for obj in binary.snapshot]
        assert [copy.snapshot.id_of(obj, kind)
                for obj in copy.snapshot] == expected, kind
        # every option differs from the paper's, so the check has teeth
        paper = assign(binary.snapshot, getattr(BuildConfig(), field))
        assert [paper[obj.index] for obj in binary.snapshot] != expected, kind


def test_inline_sweep_prepares_each_program_once_per_mode(tmp_path):
    reset_worker_state()
    try:
        scheduler = SweepScheduler(SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=1, base_seed=1))
        result = scheduler.run([workload("Queens"), workload("quarkus")],
                               ALL_STRATEGY_SPECS)
    finally:
        reset_worker_state()
    assert result.ok
    counters = result.metrics.counters
    # per program: regular, instrumented, 7 strategies, cu-opt reference
    assert counters["phase.build"] == 20
    # per program: one regular, one instrumented, one optimized prepare
    assert counters["phase.prepare"] == 6
