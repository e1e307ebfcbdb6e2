"""Tests for the three object-identity strategies (Algorithms 1-3)."""

import pytest

from repro.eval.pipeline import Workload, WorkloadPipeline
from repro.image.builder import BuildConfig
from repro.ordering.ids import (
    HEAP_PATH,
    INCREMENTAL_ID,
    STRUCTURAL_HASH,
    StructuralHasher,
    assign_incremental_ids,
    heap_path_hash,
    type_id,
)
from repro.ordering.reasons import REASON_INTERNED_STRING
from repro.vm.values import ArrayInstance

SOURCE = """
class Pair { int a; int b; Pair(int x, int y) { a = x; b = y; } }
class Holder {
    static Pair first = new Pair(1, 2);
    static Pair second = new Pair(1, 2);
    static Pair distinct = new Pair(9, 9);
    static int[] table = new int[10];
    static String greeting = "hello-world";
    static { for (int i = 0; i < 10; i++) table[i] = i; }
}
class Main {
    static int main() {
        println("banner-literal");
        println(Holder.greeting);
        return Holder.first.a + Holder.second.b + Holder.table[3];
    }
}
"""


@pytest.fixture(scope="module")
def snapshot():
    pipeline = WorkloadPipeline(Workload(name="ids", source=SOURCE))
    binary = pipeline.build_baseline()
    return binary.snapshot


def find(snapshot, predicate):
    return [obj for obj in snapshot if predicate(obj)]


class TestIncrementalId:
    def test_per_type_counters(self, snapshot):
        pairs = find(snapshot, lambda o: o.type_name == "Pair")
        assert len(pairs) == 3
        counters = sorted(snapshot.id_of(obj, INCREMENTAL_ID) & 0xFFFFFFFF
                          for obj in pairs)
        assert counters == [1, 2, 3]

    def test_type_id_in_high_bits(self, snapshot):
        pair = find(snapshot, lambda o: o.type_name == "Pair")[0]
        assert snapshot.id_of(pair, INCREMENTAL_ID) >> 32 == type_id("Pair")

    def test_counters_isolated_between_types(self, snapshot):
        # A divergence in one type must not shift another type's counters:
        # every type's counters start at 1.
        by_type = {}
        for obj in snapshot:
            by_type.setdefault(obj.type_name, []).append(
                snapshot.id_of(obj, INCREMENTAL_ID) & 0xFFFFFFFF
            )
        for type_name, counters in by_type.items():
            assert min(counters) == 1, type_name

    def test_global_mode_is_sequential(self, snapshot):
        ids = assign_incremental_ids(snapshot, per_type=False)
        counters = [ids[obj.index] & 0xFFFFFFFF for obj in snapshot]
        assert counters == list(range(1, len(counters) + 1))
        # restore per-type ids for other tests
        assign_incremental_ids(snapshot, per_type=True)


class TestStructuralHash:
    def test_equal_structure_collides(self, snapshot):
        pairs = find(snapshot, lambda o: o.type_name == "Pair")
        same = [o for o in pairs if o.value.fields == {"a": 1, "b": 2}]
        other = [o for o in pairs if o.value.fields == {"a": 9, "b": 9}]
        assert (snapshot.id_of(same[0], STRUCTURAL_HASH)
                == snapshot.id_of(same[1], STRUCTURAL_HASH))
        assert (snapshot.id_of(same[0], STRUCTURAL_HASH)
                != snapshot.id_of(other[0], STRUCTURAL_HASH))

    def test_depth_zero_ignores_field_values_of_objects(self):
        hasher0 = StructuralHasher(max_depth=0)
        a = ArrayInstance("Pair", 2)
        b = ArrayInstance("Pair", 2)
        assert hasher0.hash_value(a) == hasher0.hash_value(b)

    def test_primitive_arrays_always_hashed_by_content(self):
        hasher0 = StructuralHasher(max_depth=0)
        a = ArrayInstance("int", 3)
        b = ArrayInstance("int", 3)
        b.store(1, 42)
        # primitive element type recurses regardless of depth (Algorithm 2)
        assert hasher0.hash_value(a) != hasher0.hash_value(b)

    def test_null_hash_is_stable(self):
        hasher = StructuralHasher()
        assert hasher.hash_value(None) == hasher.hash_value(None)

    def test_deeper_depth_discriminates_more(self, snapshot):
        shallow = StructuralHasher(max_depth=0)
        deep = StructuralHasher(max_depth=3)
        values = [obj.value for obj in snapshot]
        shallow_distinct = len({shallow.hash_value(v) for v in values})
        deep_distinct = len({deep.hash_value(v) for v in values})
        assert deep_distinct >= shallow_distinct


class TestHeapPath:
    def test_null_is_zero(self):
        assert heap_path_hash(None) == 0

    def test_roots_hash_their_reason(self, snapshot):
        roots = find(snapshot, lambda o: o.is_root and o.type_name == "Pair")
        # distinct static-field reasons -> distinct hashes, even for
        # structurally identical Pairs
        hashes = {snapshot.id_of(obj, HEAP_PATH) for obj in roots}
        assert len(hashes) == len(roots)

    def test_interned_strings_hash_content(self, snapshot):
        interned = find(
            snapshot,
            lambda o: o.is_root and o.root_reason == REASON_INTERNED_STRING,
        )
        assert interned, "expected at least the greeting literal"
        for obj in interned:
            without_special = heap_path_hash(obj, intern_special_case=False)
            assert snapshot.id_of(obj, HEAP_PATH) != without_special

    def test_without_intern_special_case_literals_collide(self, snapshot):
        interned = find(
            snapshot,
            lambda o: o.is_root and o.root_reason == REASON_INTERNED_STRING,
        )
        hashes = {heap_path_hash(o, intern_special_case=False) for o in interned}
        # all interned-string roots share the same degenerate path
        assert len(hashes) == 1

    def test_child_path_includes_parent_edge(self, snapshot):
        children = find(snapshot, lambda o: not o.is_root)
        for obj in children:
            assert obj.parent is not None
            assert (snapshot.id_of(obj, HEAP_PATH)
                    != snapshot.id_of(obj.parent, HEAP_PATH))


class TestCrossBuildStability:
    def test_ids_stable_across_identical_builds(self):
        pipeline = WorkloadPipeline(Workload(name="ids", source=SOURCE))
        first = pipeline.build_baseline(seed=0).snapshot
        second = pipeline.build_baseline(seed=0).snapshot
        for strategy in (INCREMENTAL_ID, STRUCTURAL_HASH, HEAP_PATH):
            a = [first.id_of(obj, strategy) for obj in first]
            b = [second.id_of(obj, strategy) for obj in second]
            assert a == b, strategy

    def test_heap_path_survives_instrumented_divergence(self):
        config = BuildConfig()
        pipeline = WorkloadPipeline(Workload(name="ids", source=SOURCE),
                                    build_config=config)
        regular = pipeline.build_baseline(seed=0).snapshot
        instrumented = pipeline.build_instrumented(seed=0).snapshot
        reg = {regular.id_of(obj, HEAP_PATH) for obj in regular}
        ins = {instrumented.id_of(obj, HEAP_PATH) for obj in instrumented}
        # everything in the regular image matches something instrumented
        assert reg <= ins

    def test_incremental_shifts_under_instrumented_divergence(self):
        pipeline = WorkloadPipeline(Workload(name="ids", source=SOURCE))
        regular = pipeline.build_baseline(seed=0).snapshot
        instrumented = pipeline.build_instrumented(seed=0).snapshot
        greeting_regular = regular.lookup("hello-world")
        greeting_instrumented = instrumented.lookup("hello-world")
        # profiler metadata strings shift the String counters, so the same
        # semantic object carries different incremental IDs across builds
        assert (
            regular.id_of(greeting_regular, INCREMENTAL_ID)
            != instrumented.id_of(greeting_instrumented, INCREMENTAL_ID)
        )
