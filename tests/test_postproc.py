"""Tests for the post-processing framework and profile CSV I/O."""

import pytest

from repro.eval.pipeline import Workload, WorkloadPipeline
from repro.ordering.profiles import (
    CallCountProfile,
    CodeOrderProfile,
    HeapOrderProfile,
    ProfileBundle,
    load_bundle,
    read_code_profile,
    read_heap_profile,
    save_bundle,
    write_code_profile,
    write_heap_profile,
)
from repro.postproc.framework import (
    CuEntryEvent,
    CuOrderAnalysis,
    HeapAccessEvent,
    MethodEntryEvent,
    MethodOrderAnalysis,
    TraceDecodeError,
    decode_events,
)
from repro.profiling.instrument import plan_instrumentation
from repro.profiling.tracefile import (
    MODE_DUMP_ON_FULL,
    VERSION_V2,
    encode_chunk,
    encode_header,
    encode_path,
)


class TestAnalyses:
    def test_method_order_dedup_keeps_first(self):
        analysis = MethodOrderAnalysis()
        for signature in ["a", "b", "a", "c", "b"]:
            analysis.accept(MethodEntryEvent(signature))
        assert analysis.profile().signatures == ["a", "b", "c"]

    def test_cu_order_ignores_other_events(self):
        analysis = CuOrderAnalysis()
        analysis.accept(MethodEntryEvent("m"))
        analysis.accept(HeapAccessEvent(0))
        analysis.accept(CuEntryEvent("root"))
        assert analysis.profile().signatures == ["root"]


class TestDecoding:
    def test_mismatched_id_count_raises(self):
        source = """
        class S { static int x; }
        class Main { static int main() { S.x = 1; return S.x; } }
        """
        pipeline = WorkloadPipeline(Workload(name="pp", source=source))
        binary = pipeline.build_instrumented()
        manifest = binary.manifest
        main_id = manifest.method_ids["Main.main()"]
        # Hand-craft a path record with the wrong number of object IDs.
        bogus = (encode_header(MODE_DUMP_ON_FULL, 0, version=VERSION_V2)
                 + encode_chunk(encode_path(main_id, 0, 0, [1])))
        with pytest.raises(TraceDecodeError, match="heap-access sites"):
            list(decode_events(manifest, bogus))

    def test_zero_ids_skipped(self):
        source = """
        class S { static int x; }
        class Main { static int main() { S.x = 1; return S.x; } }
        """
        pipeline = WorkloadPipeline(Workload(name="pp", source=source))
        outcome = pipeline.profile()
        heap_ids = outcome.profiles.heap["heap_path"].ids
        assert 0 not in heap_ids


class TestProfileCsv:
    def test_code_profile_roundtrip(self, tmp_path):
        profile = CodeOrderProfile(kind="cu", signatures=["A.a()", "B.b(int)"])
        path = tmp_path / "code_cu.csv"
        write_code_profile(profile, path)
        loaded = read_code_profile(path)
        assert loaded.kind == "cu"
        assert loaded.signatures == profile.signatures

    def test_heap_profile_roundtrip(self, tmp_path):
        profile = HeapOrderProfile(strategy="heap_path", ids=[2**63 + 5, 7])
        path = tmp_path / "heap.csv"
        write_heap_profile(profile, path)
        loaded = read_heap_profile(path)
        assert loaded.strategy == "heap_path"
        assert loaded.ids == profile.ids

    def test_bundle_roundtrip(self, tmp_path):
        bundle = ProfileBundle()
        bundle.code["cu"] = CodeOrderProfile(kind="cu", signatures=["X.x()"])
        bundle.code["method"] = CodeOrderProfile(kind="method", signatures=["X.x()", "Y.y()"])
        bundle.heap["heap_path"] = HeapOrderProfile(strategy="heap_path", ids=[1, 2, 3])
        bundle.calls = CallCountProfile(counts={"X.x()": 10})
        save_bundle(bundle, tmp_path)
        loaded = load_bundle(tmp_path)
        assert loaded.code["cu"].signatures == ["X.x()"]
        assert loaded.code["method"].signatures == ["X.x()", "Y.y()"]
        assert loaded.heap["heap_path"].ids == [1, 2, 3]
        assert loaded.calls.counts == {"X.x()": 10}

    def test_wrong_file_kind_rejected(self, tmp_path):
        profile = HeapOrderProfile(strategy="heap_path", ids=[1])
        path = tmp_path / "heap.csv"
        write_heap_profile(profile, path)
        with pytest.raises(ValueError):
            read_code_profile(path)

    def test_end_to_end_bundle_survives_disk(self, tmp_path):
        source = """
        class S { static int x = 3; }
        class Main { static int main() { S.x = S.x + 1; return S.x; } }
        """
        pipeline = WorkloadPipeline(Workload(name="disk", source=source))
        outcome = pipeline.profile()
        save_bundle(outcome.profiles, tmp_path)
        loaded = load_bundle(tmp_path)
        from repro.eval.pipeline import STRATEGY_COMBINED

        binary = pipeline.build_optimized(loaded, STRATEGY_COMBINED)
        assert pipeline.measure(binary, 1)[0].result == 4


class TestCallCounts:
    def test_is_hot(self):
        counts = CallCountProfile(counts={"m": 9})
        assert counts.is_hot("m", 9)
        assert not counts.is_hot("m", 10)
        assert not counts.is_hot("absent", 1)
