"""Tests for the content-addressed artifact cache (keys + store + pipeline)."""

import dataclasses
import os
import pickle

import pytest

from repro.cache import (
    KIND_IMAGE,
    KIND_METRICS,
    KIND_PROFILE,
    KIND_PROGRAM,
    KIND_REPORT,
    KIND_TRACE,
    ArtifactCache,
    fingerprint,
    image_key,
    profile_key,
    program_key,
    source_digest,
    trace_key,
)
from repro.eval.pipeline import (
    ALL_STRATEGY_SPECS,
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    Workload,
    WorkloadPipeline,
)
from repro.obs import get_registry
from repro.runtime.executor import ExecutionConfig
from repro.workloads import awfy_workload

PROGRAM = """
class Main {
    static int main() {
        int acc = 0;
        for (int i = 0; i < 30; i++) acc += i * 2;
        return acc;
    }
}
"""

PROGRAM_EDITED = PROGRAM.replace("i * 2", "i * 3")


def _counts(before=None):
    """The registry's snapshot, or its delta since ``before``."""
    now = get_registry().snapshot()
    return now if before is None else now.diff(before)


@dataclasses.dataclass(frozen=True)
class _Cfg:
    alpha: int = 1
    beta: str = "x"


class TestKeys:
    def test_fingerprint_ignores_dict_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_fingerprint_distinguishes_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_dataclass_fingerprint_includes_type_and_fields(self):
        assert fingerprint(_Cfg()) == fingerprint(_Cfg())
        assert fingerprint(_Cfg(alpha=2)) != fingerprint(_Cfg())

    def test_unfingerprintable_value_raises(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_source_edit_changes_every_downstream_key(self):
        digest_a = source_digest(PROGRAM)
        digest_b = source_digest(PROGRAM_EDITED)
        assert digest_a != digest_b
        assert program_key(digest_a) != program_key(digest_b)
        assert (trace_key(digest_a, "bf", "pf", 1)
                != trace_key(digest_b, "bf", "pf", 1))
        assert (profile_key(digest_a, "bf", "pf", 1, "po")
                != profile_key(digest_b, "bf", "pf", 1, "po"))

    def test_image_key_varies_with_each_input(self):
        base = dict(src_digest="s", build_fp="b", mode="regular",
                    code_ordering="", heap_ordering="", profiles_digest="",
                    seed=0)
        key = image_key(**base)
        for name, value in [("mode", "optimized"), ("seed", 1),
                            ("code_ordering", "cu"), ("profiles_digest", "p")]:
            assert image_key(**{**base, name: value}) != key


class TestStore:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get(KIND_TRACE, "ab" * 32) is None
        assert cache.put(KIND_TRACE, "ab" * 32, {"x": [1, 2, 3]})
        assert cache.get(KIND_TRACE, "ab" * 32) == {"x": [1, 2, 3]}
        counters = _counts().counters
        assert counters["cache.hit.trace"] == 1
        assert counters["cache.miss.trace"] == 1
        assert counters["cache.put.trace"] == 1

    def test_put_existing_key_is_noop(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.put(KIND_REPORT, "cd" * 32, "first")
        assert not cache.put(KIND_REPORT, "cd" * 32, "second")
        assert cache.get(KIND_REPORT, "cd" * 32) == "first"

    def test_put_counts_payload_bytes_per_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        before = get_registry().snapshot()
        cache.put(KIND_TRACE, "ab" * 32, b"x" * 5000)
        cache.put(KIND_TRACE, "ab" * 32, b"x" * 5000)  # no-op: not counted
        cache.put(KIND_REPORT, "cd" * 32, {"search": None})
        counters = _counts(before).counters
        entry = tmp_path / KIND_TRACE / "ab" / f"{'ab' * 32}.pkl"
        assert counters["cache.put.trace"] == 1
        assert counters["cache.put_bytes.trace"] == entry.stat().st_size
        assert counters["cache.put_bytes.trace"] > 5000
        assert counters["cache.put_bytes.report"] > 0

    def test_unpicklable_value_is_skipped_not_raised(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert not cache.put(KIND_PROGRAM, "ef" * 32, lambda: None)
        assert not cache.contains(KIND_PROGRAM, "ef" * 32)

    def test_stale_toolchain_entry_is_a_miss_and_evicted(self, tmp_path):
        old = ArtifactCache(tmp_path, toolchain="ancient-toolchain")
        old.put(KIND_PROFILE, "12" * 32, "payload")
        fresh = ArtifactCache(tmp_path)
        assert fresh.get(KIND_PROFILE, "12" * 32) is None
        # lazily deleted: a second cache sees nothing at all
        assert not ArtifactCache(tmp_path).contains(KIND_PROFILE, "12" * 32)

    def test_corrupt_entry_self_heals(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "34" * 32
        cache.put(KIND_METRICS, key, [1, 2, 3])
        entry = tmp_path / KIND_METRICS / key[:2] / f"{key}.pkl"
        entry.write_bytes(entry.read_bytes()[:5])  # torn write
        assert cache.get(KIND_METRICS, key) is None
        assert not cache.contains(KIND_METRICS, key)
        # the caller's recompute repopulates it
        assert cache.put(KIND_METRICS, key, [1, 2, 3])
        assert cache.get(KIND_METRICS, key) == [1, 2, 3]

    def test_clear_empties_every_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KIND_TRACE, "aa" * 32, 1)
        cache.put(KIND_IMAGE, "bb" * 32, 2)
        cache.clear()
        assert not cache.contains(KIND_TRACE, "aa" * 32)
        assert not cache.contains(KIND_IMAGE, "bb" * 32)


def _pipeline(tmp_path, source=PROGRAM, exec_config=None, name="cachewl"):
    return WorkloadPipeline(
        Workload(name=name, source=source),
        exec_config=exec_config,
        cache=ArtifactCache(tmp_path / "cache"),
    )


class TestPipelineCaching:
    def test_second_run_is_all_hits_with_identical_metrics(self, tmp_path):
        first = _pipeline(tmp_path)
        base_a, opt_a = first.run_strategy(STRATEGY_CU, seed=3)
        second = _pipeline(tmp_path)
        before = get_registry().snapshot()
        base_b, opt_b = second.run_strategy(STRATEGY_CU, seed=3)
        counts = _counts(before)
        assert counts.total("cache.miss.") == 0
        assert counts.total("cache.hit.") > 0
        assert base_a[0].faults == base_b[0].faults
        assert base_a[0].time_s == base_b[0].time_s
        assert opt_a[0].faults == opt_b[0].faults
        assert opt_a[0].time_s == opt_b[0].time_s

    def test_warm_run_strategy_loads_no_image(self, tmp_path):
        _pipeline(tmp_path).run_strategy(STRATEGY_CU, seed=3)
        warm = _pipeline(tmp_path)
        before = get_registry().snapshot()
        warm.run_strategy(STRATEGY_CU, seed=3)
        counters = _counts(before).counters
        assert counters[f"cache.hit.{KIND_METRICS}"] == 2
        assert f"cache.hit.{KIND_IMAGE}" not in counters
        assert counters.get("phase.build", 0) == 0

    def test_source_edit_misses(self, tmp_path):
        _pipeline(tmp_path).run_strategy(STRATEGY_CU, seed=3)
        edited = _pipeline(tmp_path, source=PROGRAM_EDITED)
        before = get_registry().snapshot()
        edited.run_strategy(STRATEGY_CU, seed=3)
        counts = _counts(before)
        assert counts.total("cache.hit.") == 0
        assert counts.total("cache.miss.") > 0

    def test_strategy_change_reuses_profile_but_rebuilds_image(self, tmp_path):
        base_a, _ = _pipeline(tmp_path).run_strategy(STRATEGY_CU, seed=3)
        other = _pipeline(tmp_path)
        before = get_registry().snapshot()
        base_b, _ = other.run_strategy(STRATEGY_HEAP_PATH, seed=3)
        counters = _counts(before).counters
        # profile + baseline metrics come from the cache, and the baseline
        # image is not even built...
        assert counters[f"cache.hit.{KIND_PROFILE}"] >= 1
        assert counters[f"cache.hit.{KIND_METRICS}"] == 1
        assert base_b == base_a
        # ...but the differently-ordered optimized image must be built
        assert counters["phase.build"] == 1

    def test_profiler_config_change_misses(self, tmp_path):
        _pipeline(tmp_path).run_strategy(STRATEGY_CU, seed=3)
        slower = _pipeline(
            tmp_path,
            exec_config=ExecutionConfig(probe_block_s=9e-9),
        )
        before = get_registry().snapshot()
        slower.run_strategy(STRATEGY_CU, seed=3)
        assert _counts(before).counters[f"cache.miss.{KIND_PROFILE}"] >= 1

    def test_seed_change_misses(self, tmp_path):
        _pipeline(tmp_path).run_strategy(STRATEGY_CU, seed=3)
        other = _pipeline(tmp_path)
        before = get_registry().snapshot()
        other.run_strategy(STRATEGY_CU, seed=4)
        assert _counts(before).counters[f"cache.miss.{KIND_METRICS}"] >= 1

    def test_cached_strategies_store_no_image_and_match_uncached(
            self, tmp_path):
        """A cache-armed run of all 7 strategies leaves no image entry
        (builds are laid out again, not stored), and its cells equal an
        uncached pipeline's."""
        cache = ArtifactCache(tmp_path / "cache")
        cached = WorkloadPipeline(awfy_workload("Queens"), cache=cache)
        plain = WorkloadPipeline(awfy_workload("Queens"))
        for spec in ALL_STRATEGY_SPECS:
            assert cached.run_strategy(spec, seed=3) == \
                plain.run_strategy(spec, seed=3), spec.name
        assert list(cache.entries(KIND_IMAGE)) == []
        assert list(cache.entries(KIND_METRICS))

    def test_uncached_pipeline_unaffected(self, tmp_path):
        pipeline = WorkloadPipeline(Workload(name="plain", source=PROGRAM))
        base, opt = pipeline.run_strategy(STRATEGY_CU, seed=3)
        assert base and opt


class _FlakyIO:
    """Minimal fault injector: raise OSError on the first N operations."""

    def __init__(self, failures):
        self.failures = failures

    def before_io(self, op, kind, key):
        if self.failures > 0:
            self.failures -= 1
            raise OSError(f"injected: {op} {kind}")

    def after_put(self, kind, key, path):
        pass


class TestSelfHealing:
    KEY = "45" * 32

    def _paths(self, tmp_path):
        return (tmp_path / KIND_METRICS / self.KEY[:2] / f"{self.KEY}.pkl",
                tmp_path / KIND_METRICS / self.KEY[:2] / f"{self.KEY}.json")

    def test_checksum_sidecar_written_on_put(self, tmp_path):
        import json as _json
        import zlib as _zlib
        cache = ArtifactCache(tmp_path)
        cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        pkl, meta = self._paths(tmp_path)
        recorded = _json.loads(meta.read_text())["crc32"]
        assert recorded == _zlib.crc32(pkl.read_bytes())

    def test_bit_flip_is_detected_evicted_recomputed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        pkl, _ = self._paths(tmp_path)
        blob = bytearray(pkl.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        pkl.write_bytes(bytes(blob))
        # memo-free instance: the read must go to disk and verify the CRC
        fresh = ArtifactCache(tmp_path, memo_entries=0)
        before = get_registry().snapshot()
        assert fresh.get(KIND_METRICS, self.KEY) is None
        assert _counts(before).counters[f"cache.heal.{KIND_METRICS}"] == 1
        assert not fresh.contains(KIND_METRICS, self.KEY)
        assert fresh.put(KIND_METRICS, self.KEY, [1, 2, 3])
        assert fresh.get(KIND_METRICS, self.KEY) == [1, 2, 3]

    def test_undecodable_payload_with_valid_crc_heals(self, tmp_path):
        import json as _json
        import zlib as _zlib
        cache = ArtifactCache(tmp_path)
        cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        pkl, meta = self._paths(tmp_path)
        # valid checksum over bytes that are not a pickle: the unpickle
        # guard (not the CRC) must catch it, same detect-evict-recompute
        garbage = b"\x80\x05 this was never a pickle"
        pkl.write_bytes(garbage)
        doc = _json.loads(meta.read_text())
        doc["crc32"] = _zlib.crc32(garbage)
        meta.write_text(_json.dumps(doc))
        fresh = ArtifactCache(tmp_path, memo_entries=0)
        before = get_registry().snapshot()
        assert fresh.get(KIND_METRICS, self.KEY) is None
        assert _counts(before).counters[f"cache.heal.{KIND_METRICS}"] == 1
        assert not fresh.contains(KIND_METRICS, self.KEY)

    def test_sidecar_without_crc_heals_a_swapped_payload(self, tmp_path):
        import json as _json
        cache = ArtifactCache(tmp_path)
        cache.put(KIND_METRICS, self.KEY, {"faults": 10})
        pkl, meta = self._paths(tmp_path)
        # one flipped bit in the key name ("crc32" -> "brc32") leaves valid
        # JSON without the checksum; the payload is another valid pickle
        meta.write_text(meta.read_text().replace('"crc32"', '"brc32"'))
        assert "crc32" not in _json.loads(meta.read_text())
        pkl.write_bytes(pickle.dumps({"faults": 99}))
        fresh = ArtifactCache(tmp_path, memo_entries=0)
        before = get_registry().snapshot()
        assert fresh.get(KIND_METRICS, self.KEY) is None
        assert _counts(before).counters[f"cache.heal.{KIND_METRICS}"] == 1
        assert not pkl.exists() and not meta.exists()

    def test_memo_serves_before_disk_damage_is_seen(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        assert cache.get(KIND_METRICS, self.KEY) == [1, 2, 3]  # memoized
        pkl, _ = self._paths(tmp_path)
        pkl.write_bytes(b"rot")
        # same instance: immutable-entry contract lets the memo serve
        assert cache.get(KIND_METRICS, self.KEY) == [1, 2, 3]
        # a new process (new instance) heals from disk
        assert ArtifactCache(tmp_path, memo_entries=0).get(
            KIND_METRICS, self.KEY) is None

    def test_orphaned_tmp_files_swept_on_open(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        shard = (tmp_path / KIND_METRICS / self.KEY[:2])
        orphan = shard / ".tmp-killed-writer"
        orphan.write_bytes(b"half a payload")
        reopened = ArtifactCache(tmp_path)
        assert not orphan.exists()
        # the real entry survived the sweep
        assert reopened.get(KIND_METRICS, self.KEY) == [1, 2, 3]

    def test_sweep_keeps_a_live_writers_staging_file(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        shard = (tmp_path / KIND_METRICS / self.KEY[:2])
        in_flight = shard / f".tmp-{os.getpid()}-abcd1234"
        in_flight.write_bytes(b"a put in progress")
        dead = shard / ".tmp-2147483646-abcd1234"  # no such process
        dead.write_bytes(b"half a payload")
        ArtifactCache(tmp_path)
        assert in_flight.exists()
        assert not dead.exists()

    def test_transient_read_error_is_a_miss_not_a_raise(self, tmp_path):
        cache = ArtifactCache(tmp_path, memo_entries=0)
        cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        cache.fault_injector = _FlakyIO(failures=1)
        assert cache.get(KIND_METRICS, self.KEY) is None
        assert _counts().counters["cache.io_error.get"] == 1
        # the entry was left in place for the next (healthy) read
        assert cache.get(KIND_METRICS, self.KEY) == [1, 2, 3]

    def test_transient_write_error_skips_the_put(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.fault_injector = _FlakyIO(failures=1)
        assert not cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        assert _counts().counters["cache.io_error.put"] == 1
        assert not cache.contains(KIND_METRICS, self.KEY)
        assert cache.put(KIND_METRICS, self.KEY, [1, 2, 3])

    def test_describe_reports_healing(self, tmp_path):
        cache = ArtifactCache(tmp_path, memo_entries=0)
        cache.put(KIND_METRICS, self.KEY, [1, 2, 3])
        pkl, _ = self._paths(tmp_path)
        pkl.write_bytes(b"rot")
        cache.get(KIND_METRICS, self.KEY)
        assert _counts().counters[f"cache.heal.{KIND_METRICS}"] == 1
