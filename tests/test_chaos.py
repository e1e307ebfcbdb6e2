"""Tests for chaos-hardened sweeps: fault injection, retry/backoff, healing.

The headline invariant under test everywhere: whatever the chaos policy
injects, every cell that *survives* the sweep must be byte-identical
(canonical JSON) to a fault-free serial run.  Faults may cost wall-clock
or quarantine poison cells — they must never silently change a result.

Pool-backed tests are kept deliberately tiny (two workers, two cells, no
task deadline): the CI box has a single CPU, so a large pool oversubscribes
it and wall-clock deadlines fire spuriously.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.chaosrun import ChaosOutcome, check_identity, run_chaos
from repro.eval.pipeline import (
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    Workload,
)
from repro.eval.scheduler import (
    RetryPolicy,
    SchedulerConfig,
    SweepScheduler,
    reset_worker_state,
    task_seed,
)
from repro.robustness.chaos import (
    ALL_CHAOS_CLASSES,
    CHAOS_CACHE_IO,
    CHAOS_CORRUPT_ARTIFACT,
    CHAOS_HANG,
    CHAOS_OVERSIZED_RESULT,
    CHAOS_WORKER_CRASH,
    ChaosCacheInjector,
    ChaosPolicy,
)

PROGRAM = """
class Counter {
    static int bump(int x) { return x + 1; }
}
class Main {
    static int main() {
        int acc = 0;
        for (int i = 0; i < 40; i++) acc = Counter.bump(acc);
        return acc;
    }
}
"""

BROKEN_PROGRAM = "class Main { static int main() { return unknown; } }"

SPECS = [STRATEGY_CU, STRATEGY_HEAP_PATH]

#: zero-wait retry policy so recovery tests don't sleep through backoff
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)


def _workloads(n=2):
    return [Workload(name=f"wl{i}", source=PROGRAM) for i in range(n)]


def _canonical_json(sweep):
    return json.dumps(sweep.canonical(), sort_keys=True)


def _reference(tmp_path, workloads, specs=SPECS):
    """Fault-free serial run in its own cache dir (the identity baseline)."""
    config = SchedulerConfig(cache_dir=str(tmp_path / "ref-cache"),
                             max_workers=1)
    return SweepScheduler(config).run(workloads, specs, parallel=False)


class TestChaosPolicy:
    def test_schedule_is_deterministic(self):
        a = ChaosPolicy(seed=5, rate=0.5)
        b = ChaosPolicy(seed=5, rate=0.5)
        grid = [(f"wl{i}", s.name, k)
                for i in range(20) for s in SPECS for k in range(3)]
        assert [a.fault_for(*cell) for cell in grid] == \
               [b.fault_for(*cell) for cell in grid]

    def test_seed_changes_the_schedule(self):
        grid = [(f"wl{i}", "cu") for i in range(64)]
        a = ChaosPolicy(seed=1, rate=0.5)
        b = ChaosPolicy(seed=2, rate=0.5)
        assert [a.targeted(*c) for c in grid] != [b.targeted(*c) for c in grid]

    def test_rate_bounds(self):
        assert not any(ChaosPolicy(seed=3, rate=0.0).targeted(f"wl{i}", "cu")
                       for i in range(32))
        assert all(ChaosPolicy(seed=3, rate=1.0).targeted(f"wl{i}", "cu")
                   for i in range(32))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosPolicy(rate=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(rate=-0.1)
        with pytest.raises(ValueError):
            ChaosPolicy(classes=("worker_crash", "nope"))
        with pytest.raises(ValueError):
            ChaosPolicy(classes=())

    def test_faults_stop_after_faulty_attempts(self):
        policy = ChaosPolicy(seed=0, rate=1.0, faulty_attempts=2)
        assert policy.fault_for("wl0", "cu", 0) in ALL_CHAOS_CLASSES
        assert policy.fault_for("wl0", "cu", 1) in ALL_CHAOS_CLASSES
        assert policy.fault_for("wl0", "cu", 2) is None

    def test_persistent_faults_never_stop(self):
        policy = ChaosPolicy(seed=0, rate=1.0, persistent=True)
        assert all(policy.fault_for("wl0", "cu", k) is not None
                   for k in range(10))

    def test_single_class_policy_always_picks_it(self):
        policy = ChaosPolicy(seed=9, rate=1.0, classes=(CHAOS_HANG,))
        assert all(policy.fault_for(f"wl{i}", "cu", 0) == CHAOS_HANG
                   for i in range(16))

    def test_describe(self):
        text = ChaosPolicy(seed=4, rate=0.25).describe()
        assert "seed=4" in text and "25%" in text

    def test_stale_profile_in_universe_but_not_in_sweep_default(self):
        from repro.robustness.chaos import (
            CHAOS_CLASS_UNIVERSE,
            CHAOS_STALE_PROFILE,
        )

        # the sweep default stays unchanged: stale_profile targets the
        # PGO loop, not the scheduler, and must be requested explicitly
        assert CHAOS_STALE_PROFILE not in ALL_CHAOS_CLASSES
        assert CHAOS_STALE_PROFILE in CHAOS_CLASS_UNIVERSE
        assert set(ALL_CHAOS_CLASSES) < set(CHAOS_CLASS_UNIVERSE)

    def test_stale_profile_policy_validates_and_schedules(self):
        from repro.robustness.chaos import CHAOS_STALE_PROFILE

        policy = ChaosPolicy(seed=2, rate=1.0,
                             classes=(CHAOS_STALE_PROFILE,))
        assert policy.fault_for("Queens", "pgo:cu:epoch1",
                                0) == CHAOS_STALE_PROFILE


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        workload=st.text(alphabet="abcXYZ09", min_size=1, max_size=8),
        strategy=st.sampled_from(["cu", "heap path", "combined"]),
        attempt=st.integers(min_value=0, max_value=16),
        jitter=st.floats(min_value=0.0, max_value=1.0,
                         allow_nan=False, allow_infinity=False),
    )
    def test_backoff_deterministic_and_monotonically_capped(
            self, seed, workload, strategy, attempt, jitter):
        policy = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=2.0,
                             jitter=jitter)
        first = policy.backoff_s(seed, workload, strategy, attempt)
        # deterministic: same coordinates, same wait — across instances too
        assert first == policy.backoff_s(seed, workload, strategy, attempt)
        clone = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=2.0,
                            jitter=jitter)
        assert first == clone.backoff_s(seed, workload, strategy, attempt)
        # monotonically non-decreasing in attempt, and capped
        nxt = policy.backoff_s(seed, workload, strategy, attempt + 1)
        assert nxt >= first
        assert 0.0 <= first <= policy.backoff_cap_s

    def test_attempt_never_enters_seed_derivation(self):
        # task_seed is a function of (base_seed, workload) only: retried
        # attempts present identical inputs, so a surviving retry is
        # byte-identical to a first-try success.
        assert task_seed(1, "wl0") == task_seed(1, "wl0")
        import inspect

        from repro.eval import scheduler
        signature = inspect.signature(scheduler.task_seed)
        assert list(signature.parameters) == ["base_seed", "workload_name"]


class TestChaosCacheInjector:
    def test_transient_budget_then_clean(self):
        policy = ChaosPolicy(seed=1, rate=1.0)
        injector = ChaosCacheInjector(policy, "wl0", "cu", transient_ops=2)
        with pytest.raises(OSError):
            injector.before_io("get", "profile", "k1")
        with pytest.raises(OSError):
            injector.before_io("put", "profile", "k1")
        injector.before_io("get", "profile", "k1")  # budget spent: clean
        assert len(injector.injected) == 2

    def test_after_put_damages_payload(self, tmp_path):
        policy = ChaosPolicy(seed=1, rate=1.0)
        injector = ChaosCacheInjector(policy, "wl0", "cu", corrupt_puts=1)
        target = tmp_path / "artifact.pkl"
        original = bytes(range(256)) * 4
        target.write_bytes(original)
        injector.after_put("profile", "somekey", target)
        assert target.read_bytes() != original
        assert injector.injected
        # budget exhausted: the next put is untouched
        target.write_bytes(original)
        injector.after_put("profile", "somekey", target)
        assert target.read_bytes() == original


class TestInlineChaosRecovery:
    """Every fault class, inline scheduler, rate=1.0 — all must recover."""

    @pytest.mark.parametrize("fault", ALL_CHAOS_CLASSES)
    def test_recovers_and_stays_byte_identical(self, tmp_path, fault):
        workloads = _workloads(1)
        reference = _reference(tmp_path, workloads)
        policy = ChaosPolicy(seed=0, rate=1.0, classes=(fault,),
                             hang_s=0.05, stall_s=0.0, ballast_bytes=2048)
        config = SchedulerConfig(cache_dir=str(tmp_path / "chaos-cache"),
                                 max_workers=1, retry=FAST_RETRY,
                                 chaos=policy)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert sweep.ok, [t.error for t in sweep.errors]
        assert _canonical_json(sweep) == _canonical_json(reference)
        assert sweep.health.injected.get(fault, 0) >= 1
        assert len(sweep.quarantine) == 0

    def test_crash_is_retried(self, tmp_path):
        workloads = _workloads(1)
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_WORKER_CRASH,))
        config = SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                 max_workers=1, retry=FAST_RETRY,
                                 chaos=policy)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert sweep.ok
        assert sweep.health.retries == len(SPECS)
        # the surviving result came from the retry, with the seed untouched
        for task in sweep.tasks:
            assert task.attempt == 1
            assert task.seed == task_seed(config.base_seed, task.workload)

    def test_hang_trips_the_deadline_then_recovers(self, tmp_path):
        workloads = _workloads(1)
        reference = _reference(tmp_path, workloads)
        cache_dir = str(tmp_path / "cache")
        # Fill the cache fault-free first: the clean attempt then takes the
        # warm fast path, which fits the 50 ms deadline on a slow host
        # (recomputing after a hang is test_recovers_and_stays_byte_identical)
        SweepScheduler(SchedulerConfig(cache_dir=cache_dir, max_workers=1)
                       ).run(workloads, SPECS)
        policy = ChaosPolicy(seed=0, rate=1.0, classes=(CHAOS_HANG,),
                             hang_s=0.2)
        config = SchedulerConfig(cache_dir=cache_dir,
                                 max_workers=1, retry=FAST_RETRY,
                                 chaos=policy, task_deadline_s=0.05)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert sweep.ok
        assert sweep.health.hangs >= 1
        assert sweep.health.retries >= 1
        assert _canonical_json(sweep) == _canonical_json(reference)

    def test_oversized_ballast_is_stripped_and_accounted(self, tmp_path):
        workloads = _workloads(1)
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_OVERSIZED_RESULT,),
                             stall_s=0.0, ballast_bytes=4096)
        config = SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                 max_workers=1, retry=FAST_RETRY,
                                 chaos=policy)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert sweep.ok
        assert sweep.health.ballast_bytes == 4096 * len(SPECS)
        assert all(task.ballast == b"" for task in sweep.tasks)

    def test_cache_io_errors_are_absorbed(self, tmp_path):
        workloads = _workloads(1)
        reference = _reference(tmp_path, workloads)
        policy = ChaosPolicy(seed=0, rate=1.0, classes=(CHAOS_CACHE_IO,))
        config = SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                 max_workers=1, retry=FAST_RETRY,
                                 chaos=policy)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert sweep.ok
        assert sweep.health.cache_io_errors >= 1
        assert _canonical_json(sweep) == _canonical_json(reference)

    def test_corrupt_artifact_is_healed_on_read(self, tmp_path):
        workloads = _workloads(1)
        reference = _reference(tmp_path, workloads)
        # cache_ops=64: damage every put of the targeted attempt, so the
        # rot lands on artifacts later reads actually consult
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_CORRUPT_ARTIFACT,),
                             cache_ops=64)
        config = SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                 max_workers=1, retry=FAST_RETRY,
                                 chaos=policy)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert sweep.ok
        assert sweep.health.injected.get(CHAOS_CORRUPT_ARTIFACT, 0) >= 1
        assert _canonical_json(sweep) == _canonical_json(reference)
        # a fresh worker process re-reads the artifacts the chaos puts
        # left damaged: checksum mismatch -> evict -> recompute, and the
        # recomputed results are still byte-identical
        reset_worker_state()
        clean = SweepScheduler(
            SchedulerConfig(cache_dir=config.cache_dir, max_workers=1))
        healed = clean.run(workloads, SPECS)
        assert healed.ok
        assert healed.health.cache_healed >= 1
        assert _canonical_json(healed) == _canonical_json(reference)

    def test_persistent_hang_retries_then_quarantines(self, tmp_path):
        # the watchdog kills every attempt; the retry ladder runs out and
        # the cell is convicted as poison while the sweep completes
        workloads = _workloads(1)
        policy = ChaosPolicy(seed=0, rate=1.0, classes=(CHAOS_HANG,),
                             hang_s=0.1, persistent=True)
        config = SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=1,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                              jitter=0.0),
            chaos=policy, task_deadline_s=0.02)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert len(sweep.tasks) == len(SPECS)
        assert not sweep.ok
        assert sweep.health.hangs >= 2  # every attempt tripped the deadline
        assert sweep.health.retries == len(SPECS)
        assert len(sweep.health.poisoned) == len(SPECS)
        for task in sweep.tasks:
            assert "TaskHungError" in task.error
            assert sweep.quarantine.is_quarantined(task.workload,
                                                   task.strategy)

    def test_persistent_fault_ends_in_poison_quarantine(self, tmp_path):
        workloads = _workloads(1)
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_WORKER_CRASH,), persistent=True)
        config = SchedulerConfig(
            cache_dir=str(tmp_path / "cache"), max_workers=1,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                              jitter=0.0),
            chaos=policy)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        # the sweep completes; the poison cells are convicted, not fatal
        assert len(sweep.tasks) == len(SPECS)
        assert not sweep.ok
        assert len(sweep.health.poisoned) == len(SPECS)
        for task in sweep.tasks:
            assert task.quarantined
            assert "poison task" in task.quarantine_reason
            assert sweep.quarantine.is_quarantined(task.workload,
                                                   task.strategy)

    def test_no_retry_policy_fails_without_quarantine(self, tmp_path):
        # chaos without a retry policy: single attempt, error recorded,
        # but nothing is convicted as poison (matches the scheduler's
        # longstanding isolated-error behavior)
        workloads = _workloads(1)
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_WORKER_CRASH,))
        config = SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                 max_workers=1, chaos=policy)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert not sweep.ok
        assert all(not task.quarantined for task in sweep.tasks)
        assert len(sweep.quarantine) == 0


class TestPoolChaosRecovery:
    """Real worker-process deaths: BrokenProcessPool respawn + requeue."""

    def test_broken_pool_respawns_and_requeues(self, tmp_path):
        workloads = _workloads(1)
        reference = _reference(tmp_path, workloads)
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_WORKER_CRASH,))
        config = SchedulerConfig(cache_dir=str(tmp_path / "chaos-cache"),
                                 max_workers=2, retry=FAST_RETRY,
                                 chaos=policy, pool_break_limit=10)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        assert sweep.ok, [t.error for t in sweep.errors]
        assert sweep.health.pool_breaks >= 1
        assert sweep.health.requeues >= 1
        assert not sweep.health.serial_fallback
        assert _canonical_json(sweep) == _canonical_json(reference)

    def test_persistent_crashes_degrade_to_serial(self, tmp_path):
        workloads = _workloads(1)
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_WORKER_CRASH,), persistent=True)
        config = SchedulerConfig(
            cache_dir=str(tmp_path / "chaos-cache"), max_workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                              jitter=0.0),
            chaos=policy, pool_break_limit=1)
        sweep = SweepScheduler(config).run(workloads, SPECS)
        # pool broke past the limit -> serial fallback rung; inline
        # execution then convicts the poison cells and completes
        assert len(sweep.tasks) == len(SPECS)
        assert sweep.health.serial_fallback
        assert sweep.degradation.degraded
        assert any("serial" in reason
                   for reason in sweep.degradation.reasons)
        assert len(sweep.health.poisoned) == len(SPECS)
        assert len(sweep.quarantine) == len(SPECS)

    def test_pool_and_inline_account_every_attempt_once(self, tmp_path):
        # A permanently broken cell and two persistently hanging ones (at
        # seed 0 and rate 0.5 the schedule targets wl0/cu and wl1/cu,
        # not bad/cu): every attempt fails, and each is folded into the
        # parent once, whichever process ran it.
        from repro.obs import get_registry

        workloads = [Workload(name="bad", source=BROKEN_PROGRAM)]
        workloads += _workloads(2)
        policy = ChaosPolicy(seed=0, rate=0.5, classes=(CHAOS_HANG,),
                             hang_s=0.05, persistent=True)
        seen = {}
        for workers in (1, 2):
            config = SchedulerConfig(
                cache_dir=str(tmp_path / f"cache-{workers}"),
                max_workers=workers, chaos=policy,
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                                  jitter=0.0))
            before = get_registry().snapshot()
            sweep = SweepScheduler(config).run(workloads, [STRATEGY_CU],
                                               parallel=workers > 1)
            delta = get_registry().snapshot().diff(before)
            assert len(sweep.health.poisoned) == 3
            seen[workers] = (sweep.health.injected, {
                name: value for name, value in delta.counters.items()
                if name.startswith(("sched.tasks.", "sweep.tasks."))})
        assert seen[1][0] == {CHAOS_HANG: 4}
        assert seen[1][1]["sched.tasks.failed"] == 6
        assert seen[2] == seen[1]


class TestRunChaos:
    def test_end_to_end_identity(self, tmp_path):
        workloads = _workloads(1)
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_OVERSIZED_RESULT,),
                             stall_s=0.0, ballast_bytes=1024)
        outcome = run_chaos(
            workloads, SPECS, policy=policy,
            config=SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                   max_workers=1),
            retry=FAST_RETRY)
        assert outcome.ok
        assert outcome.identity_ok
        assert outcome.checked == len(SPECS)
        assert outcome.surviving and not outcome.failed
        payload = outcome.as_dict()
        assert payload["ok"] and payload["identity"]["ok"]
        assert payload["policy"]["seed"] == 0
        assert payload["health"]["injected"] == {
            CHAOS_OVERSIZED_RESULT: len(SPECS)}
        assert "identity: OK" in outcome.describe()

    def test_unrecoverable_mode_reports_quarantine(self, tmp_path):
        workloads = _workloads(1)
        policy = ChaosPolicy(seed=0, rate=1.0,
                             classes=(CHAOS_WORKER_CRASH,), persistent=True)
        outcome = run_chaos(
            workloads, SPECS, policy=policy,
            config=SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                   max_workers=1),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                              jitter=0.0))
        assert not outcome.ok
        assert outcome.identity_ok  # nothing survived wrongly
        assert len(outcome.quarantined) == len(SPECS)
        assert outcome.as_dict()["quarantined"] == outcome.quarantined
        assert "quarantined" in outcome.describe()

    def test_divergence_is_detected(self, tmp_path):
        # feed a doctored reference: the identity check must flag it
        workloads = _workloads(1)
        outcome = run_chaos(
            workloads, SPECS, policy=ChaosPolicy(seed=0, rate=0.0),
            config=SchedulerConfig(cache_dir=str(tmp_path / "cache"),
                                   max_workers=1))
        assert outcome.identity_ok
        doctored = dict(outcome.reference)
        key = next(iter(doctored))
        doctored[key] = doctored[key].replace(":", ": ", 1)
        bad = ChaosOutcome(policy=outcome.policy, sweep=outcome.sweep,
                           reference=doctored)
        check_identity(bad)
        assert key in bad.divergent
        assert not bad.identity_ok
        assert not bad.ok
