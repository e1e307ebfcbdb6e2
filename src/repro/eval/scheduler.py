"""Parallel evaluation scheduler: the workload × strategy matrix on N cores.

The paper's evaluation sweeps 14 AWFY benchmarks plus 3 microservice
frameworks across six ordering strategies; re-running that serially from
scratch repeats an enormous amount of shared work (every strategy of a
workload shares its compile, baseline build, and profiling run).  This
module fans the matrix out across a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping three invariants:

* **Determinism** — each task's seed is a pure function of (base seed,
  workload name, strategy name), so results are byte-identical regardless
  of worker count, task order, or which worker ran what.  ``parallel=False``
  runs the same tasks inline for differential testing.
* **Artifact sharing** — each worker process keeps one
  :class:`WorkloadPipeline` per workload (compile once, baseline once,
  profile once) and all workers share one content-addressed
  :class:`~repro.cache.ArtifactCache` on disk, so cross-process repeats are
  loads, not rebuilds.  A program's other cells are submitted only once
  an attempt of its first cell has come back, so two workers never race
  to compute the same shared work.
* **The verification rung survives** — pipelines run with whatever
  :class:`VerificationPolicy` the scheduler was configured with; watchdog
  budgets are reused across every task a worker executes, and per-task
  quarantine convictions travel back in the :class:`TaskResult` and are
  merged into the sweep-level registry.
* **Failure is survivable** — with a :class:`RetryPolicy` armed, failed
  tasks are retried with capped exponential backoff and deterministic
  jitter (the retried attempt reuses the *same* seed, so a surviving
  retry is byte-identical to a first-try success); a hung task trips the
  per-task deadline (the :mod:`repro.validation.watchdog` pattern inside
  the worker) and is retried; a dead worker breaks the pool, which is
  respawned with every in-flight task requeued; a task that keeps failing
  is convicted as *poison* and quarantined through the PR-2 rung so the
  sweep continues; and repeated pool breakage degrades the whole sweep to
  serial inline execution.  Every recovery decision is accounted in a
  typed :class:`SweepHealthReport`.  A :class:`ChaosPolicy` injects all
  of those failures on a reproducible schedule — see
  :mod:`repro.robustness.chaos`.

Typical use::

    from repro.eval.scheduler import SchedulerConfig, SweepScheduler

    scheduler = SweepScheduler(SchedulerConfig(cache_dir=".repro-cache"))
    sweep = scheduler.run(awfy_suite().values(), ALL_STRATEGY_SPECS)
    print(sweep.summary())
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..cache import ArtifactCache
from ..obs import MetricsSnapshot, get_event_log, get_registry
from ..robustness.chaos import (
    CHAOS_CACHE_IO,
    CHAOS_CORRUPT_ARTIFACT,
    CHAOS_CRASH_EXIT,
    CHAOS_HANG,
    CHAOS_OVERSIZED_RESULT,
    CHAOS_WORKER_CRASH,
    ChaosCacheInjector,
    ChaosPolicy,
    SimulatedWorkerCrash,
)
from ..robustness.degradation import DegradationReport
from ..runtime.executor import RunMetrics
from ..util.murmur3 import murmur3_64
from ..util.stats import ratio_factor
from ..validation.oracle import VerificationPolicy
from ..validation.quarantine import QuarantineRegistry
from ..validation.watchdog import call_with_deadline
from .pipeline import (
    ALL_STRATEGY_SPECS,
    StrategySpec,
    Workload,
    WorkloadPipeline,
    metric_for_strategy,
    strategy_spec,
)


def task_seed(base_seed: int, workload_name: str) -> int:
    """Deterministic per-workload seed, independent of scheduling order.

    Derived by hashing the workload name under ``base_seed``, so any two
    runs of the same matrix — serial, parallel, or resumed from cache —
    agree exactly.  The seed is deliberately *not* strategy-dependent:
    every strategy of a workload then presents identical inputs for the
    strategy-independent stages (compile, baseline build, profiling run),
    and the content-addressed cache dedupes them — six strategies cost one
    profile run, exactly like :meth:`NativeImageToolchain.profile` followed
    by six ``build_optimized`` calls.
    """
    material = workload_name.encode("utf-8")
    return (base_seed + (murmur3_64(material, seed=base_seed) % 1009)) & 0x7FFFFFFF


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry with capped exponential backoff + deterministic jitter.

    The backoff schedule is a pure function of (task seed, cell, attempt):
    the same failing cell waits the same amount in every run — chaos
    schedules replay exactly — yet different cells de-synchronize because
    the jitter fraction is hash-derived per cell.  With ``jitter`` ≤ 1 the
    schedule is provably non-decreasing in ``attempt`` (the ×2 step always
    dominates the ≤ ×(1+jitter) jitter swing) and clamped at
    ``backoff_cap_s``.

    Retried attempts reuse the task's original seed untouched — a retry
    that survives is byte-identical to a first-try success.  A task that
    fails ``max_attempts`` times is convicted as *poison* and quarantined
    so the sweep continues without it.
    """

    #: total attempts per task (1 = no retries)
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: relative jitter amplitude in [0, 1]
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, seed: int, workload: str, strategy: str,
                  attempt: int) -> float:
        """Wait before re-running ``attempt + 1`` (attempt is 0-based)."""
        material = f"{workload}\x1f{strategy}\x1f{attempt}".encode("utf-8")
        frac = (murmur3_64(material, seed=seed & 0xFFFFFFFF)
                % (1 << 24)) / float(1 << 24)
        raw = self.backoff_base_s * (2 ** attempt) * (1.0 + self.jitter * frac)
        return min(raw, self.backoff_cap_s)


@dataclass(frozen=True)
class SchedulerConfig:
    """Everything a worker needs to evaluate tasks (picklable by design)."""

    verification: Optional[VerificationPolicy] = None
    #: cache directory shared by all workers; None = run uncached
    cache_dir: Optional[str] = None
    #: worker processes; 0 = one per core, 1 = inline (no pool)
    max_workers: int = 0
    #: cold-cache measurement runs per binary
    iterations: int = 1
    base_seed: int = 1
    #: retry/backoff policy; None = one attempt per task, never quarantine
    retry: Optional[RetryPolicy] = None
    #: fault-injection schedule (tests, CI chaos smoke); None = run clean
    chaos: Optional[ChaosPolicy] = None
    #: per-task wall-clock ceiling enforced inside the worker (the
    #: :func:`repro.validation.watchdog.call_with_deadline` pattern);
    #: None = unbounded.  A tripped deadline fails the attempt, which the
    #: retry policy then handles like any other failure.
    task_deadline_s: Optional[float] = None
    #: pool breakages tolerated before the sweep degrades to serial
    pool_break_limit: int = 3

    def resolved_workers(self) -> int:
        if self.max_workers > 0:
            return self.max_workers
        return max(os.cpu_count() or 1, 1)


@dataclass(frozen=True)
class EvalTask:
    """One (workload, strategy) cell of the evaluation matrix."""

    workload: Workload
    strategy_name: str
    seed: int
    iterations: int = 1

    @property
    def cell(self) -> str:
        """``workload/strategy``: the ``task`` id its records carry."""
        return f"{self.workload.name}/{self.strategy_name}"


@dataclass
class TaskResult:
    """What one matrix cell produced (plain data, cheap to pickle).

    ``baseline``/``optimized`` are canonical per-run metric dicts (faults
    by section, simulated time, op counts) — everything downstream
    consumers and the bench JSON need, none of the heavyweight run state.
    ``error`` carries a formatted exception when the task failed; the
    scheduler never lets one bad cell sink the sweep.

    ``metrics`` is the delta of the metrics registry across this attempt
    and ``events`` the run records it logged (phase spans, the ``task``
    span, chaos injections, degradation notes).  When a pool worker ran
    the attempt, the scheduler folds both into the parent process once,
    on receipt; an inline attempt recorded into the parent directly.
    Both are excluded from :meth:`canonical`, since the operational plane
    legitimately varies with scheduling.
    """

    workload: str
    strategy: str
    seed: int
    baseline: List[Dict[str, float]] = field(default_factory=list)
    optimized: List[Dict[str, float]] = field(default_factory=list)
    fault_factor: float = 1.0
    speedup: float = 1.0
    degraded: bool = False
    quarantined: bool = False
    quarantine_reason: str = ""
    wall_s: float = 0.0
    error: Optional[str] = None
    metrics: Optional[MetricsSnapshot] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: which attempt produced this result (0 = first try); excluded from
    #: :meth:`canonical` — a surviving retry must be byte-identical to a
    #: first-try success
    attempt: int = 0
    #: chaos class that failed this attempt, when one did ("" = real error
    #: or success)
    error_kind: str = ""
    #: IPC ballast attached by an ``oversized_result`` fault; the scheduler
    #: strips it on receipt and accounts the bytes in the health report
    ballast: bytes = b""

    @property
    def ok(self) -> bool:
        return self.error is None

    def canonical(self) -> Dict[str, Any]:
        """Deterministic view: everything except host wall-clock.

        Two sweeps of the same matrix must agree on this dict byte-for-byte
        (the determinism tests compare its JSON serialization); ``wall_s``,
        the metrics delta and records, and retry bookkeeping (``attempt``,
        ``error_kind``, ``ballast``) legitimately differ run to run and are
        excluded.
        """
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "seed": self.seed,
            "baseline": self.baseline,
            "optimized": self.optimized,
            "fault_factor": self.fault_factor,
            "speedup": self.speedup,
            "degraded": self.degraded,
            "quarantined": self.quarantined,
            "error": self.error,
        }


def _metric_dict(metrics: RunMetrics, spec: StrategySpec,
                 microservice: bool) -> Dict[str, float]:
    out = metric_for_strategy(metrics, spec, microservice)
    out["ops"] = float(metrics.ops)
    out["total_faults"] = float(metrics.total_faults)
    return out


# -- worker side ---------------------------------------------------------------

#: per-process pipeline registry: workload name -> pipeline.  Reusing the
#: pipeline reuses the compiled program, the watchdog budgets, and the
#: in-memory quarantine registry across every task the worker executes.
_WORKER_PIPELINES: Dict[Tuple[str, Optional[str], int], WorkloadPipeline] = {}
_WORKER_CACHE: Optional[ArtifactCache] = None


def _worker_cache(config: SchedulerConfig) -> Optional[ArtifactCache]:
    global _WORKER_CACHE
    if config.cache_dir is None:
        return None
    if _WORKER_CACHE is None or str(_WORKER_CACHE.root) != config.cache_dir:
        _WORKER_CACHE = ArtifactCache(Path(config.cache_dir))
    return _WORKER_CACHE


def reset_worker_state() -> None:
    """Drop the process-local pipeline/cache memos.

    Inline runs reuse compiled pipelines and the cache's in-memory LRU
    across sweeps in the same process; call this to simulate a brand-new
    worker process — every artifact then comes back through the disk
    cache and its checksum verification (the cold-cost bench reference
    and the cache-healing tests rely on exactly that)."""
    global _WORKER_CACHE
    _WORKER_PIPELINES.clear()
    _WORKER_CACHE = None


def _worker_pipeline(workload: Workload,
                     config: SchedulerConfig) -> WorkloadPipeline:
    key = (workload.name, config.cache_dir, id(config.verification))
    pipeline = _WORKER_PIPELINES.get(key)
    if pipeline is None:
        pipeline = WorkloadPipeline(
            workload,
            verification=config.verification,
            cache=_worker_cache(config),
        )
        _WORKER_PIPELINES[key] = pipeline
    return pipeline


def run_task(task: EvalTask, config: SchedulerConfig, attempt: int = 0,
             allow_hard_crash: bool = False) -> TaskResult:
    """Evaluate one matrix cell; never raises (errors land in ``.error``).

    Runs the same stages as :meth:`WorkloadPipeline.run_strategy` on a
    worker-local pipeline: baseline build, profiling, optimized build
    (through the degradation + verification rungs), and cold-cache
    measurement of both binaries.

    ``attempt`` is retry bookkeeping only: it selects which chaos fault
    (if any) fires and travels back in the result, but deliberately never
    enters seed derivation or the task body — ``task.seed`` is the same
    frozen value on every attempt, so a retried task is bit-identical to a
    first-try success.  ``allow_hard_crash`` gates the one fault that must
    not fire inline: a chaos ``worker_crash`` calls ``os._exit`` (really
    killing the pool worker) when allowed, and degrades to an error result
    named :class:`SimulatedWorkerCrash` otherwise.

    Observability: the attempt is one ``task`` span; everything recorded
    in the process-wide registry and event log while it ran (its
    ``sched.tasks.dispatched`` count included) travels back as a metrics
    delta plus records, and the deterministic ``sweep.*`` counters are
    derived from the canonical result so serial and parallel schedulers
    agree on them exactly.
    """
    chaos = config.chaos
    fault = (chaos.fault_for(task.workload.name, task.strategy_name, attempt)
             if chaos is not None else None)
    if fault == CHAOS_WORKER_CRASH and allow_hard_crash:
        # Die hard, mid-task, before any result can be shipped.  This
        # breaks the whole ProcessPoolExecutor — exactly the failure the
        # scheduler's respawn + requeue path exists for.  The parent
        # records the injection (it can recompute the schedule); nothing
        # recorded here would survive the exit anyway.
        os._exit(CHAOS_CRASH_EXIT)
    registry = get_registry()
    log = get_event_log()
    metrics_before = registry.snapshot()
    event_mark = log.mark()
    registry.counter("sched.tasks.dispatched")
    result = TaskResult(workload=task.workload.name,
                        strategy=task.strategy_name, seed=task.seed,
                        attempt=attempt)
    start = time.perf_counter()
    with log.context(task=task.cell), \
            log.span("task", seed=task.seed, attempt=attempt):
        # A hard worker_crash never reaches this line (os._exit above);
        # a crash fault here is the inline simulated variant, so recording
        # it worker-side never double-counts the parent's submit-time entry.
        if fault is not None:
            registry.counter(f"chaos.injected.{fault}")
            log.emit("chaos.inject", fault=fault, attempt=attempt)
        _run_task_attempt(result, task, config, fault)
    registry.counter(
        "sched.tasks.completed" if result.ok else "sched.tasks.failed"
    )
    _record_sweep_counters(registry, result)
    result.wall_s = time.perf_counter() - start
    result.metrics = registry.snapshot().diff(metrics_before)
    result.events = log.events_since(event_mark)
    return result


def _run_task_attempt(result: TaskResult, task: EvalTask,
                      config: SchedulerConfig,
                      fault: Optional[str]) -> None:
    """One attempt: chaos staging around the (possibly deadlined) body."""
    chaos = config.chaos
    if fault == CHAOS_WORKER_CRASH:
        # Inline stand-in for the process dying (serial fallback, tests):
        # the attempt fails the same way, minus the real os._exit.
        result.error = (f"{SimulatedWorkerCrash.__name__}: chaos killed the "
                        f"worker during {result.workload}/{result.strategy}")
        result.error_kind = fault
        return
    if fault == CHAOS_HANG:
        # The worker wedges instead of running the task body (so no
        # abandoned thread ever races the worker-shared pipeline state).
        # The deadline guard trips and the attempt fails cleanly; without
        # a configured deadline the hang simply costs its full duration.
        deadline = min(config.task_deadline_s or chaos.hang_s, chaos.hang_s)
        call_with_deadline(lambda: time.sleep(chaos.hang_s), deadline)
        result.error = (f"TaskHungError: task still running after "
                        f"{deadline:g}s; killed by the sweep deadline")
        result.error_kind = fault
        return

    cache = _worker_cache(config)
    injector = None
    if cache is not None and fault in (CHAOS_CACHE_IO, CHAOS_CORRUPT_ARTIFACT):
        injector = ChaosCacheInjector(
            chaos, result.workload, result.strategy,
            transient_ops=chaos.cache_ops if fault == CHAOS_CACHE_IO else 0,
            corrupt_puts=(chaos.cache_ops
                          if fault == CHAOS_CORRUPT_ARTIFACT else 0),
        )
        cache.fault_injector = injector
    try:
        if config.task_deadline_s is not None:
            finished, _ = call_with_deadline(
                lambda: _run_task_body(result, task, config),
                config.task_deadline_s)
            if not finished:
                # The body thread was abandoned mid-flight; report on a
                # fresh result object so nothing it still mutates leaks
                # into what we ship back.
                hung = TaskResult(workload=result.workload,
                                  strategy=result.strategy, seed=result.seed,
                                  attempt=result.attempt)
                hung.error = (f"TaskHungError: task still running after "
                              f"{config.task_deadline_s:g}s; killed by the "
                              f"sweep deadline")
                hung.error_kind = CHAOS_HANG
                result.__dict__.update(hung.__dict__)
        else:
            _run_task_body(result, task, config)
    finally:
        if injector is not None:
            cache.fault_injector = None
    if fault == CHAOS_OVERSIZED_RESULT and result.ok:
        time.sleep(chaos.stall_s)
        result.ballast = b"\x00" * chaos.ballast_bytes


def _record_sweep_counters(registry, result: TaskResult) -> None:
    """The deterministic metric plane: derived only from canonical data.

    Everything here is a pure function of :meth:`TaskResult.canonical`,
    which is byte-identical across serial and parallel runs of the same
    matrix — so the merged ``sweep.*`` counters are too (the determinism
    test in ``tests/test_scheduler_bench.py`` holds the line).
    """
    registry.counter("sweep.tasks.completed" if result.ok
                     else "sweep.tasks.errors")
    if result.degraded:
        registry.counter("sweep.tasks.degraded")
    if result.quarantined:
        registry.counter("sweep.tasks.quarantined")
    registry.counter("sweep.runs.baseline", len(result.baseline))
    registry.counter("sweep.runs.optimized", len(result.optimized))
    registry.counter("sweep.faults.baseline",
                     int(sum(m["faults"] for m in result.baseline)))
    registry.counter("sweep.faults.optimized",
                     int(sum(m["faults"] for m in result.optimized)))
    registry.counter("sweep.ops",
                     int(sum(m["ops"]
                             for m in result.baseline + result.optimized)))


def _run_task_body(result: TaskResult, task: EvalTask,
                   config: SchedulerConfig) -> None:
    try:
        spec = strategy_spec(task.strategy_name)
        pipeline = _worker_pipeline(task.workload, config)
        pipeline.last_degradation_report = None  # this task's decisions only
        fast = pipeline.cached_strategy_runs(spec, seed=task.seed,
                                             iterations=task.iterations)
        if fast is not None:
            base_runs, opt_runs = fast
        else:
            baseline = pipeline.build_baseline(seed=task.seed)
            outcome = pipeline.profile(seed=task.seed)
            optimized = pipeline.build_optimized(outcome.profiles, spec,
                                                 seed=task.seed)
            base_runs = pipeline.measure(baseline, task.iterations,
                                         seed=task.seed)
            opt_runs = pipeline.measure(optimized, task.iterations,
                                        seed=task.seed)

        micro = task.workload.microservice
        result.baseline = [_metric_dict(m, spec, micro) for m in base_runs]
        result.optimized = [_metric_dict(m, spec, micro) for m in opt_runs]
        base_faults = sum(m["faults"] for m in result.baseline)
        opt_faults = sum(m["faults"] for m in result.optimized)
        base_time = sum(m["time_s"] for m in result.baseline)
        opt_time = sum(m["time_s"] for m in result.optimized)
        result.fault_factor = ratio_factor(base_faults, opt_faults)
        result.speedup = base_time / opt_time if opt_time else 1.0

        report = pipeline.last_degradation_report
        if report is not None and report.degraded:
            result.degraded = True
        entry = pipeline.quarantine.entry_for(task.workload.name,
                                              spec.name)
        if entry is not None:
            result.quarantined = True
            result.quarantine_reason = entry.reason
    except Exception as exc:  # one bad cell must not sink the sweep
        result.error = f"{type(exc).__name__}: {exc}"


def _run_task_tuple(
    payload: Tuple[EvalTask, SchedulerConfig, int, bool]
) -> TaskResult:
    task, config, attempt, allow_hard_crash = payload
    return run_task(task, config, attempt=attempt,
                    allow_hard_crash=allow_hard_crash)


# -- sweep side ---------------------------------------------------------------


@dataclass
class SweepHealthReport:
    """Typed account of every recovery decision one sweep made.

    All zeros on a healthy run.  ``wasted_wall_s`` is the wall-clock spent
    on attempts whose results were thrown away (failed attempts) plus the
    scheduled backoff waits — the price of surviving the faults, which the
    chaos bench phase reports as overhead against a fault-free run.
    """

    #: attempts re-run because the previous attempt failed
    retries: int = 0
    #: tasks resubmitted because the pool broke while they were in flight
    requeues: int = 0
    #: times the worker pool broke (a worker died) and was respawned
    pool_breaks: int = 0
    #: attempts killed by the per-task deadline
    hangs: int = 0
    #: cells convicted as poison (failed every attempt) and quarantined
    poisoned: List[str] = field(default_factory=list)
    #: chaos fault classes actually injected, by class name
    injected: Dict[str, int] = field(default_factory=dict)
    #: cache entries healed (checksum mismatch / undecodable → evicted)
    cache_healed: int = 0
    #: transient cache I/O errors absorbed as misses / skipped writes
    cache_io_errors: int = 0
    #: total backoff wait the retry policy scheduled
    backoff_wait_s: float = 0.0
    #: wall-clock burned on failed attempts + backoff waits
    wasted_wall_s: float = 0.0
    #: IPC ballast stripped from oversized results
    ballast_bytes: int = 0
    #: the sweep hit ``pool_break_limit`` and degraded to serial execution
    serial_fallback: bool = False

    @property
    def healthy(self) -> bool:
        return (not self.retries and not self.requeues
                and not self.pool_breaks and not self.poisoned
                and not self.serial_fallback)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "retries": self.retries,
            "requeues": self.requeues,
            "pool_breaks": self.pool_breaks,
            "hangs": self.hangs,
            "poisoned": list(self.poisoned),
            "injected": dict(sorted(self.injected.items())),
            "cache_healed": self.cache_healed,
            "cache_io_errors": self.cache_io_errors,
            "backoff_wait_s": round(self.backoff_wait_s, 6),
            "wasted_wall_s": round(self.wasted_wall_s, 6),
            "ballast_bytes": self.ballast_bytes,
            "serial_fallback": self.serial_fallback,
            "healthy": self.healthy,
        }

    def describe(self) -> str:
        if self.healthy and not self.injected:
            return "sweep health: clean (no faults, no recoveries)"
        parts = [
            f"{self.retries} retried", f"{self.requeues} requeued",
            f"{self.pool_breaks} pool break(s)", f"{self.hangs} hang(s)",
            f"{len(self.poisoned)} poisoned",
            f"{self.cache_healed} cache heal(s)",
            f"{self.cache_io_errors} I/O error(s) absorbed",
            f"{self.wasted_wall_s:.2f}s wasted",
        ]
        if self.injected:
            injected = ", ".join(f"{k}×{v}"
                                 for k, v in sorted(self.injected.items()))
            parts.append(f"injected [{injected}]")
        if self.serial_fallback:
            parts.append("DEGRADED to serial")
        text = "sweep health: " + ", ".join(parts)
        for cell in self.poisoned:
            text += f"\n  poisoned: {cell}"
        return text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclass
class SweepResult:
    """Aggregate of one scheduler run over the whole matrix."""

    tasks: List[TaskResult] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    quarantine: QuarantineRegistry = field(default_factory=QuarantineRegistry)
    #: merged per-task metric deltas (all workers); the ``sweep.*`` plane
    #: of this snapshot is identical for serial and parallel runs
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: every recovery decision this sweep made (all zeros when healthy)
    health: SweepHealthReport = field(default_factory=SweepHealthReport)
    #: sweep-level degradation rung (serial fallback lands here, next to
    #: the per-build rungs of :class:`DegradationReport`)
    degradation: DegradationReport = field(
        default_factory=lambda: DegradationReport(workload="<sweep>"))

    @property
    def ok(self) -> bool:
        return all(task.ok for task in self.tasks)

    @property
    def errors(self) -> List[TaskResult]:
        return [task for task in self.tasks if not task.ok]

    @property
    def cache_hits(self) -> int:
        """Artifact-cache hits of the final attempts (all workers)."""
        return self.metrics.total("cache.hit.")

    @property
    def cache_misses(self) -> int:
        """Artifact-cache misses of the final attempts (all workers)."""
        return self.metrics.total("cache.miss.")

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_ops(self) -> float:
        return sum(m["ops"] for task in self.tasks
                   for m in task.baseline + task.optimized)

    def canonical(self) -> List[Dict[str, Any]]:
        """Order- and timing-independent view of every task result."""
        return [task.canonical()
                for task in sorted(self.tasks,
                                   key=lambda t: (t.workload, t.strategy))]

    def summary(self) -> str:
        lines = [
            f"{len(self.tasks)} task(s) on {self.workers} worker(s) "
            f"in {self.wall_s:.2f}s"
        ]
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
                f"({self.cache_hit_rate:.0%})"
            )
        for task in self.errors:
            lines.append(f"FAILED {task.workload}/{task.strategy}: {task.error}")
        if len(self.quarantine):
            lines.append(self.quarantine.describe())
        if not self.health.healthy or self.health.injected:
            lines.append(self.health.describe())
        return "\n".join(lines)


class SweepScheduler:
    """Fans the workload × strategy matrix out across worker processes.

    ``config.max_workers`` = 1 (or ``parallel=False`` on :meth:`run`)
    executes the identical task list inline — same seeds, same pipelines,
    same cache — which is both the degraded mode for single-core machines
    and the reference the determinism tests compare the pool against.
    """

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()

    def build_tasks(self, workloads: Iterable[Workload],
                    strategies: Sequence[StrategySpec]) -> List[EvalTask]:
        """The deterministic task list (workload-major, strategy-minor)."""
        tasks = []
        for workload in workloads:
            for spec in strategies:
                strategy_spec(spec.name)
                tasks.append(EvalTask(
                    workload=workload,
                    strategy_name=spec.name,
                    seed=task_seed(self.config.base_seed, workload.name),
                    iterations=self.config.iterations,
                ))
        return tasks

    def run(self, workloads: Iterable[Workload],
            strategies: Sequence[StrategySpec] = ALL_STRATEGY_SPECS,
            parallel: bool = True) -> SweepResult:
        """Evaluate the full matrix; returns the aggregated sweep.

        Never raises for per-task failures (see :attr:`TaskResult.error`);
        raises :class:`KeyError` for strategies the scheduler does not
        know, before any work starts.  With a :class:`RetryPolicy` armed
        the sweep additionally survives worker deaths (pool respawn +
        requeue), hung tasks (deadline trip + retry), and poison tasks
        (quarantine); the price of every recovery is accounted in
        :attr:`SweepResult.health`.
        """
        tasks = self.build_tasks(workloads, strategies)
        workers = self.config.resolved_workers() if parallel else 1
        workers = min(workers, max(len(tasks), 1))
        sweep = SweepResult(workers=workers)
        registry = get_registry()
        health_before = registry.snapshot()
        start = time.perf_counter()
        with get_event_log().span("sweep", tasks=len(tasks),
                                  workers=workers):
            state = _SweepRun(tasks, self.config, sweep)
            if workers <= 1:
                state.run_serial(range(len(tasks)))
            else:
                state.run_pool(workers)
            results = state.finish()
        sweep.tasks = results
        sweep.wall_s = time.perf_counter() - start
        # Every attempt's observability is already in this process: inline
        # attempts recorded here directly and pool attempts were folded in
        # on receipt.  The sweep-local snapshot sums the final results.
        for task in results:
            if task.metrics is not None:
                sweep.metrics.merge(task.metrics)
            if task.quarantined:
                sweep.quarantine.quarantine(task.workload, task.strategy,
                                            task.quarantine_reason)
        # Injection and self-healing counters for the health report come
        # from the parent registry delta across the whole sweep, failed
        # attempts included.
        delta = registry.snapshot().diff(health_before)
        for name, value in delta.counters.items():
            if name.startswith("chaos.injected."):
                fault = name[len("chaos.injected."):]
                sweep.health.injected[fault] = (
                    sweep.health.injected.get(fault, 0) + value)
        sweep.health.cache_healed = delta.total("cache.heal.")
        sweep.health.cache_io_errors = delta.total("cache.io_error.")
        return sweep


class _SweepRun:
    """One sweep execution: retry/requeue state shared by both modes.

    Tracks, per matrix cell: the next attempt number (bumped by failures
    *and* by pool-break requeues — chaos faults fire per attempt, so a
    requeued innocent is not re-injured), the count of genuine failed
    attempts (only these feed the poison conviction), and the final
    result.  The same receive logic serves the pool loop, the inline
    loop, and the serial-fallback rung, so recovery semantics cannot
    drift between modes.
    """

    def __init__(self, tasks: List[EvalTask], config: SchedulerConfig,
                 sweep: SweepResult) -> None:
        self.tasks = tasks
        self.config = config
        self.sweep = sweep
        self.health = sweep.health
        self.registry = get_registry()
        self.log = get_event_log()
        n = len(tasks)
        self.final: List[Optional[TaskResult]] = [None] * n
        #: next attempt number per cell (0-based)
        self.attempts = [0] * n
        #: failed-attempt count per cell (pool-break requeues excluded)
        self.failures = [0] * n
        #: a program's first cell -> its other cells, held back until an
        #: attempt of the first cell comes back: by then its compile,
        #: baseline build and profile are in the cache, so no two workers
        #: repeat them
        self.held: Dict[int, List[int]] = {}
        #: cells the pool may submit now, in submission order
        self.released: List[int] = []
        first: Dict[str, int] = {}
        for index, task in enumerate(tasks):
            lead = first.setdefault(task.workload.name, index)
            if lead == index:
                self.released.append(index)
            else:
                self.held.setdefault(lead, []).append(index)

    @property
    def max_attempts(self) -> int:
        retry = self.config.retry
        return retry.max_attempts if retry is not None else 1

    def receive(self, index: int, result: TaskResult,
                shipped: bool = False) -> float:
        """Fold one attempt's result in; returns the backoff delay before
        the next attempt (0 when the cell is finished).

        An attempt of a program's first cell, whatever its outcome,
        releases the program's held cells.  Every attempt passes through
        here — success, failure, a harvest after a pool break and the
        serial fallback — so no held cell is stranded.

        ``shipped`` marks an attempt a pool worker ran: its metrics delta
        and records are folded into this process here, once per attempt,
        whether it failed or not.  An inline attempt already recorded
        here directly.
        """
        task = self.tasks[index]
        self.released.extend(self.held.pop(index, ()))
        if result.ballast:
            self.health.ballast_bytes += len(result.ballast)
            result.ballast = b""
        if shipped:
            if result.metrics is not None:
                self.registry.merge_snapshot(result.metrics)
            self.log.absorb(result.events)
        if result.ok:
            self.final[index] = result
            return 0.0
        if result.error_kind == CHAOS_HANG or (
                result.error or "").startswith("TaskHungError"):
            self.health.hangs += 1
        self.failures[index] += 1
        self.health.wasted_wall_s += result.wall_s
        retry = self.config.retry
        if retry is None or self.failures[index] >= retry.max_attempts:
            if retry is not None:
                # Poison conviction: the cell failed every attempt it was
                # given.  Quarantine it (PR-2 rung) so the sweep continues
                # without it; the failed result is still reported.
                result.quarantined = True
                result.quarantine_reason = (
                    f"poison task: failed {self.failures[index]} attempt(s); "
                    f"last error: {result.error}")
                self.registry.counter("sched.tasks.poisoned")
                self.registry.counter("sweep.tasks.quarantined")
                self.log.emit("sched.poison", task=task.cell,
                              failures=self.failures[index])
                self.health.poisoned.append(
                    f"{result.workload}/{result.strategy}")
            self.final[index] = result
            return 0.0
        self.health.retries += 1
        self.registry.counter("sched.tasks.retried")
        self.log.emit("sched.retry", task=task.cell,
                      attempt=result.attempt,
                      error=(result.error or "")[:120])
        self.attempts[index] = result.attempt + 1
        delay = retry.backoff_s(task.seed, task.workload.name,
                                task.strategy_name, result.attempt)
        self.health.backoff_wait_s += delay
        self.health.wasted_wall_s += delay
        return delay

    def requeue(self, index: int) -> None:
        """Resubmit a task that was in flight when the pool broke.

        We cannot tell the crashed task from its innocent pool-mates, so
        every in-flight task is requeued; the attempt number is bumped
        (so a recoverable chaos crash does not re-fire) but the failure
        count is not — an innocent task is never marched toward poison
        conviction by someone else's crash.
        """
        self.health.requeues += 1
        self.registry.counter("sched.tasks.requeued")
        self.attempts[index] += 1

    def record_crash_injection(self, index: int) -> None:
        """Parent-side bookkeeping for a hard worker crash.

        The worker dies via ``os._exit`` before it can record anything,
        but the chaos schedule is a pure function the parent can evaluate
        too — so the injection is accounted here, at submit time, with the
        same counter and ``chaos.inject`` record an inline attempt makes.
        """
        self.registry.counter(f"chaos.injected.{CHAOS_WORKER_CRASH}")
        self.log.emit("chaos.inject", task=self.tasks[index].cell,
                      fault=CHAOS_WORKER_CRASH,
                      attempt=self.attempts[index])

    def pending(self) -> List[int]:
        return [i for i, r in enumerate(self.final) if r is None]

    def finish(self) -> List[TaskResult]:
        missing = [i for i, r in enumerate(self.final) if r is None]
        if missing:  # pragma: no cover - loop invariant
            raise RuntimeError(f"sweep lost track of tasks {missing}")
        return [r for r in self.final if r is not None]

    # -- inline / serial-fallback mode ------------------------------------

    def run_serial(self, indices: Iterable[int]) -> None:
        """Run cells inline (no pool): the single-core degraded mode, the
        determinism reference, and the serial-fallback rung after repeated
        pool breakage.  Chaos worker crashes degrade to error results here
        (``allow_hard_crash=False``), so a persistent crasher finally gets
        attributed to its cell and convicted."""
        for index in indices:
            while self.final[index] is None:
                result = run_task(self.tasks[index], self.config,
                                  attempt=self.attempts[index],
                                  allow_hard_crash=False)
                delay = self.receive(index, result)
                if delay > 0:
                    time.sleep(delay)

    # -- pool mode ---------------------------------------------------------

    def run_pool(self, workers: int) -> None:
        """The fault-tolerant pool loop.

        Cells enter the pool as they are released: each program's first
        cell at once, its other cells when an attempt of the first comes
        back (see :meth:`receive`).  A heap of (ready-time, submit-seq,
        cell) holds them and backoff-delayed resubmissions without
        blocking the pool; ``wait(FIRST_COMPLETED)``
        with a deadline-bounded timeout multiplexes completions against
        the next ready time.  A worker death breaks the whole
        :class:`ProcessPoolExecutor` (every in-flight future raises
        :class:`BrokenProcessPool`); the loop harvests the futures that
        finished cleanly, requeues the rest, and respawns the pool — up to
        ``pool_break_limit`` times, after which the sweep degrades to
        serial inline execution and notes it on the sweep-level
        degradation report.
        """
        config = self.config
        ready: List[Tuple[float, int, int]] = []
        seq = 0
        breaks = 0
        pool = ProcessPoolExecutor(max_workers=workers)
        in_flight: Dict[Any, int] = {}
        try:
            while self.pending():
                for index in self.released:
                    seq += 1
                    heapq.heappush(ready, (0.0, seq, index))
                self.released.clear()
                now = time.monotonic()
                broken = False
                while ready and ready[0][0] <= now and not broken:
                    _, _, index = heapq.heappop(ready)
                    if self.final[index] is not None:
                        continue
                    attempt = self.attempts[index]
                    task = self.tasks[index]
                    try:
                        future = pool.submit(
                            _run_task_tuple, (task, config, attempt, True))
                    except BrokenProcessPool:
                        # The pool died between loop turns; put the task
                        # back untouched (it never ran) and go heal.
                        broken = True
                        seq += 1
                        heapq.heappush(ready, (now, seq, index))
                        break
                    in_flight[future] = index
                    if (config.chaos is not None
                            and config.chaos.fault_for(
                                task.workload.name, task.strategy_name,
                                attempt) == CHAOS_WORKER_CRASH):
                        self.record_crash_injection(index)
                if not broken:
                    if not in_flight:
                        if ready:
                            time.sleep(max(0.0,
                                           ready[0][0] - time.monotonic()))
                            continue
                        break  # pragma: no cover - pending() guards this
                    timeout = (max(0.0, ready[0][0] - time.monotonic())
                               if ready else None)
                    done, _ = wait(list(in_flight), timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        index = in_flight.pop(future)
                        if future.exception() is not None:
                            # BrokenProcessPool (or an unpicklable result
                            # — same treatment): this future's task was
                            # in flight when a worker died.
                            broken = True
                            self.requeue(index)
                            seq += 1
                            heapq.heappush(ready,
                                           (time.monotonic(), seq, index))
                            continue
                        delay = self.receive(index, future.result(),
                                             shipped=True)
                        if self.final[index] is None:
                            seq += 1
                            heapq.heappush(
                                ready,
                                (time.monotonic() + delay, seq, index))
                if broken:
                    breaks += 1
                    self.health.pool_breaks += 1
                    self.registry.counter("sched.pool.broken")
                    self.log.emit("sched.pool.break", breaks=breaks,
                                  workers=workers)
                    # Every other in-flight future is broken too; harvest
                    # the ones that finished before the pool died and
                    # requeue the rest.
                    for future, index in list(in_flight.items()):
                        if future.done() and future.exception() is None:
                            delay = self.receive(index, future.result(),
                                                 shipped=True)
                            if self.final[index] is None:
                                seq += 1
                                heapq.heappush(
                                    ready,
                                    (time.monotonic() + delay, seq, index))
                        else:
                            self.requeue(index)
                            seq += 1
                            heapq.heappush(ready,
                                           (time.monotonic(), seq, index))
                    in_flight.clear()
                    pool.shutdown(wait=False)
                    if breaks >= config.pool_break_limit:
                        self.health.serial_fallback = True
                        self.sweep.degradation.note(
                            f"worker pool broke {breaks}× (limit "
                            f"{config.pool_break_limit}); degrading the "
                            f"sweep to serial inline execution")
                        self.registry.counter("sched.pool.serial_fallback")
                        self.run_serial(self.pending())
                        return
                    pool = ProcessPoolExecutor(max_workers=workers)
        finally:
            pool.shutdown(wait=False)
