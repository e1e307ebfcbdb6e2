"""Benchmark harness for the evaluation pipeline itself.

Not a paper experiment: this measures *the reproduction's own* evaluation
machinery — how much wall-clock the parallel scheduler and the
content-addressed artifact cache save over the naive serial sweep.  Three
phases run the identical workload × strategy matrix:

``serial``
    The legacy path: a fresh uncached :class:`WorkloadPipeline` per matrix
    cell, exactly what ``repro compare`` in a shell loop would cost.
``cold``
    The :class:`SweepScheduler` against an empty cache — artifact sharing
    (one compile/baseline/profile per workload) plus process fan-out.
``warm``
    The scheduler again over the now-populated cache — every artifact
    should load instead of rebuild (100% hit rate).

Because the simulated toolchain is deterministic and per-task seeds are
content-derived, all three phases must agree on every metric; the harness
checks that and reports any divergence as a benchmark failure.  Results are
written to ``BENCH_pipeline.json`` (schema below) for CI trend tracking.

A fourth, optional phase (``attribution``, on by default) runs the startup
attribution profiler (:mod:`repro.eval.explain`) on one AWFY workload and
one microservice of the matrix against the warm cache.  It explains the
warm sweep's own cells: it builds the two layouts each explanation
compares again (the cache keeps runs, not images), and each cached run
carries its touch stream, which the explainer replays, so it runs no
interpreter.  ``--check`` asserts both: the phase ran at most two builds
per explained workload and no pipeline phase but their ``prepare`` and
``order``, and each attributed fault total equals its cell's
``total_faults``.  Its per-workload top-blamed units
also feed the regression gate: when ``--baseline`` fails, the gate names
the symbols most responsible for the current layout's faults instead of
just the numbers.

A sixth, optional phase (``pgo``, on by default) drives the continuous-PGO
loop (:mod:`repro.pgo`) through a seeded drift scenario against the warm
cache: synthetic traffic shifts away from the deployed profile (the loop
must auto-refresh and strictly cut replayed first-touch faults), and the
last epoch's re-layout candidate is deliberately damaged (the canary gate
must quarantine it and roll back).  ``--check`` asserts all three: at
least one genuine refresh with a strict fault reduction, the injected-bad
candidate rolled back into quarantine, and zero unguarded regressions at
any epoch.

A seventh, optional phase (``optimize``, on by default) runs the
search-based layout optimizer (:mod:`repro.ordering.optimize`) on every
workload of the matrix against the warm cache: the ``cu-opt`` layout is
built from the greedy chain-merging search the sweep stored with the
build's report (no second search), it is verified (structural +
differential), and the payload records the search's numbers and the
measured ``.text`` fault counts of ``cu`` and ``cu-opt`` — the sweep's
own cached cells.  ``--check`` asserts
that the optimizer layout never loses to ``cu``, that the search
predicted the measured count exactly, and that every built candidate
passed verification.

A fifth, optional phase (``chaos``, on by default) reruns the identical
matrix through the scheduler with a recoverable
:class:`~repro.robustness.chaos.ChaosPolicy` armed against a fresh cache
(see :mod:`repro.eval.chaosrun`): every injected fault must be recovered
by retry/respawn/heal, and every surviving canonical result must be
byte-identical to the cold phase — the chaos sweep reuses the cold phase's
results as its fault-free reference.  The payload records the fault
schedule, the :class:`~repro.eval.scheduler.SweepHealthReport`, and the
recovery overhead relative to cold; ``--check`` gates the identity
invariant and requires zero quarantined or failed cells.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cache import KIND_IMAGE, ArtifactCache
from ..cache.keys import TOOLCHAIN_VERSION
from ..obs.history import DEFAULT_HISTORY, BenchHistory, make_entry, matrix_hash
from ..util.stats import MAD_SIGMA, cusum_alarm, mad, median
from ..workloads.awfy.suite import AWFY_NAMES, awfy_suite
from ..workloads.microservices.suite import MICROSERVICE_NAMES, microservice_suite
from .pipeline import (
    ALL_STRATEGY_SPECS,
    StrategySpec,
    Workload,
    WorkloadPipeline,
    strategy_spec,
)
from .scheduler import (
    SchedulerConfig,
    SweepResult,
    SweepScheduler,
    run_task,
    task_seed,
)

BENCH_SCHEMA = 1
DEFAULT_OUTPUT = "BENCH_pipeline.json"

#: the ``--quick`` matrix: small-but-representative (two AWFY benchmarks
#: plus one microservice, one code and one heap strategy)
QUICK_WORKLOADS: Tuple[str, ...] = ("Bounce", "Queens", "quarkus")
QUICK_STRATEGIES: Tuple[str, ...] = ("cu", "heap path")


@dataclass(frozen=True)
class BenchConfig:
    """What to benchmark and how.

    Empty ``workloads``/``strategies`` mean the full registered matrix
    (14 AWFY + 3 microservices × all seven strategies: six paper + the
    ``cu-opt`` optimizer).
    """

    workloads: Tuple[str, ...] = ()
    strategies: Tuple[str, ...] = ()
    iterations: int = 1
    base_seed: int = 1
    #: worker processes for the cold/warm phases; 0 = one per core
    max_workers: int = 0
    cache_dir: Optional[str] = None
    output: str = DEFAULT_OUTPUT
    #: skip the serial reference phase (it dominates runtime on big matrices)
    skip_serial: bool = False
    #: run the attribution phase (blame report of the warm sweep's cells)
    attribution: bool = True
    #: run the chaos phase (fault-injected sweep + identity check)
    chaos: bool = True
    #: per-cell fault probability of the chaos phase
    chaos_rate: float = 0.2
    #: chaos schedule seed (fixed so the bench replays the same faults;
    #: chosen so both the ``--quick`` and the full matrix get injections)
    chaos_seed: int = 11
    #: run the pgo phase (continuous-PGO drift scenario + canary gate)
    pgo: bool = True
    #: traffic epochs of the pgo drift scenario
    pgo_epochs: int = 3
    #: pgo scenario seed (traffic synthesis, mix schedule, builds)
    pgo_seed: int = 7
    #: run the optimize phase (search-based layout optimizer vs ``cu``)
    optimize: bool = True
    #: history store successful runs append to (``--no-history`` opts out)
    history: str = DEFAULT_HISTORY
    #: append a history entry after a successful run
    write_history: bool = True
    #: gate the run against the history trend (``--trend``)
    trend: bool = False
    #: history entries the trend gate compares against
    trend_window: int = 10

    @classmethod
    def quick(cls, **overrides: Any) -> "BenchConfig":
        """The CI smoke matrix (3 workloads × 2 strategies)."""
        overrides.setdefault("workloads", QUICK_WORKLOADS)
        overrides.setdefault("strategies", QUICK_STRATEGIES)
        return cls(**overrides)


def resolve_matrix(config: BenchConfig) -> Tuple[List[Workload], List[StrategySpec]]:
    """Materialize the workload and strategy lists a config names.

    Raises :class:`KeyError` for unknown workload or strategy names so a
    typo fails before any benchmarking starts.
    """
    suite: Dict[str, Workload] = dict(awfy_suite())
    suite.update(microservice_suite())
    names = list(config.workloads) or AWFY_NAMES + MICROSERVICE_NAMES
    unknown = [n for n in names if n not in suite]
    if unknown:
        raise KeyError(f"unknown workload(s) {unknown}; choose from {sorted(suite)}")
    strategy_names = list(config.strategies) or [s.name for s in ALL_STRATEGY_SPECS]
    return ([suite[n] for n in names],
            [strategy_spec(n) for n in strategy_names])


def _scheduler_config(config: BenchConfig, cache_dir: Optional[str],
                      max_workers: int) -> SchedulerConfig:
    return SchedulerConfig(
        cache_dir=cache_dir,
        max_workers=max_workers,
        iterations=config.iterations,
        base_seed=config.base_seed,
    )


def _phase_dict(sweep: SweepResult) -> Dict[str, Any]:
    return {
        "wall_s": round(sweep.wall_s, 4),
        "tasks": len(sweep.tasks),
        "workers": sweep.workers,
        "ok": sweep.ok,
        "total_ops": sweep.total_ops,
        "cache_hits": sweep.cache_hits,
        "cache_misses": sweep.cache_misses,
        "cache_hit_rate": round(sweep.cache_hit_rate, 4),
        # a warm sweep must execute no pipeline phase
        "phases_run": _phases_run(sweep.metrics.counters),
        "cache_put_kb": _cache_put_kb(sweep.metrics.counters),
    }


def _phases_run(counters: Dict[str, int]) -> Dict[str, int]:
    """Pipeline phases executed, from their ``phase.<name>`` counters."""
    return {name[len("phase."):]: count
            for name, count in sorted(counters.items())
            if name.startswith("phase.")}


def _cache_put_kb(counters: Dict[str, int]) -> Dict[str, float]:
    """KB of payload written to the cache, by artifact kind, from the
    ``cache.put_bytes.<kind>`` counters."""
    prefix = "cache.put_bytes."
    return {name[len(prefix):]: round(count / 1024, 1)
            for name, count in sorted(counters.items())
            if name.startswith(prefix)}


def _run_serial_legacy(workloads: Sequence[Workload],
                       strategies: Sequence[StrategySpec],
                       config: BenchConfig) -> SweepResult:
    """The reference cost: fresh uncached pipeline per matrix cell.

    Implemented via :func:`run_task` on single-cell scheduler configs so
    the metrics are extracted identically to the scheduler phases — but a
    brand-new :class:`WorkloadPipeline` (new compile, new baseline build,
    new profiling run) is forced for every cell, matching what N separate
    ``repro compare`` invocations would pay.
    """
    from . import scheduler as _sched

    results = []
    start = time.perf_counter()
    for workload in workloads:
        for spec in strategies:
            _sched.reset_worker_state()  # force the from-scratch path
            task = _sched.EvalTask(
                workload=workload,
                strategy_name=spec.name,
                seed=task_seed(config.base_seed, workload.name),
                iterations=config.iterations,
            )
            results.append(run_task(task, _scheduler_config(config, None, 1)))
    _sched.reset_worker_state()
    sweep = SweepResult(tasks=results, wall_s=time.perf_counter() - start,
                        workers=1)
    for task in results:
        sweep.metrics.merge(task.metrics)
    return sweep


#: top blamed units recorded per workload (the regression-gate diagnosis)
ATTRIBUTION_TOP = 3


def _attribution_picks(workloads: Sequence[Workload]) -> List[Workload]:
    """One AWFY workload and one microservice (whichever the matrix has)."""
    picks: List[Workload] = []
    for micro in (False, True):
        for workload in workloads:
            if workload.microservice == micro:
                picks.append(workload)
                break
    return picks


def _attribution_phase(workloads: Sequence[Workload],
                       strategies: Sequence[StrategySpec],
                       config: BenchConfig,
                       cache_dir: str) -> Dict[str, Any]:
    """``repro why`` over the warm sweep's own cells.

    Profiles and runs are warm-cache hits at the sweep's seeds and
    iterations; each report replays the touches of its cell's cached run
    over its layout, which is built again (the regular and the optimized
    one per workload).  ``phases_run`` records the pipeline phases the
    phase ran (those two builds with their ``prepare`` and ``order``,
    when the sweep covered its cells), and ``baseline_events`` /
    ``events`` the attributed fault totals, which ``--check`` compares
    with the cells' ``total_faults``.
    """
    from ..obs import get_registry
    from .explain import explain_strategy

    spec = next((s for s in strategies if s.name == "cu"), strategies[0])
    entries: Dict[str, Any] = {}
    before = get_registry().snapshot()
    start = time.perf_counter()
    for workload in _attribution_picks(workloads):
        pipeline = WorkloadPipeline(
            workload, cache=ArtifactCache(Path(cache_dir))
        )
        why = explain_strategy(
            pipeline, spec, seed=task_seed(config.base_seed, workload.name),
            iterations=config.iterations,
        )
        entries[workload.name] = {
            "top_blamed": why.top_blamed(ATTRIBUTION_TOP),
            "moved_units": len(why.moved_units),
            "changed_units": len(why.ranked),
            "fault_delta": why.fault_delta,
            "baseline_events": len(why.baseline.timeline),
            "events": len(why.current.timeline),
        }
    counters = get_registry().snapshot().diff(before).counters
    return {
        "strategy": spec.name,
        "wall_s": round(time.perf_counter() - start, 4),
        "phases_run": _phases_run(counters),
        "cache_put_kb": _cache_put_kb(counters),
        "workloads": entries,
    }


def _pgo_phase(workloads: Sequence[Workload],
               strategies: Sequence[StrategySpec],
               config: BenchConfig,
               cache_dir: str) -> Dict[str, Any]:
    """The continuous-PGO drift scenario against the warm cache.

    One workload (``Queens`` when the matrix has it — its traced hot set
    is small enough that drift visibly moves fault counts) drives a
    :func:`repro.pgo.run_scenario` with the last epoch's candidate
    deliberately damaged: the payload records every refresh's stale-vs-
    candidate expected faults and what the canary gate quarantined, the
    quantities ``--check`` gates on.
    """
    from ..pgo import ACTION_REFRESH, DriftScenario, run_scenario

    workload = next((w for w in workloads if w.name == "Queens"),
                    workloads[0])
    spec = next((s for s in strategies if s.name == "cu+heap path"),
                strategies[0])
    scenario = DriftScenario(epochs=config.pgo_epochs, seed=config.pgo_seed,
                             inject_bad_epoch=max(config.pgo_epochs - 1, 1))
    start = time.perf_counter()
    pipeline = WorkloadPipeline(workload,
                                cache=ArtifactCache(Path(cache_dir)))
    outcome = run_scenario(pipeline, spec, scenario=scenario)
    refresh_detail = [
        {
            "epoch": epoch.epoch,
            "stale_faults": epoch.deployed_faults_before,
            "candidate_faults": epoch.candidate_faults,
        }
        for epoch in outcome.epochs if epoch.action == ACTION_REFRESH
    ]
    return {
        "workload": workload.name,
        "strategy": spec.name,
        "seed": config.pgo_seed,
        "epochs": len(outcome.epochs),
        "inject_bad_epoch": scenario.inject_bad_epoch,
        "wall_s": round(time.perf_counter() - start, 4),
        "refreshes": outcome.refreshes,
        "rollbacks": outcome.rollbacks,
        "retained": outcome.retained,
        "refresh_detail": refresh_detail,
        "quarantined": list(outcome.quarantined),
        "unguarded_regressions": outcome.unguarded_regressions,
        "ok": outcome.ok,
    }


def _optimize_phase(workloads: Sequence[Workload],
                    config: BenchConfig,
                    cache_dir: str) -> Dict[str, Any]:
    """The search-based layout optimizer on every workload, warm cache.

    The ``cu-opt`` search and the measurements of the seed-strategy and
    ``cu-opt`` builds are warm-cache hits from the cold/warm phases (same
    per-task seeds and iterations); the new work is building the
    regular, ``cu`` and ``cu-opt`` layouts again and verifying the
    winning one.  Fault counts are the measured ``.text`` cells of both
    builds, so the recorded never-worse verdicts compare real runs.
    ``phases_run`` records the pipeline phases the builds ran; with
    ``cu`` and ``cu-opt`` in the matrix it holds no ``optimize`` and no
    ``measure``.
    """
    from ..obs import get_registry
    from ..ordering.optimize import optimize_workload

    entries: Dict[str, Any] = {}
    improved = 0
    sections_total = 0
    before = get_registry().snapshot()
    start = time.perf_counter()
    for workload in workloads:
        pipeline = WorkloadPipeline(workload,
                                    cache=ArtifactCache(Path(cache_dir)))
        report = optimize_workload(
            pipeline, seed=task_seed(config.base_seed, workload.name),
            iterations=config.iterations,
        )
        entries[workload.name] = {
            "ok": report.ok,
            "sections": [section.as_dict() for section in report.sections],
        }
        for section in report.sections:
            if not section.skipped:
                sections_total += 1
                improved += bool(section.improved)
    wall = time.perf_counter() - start
    counters = get_registry().snapshot().diff(before).counters
    return {
        "wall_s": round(wall, 4),
        "phases_run": _phases_run(counters),
        "cache_put_kb": _cache_put_kb(counters),
        "workloads": entries,
        "sections": sections_total,
        "improved_sections": improved,
        "ok": all(entry["ok"] for entry in entries.values()),
    }


def run_bench(config: BenchConfig,
              log=lambda message: None) -> Dict[str, Any]:
    """Run all phases and return the ``BENCH_pipeline.json`` payload."""
    workloads, strategies = resolve_matrix(config)
    cells = len(workloads) * len(strategies)
    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "toolchain": TOOLCHAIN_VERSION,
        "config": {
            "workloads": [w.name for w in workloads],
            "strategies": [s.name for s in strategies],
            "iterations": config.iterations,
            "base_seed": config.base_seed,
            "max_workers": config.max_workers,
            "cells": cells,
        },
        "phases": {},
    }

    serial: Optional[SweepResult] = None
    if not config.skip_serial:
        log(f"phase serial: {cells} cells, fresh uncached pipeline each")
        serial = _run_serial_legacy(workloads, strategies, config)
        payload["phases"]["serial"] = _phase_dict(serial)
        log(f"  {serial.wall_s:.2f}s")

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        cache_dir = config.cache_dir or str(Path(scratch) / "cache")
        ArtifactCache(Path(cache_dir)).clear()  # cold means cold

        log(f"phase cold: scheduler + empty cache at {cache_dir}")
        cold = SweepScheduler(
            _scheduler_config(config, cache_dir, config.max_workers)
        ).run(workloads, strategies)
        payload["phases"]["cold"] = _phase_dict(cold)
        log(f"  {cold.wall_s:.2f}s on {cold.workers} worker(s)")

        log("phase warm: scheduler + populated cache")
        warm = SweepScheduler(
            _scheduler_config(config, cache_dir, config.max_workers)
        ).run(workloads, strategies)
        payload["phases"]["warm"] = _phase_dict(warm)
        log(f"  {warm.wall_s:.2f}s, hit rate {warm.cache_hit_rate:.0%}")

        if config.attribution:
            log("phase attribution: blame report of the warm sweep's cells")
            attribution = _attribution_phase(
                workloads, strategies, config, cache_dir
            )
            payload["attribution"] = attribution
            log(f"  {attribution['wall_s']:.2f}s")

        if config.chaos:
            from ..robustness.chaos import ChaosPolicy
            from .chaosrun import run_chaos

            policy = ChaosPolicy(seed=config.chaos_seed,
                                 rate=config.chaos_rate, hang_s=0.5)
            log(f"phase chaos: {policy.describe()}, fresh cache, "
                f"cold phase as the fault-free reference")
            chaos_cache = str(Path(scratch) / "chaos-cache")
            outcome = run_chaos(
                workloads, strategies, policy=policy,
                config=_scheduler_config(config, chaos_cache,
                                         config.max_workers),
                reference_canonical=cold.canonical(),
            )
            payload["phases"]["chaos"] = _phase_dict(outcome.sweep)
            chaos_payload = outcome.as_dict()
            chaos_payload["overhead_vs_cold"] = (
                round(outcome.sweep.wall_s / cold.wall_s, 4)
                if cold.wall_s else 0.0
            )
            payload["chaos"] = chaos_payload
            log(f"  {outcome.sweep.wall_s:.2f}s "
                f"({chaos_payload['overhead_vs_cold']:.2f}x of cold), "
                f"identity {'OK' if outcome.identity_ok else 'FAILED'}, "
                f"{len(outcome.surviving)}/{len(outcome.sweep.tasks)} "
                f"survived")

        if config.optimize:
            log(f"phase optimize: search-based layout optimizer on "
                f"{len(workloads)} workload(s), warm cache")
            optimize = _optimize_phase(workloads, config, cache_dir)
            payload["optimize"] = optimize
            log(f"  {optimize['wall_s']:.2f}s: cu-opt strictly beat cu on "
                f"{optimize['improved_sections']}/{optimize['sections']} "
                f"workload(s), never-worse "
                f"{'OK' if optimize['ok'] else 'VIOLATED'}")

        if config.pgo:
            log(f"phase pgo: {config.pgo_epochs}-epoch drift scenario, "
                f"seed {config.pgo_seed}, warm cache, injected-bad final "
                f"candidate")
            pgo = _pgo_phase(workloads, strategies, config, cache_dir)
            payload["pgo"] = pgo
            log(f"  {pgo['wall_s']:.2f}s on {pgo['workload']}/"
                f"{pgo['strategy']}: {pgo['refreshes']} refresh(es), "
                f"{pgo['rollbacks']} rollback(s), "
                f"{pgo['unguarded_regressions']} unguarded regression(s)")

    if serial is not None and cold.wall_s:
        payload["speedup_parallel"] = round(serial.wall_s / cold.wall_s, 2)
    if warm.wall_s:
        payload["speedup_warm"] = round(cold.wall_s / warm.wall_s, 2)

    canonical = cold.canonical()
    deterministic = canonical == warm.canonical()
    if serial is not None:
        deterministic = deterministic and canonical == serial.canonical()
    payload["deterministic"] = deterministic
    payload["ok"] = (cold.ok and warm.ok and (serial is None or serial.ok)
                     and deterministic)
    payload["results"] = canonical
    return payload


#: default regression-gate tolerances: wall-clock is noisy on shared CI
#: runners, hit rate is not
DEFAULT_WALL_TOLERANCE = 0.5
DEFAULT_HIT_RATE_TOLERANCE = 0.02


def check_regression(payload: Dict[str, Any], baseline: Dict[str, Any],
                     wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
                     hit_rate_tolerance: float = DEFAULT_HIT_RATE_TOLERANCE,
                     ) -> List[str]:
    """Compare a bench payload against a committed baseline payload.

    Fails (returns human-readable messages) when any shared phase's
    wall-clock regressed by more than ``wall_tolerance`` (a fraction: 0.5
    = 50% slower) or the warm cache hit rate dropped by more than
    ``hit_rate_tolerance`` (absolute).  Phases present in only one payload
    are skipped, so a ``--skip-serial`` run still gates against a full
    baseline.  Matrices of different sizes are incomparable and fail
    outright.

    When the gate fails and the payload carries an attribution phase, the
    failure list ends with the per-workload top-blamed units — the CUs /
    heap objects most responsible for the current layout's faults — so a
    red gate names suspects, not just numbers.
    """
    failures: List[str] = []
    mine = payload.get("config", {}).get("cells")
    theirs = baseline.get("config", {}).get("cells")
    if mine != theirs:
        return [f"matrix size differs from baseline ({mine} vs {theirs} "
                "cells); regression gate needs identical matrices"]
    for name, phase in sorted(payload.get("phases", {}).items()):
        base_phase = baseline.get("phases", {}).get(name)
        if not base_phase:
            continue
        base_wall = base_phase.get("wall_s", 0.0)
        wall = phase.get("wall_s", 0.0)
        if base_wall > 0 and wall > base_wall * (1.0 + wall_tolerance):
            failures.append(
                f"phase {name}: wall-clock {wall:.2f}s exceeds baseline "
                f"{base_wall:.2f}s by more than {wall_tolerance:.0%}"
            )
    warm = payload.get("phases", {}).get("warm", {})
    base_warm = baseline.get("phases", {}).get("warm", {})
    if warm and base_warm:
        rate = warm.get("cache_hit_rate", 0.0)
        base_rate = base_warm.get("cache_hit_rate", 0.0)
        if rate < base_rate - hit_rate_tolerance:
            failures.append(
                f"warm cache hit rate {rate:.2%} dropped below baseline "
                f"{base_rate:.2%} by more than {hit_rate_tolerance:.0%}"
            )
    if failures:
        failures.extend(attribution_diagnosis(payload))
    return failures


def attribution_diagnosis(payload: Dict[str, Any]) -> List[str]:
    """The blame lines a failing gate appends (empty without attribution)."""
    attribution = payload.get("attribution") or {}
    strategy = attribution.get("strategy", "?")
    lines = []
    for name, entry in sorted(attribution.get("workloads", {}).items()):
        blamed = ", ".join(entry.get("top_blamed", [])) or "none"
        lines.append(
            f"top blamed symbols for {name}/{strategy}: {blamed} "
            f"({entry.get('changed_units', 0)} changed unit(s), "
            f"fault delta {entry.get('fault_delta', 0):+d})"
        )
    return lines


#: history entries below which the trend gate abstains (no trajectory yet)
TREND_MIN_ENTRIES = 3

#: default window: the last N comparable history entries
DEFAULT_TREND_WINDOW = 10

#: step threshold in robust sigmas above the rolling median
TREND_STEP_SIGMAS = 4.0

#: sigma floor for wall-clock series, as a fraction of the median (CI
#: runners are noisy; a MAD of zero must not make any jitter a failure)
TREND_WALL_REL_FLOOR = 0.10

#: sigma floor for fault-count series (faults are deterministic, so the
#: MAD is usually zero; this tolerates sub-noise wobble only)
TREND_FAULT_FLOOR = 1.0

#: CUSUM slack and decision interval (in sigmas); drifts below ``k`` per
#: entry never alarm, anything above accumulates toward ``h``
TREND_CUSUM_K = 0.5
TREND_CUSUM_H = 4.0


def _trend_series_check(
    name: str, unit: str, series: List[float], value: float,
    sigma_floor: float, step_sigmas: float,
) -> Optional[str]:
    """Gate one scalar against its history series; a message = failure.

    Two detectors run in order:

    * **step** — the new value exceeds the rolling median by more than
      ``step_sigmas`` robust sigmas (MAD-scaled, floored): a one-run
      regression large enough to stand out of the noise band.
    * **drift** — a one-sided CUSUM over the window *plus the new value*,
      targeted at the rolling median: each entry contributes its excess
      over ``median + k*sigma``, so a slow creep that never individually
      clears the step band still accumulates to an alarm.  Only an alarm
      at (or after) the window's last third is attributed to the current
      trajectory; an old already-absorbed shift is not this run's fault.
    """
    center = median(series)
    sigma = max(mad(series) * MAD_SIGMA, sigma_floor, 1e-12)
    threshold = center + step_sigmas * sigma
    if value > threshold:
        return (
            f"trend: {name} {value:.2f}{unit} is a step regression over "
            f"the rolling median {center:.2f}{unit} of the last "
            f"{len(series)} run(s) (limit {threshold:.2f}{unit} = "
            f"median + {step_sigmas:g} robust sigmas)"
        )
    full = series + [value]
    alarm = cusum_alarm(full, target=center, sigma=sigma,
                        k=TREND_CUSUM_K, h=TREND_CUSUM_H)
    if alarm is not None and alarm >= (2 * len(full)) // 3:
        return (
            f"trend: {name} is drifting upward — CUSUM over the last "
            f"{len(full)} run(s) crossed {TREND_CUSUM_H:g} sigmas at "
            f"run {alarm + 1}/{len(full)} (median {center:.2f}{unit}, "
            f"sigma {sigma:.2f}{unit}, latest {value:.2f}{unit})"
        )
    return None


def check_trend(payload: Dict[str, Any],
                history: "BenchHistory | Sequence[Dict[str, Any]]",
                window: int = DEFAULT_TREND_WINDOW) -> List[str]:
    """Gate a bench payload against the history trend (empty = pass).

    Unlike :func:`check_regression` (one frozen baseline), this compares
    the new run against the *trajectory*: the last ``window`` history
    entries whose matrix hash matches the payload's.  Per-phase wall
    clocks and per-cell fault totals each pass through a step detector
    (rolling median ± MAD band) and a CUSUM changepoint detector, so a
    single large regression and a slow drift spread over several entries
    both fail.  With fewer than :data:`TREND_MIN_ENTRIES` comparable
    entries the gate abstains — an empty trajectory cannot regress.

    As with the baseline gate, a failing result ends with the PR-5
    attribution blame lines naming the top suspect symbols.
    """
    candidate = make_entry(payload)
    target_hash = candidate["matrix"]["hash"]
    if isinstance(history, BenchHistory):
        entries = history.tail(window, matrix_hash=target_hash)
    else:
        entries = [e for e in history
                   if e.get("matrix", {}).get("hash") == target_hash]
        entries = entries[-window:] if window > 0 else entries
    if len(entries) < TREND_MIN_ENTRIES:
        return []
    failures: List[str] = []
    for name, phase in sorted(candidate["phases"].items()):
        series = [float(e["phases"][name]["wall_s"]) for e in entries
                  if name in e.get("phases", {})]
        if len(series) < TREND_MIN_ENTRIES:
            continue
        floor = TREND_WALL_REL_FLOOR * max(median(series), 1e-9)
        message = _trend_series_check(
            f"phase {name} wall-clock", "s", series,
            float(phase.get("wall_s", 0.0)), floor, TREND_STEP_SIGMAS)
        if message:
            failures.append(message)
    for cell, faults in sorted(candidate["cell_faults"].items()):
        series = [float(e["cell_faults"][cell]) for e in entries
                  if cell in e.get("cell_faults", {})]
        if len(series) < TREND_MIN_ENTRIES:
            continue
        message = _trend_series_check(
            f"cell {cell} faults", "", series, float(faults),
            TREND_FAULT_FLOOR, TREND_STEP_SIGMAS)
        if message:
            failures.append(message)
    if failures:
        failures.extend(attribution_diagnosis(payload))
    return failures


def record_history(payload: Dict[str, Any],
                   path: "str | Path" = DEFAULT_HISTORY,
                   timestamp: Optional[float] = None,
                   run_id: Optional[str] = None) -> Dict[str, Any]:
    """Append one history entry for a bench payload; returns the entry.

    The entry snapshots the process-wide metrics registry at call time,
    so the run's ``phase.*`` duration percentiles travel with it.
    """
    from ..obs import get_registry

    entry = make_entry(payload, metrics_snapshot=get_registry().snapshot(),
                       timestamp=timestamp, run_id=run_id)
    BenchHistory(path).append(entry)
    return entry


def check_payload(payload: Dict[str, Any]) -> List[str]:
    """CI assertions; returns a list of human-readable failures (empty = pass)."""
    failures = []
    if not payload.get("ok"):
        failures.append("bench reported ok=false (task errors or divergence)")
    if not payload.get("deterministic"):
        failures.append("phases disagreed on metrics (determinism violation)")
    warm = payload.get("phases", {}).get("warm", {})
    if warm.get("cache_misses", 1) != 0:
        failures.append(
            f"warm phase had {warm.get('cache_misses')} cache misses (want 0)"
        )
    if warm.get("cache_hit_rate", 0.0) != 1.0:
        failures.append(
            f"warm cache hit rate {warm.get('cache_hit_rate')} (want 1.0)"
        )
    if warm.get("phases_run"):
        ran = ", ".join(f"{name} x{count}"
                        for name, count in sorted(warm["phases_run"].items()))
        failures.append(f"warm phase recomputed work: {ran} (want none)")
    recorded = {**payload.get("phases", {}),
                **{name: payload[name] for name in ("attribution", "optimize")
                   if payload.get(name)}}
    for name, entry in sorted(recorded.items()):
        image_kb = entry.get("cache_put_kb", {}).get(KIND_IMAGE)
        if image_kb is not None:
            failures.append(
                f"{name} phase put {image_kb} KB of image entries (want "
                "none: builds are laid out again, not stored)")
    # The cold sweep shares each program's compile and profile across its
    # strategies; a count above one per program means workers duplicated it.
    cold = payload.get("phases", {}).get("cold", {})
    cold_run = cold.get("phases_run", {})
    config = payload.get("config", {})
    programs = len(config.get("workloads", ()))
    for name in ("compile", "trace", "post-process"):
        if cold_run.get(name, 0) > programs:
            failures.append(
                f"cold phase ran {name} x{cold_run[name]} for {programs} "
                "program(s) (want at most one per program)")
    # Each iteration of a program's baseline runs; a worker runs one of a
    # program's optimized layouts once and derives the other layouts and
    # iterations from its touches.
    iterations = config.get("iterations", 1)
    workers = cold.get("workers", 1)
    runs_bound = programs * (iterations + workers)
    if cold_run.get("measure", 0) > runs_bound:
        failures.append(
            f"cold phase ran measure x{cold_run['measure']} for {programs} "
            f"program(s) x {iterations} iteration(s) on {workers} worker(s) "
            f"(want at most {runs_bound}: one baseline run per program and "
            "iteration, and one optimized run per program per worker)")
    attribution = payload.get("attribution")
    if attribution:
        failures.extend(_attribution_failures(attribution,
                                              payload.get("results", [])))
    chaos = payload.get("chaos")
    if chaos:
        identity = chaos.get("identity", {})
        if not identity.get("ok"):
            failures.append(
                "chaos phase broke the identity invariant: "
                f"{len(identity.get('divergent', []))} surviving result(s) "
                "diverged from the fault-free reference"
            )
        if chaos.get("quarantined"):
            failures.append(
                "chaos phase quarantined cells under a recoverable fault "
                f"schedule: {', '.join(chaos['quarantined'])}"
            )
        if chaos.get("failed"):
            failures.append(
                f"chaos phase left {len(chaos['failed'])} cell(s) "
                "unrecovered under a recoverable fault schedule"
            )
    optimize = payload.get("optimize")
    if optimize:
        for name, entry in sorted(optimize.get("workloads", {}).items()):
            for section in entry.get("sections", []):
                if section.get("skipped"):
                    continue
                cell = f"{name}/{section.get('strategy', '?')}"
                if not section.get("never_worse"):
                    failures.append(
                        f"optimize phase: {cell} lost to its seed strategy "
                        f"{section.get('seed_strategy', '?')} "
                        f"({section.get('seed_faults')} -> "
                        f"{section.get('optimized_faults')} faults)"
                    )
                if not section.get("verified"):
                    failures.append(
                        f"optimize phase: {cell} failed structural layout "
                        "verification"
                    )
                if not section.get("differential_ok"):
                    failures.append(
                        f"optimize phase: {cell} diverged under differential "
                        "execution"
                    )
                if section.get("predicted_faults") != section.get(
                        "optimized_faults"):
                    failures.append(
                        f"optimize phase: {cell} search predicted "
                        f"{section.get('predicted_faults')} faults but the "
                        f"built binary's measured run took "
                        f"{section.get('optimized_faults')} (cost model "
                        "drifted from the executor)"
                    )
    pgo = payload.get("pgo")
    if pgo:
        cell = f"{pgo.get('workload', '?')}/{pgo.get('strategy', '?')}"
        if not pgo.get("ok"):
            failures.append(
                f"pgo phase shipped {pgo.get('unguarded_regressions')} "
                f"unguarded regression(s) on {cell}: the deployed layout "
                "regressed past the canary gate threshold"
            )
        if not pgo.get("refreshes"):
            failures.append(
                f"pgo phase never refreshed on {cell}: the genuine traffic "
                "shift went undetected"
            )
        for detail in pgo.get("refresh_detail", []):
            if not detail["candidate_faults"] < detail["stale_faults"]:
                failures.append(
                    f"pgo refresh at epoch {detail['epoch']} did not "
                    f"strictly reduce expected faults "
                    f"({detail['stale_faults']} -> "
                    f"{detail['candidate_faults']})"
                )
        if pgo.get("inject_bad_epoch") is not None:
            if not pgo.get("rollbacks"):
                failures.append(
                    f"pgo phase deployed the injected-bad candidate on "
                    f"{cell} instead of rolling back"
                )
            if not pgo.get("quarantined"):
                failures.append(
                    "pgo phase rolled back without quarantining the "
                    "convicted candidate layout"
                )
    return failures


#: the pipeline phases the attribution phase may run: the builds of the
#: layouts it explains, with their stages
ATTRIBUTION_PHASES = ("build", "prepare", "order")


def _attribution_failures(attribution: Dict[str, Any],
                          results: Sequence[Dict[str, Any]]) -> List[str]:
    """The attribution phase only rebuilt the layouts it explains, and
    agrees with its cells."""
    failures = []
    phases_run = attribution.get("phases_run", {})
    ran = ", ".join(f"{name} x{count}" for name, count
                    in sorted(phases_run.items())
                    if name not in ATTRIBUTION_PHASES)
    if ran:
        failures.append(f"attribution phase recomputed work: {ran} (want "
                        "none: it explains the warm sweep's cached cells)")
    explained = attribution.get("workloads", {})
    if phases_run.get("build", 0) > 2 * len(explained):
        failures.append(
            f"attribution phase ran build x{phases_run['build']} for "
            f"{len(explained)} explained workload(s) (want at most two "
            "per workload: its regular and optimized layout)")
    strategy = attribution.get("strategy")
    cells = {(cell.get("workload"), cell.get("strategy")): cell
             for cell in results}
    for name, entry in sorted(explained.items()):
        cell = cells.get((name, strategy), {})
        for side, key in (("baseline", "baseline_events"),
                          ("optimized", "events")):
            runs = cell.get(side) or [{}]
            expected = runs[0].get("total_faults")
            if expected is None or entry.get(key) != expected:
                failures.append(
                    f"attribution of {name}/{strategy} ({side}) blamed "
                    f"{entry.get(key)} faults, the sweep cell counted "
                    f"{expected}")
    return failures


def write_payload(payload: Dict[str, Any], output: str) -> Path:
    path = Path(output)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def format_summary(payload: Dict[str, Any]) -> str:
    lines = [f"pipeline bench: {payload['config']['cells']} matrix cells, "
             f"toolchain {payload['toolchain']}"]
    for name in ("serial", "cold", "warm", "chaos"):
        phase = payload["phases"].get(name)
        if phase:
            lines.append(
                f"  {name:<6} {phase['wall_s']:>8.2f}s  "
                f"workers={phase['workers']}  "
                f"cache {phase['cache_hits']}h/{phase['cache_misses']}m"
            )
    if "speedup_parallel" in payload:
        lines.append(f"  parallel+share speedup over serial: "
                     f"{payload['speedup_parallel']:.2f}x")
    if "speedup_warm" in payload:
        lines.append(f"  warm-cache speedup over cold: "
                     f"{payload['speedup_warm']:.2f}x")
    attribution = payload.get("attribution")
    if attribution:
        lines.append(
            f"  attribution ({attribution['strategy']}): "
            f"{attribution['wall_s']:.2f}s, "
            f"{attribution.get('phases_run', {}).get('build', 0)} "
            "layout(s) rebuilt, on "
            + ", ".join(sorted(attribution.get("workloads", {})))
        )
    chaos = payload.get("chaos")
    if chaos:
        health = chaos.get("health", {})
        injected = sum(health.get("injected", {}).values())
        lines.append(
            f"  chaos (seed {chaos['policy']['seed']}, "
            f"rate {chaos['policy']['rate']:.0%}): {injected} fault(s) "
            f"injected, {chaos['surviving']}/{chaos['cells']} survived, "
            f"identity {'OK' if chaos['identity']['ok'] else 'FAILED'}, "
            f"{chaos.get('overhead_vs_cold', 0.0):.2f}x of cold"
        )
    optimize = payload.get("optimize")
    if optimize:
        lines.append(
            f"  optimize: "
            f"cu-opt strictly beat cu on {optimize['improved_sections']}/"
            f"{optimize['sections']} workload(s) (measured), never-worse "
            f"{'OK' if optimize['ok'] else 'VIOLATED'}, "
            f"{optimize['wall_s']:.2f}s"
        )
    pgo = payload.get("pgo")
    if pgo:
        cuts = ", ".join(
            f"{d['stale_faults']:.1f}->{d['candidate_faults']:.1f}"
            for d in pgo.get("refresh_detail", [])
        ) or "none"
        lines.append(
            f"  pgo ({pgo['workload']}/{pgo['strategy']}, "
            f"seed {pgo['seed']}): {pgo['refreshes']} refresh(es) "
            f"(fault cut {cuts}), {pgo['rollbacks']} rollback(s), "
            f"{len(pgo.get('quarantined', []))} quarantined, "
            f"{pgo['unguarded_regressions']} unguarded regression(s)"
        )
    lines.append(f"  deterministic: {payload['deterministic']}")
    return "\n".join(lines)
