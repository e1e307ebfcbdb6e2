"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's artifact scripts:

* ``figures``  — regenerate Figures 2-5 (page-fault reductions, speedups);
* ``overhead`` — the Sec. 7.4 profiling-overhead table;
* ``pagemap``  — Fig. 6 page maps for ``.text`` (and ``--heap`` for the
  heap-snapshot visualization the paper lists as future work);
* ``compare``  — run every strategy on one workload and print factors;
* ``emit``     — write a built image as a SNIB file and dump its tables;
* ``robustness`` — fault-inject a profiling run and show how the pipeline
  salvages the trace or degrades to the default layout;
* ``verify``   — run the layout-verification oracle (structural invariants
  + differential execution under watchdog budgets) for workload × strategy
  combinations; ``--mutate`` injects a layout violation to demonstrate the
  quarantine-and-rollback rung end to end;
* ``bench``    — benchmark the evaluation pipeline itself: serial reference
  vs parallel scheduler vs warm artifact cache vs a chaos-injected sweep,
  written to ``BENCH_pipeline.json``; ``--baseline`` arms the regression
  gate against a committed payload, ``--trend`` gates against the bench
  history trajectory (rolling median ± MAD + CUSUM drift detection), and
  clean runs append to ``BENCH_history.jsonl`` (``--no-history`` opts out);
* ``report``   — render the bench history as a terminal summary plus a
  dependency-free self-contained HTML dashboard (inline SVG sparklines
  per phase and matrix cell, PGO epoch timeline, regression annotations);
* ``history``  — manage the bench history store: list entries, prune old
  ones, compact to the current schema, or trend-gate a payload file;
* ``chaos``    — run the sweep under deterministic fault injection
  (worker crashes, hangs, cache I/O errors, artifact corruption,
  oversized results) and verify that every surviving result is
  byte-identical to a fault-free serial reference; ``--persistent`` makes
  the schedule unrecoverable so poison cells end in quarantine (exit 1);
* ``pgo``      — drive the continuous-PGO loop through a seeded multi-epoch
  drift scenario: synthetic traffic shifts away from the deployed profile,
  the loop detects drift (rank distance + replayed faults), rebuilds
  through the cached pipeline, and only deploys candidates that pass the
  canary gate; ``--inject-bad`` damages a candidate so the gate must
  quarantine it and roll back (exit 1 names the quarantined layout);
* ``stats``    — run a (workload × strategy) sweep and print the merged
  metrics-registry summary (counters, gauges, histograms);
* ``trace``    — run one strategy end-to-end and export its run records as
  Chrome trace-event JSON (``chrome://tracing`` / Perfetto) and, with
  ``--events``, as JSONL;
* ``why``      — the layout regression explainer: attribute every startup
  fault to the CUs/heap objects on the faulted page, diff baseline vs an
  optimized layout, and print the ranked blame (``--json`` for the
  machine-readable report, ``--csv`` for the full per-unit table;
  ``--baseline-strategy`` diffs two optimized layouts instead — e.g.
  where ``cu-opt`` beats ``cu``, per CU);
* ``optimize`` — the search-based layout optimizer: record the reference
  build's ``.text`` touches, search the CU order with greedy chain merging
  over the page co-access graph, build the winning ``cu-opt`` layout,
  verify it (structural + differential), and report the measured
  optimizer-vs-``cu`` fault counts (exit 1 if it is worse than ``cu`` or
  fails verification);
* ``list``     — available workloads.

Option defaults that mirror a config dataclass are read from that
dataclass (see :func:`_field_default`) so ``--help`` can never drift from
the code again.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, Optional

from .api import ComparisonReport, NativeImageToolchain
from .eval.figures import (
    SUITE_WORKLOADS,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_overhead,
    run_overhead_evaluation,
    sweep_figure_cells,
)
from .eval.heapmap import compare_heap_maps, heap_page_map
from .eval.pipeline import (
    STRATEGIES,
    STRATEGY_CU,
    STRATEGY_HEAP_PATH,
    StrategySpec,
    Workload,
    WorkloadPipeline,
    strategy_spec,
)
from .eval.scheduler import SchedulerConfig
from .eval.textmap import compare_page_maps, text_page_map
from .image.fileformat import read_snib, write_snib
from .workloads.awfy.suite import AWFY_NAMES, awfy_workload
from .workloads.microservices.suite import MICROSERVICE_NAMES, microservice_workload


def _field_default(cls: type, field_name: str):
    """The default of one dataclass field (the single source of truth).

    CLI options whose semantics come from a config dataclass
    (:class:`SchedulerConfig`, :class:`DegradationPolicy`,
    :class:`BenchConfig`, ...) must take their ``default=`` from here so
    ``--help`` output always matches what the code actually does.
    """
    for field in dataclasses.fields(cls):
        if field.name == field_name:
            if field.default is not dataclasses.MISSING:
                return field.default
            if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                return field.default_factory()  # type: ignore[misc]
            break
    raise AttributeError(f"{cls.__name__} has no defaulted field {field_name!r}")


def _find_workload(name: str) -> Workload:
    if name in AWFY_NAMES:
        return awfy_workload(name)
    if name in MICROSERVICE_NAMES:
        return microservice_workload(name)
    raise SystemExit(
        f"unknown workload {name!r}; run `python -m repro list` for options"
    )


def _strategy(name: str) -> StrategySpec:
    try:
        return strategy_spec(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _suite_of(workload: Workload) -> str:
    return "micro" if workload.microservice else "awfy"


def cmd_list(_args: argparse.Namespace) -> int:
    print("AWFY benchmarks (run-to-completion, end-to-end time):")
    for name in AWFY_NAMES:
        print(f"  {name}")
    print("\nmicroservices (time to first response, then SIGKILL):")
    for name in MICROSERVICE_NAMES:
        print(f"  {name}")
    print("\nstrategies:", ", ".join(sorted(STRATEGIES)))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    suites = ("awfy", "micro") if args.suite == "all" else (args.suite,)
    names = args.only or [name for suite in suites
                          for name in SUITE_WORKLOADS[suite]]
    # each --only name goes to the suite it belongs to
    workloads = {workload.name: workload
                 for workload in map(_find_workload, names)
                 if _suite_of(workload) in suites}
    if not workloads:
        raise SystemExit(f"--only selects no workload of --suite {args.suite}")
    selected = {_suite_of(workload) for workload in workloads.values()}
    renderers = {"awfy": (render_fig2, render_fig5),
                 "micro": (render_fig3, render_fig4)}
    try:
        cells = sweep_figure_cells(list(workloads.values()), args.builds,
                                   args.runs)
        charts = [render(cells) for suite in suites if suite in selected
                  for render in renderers[suite]]
    except ValueError as exc:  # a failed cell, or builds/runs < 1
        raise SystemExit(str(exc))
    print("\n\n".join(charts))
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    for name in args.only or ():
        if name in MICROSERVICE_NAMES:
            raise SystemExit(f"--only restricts the AWFY benchmarks; "
                             f"{name!r} is a microservice, and those always run")
        _find_workload(name)  # exits on an unknown name
    results = run_overhead_evaluation(awfy_names=args.only or None)
    print(render_overhead(results))
    return 0


def cmd_pagemap(args: argparse.Namespace) -> int:
    workload = _find_workload(args.workload)
    pipeline = WorkloadPipeline(workload)
    regular = pipeline.build_baseline(seed=1)
    outcome = pipeline.profile(seed=1)
    if args.heap:
        optimized = pipeline.build_optimized(outcome.profiles, STRATEGY_HEAP_PATH,
                                             seed=2)
        regular_map = heap_page_map(regular, pipeline.exec_config)
        optimized_map = heap_page_map(optimized, pipeline.exec_config)
        print(f".svm_heap page map for {workload.name} (heap path strategy)\n")
        print(compare_heap_maps(regular_map, optimized_map))
        print()
        print(optimized_map.hot_page_report())
    else:
        optimized = pipeline.build_optimized(outcome.profiles, STRATEGY_CU, seed=2)
        print(f".text page map for {workload.name} (cu strategy)\n")
        print(compare_page_maps(
            text_page_map(regular, pipeline.exec_config),
            text_page_map(optimized, pipeline.exec_config),
        ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = _find_workload(args.workload)
    names = [_strategy(args.strategy).name] if args.strategy else sorted(STRATEGIES)
    toolchain = NativeImageToolchain(workload)
    toolchain.profile(seed=args.seed)
    for name in names:
        print(toolchain.optimize_and_compare(name, seed=args.seed))
    return 0


def _parse_fault(text: str):
    """Parse ``kind[:at[:bit]]`` from the command line into a FaultSpec."""
    from .robustness import ALL_FAULT_KINDS, FaultSpec

    parts = text.split(":")
    kind = parts[0]
    if kind not in ALL_FAULT_KINDS:
        raise SystemExit(
            f"unknown fault kind {kind!r}; choose from {', '.join(ALL_FAULT_KINDS)}"
        )
    try:
        at = int(parts[1]) if len(parts) > 1 else 0
        bit = int(parts[2]) if len(parts) > 2 else 0
    except ValueError:
        raise SystemExit(f"bad fault spec {text!r}; expected kind[:at[:bit]]")
    return FaultSpec(kind=kind, at=at, bit=bit)


def cmd_robustness(args: argparse.Namespace) -> int:
    from .eval.pipeline import WorkloadPipeline as _Pipeline
    from .robustness import DegradationPolicy, FaultInjector, FaultPlan

    workload = _find_workload(args.workload)
    spec = _strategy(args.strategy)
    if args.faults:
        plan = FaultPlan(faults=tuple(_parse_fault(text) for text in args.faults))
    else:
        plan = FaultPlan.random(args.fault_seed, n_faults=args.n_faults)
    injector = FaultInjector(plan)
    policy = DegradationPolicy(
        max_retries=args.retries, min_match_rate=args.min_match_rate
    )
    pipeline = _Pipeline(
        workload, degradation_policy=policy, fault_hook=injector
    )
    print(f"workload: {workload.name}"
          + (" (microservice, SIGKILLed after first response)"
             if workload.microservice else ""))
    print(f"fault plan: {plan.describe()}")
    print()
    baseline_runs, optimized_runs = pipeline.run_strategy(spec, seed=args.seed)
    report = pipeline.last_degradation_report
    if report is not None:
        print(report.summary())
    print()
    if injector.triggered:
        print("faults fired:")
        for line in injector.triggered:
            print(f"  {line}")
    else:
        print("faults fired: none (plan never hit the trace)")
    print()
    print(ComparisonReport(
        workload=workload.name,
        strategy=spec.name,
        baseline=baseline_runs[0],
        optimized=optimized_runs[0],
    ))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .validation import (
        ALL_MUTATION_KINDS,
        LayoutMutationPlan,
        LayoutMutator,
        VerificationPolicy,
        WatchdogBudget,
        verify_strategy,
    )

    specs = [_strategy(name) for name in args.strategy or sorted(STRATEGIES)]
    budget = None
    if args.max_ops is not None or args.deadline is not None:
        budget = WatchdogBudget(max_ops=args.max_ops, deadline_s=args.deadline)
    failures = 0
    for workload_name in args.workloads:
        workload = _find_workload(workload_name)
        mutator = None
        if args.mutate:
            if args.mutate not in ALL_MUTATION_KINDS:
                raise SystemExit(
                    f"unknown mutation {args.mutate!r}; choose from "
                    + ", ".join(ALL_MUTATION_KINDS)
                )
            mutator = LayoutMutator(
                LayoutMutationPlan.single(args.mutate, pick=args.mutate_seed)
            )
        policy = VerificationPolicy(watchdog=budget, mutator=mutator)
        pipeline = WorkloadPipeline(workload, verification=policy)
        for spec in specs:
            outcome = verify_strategy(
                pipeline, spec, seed=args.seed,
                differential=not args.no_differential, watchdog=budget,
            )
            if not outcome.ok:
                failures += 1
            print(outcome.summary())
            print()
        if mutator is not None and mutator.applied:
            print("injected mutations:")
            for line in mutator.applied:
                print(f"  {line}")
            print(pipeline.quarantine.describe())
            print()
    total = len(args.workloads) * len(specs)
    print(f"verified {total} combination(s): "
          f"{total - failures} ok, {failures} failed")
    return 1 if failures else 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .eval.bench import (
        BenchConfig,
        check_payload,
        check_trend,
        format_summary,
        record_history,
        run_bench,
        write_payload,
    )
    from .obs.history import BenchHistory

    kwargs = dict(
        iterations=args.iterations,
        base_seed=args.seed,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
        output=args.output,
        skip_serial=args.skip_serial,
        attribution=not args.no_attribution,
        chaos=not args.no_chaos,
        chaos_rate=args.chaos_rate,
        chaos_seed=args.chaos_seed,
        pgo=not args.no_pgo,
        pgo_epochs=args.pgo_epochs,
        pgo_seed=args.pgo_seed,
        optimize=not args.no_optimize,
        history=args.history,
        write_history=not args.no_history,
        trend=args.trend,
        trend_window=args.trend_window,
    )
    if args.only:
        kwargs["workloads"] = tuple(args.only)
    if args.strategy:
        kwargs["strategies"] = tuple(args.strategy)
    config = BenchConfig.quick(**kwargs) if args.quick else BenchConfig(**kwargs)
    try:
        payload = run_bench(config, log=print)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    path = write_payload(payload, config.output)
    print()
    print(format_summary(payload))
    print(f"wrote {path}")
    failures = []
    if args.check:
        failures.extend(check_payload(payload))
    if args.baseline:
        from .eval.bench import check_regression

        try:
            baseline = json.loads(Path(args.baseline).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read baseline {args.baseline!r}: {exc}")
        failures.extend(check_regression(
            payload, baseline, wall_tolerance=args.max_regression,
        ))
    if config.trend:
        failures.extend(check_trend(
            payload, BenchHistory(config.history),
            window=config.trend_window,
        ))
    if args.openmetrics:
        from .obs import get_registry, to_openmetrics, validate_openmetrics

        text = to_openmetrics(get_registry().snapshot())
        Path(args.openmetrics).write_text(text)
        print(f"wrote {args.openmetrics} (OpenMetrics exposition)")
        failures.extend(f"openmetrics: {problem}"
                        for problem in validate_openmetrics(text))
    # a regressed or broken run never pollutes the trajectory: only
    # clean runs become history entries
    if config.write_history and payload.get("ok") and not failures:
        entry = record_history(payload, config.history)
        print(f"history: appended run {entry['run_id']} to {config.history}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    return 1 if failures else 0


def _chaos_pgo_exercise(workloads, strategies, args) -> Dict[str, object]:
    """The ``stale_profile`` leg of ``repro chaos``: drift-detector recovery.

    Stale-profile faults do not fire in the sweep scheduler (nothing there
    consumes live profiles); they attack the continuous-PGO loop, which
    must miss at most the poisoned epoch and refresh on the next fresh
    one.  Runs the seeded drift scenario on the first matrix cell with a
    stale-serving chaos policy armed and reports what the loop did.
    """
    from .pgo import DriftScenario, run_scenario
    from .robustness.chaos import CHAOS_STALE_PROFILE, ChaosPolicy

    policy = ChaosPolicy(seed=args.seed, rate=args.rate,
                         classes=(CHAOS_STALE_PROFILE,),
                         persistent=args.persistent, hang_s=args.hang)
    pipeline = WorkloadPipeline(workloads[0])
    scenario = DriftScenario(seed=args.base_seed or 7)
    outcome = run_scenario(pipeline, strategies[0], scenario=scenario,
                           chaos=policy)
    # recovery is only demandable when the loop actually saw fresh
    # post-shift traffic: a total stale blackout leaves nothing to
    # detect, and safely retaining the deployed layout is the correct
    # degraded behavior (the retain-stale rung)
    fresh_after_shift = any(
        not epoch.stale_served and epoch.epoch >= scenario.drift_epoch
        for epoch in outcome.epochs
    )
    return {
        "policy": policy.describe(),
        "outcome": outcome,
        "fresh_after_shift": fresh_after_shift,
        "ok": outcome.ok and (outcome.refreshes >= 1
                              or not fresh_after_shift),
    }


def cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from .eval.bench import BenchConfig, resolve_matrix
    from .eval.chaosrun import run_chaos
    from .eval.scheduler import RetryPolicy
    from .robustness.chaos import (
        ALL_CHAOS_CLASSES,
        CHAOS_STALE_PROFILE,
        ChaosPolicy,
    )

    try:
        workloads, strategies = resolve_matrix(BenchConfig(
            workloads=tuple(args.only or ()),
            strategies=tuple(args.strategy or ()),
        ))
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    classes = tuple(args.fault_classes or ALL_CHAOS_CLASSES)
    # stale_profile targets the PGO loop, not the sweep scheduler:
    # partition the requested classes into the two exercises
    sweep_classes = tuple(c for c in classes if c != CHAOS_STALE_PROFILE)
    outcome = None
    if sweep_classes:
        try:
            policy = ChaosPolicy(seed=args.seed, rate=args.rate,
                                 classes=sweep_classes,
                                 persistent=args.persistent, hang_s=args.hang)
            retry = RetryPolicy(max_attempts=args.max_attempts)
        except ValueError as exc:
            raise SystemExit(str(exc))
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
            cache_dir = args.cache_dir or str(Path(scratch) / "cache")
            config = SchedulerConfig(
                cache_dir=cache_dir,
                max_workers=args.workers,
                iterations=args.iterations,
                base_seed=args.base_seed,
                task_deadline_s=args.deadline,
            )
            if not args.json:
                print(f"chaos sweep: {len(workloads)} workload(s) x "
                      f"{len(strategies)} strateg(ies), {policy.describe()}")
            outcome = run_chaos(workloads, strategies, policy=policy,
                                config=config, retry=retry)
    pgo = None
    if CHAOS_STALE_PROFILE in classes:
        if not args.json:
            print(f"chaos pgo: stale-profile injection against the "
                  f"continuous-PGO loop on {workloads[0].name} / "
                  f"{strategies[0].name}")
        pgo = _chaos_pgo_exercise(workloads, strategies, args)
    if args.json:
        payload: Dict[str, object] = {}
        if outcome is not None:
            payload = dict(outcome.as_dict())
        if pgo is not None:
            payload["pgo"] = {
                "policy": pgo["policy"],
                "ok": pgo["ok"],
                **pgo["outcome"].as_dict(),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if outcome is not None:
            print(outcome.describe())
        if pgo is not None:
            print(pgo["outcome"].describe())
            served = pgo["outcome"].stale_served
            if pgo["ok"] and not pgo["fresh_after_shift"] and served:
                verdict = ("total stale blackout: loop safely retained the "
                           "deployed layout (retain-stale rung)")
            elif pgo["ok"]:
                verdict = ("loop recovered (refresh on a fresh epoch, no "
                           "unguarded regression)")
            else:
                verdict = "LOOP DID NOT RECOVER"
            print(f"stale profiles served on {served} epoch(s); {verdict}")
    ok = (outcome is None or outcome.ok) and (pgo is None or pgo["ok"])
    return 0 if ok else 1


def cmd_pgo(args: argparse.Namespace) -> int:
    from .cache import ArtifactCache
    from .pgo import (
        CanaryPolicy,
        DriftScenario,
        DriftThresholds,
        run_scenario,
    )

    workload = _find_workload(args.workload)
    spec = _strategy(args.strategy)
    cache = ArtifactCache(Path(args.cache_dir)) if args.cache_dir else None
    pipeline = WorkloadPipeline(workload, cache=cache)
    scenario = DriftScenario(
        epochs=args.epochs,
        seed=args.seed,
        drift_epoch=args.drift_epoch,
        inject_bad_epoch=args.inject_bad,
    )
    thresholds = DriftThresholds(max_rank_distance=args.max_drift)
    canary = CanaryPolicy(max_regression=args.max_regression)
    outcome = run_scenario(pipeline, spec, scenario=scenario,
                           thresholds=thresholds, canary=canary)
    if args.json:
        print(json.dumps(outcome.as_dict(), indent=2, sort_keys=True))
    else:
        print(outcome.describe())
    # exit nonzero when the gate had to intervene (a candidate was
    # quarantined) or — worse — an unguarded regression shipped
    return 1 if (outcome.unguarded_regressions or outcome.quarantined) else 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .eval.scheduler import SweepScheduler
    from .obs import format_stats, get_registry, stats_dict

    workloads = [_find_workload(name) for name in args.workloads]
    specs = [_strategy(name) for name in args.strategy or sorted(STRATEGIES)]
    config = SchedulerConfig(
        cache_dir=args.cache_dir,
        max_workers=args.workers,
        iterations=args.iterations,
        base_seed=args.seed,
    )
    sweep = SweepScheduler(config).run(workloads, specs)
    snapshot = get_registry().snapshot()
    if args.json:
        print(json.dumps(stats_dict(snapshot), indent=2, sort_keys=True))
    else:
        print(sweep.summary())
        print()
        print(format_stats(snapshot))
    problems = []
    if args.openmetrics:
        from .obs import to_openmetrics, validate_openmetrics

        text = to_openmetrics(snapshot)
        Path(args.openmetrics).write_text(text)
        problems = validate_openmetrics(text)
        print(f"wrote {args.openmetrics} (OpenMetrics exposition)")
        for problem in problems:
            print(f"INVALID: {problem}")
    return 0 if sweep.ok and not problems else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import get_event_log, validate_trace

    workload = _find_workload(args.workload)
    spec = _strategy(args.strategy)
    pipeline = WorkloadPipeline(workload)
    pipeline.run_strategy(spec, seed=args.seed)
    log = get_event_log()
    path = log.export_chrome(args.output)
    payload = json.loads(Path(path).read_text())
    problems = validate_trace(payload)
    dropped = (f", {log.dropped} dropped at the "
               f"{log.max_events}-record cap" if log.dropped else "")
    print(f"wrote {path} ({len(payload['traceEvents'])} records{dropped}; "
          "load it in chrome://tracing or https://ui.perfetto.dev)")
    if args.events:
        print(f"wrote {log.export(args.events)} (the same records as JSONL)")
    for problem in problems:
        print(f"INVALID: {problem}")
    return 1 if problems else 0


def cmd_why(args: argparse.Namespace) -> int:
    from .eval.explain import explain_strategies, explain_strategy

    workload = _find_workload(args.workload)
    spec = _strategy(args.strategy)
    base_spec = (_strategy(args.baseline_strategy)
                 if args.baseline_strategy else None)
    pipeline = WorkloadPipeline(workload)
    if base_spec is not None:
        why = explain_strategies(pipeline, base_spec, spec, seed=args.seed)
    else:
        why = explain_strategy(pipeline, spec, seed=args.seed)
    if args.json:
        print(why.to_json())
    else:
        print(why.render(top=args.top))
    if args.csv:
        path = why.to_csv(args.csv)
        print(f"wrote {path} ({len(why.ranked)} unit rows)", file=sys.stderr)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from .cache import ArtifactCache
    from .ordering.optimize import optimize_workload

    cache = ArtifactCache(Path(args.cache_dir)) if args.cache_dir else None
    reports = []
    for workload_name in args.workloads:
        workload = _find_workload(workload_name)
        pipeline = WorkloadPipeline(workload, cache=cache)
        reports.append(optimize_workload(pipeline, seed=args.seed))
    if args.json:
        print(json.dumps([report.as_dict() for report in reports],
                         indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.describe())
            print()
        improved = sum(report.improved_sections for report in reports)
        print(f"{len(reports)} workload(s): {improved} section(s) strictly "
              f"improved, all never-worse: "
              f"{'yes' if all(r.ok for r in reports) else 'NO'}")
    return 0 if all(report.ok for report in reports) else 1


def cmd_report(args: argparse.Namespace) -> int:
    from .obs.history import BenchHistory
    from .obs.report import render_html, render_summary

    history = BenchHistory(args.history)
    entries = history.entries(matrix_hash=args.matrix)
    if args.last:
        entries = entries[-args.last:]
    print(render_summary(entries))
    if history.skipped:
        print(f"(skipped {history.skipped} unreadable history line(s); "
              "`repro history compact` drops them)")
    if not args.no_html:
        path = Path(args.output)
        path.write_text(render_html(entries))
        print(f"wrote {path} ({len(entries)} run(s), self-contained HTML)")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from .obs.history import BenchHistory

    history = BenchHistory(args.history)
    if args.action == "list":
        print(history.describe())
        if history.skipped:
            print(f"(skipped {history.skipped} unreadable line(s))")
        return 0
    if args.action == "prune":
        if args.keep is None and args.max_age_days is None:
            raise SystemExit("prune needs --keep and/or --max-age-days")
        max_age = (args.max_age_days * 86400.0
                   if args.max_age_days is not None else None)
        removed = history.prune(keep=args.keep, max_age_s=max_age)
        print(f"pruned {removed} entr(ies) from {history.path}; "
              f"{len(history)} remain")
        return 0
    if args.action == "compact":
        kept, dropped = history.compact()
        print(f"compacted {history.path}: {kept} entr(ies) at the current "
              f"schema, {dropped} unreadable line(s) dropped")
        return 0
    # action == "gate": trend-gate a payload file against the store
    from .eval.bench import check_trend

    try:
        payload = json.loads(Path(args.payload).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read payload {args.payload!r}: {exc}")
    failures = check_trend(payload, history, window=args.window)
    comparable = len(history.entries())
    if not failures:
        print(f"trend gate passed against {history.path} "
              f"({comparable} entr(ies) on file)")
        return 0
    for failure in failures:
        print(f"TREND FAILED: {failure}")
    return 1


def cmd_emit(args: argparse.Namespace) -> int:
    workload = _find_workload(args.workload)
    pipeline = WorkloadPipeline(workload)
    if args.strategy:
        spec = _strategy(args.strategy)
        outcome = pipeline.profile(seed=args.seed)
        binary = pipeline.build_optimized(outcome.profiles, spec, seed=args.seed)
    else:
        binary = pipeline.build_baseline(seed=args.seed)
    path = Path(args.output or f"{workload.name}.snib")
    size = write_snib(binary, path)
    print(f"wrote {path} ({size} bytes)")
    print()
    print(read_snib(path).describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Improving Native-Image Startup "
        "Performance' (CGO '25)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list workloads and strategies")
    p_list.set_defaults(func=cmd_list)

    p_figures = sub.add_parser("figures", help="regenerate Figures 2-5")
    p_figures.add_argument("--suite", choices=("awfy", "micro", "all"),
                           default="all")
    p_figures.add_argument("--builds", type=int, default=1,
                           help="builds per configuration: one sweep per "
                           "base seed 1..N (default: %(default)s)")
    p_figures.add_argument("--runs", type=int,
                           default=_field_default(SchedulerConfig, "iterations"),
                           help="cold-cache runs per build (default: %(default)s)")
    p_figures.add_argument("--only", nargs="*", help="restrict to workloads")
    p_figures.set_defaults(func=cmd_figures)

    p_overhead = sub.add_parser("overhead", help="Sec. 7.4 overhead table")
    p_overhead.add_argument("--only", nargs="*", help="restrict AWFY workloads")
    p_overhead.set_defaults(func=cmd_overhead)

    p_pagemap = sub.add_parser("pagemap", help="Fig. 6 page maps")
    p_pagemap.add_argument("workload", nargs="?", default="Bounce")
    p_pagemap.add_argument("--heap", action="store_true",
                           help="visualize .svm_heap instead of .text")
    p_pagemap.set_defaults(func=cmd_pagemap)

    p_compare = sub.add_parser("compare", help="strategy factors on one workload")
    p_compare.add_argument("workload")
    p_compare.add_argument("--strategy", help="a single strategy (default: all)")
    p_compare.add_argument("--seed", type=int, default=1)
    p_compare.set_defaults(func=cmd_compare)

    p_robust = sub.add_parser(
        "robustness",
        help="fault-inject a profiling run; show salvage + degradation",
    )
    p_robust.add_argument("workload", nargs="?", default="quarkus")
    p_robust.add_argument("--strategy", default="cu+heap path")
    p_robust.add_argument("--seed", type=int, default=1)
    p_robust.add_argument(
        "--faults", nargs="*",
        help="explicit faults as kind[:at[:bit]] "
        "(truncate_at_byte, drop_flush, bit_flip, kill_at_record, "
        "partial_header); default: a random plan from --fault-seed",
    )
    p_robust.add_argument("--fault-seed", type=int, default=1,
                          help="seed for the random fault plan")
    p_robust.add_argument("--n-faults", type=int, default=2,
                          help="faults in the random plan")
    from .robustness.degradation import DegradationPolicy as _DegradationPolicy

    p_robust.add_argument("--retries", type=int,
                          default=_field_default(_DegradationPolicy, "max_retries"),
                          help="profiling retries before default-layout "
                          "fallback (default: %(default)s)")
    p_robust.add_argument("--min-match-rate", type=float,
                          default=_field_default(_DegradationPolicy,
                                                 "min_match_rate"),
                          help="heap ID match-rate floor before heap fallback "
                          "(default: %(default)s)")
    p_robust.set_defaults(func=cmd_robustness)

    p_verify = sub.add_parser(
        "verify",
        help="layout-verification oracle: invariants + differential runs",
    )
    p_verify.add_argument("workloads", nargs="+",
                          help="workload names (AWFY or microservice)")
    p_verify.add_argument("--strategy", action="append",
                          help="a strategy to verify (repeatable; default: all)")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--max-ops", type=int, default=None,
                          help="watchdog instruction budget per run")
    p_verify.add_argument("--deadline", type=float, default=None,
                          help="watchdog wall-clock budget per run (seconds)")
    p_verify.add_argument("--no-differential", action="store_true",
                          help="skip the differential execution oracle")
    p_verify.add_argument("--mutate",
                          help="inject a layout mutation after each optimized "
                          "build to demo quarantine-and-rollback")
    p_verify.add_argument("--mutate-seed", type=int, default=1,
                          help="target pick for --mutate")
    p_verify.set_defaults(func=cmd_verify)

    from .eval.bench import DEFAULT_OUTPUT as _BENCH_OUTPUT
    from .eval.bench import BenchConfig as _BenchConfig

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the evaluation pipeline: serial vs parallel vs "
        "warm cache",
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="CI smoke matrix (3 workloads x 2 strategies)")
    p_bench.add_argument("--only", nargs="*",
                         help="restrict to these workloads (default: all)")
    p_bench.add_argument("--strategy", action="append",
                         help="a strategy to bench (repeatable; default: all)")
    p_bench.add_argument("--iterations", type=int,
                         default=_field_default(_BenchConfig, "iterations"),
                         help="measurement runs per binary "
                         "(default: %(default)s)")
    p_bench.add_argument("--seed", type=int,
                         default=_field_default(_BenchConfig, "base_seed"),
                         help="base seed for per-task seeding "
                         "(default: %(default)s)")
    p_bench.add_argument("--workers", type=int,
                         default=_field_default(_BenchConfig, "max_workers"),
                         help="worker processes; 0 = one per core "
                         "(default: %(default)s)")
    p_bench.add_argument("--cache-dir",
                         default=_field_default(_BenchConfig, "cache_dir"),
                         help="persistent cache directory (default: a fresh "
                         "temporary directory, deleted afterwards)")
    p_bench.add_argument("-o", "--output",
                         default=_field_default(_BenchConfig, "output"),
                         help="result JSON path (default: %(default)s)")
    p_bench.add_argument("--skip-serial", action="store_true",
                         help="skip the slow serial reference phase")
    p_bench.add_argument("--no-attribution", action="store_true",
                         help="skip the attribution phase (observer-enabled "
                         "runs + per-workload blame report)")
    p_bench.add_argument("--no-chaos", action="store_true",
                         help="skip the chaos phase (fault-injected sweep "
                         "+ identity check)")
    p_bench.add_argument("--chaos-rate", type=float,
                         default=_field_default(_BenchConfig, "chaos_rate"),
                         help="per-cell fault probability of the chaos phase "
                         "(default: %(default)s)")
    p_bench.add_argument("--chaos-seed", type=int,
                         default=_field_default(_BenchConfig, "chaos_seed"),
                         help="chaos schedule seed (default: %(default)s)")
    p_bench.add_argument("--no-pgo", action="store_true",
                         help="skip the pgo phase (continuous-PGO drift "
                         "scenario + canary gate)")
    p_bench.add_argument("--pgo-epochs", type=int,
                         default=_field_default(_BenchConfig, "pgo_epochs"),
                         help="traffic epochs of the pgo drift scenario "
                         "(default: %(default)s)")
    p_bench.add_argument("--pgo-seed", type=int,
                         default=_field_default(_BenchConfig, "pgo_seed"),
                         help="pgo scenario seed (default: %(default)s)")
    p_bench.add_argument("--no-optimize", action="store_true",
                         help="skip the optimize phase (search-based layout "
                         "optimizer vs its seed strategy)")
    p_bench.add_argument("--check", action="store_true",
                         help="exit non-zero unless warm hit rate is 100%% "
                         "and all phases agree (CI mode)")
    from .eval.bench import DEFAULT_WALL_TOLERANCE as _WALL_TOL

    p_bench.add_argument("--baseline",
                         help="committed BENCH_pipeline.json to gate against; "
                         "exit non-zero on wall-clock or hit-rate regression")
    p_bench.add_argument("--max-regression", type=float, default=_WALL_TOL,
                         help="allowed fractional wall-clock slowdown vs the "
                         "baseline (default: %(default)s)")
    p_bench.add_argument("--history",
                         default=_field_default(_BenchConfig, "history"),
                         help="bench history store (JSONL) clean runs append "
                         "to (default: %(default)s)")
    p_bench.add_argument("--no-history", action="store_true",
                         help="do not append this run to the history store")
    p_bench.add_argument("--trend", action="store_true",
                         help="gate against the history trend: rolling "
                         "median ± MAD step detection plus CUSUM drift "
                         "detection per phase/cell series (exit 1 names the "
                         "regressed series and the top blamed symbols)")
    p_bench.add_argument("--trend-window", type=int,
                         default=_field_default(_BenchConfig, "trend_window"),
                         help="history entries the trend gate compares "
                         "against (default: %(default)s)")
    p_bench.add_argument("--openmetrics", metavar="PATH",
                         help="also export the run's merged metrics registry "
                         "as OpenMetrics text exposition (validated; "
                         "problems fail the command)")
    p_bench.set_defaults(func=cmd_bench)

    p_report = sub.add_parser(
        "report",
        help="render the bench history as a terminal summary + a "
        "self-contained HTML dashboard (sparklines, PGO timeline, "
        "regression annotations)",
    )
    p_report.add_argument("--history",
                          default=_field_default(_BenchConfig, "history"),
                          help="bench history store to render "
                          "(default: %(default)s)")
    p_report.add_argument("-o", "--output", default="BENCH_report.html",
                          help="HTML dashboard path (default: %(default)s)")
    p_report.add_argument("--no-html", action="store_true",
                          help="terminal summary only, skip the HTML file")
    p_report.add_argument("--matrix", metavar="HASH",
                          help="restrict to entries with this matrix hash "
                          "(default: all entries)")
    p_report.add_argument("--last", type=int, default=0,
                          help="render only the newest N entries "
                          "(default: all)")
    p_report.set_defaults(func=cmd_report)

    p_history = sub.add_parser(
        "history",
        help="manage the bench history store: list, prune, compact, or "
        "trend-gate a payload against it",
    )
    p_history.add_argument("action",
                           choices=("list", "prune", "compact", "gate"),
                           help="list entries / drop old entries / rewrite "
                           "at the current schema / trend-gate a payload")
    p_history.add_argument("--history",
                           default=_field_default(_BenchConfig, "history"),
                           help="bench history store (default: %(default)s)")
    p_history.add_argument("--keep", type=int, default=None,
                           help="prune: retain only the newest N entries")
    p_history.add_argument("--max-age-days", type=float, default=None,
                           help="prune: drop entries older than this many "
                           "days")
    p_history.add_argument("--payload", default=_BENCH_OUTPUT,
                           help="gate: bench payload JSON to trend-gate "
                           "(default: %(default)s)")
    p_history.add_argument("--window", type=int,
                           default=_field_default(_BenchConfig,
                                                  "trend_window"),
                           help="gate: history entries to compare against "
                           "(default: %(default)s)")
    p_history.set_defaults(func=cmd_history)

    from .eval.scheduler import RetryPolicy as _RetryPolicy
    from .robustness.chaos import CHAOS_CLASS_UNIVERSE as _CHAOS_CLASSES
    from .robustness.chaos import ChaosPolicy as _ChaosPolicy

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-inject a parallel sweep and verify surviving results "
        "are byte-identical to a fault-free serial run",
    )
    p_chaos.add_argument("--only", nargs="*",
                         help="restrict to these workloads (default: all)")
    p_chaos.add_argument("--strategy", action="append",
                         help="a strategy to sweep (repeatable; default: all)")
    p_chaos.add_argument("--seed", type=int,
                         default=_field_default(_ChaosPolicy, "seed"),
                         help="chaos schedule seed; the same seed fails the "
                         "same cells the same way (default: %(default)s)")
    p_chaos.add_argument("--rate", type=float, default=0.2,
                         help="per-cell fault probability in [0, 1] "
                         "(default: %(default)s)")
    p_chaos.add_argument("--fault-classes", nargs="*",
                         choices=list(_CHAOS_CLASSES), metavar="CLASS",
                         help="fault classes to inject; choose from "
                         f"{', '.join(_CHAOS_CLASSES)} (default: all sweep "
                         "classes; stale_profile additionally exercises the "
                         "continuous-PGO loop's drift-detector recovery)")
    p_chaos.add_argument("--persistent", action="store_true",
                         help="unrecoverable mode: targeted cells fail every "
                         "attempt and must end in poison-task quarantine "
                         "(the sweep still completes; exit status 1)")
    p_chaos.add_argument("--hang", type=float, default=0.5,
                         help="injected hang duration in seconds "
                         "(default: %(default)s)")
    p_chaos.add_argument("--deadline", type=float, default=None,
                         help="per-task wall-clock ceiling in seconds "
                         "(default: unbounded)")
    p_chaos.add_argument("--max-attempts", type=int,
                         default=_field_default(_RetryPolicy, "max_attempts"),
                         help="attempts per task before poison conviction "
                         "(default: %(default)s)")
    p_chaos.add_argument("--workers", type=int,
                         default=_field_default(SchedulerConfig,
                                                "max_workers"),
                         help="worker processes; 0 = one per core, 1 = inline "
                         "(default: %(default)s)")
    p_chaos.add_argument("--base-seed", type=int,
                         default=_field_default(SchedulerConfig, "base_seed"),
                         help="base seed for per-task seeding "
                         "(default: %(default)s)")
    p_chaos.add_argument("--iterations", type=int,
                         default=_field_default(SchedulerConfig,
                                                "iterations"),
                         help="measurement runs per binary "
                         "(default: %(default)s)")
    p_chaos.add_argument("--cache-dir",
                         help="artifact-cache directory for the chaos sweep "
                         "(default: a fresh temporary directory)")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the machine-readable health report")
    p_chaos.set_defaults(func=cmd_chaos)

    from .pgo import CanaryPolicy as _CanaryPolicy
    from .pgo import DriftScenario as _DriftScenario
    from .pgo import DriftThresholds as _DriftThresholds

    p_pgo = sub.add_parser(
        "pgo",
        help="drive the continuous-PGO loop through a seeded drift "
        "scenario: detect profile staleness, canary-gate the re-layout, "
        "quarantine and roll back bad candidates",
    )
    p_pgo.add_argument("--workload", default="Queens")
    p_pgo.add_argument("--strategy", default="cu+heap path",
                       help="ordering strategy the loop deploys "
                       "(default: %(default)s)")
    p_pgo.add_argument("--epochs", type=int,
                       default=_field_default(_DriftScenario, "epochs"),
                       help="traffic epochs to observe (default: %(default)s)")
    p_pgo.add_argument("--seed", type=int,
                       default=_field_default(_DriftScenario, "seed"),
                       help="scenario seed; drives traffic synthesis, the "
                       "mix schedule and all builds (default: %(default)s)")
    p_pgo.add_argument("--drift-epoch", type=int,
                       default=_field_default(_DriftScenario, "drift_epoch"),
                       help="epoch at which live traffic genuinely shifts "
                       "(default: %(default)s)")
    p_pgo.add_argument("--inject-bad", type=int, metavar="EPOCH",
                       default=_field_default(_DriftScenario,
                                              "inject_bad_epoch"),
                       help="damage the re-layout candidate built at this "
                       "epoch; the canary gate must quarantine it and roll "
                       "back (exit 1 names the quarantined layout; "
                       "default: no injection)")
    p_pgo.add_argument("--max-drift", type=float,
                       default=_field_default(_DriftThresholds,
                                              "max_rank_distance"),
                       help="rank-distance threshold above which the "
                       "deployed profile counts as drifted "
                       "(default: %(default)s)")
    p_pgo.add_argument("--max-regression", type=float,
                       default=_field_default(_CanaryPolicy,
                                              "max_regression"),
                       help="allowed fractional fault regression of a "
                       "candidate vs the deployed layout "
                       "(default: %(default)s)")
    p_pgo.add_argument("--cache-dir",
                       help="artifact-cache directory shared with other "
                       "commands (default: uncached)")
    p_pgo.add_argument("--json", action="store_true",
                       help="print the machine-readable scenario outcome")
    p_pgo.set_defaults(func=cmd_pgo)

    p_stats = sub.add_parser(
        "stats",
        help="run a sweep and print the merged metrics-registry summary",
    )
    p_stats.add_argument("workloads", nargs="+",
                         help="workload names (AWFY or microservice)")
    p_stats.add_argument("--strategy", action="append",
                         help="a strategy to run (repeatable; default: all)")
    p_stats.add_argument("--seed", type=int,
                         default=_field_default(SchedulerConfig, "base_seed"),
                         help="base seed for per-task seeding "
                         "(default: %(default)s)")
    p_stats.add_argument("--iterations", type=int,
                         default=_field_default(SchedulerConfig, "iterations"),
                         help="measurement runs per binary "
                         "(default: %(default)s)")
    p_stats.add_argument("--workers", type=int,
                         default=_field_default(SchedulerConfig, "max_workers"),
                         help="worker processes; 0 = one per core, 1 = inline "
                         "(default: %(default)s)")
    p_stats.add_argument("--cache-dir",
                         default=_field_default(SchedulerConfig, "cache_dir"),
                         help="persistent artifact-cache directory "
                         "(default: uncached)")
    p_stats.add_argument("--json", action="store_true",
                         help="print the snapshot as JSON (with the "
                         "deterministic sweep.* plane broken out)")
    p_stats.add_argument("--openmetrics", metavar="PATH",
                         help="also export the snapshot as OpenMetrics text "
                         "exposition (validated; problems exit 1)")
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser(
        "trace",
        help="run one strategy end-to-end and export a Chrome trace",
    )
    p_trace.add_argument("workload", nargs="?", default="Bounce")
    p_trace.add_argument("--strategy", default="cu+heap path")
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.add_argument("-o", "--output", default="trace.json",
                         help="trace-event JSON path (default: %(default)s)")
    p_trace.add_argument("--events", metavar="PATH",
                         help="also export the same records as JSONL, one "
                         "per line with its causal ids")
    p_trace.set_defaults(func=cmd_trace)

    p_why = sub.add_parser(
        "why",
        help="explain a layout's fault profile: ranked per-unit blame vs "
        "the baseline image",
    )
    p_why.add_argument("--workload", default="Bounce")
    p_why.add_argument("--strategy", default="cu",
                       help="optimized layout to explain (default: %(default)s)")
    p_why.add_argument("--seed", type=int, default=1)
    p_why.add_argument("--top", type=int, default=10,
                       help="changed units shown in the text report "
                       "(default: %(default)s)")
    p_why.add_argument("--json", action="store_true",
                       help="print the full machine-readable report")
    p_why.add_argument("--csv",
                       help="also export the per-unit delta table as CSV")
    p_why.add_argument("--baseline-strategy", metavar="STRATEGY",
                       help="diff against this strategy's optimized layout "
                       "instead of the regular baseline image (e.g. "
                       "--baseline-strategy cu --strategy cu-opt explains "
                       "per-CU where the search beat first-use order)")
    p_why.set_defaults(func=cmd_why)

    p_opt = sub.add_parser(
        "optimize",
        help="search-based layout optimizer: beat first-use ordering, "
        "verify the winner, report cu-opt-vs-cu fault counts",
    )
    p_opt.add_argument("workloads", nargs="+",
                       help="workload names (AWFY or microservice)")
    p_opt.add_argument("--seed", type=int, default=0,
                       help="pipeline seed for profiling and builds "
                       "(default: %(default)s)")
    p_opt.add_argument("--cache-dir",
                       help="artifact-cache directory shared with other "
                       "commands (default: uncached)")
    p_opt.add_argument("--json", action="store_true",
                       help="print the machine-readable reports")
    p_opt.set_defaults(func=cmd_optimize)

    p_emit = sub.add_parser("emit", help="write a built image as a SNIB file")
    p_emit.add_argument("workload")
    p_emit.add_argument("-o", "--output")
    p_emit.add_argument("--strategy", help="build optimized with this strategy")
    p_emit.add_argument("--seed", type=int, default=1)
    p_emit.set_defaults(func=cmd_emit)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
