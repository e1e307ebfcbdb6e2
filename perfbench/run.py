#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10
    python3 perfbench/run.py --workload app-pgo --trace 1   # per-layer run
    python3 perfbench/run.py                                # all workloads

The program is imported from this checkout's ``src/`` and nowhere else.
A run measures whole units of work (a sweep, a warm pass, or a round of
programs) until about ``--seconds`` have passed, checks every cell's
outputs, prints each metric with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` half the time
runs untraced and half traced, and the metrics are the per-layer ones.
The exit status is 0 only when every check passed.
"""

import time

#: set-up time counts from here, before the program is imported
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import (cells_per_s, cpu_s_per_cell, fail_counts,  # noqa: E402
                     fail_rate, geomean, peak_rss_mb)
from tracing import SpanRecorder  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep-cold", "sweep-warm", "app-pgo")
#: set-ups timed per run (this process plus fresh interpreters)
SETUP_SAMPLES = 5

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("cpu_s_per_cell", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
    ("fault_factor", "x"),
    ("sim_speedup", "x"),
)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the program is missing ({package})")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {package}")


def timed_units(workload, seconds: float) -> list:
    """Run whole units until ``seconds`` pass, stopping at the unit
    boundary nearest to it (always at least one unit)."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.run_unit())
        elapsed = time.perf_counter() - start
        if seconds - elapsed < elapsed / len(units) / 2:
            return units


def setup_seconds(args, first_sample: float, workload) -> float:
    """Median of several light set-ups plus the workload's heavy set-up.

    Light set-up (imports and source generation) is timed in this process
    and again in fresh interpreters; heavy set-up (the warm workload's
    cold fill) runs once.
    """
    samples = [first_sample]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout.split()[-1]))
    start = time.perf_counter()
    workload.prepare()
    return statistics.median(samples) + time.perf_counter() - start


def end_to_end(units, cells, setup_s: float) -> dict:
    ok = [cell for cell in cells if cell.ok]
    return {
        "cells_per_s": cells_per_s(units),
        "cpu_s_per_cell": cpu_s_per_cell(units),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "pass_rate": 1.0 - fail_rate(cells),
        "fault_factor": geomean([c.factor("faults") for c in ok]) if ok else 0.0,
        "sim_speedup": geomean([c.factor("time_s") for c in ok]) if ok else 0.0,
    }


def traced(workload, args) -> tuple:
    """Untraced then traced halves; per-layer metrics and gate problems."""
    from layers import LayerTracing, agreement_problems, layer_metrics

    from repro.obs import get_registry

    plain = timed_units(workload, args.seconds / 2)
    recorder = SpanRecorder()
    wrappers = LayerTracing(recorder)
    before = get_registry().snapshot()
    wrappers.install()
    try:
        root = recorder.open("bench.traced")
        try:
            units = timed_units(workload, args.seconds / 2)
        finally:
            recorder.close(root)
    finally:
        wrappers.uninstall()
    delta = get_registry().snapshot().diff(before)
    phase_counts = {name[len("phase."):-len(".seconds")]: hist.count
                    for name, hist in delta.histograms.items()
                    if name.startswith("phase.")
                    and name.endswith(".seconds")}
    problems = agreement_problems(recorder.spans, phase_counts)
    overhead = cells_per_s(plain) / cells_per_s(units)
    print(f"untraced {cells_per_s(plain):.4g} cells/s, "
          f"traced {cells_per_s(units):.4g} cells/s")
    metrics = layer_metrics(recorder.spans, len(units), overhead)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    print(f"{len(recorder.spans)} spans written to {spans_path}")
    return plain + units, metrics, problems


def run_one(args) -> int:
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    light_setup = time.perf_counter() - _STARTED
    if args.setup_probe:
        print(light_setup)
        return 0
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            workload.prepare()
            units, metrics, problems = traced(workload, args)
        else:
            setup_s = setup_seconds(args, light_setup, workload)
            units, problems = timed_units(workload, args.seconds), []
        cells = list(workload.setup_cells)
        cells += [cell for unit in units for cell in unit.cells]
    finally:
        workload.close()
    if args.trace:
        from layers import PER_LAYER
        units_of = {name: unit for name, unit, _better in PER_LAYER}
    else:
        metrics = end_to_end(units, cells, setup_s)
        units_of = dict(END_TO_END)

    counts = fail_counts(cells)
    walls = " ".join(f"{unit.wall_s:.2f}" for unit in units)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(units)} unit(s) of {walls} s, "
          f"{counts['attempted']} cells checked")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units_of[name]}")
    print(f"  {'fail_rate':36s} {counts['failed'] / counts['attempted']:14.6g}"
          f" ratio ({counts['failed']} of {counts['attempted']} cells failed)")
    for cell in cells:
        for problem in cell.problems:
            print(f"FAILED {cell.cell}: {problem}")
    for problem in problems:
        print(f"AGREEMENT FAILED {problem}")
    correct = counts["failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so each pays its own set-up."""
    status = 0
    for name in WORKLOAD_NAMES:
        status |= subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
