"""The three workloads, driven only through the toolchain's public entry
points: :meth:`SweepScheduler.run` and
:meth:`NativeImageToolchain.optimize_and_compare`.

* ``sweep-cold`` — a fresh 6 programs × 7 strategies matrix on 2 workers
  with an empty artifact cache: what a researcher pays for a new matrix.
  Compile and profile are shared by the 7 layouts of a program, so builds,
  measure runs and cache writes dominate.
* ``sweep-warm`` — the same matrix re-run over the cache the set-up cold
  sweep filled: "re-run after no change", which should only read.
* ``app-pgo`` — every one of the 17 programs in turn through a fresh,
  uncached ``optimize_and_compare("cu+heap path")``: one app through
  profile → reorder → measure with no sharing, scheduler or cache.

Sweep programs, so that each layer leads somewhere: Queens, Permute and
Json are interpreter-heavy (Json has the slowest ops/s); DeltaBlue is
almost pure compile and build; Richards is a program where ``cu-opt``
loses to ``cu`` end to end; spring is the microservice with the largest
image and the slowest ``cu-opt`` search.  ``heap-opt`` is left out: it
equals ``heap path`` on every program.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from measure import Cell, Unit, cpu_seconds, reap_children

from repro.api import NativeImageToolchain
from repro.eval.pipeline import (
    PAPER_STRATEGY_SPECS,
    STRATEGY_COMBINED,
    STRATEGY_CU_OPT,
    metric_for_strategy,
)
from repro.eval.scheduler import SchedulerConfig, SweepScheduler
from repro.workloads import (
    AWFY_NAMES,
    MICROSERVICE_NAMES,
    awfy_workload,
    microservice_workload,
)

SWEEP_PROGRAMS = ("Queens", "Permute", "Json", "DeltaBlue", "Richards",
                  "spring")
SWEEP_STRATEGIES = PAPER_STRATEGY_SPECS + (STRATEGY_CU_OPT,)
SWEEP_WORKERS = 2

#: hand-written AWFY checksums of one startup-sized iteration, e.g. Sieve
#: 168 is the number of primes below 1000 and Towers 1023 is 2^10 - 1
GOLDEN = {
    "Bounce": 210, "CD": 11, "DeltaBlue": 7, "Havlak": 96049, "Json": 621,
    "List": 6, "Mandelbrot": 135, "NBody": 169069, "Permute": 8660,
    "Queens": 505, "Richards": 11003, "Sieve": 168, "Storage": 341,
    "Towers": 1023,
}


def program(name: str):
    if name in MICROSERVICE_NAMES:
        return microservice_workload(name)
    return awfy_workload(name)


class _Workload:
    """What every workload shares: its programs, set-up and clean-up."""

    program_names: Sequence[str] = ()
    #: cells evaluated during set-up; they are checked like timed ones
    setup_cells: Sequence[Cell] = ()

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.programs = [program(name) for name in self.program_names]

    def prepare(self) -> None:
        """Set-up work beyond imports and source generation (none here)."""

    def close(self) -> None:
        """Remove what :meth:`prepare` left on disk (nothing here)."""


class SweepCold(_Workload):
    """Fresh cold sweeps; each unit is one sweep into a new empty cache."""

    name = "sweep-cold"
    program_names = SWEEP_PROGRAMS

    def sweep(self, cache_dir: str) -> Tuple[Unit, list]:
        scheduler = SweepScheduler(SchedulerConfig(
            cache_dir=cache_dir, max_workers=SWEEP_WORKERS,
            base_seed=self.seed))
        cpu, start = cpu_seconds(), time.perf_counter()
        result = scheduler.run(self.programs, SWEEP_STRATEGIES)
        reap_children()
        wall = time.perf_counter() - start
        unit = Unit(wall, cpu_seconds() - cpu, sweep_cells(result))
        return unit, result.canonical()

    def run_unit(self) -> Unit:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        try:
            return self.sweep(cache_dir)[0]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class SweepWarm(SweepCold):
    """Warm passes over the cache one set-up cold sweep filled."""

    name = "sweep-warm"
    cache_dir: Optional[str] = None

    def prepare(self) -> None:
        """Create the cache and fill it with one cold sweep."""
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        fill, canonical = self.sweep(self.cache_dir)
        self.setup_cells = fill.cells
        self.reference = {_cell_id(c): json.dumps(c, sort_keys=True)
                          for c in canonical}

    def run_unit(self) -> Unit:
        unit, canonical = self.sweep(self.cache_dir)
        by_id = {cell.cell: cell for cell in unit.cells}
        for entry in canonical:
            cell_id = _cell_id(entry)
            if json.dumps(entry, sort_keys=True) != self.reference.get(cell_id):
                by_id[cell_id].problems.append(
                    "canonical result differs from the set-up cold sweep")
        return unit

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class AppPgo(_Workload):
    """Each unit runs all 17 programs once through an uncached toolchain."""

    name = "app-pgo"
    program_names = tuple(AWFY_NAMES) + tuple(MICROSERVICE_NAMES)

    def run_unit(self) -> Unit:
        outcomes = []
        cpu, start = cpu_seconds(), time.perf_counter()
        for workload in self.programs:
            toolchain = NativeImageToolchain(workload)
            report = toolchain.optimize_and_compare(STRATEGY_COMBINED.name,
                                                    self.seed)
            degradation = toolchain.last_degradation_report
            outcomes.append((workload, report,
                             degradation is not None and degradation.degraded,
                             len(toolchain.quarantine)))
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        return Unit(wall, cpu, [pgo_cell(*outcome) for outcome in outcomes])


WORKLOADS = {cls.name: cls for cls in (SweepCold, SweepWarm, AppPgo)}


def _cell_id(entry: dict) -> str:
    return f"{entry['workload']}/{entry['strategy']}"


def sweep_cells(result) -> List[Cell]:
    """One :class:`Cell` per task of a sweep, with its output checks."""
    expected = {f"{w}/{s.name}" for w in SWEEP_PROGRAMS
                for s in SWEEP_STRATEGIES}
    cells = []
    for task in result.tasks:
        cell = Cell(f"{task.workload}/{task.strategy}")
        expected.discard(cell.cell)
        if task.error:
            cell.problems.append(f"error: {task.error}")
        if task.degraded:
            cell.problems.append("degraded")
        if task.quarantined:
            cell.problems.append(f"quarantined: {task.quarantine_reason}")
        if len(task.baseline) != 1 or len(task.optimized) != 1:
            cell.problems.append("missing baseline or optimized run")
        else:
            cell.base, cell.opt = task.baseline[0], task.optimized[0]
            _check_runs(cell, cell.base["ops"], cell.opt["ops"])
        cells.append(cell)
    cells += [Cell(cell_id, problems=["cell missing from the sweep"])
              for cell_id in sorted(expected)]
    return cells


def pgo_cell(workload, report, degraded: bool, quarantined: int) -> Cell:
    """The output checks of one ``optimize_and_compare`` cell."""
    micro = workload.microservice
    cell = Cell(f"{workload.name}/{STRATEGY_COMBINED.name}",
                base=metric_for_strategy(report.baseline, STRATEGY_COMBINED,
                                         micro),
                opt=metric_for_strategy(report.optimized, STRATEGY_COMBINED,
                                        micro))
    if degraded:
        cell.problems.append("degraded")
    if quarantined:
        cell.problems.append("quarantined")
    for side, run in (("baseline", report.baseline),
                      ("optimized", report.optimized)):
        if micro:
            if run.first_response_time_s is None:
                cell.problems.append(f"{side} run recorded no first response")
        elif run.result != GOLDEN[workload.name]:
            cell.problems.append(f"{side} result {run.result!r} != "
                                 f"{GOLDEN[workload.name]}")
    _check_runs(cell, report.baseline.ops, report.optimized.ops)
    return cell


def _check_runs(cell: Cell, base_ops: float, opt_ops: float) -> None:
    if base_ops != opt_ops:
        cell.problems.append(
            f"op counts differ: baseline {base_ops:g}, optimized {opt_ops:g}")
    cell.check_positive()
