"""Measurement helpers: cells, failure accounting, aggregates, rusage."""

from __future__ import annotations

import math
import multiprocessing
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class Cell:
    """One (program, strategy) evaluation: a baseline and an optimized run.

    ``base``/``opt`` hold the paper's per-strategy measurements of each run
    (``faults`` in the strategy's sections, ``time_s``); ``problems`` lists
    every failed output check — an empty list means the cell passed.
    """

    cell: str
    base: Dict[str, float] = field(default_factory=dict)
    opt: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def factor(self, key: str) -> float:
        """Baseline ÷ optimized value of ``key`` (higher is better)."""
        return self.base[key] / self.opt[key]

    def check_positive(self) -> None:
        """A run that reports no faults or no time produced wrong output."""
        for side, values in (("baseline", self.base), ("optimized", self.opt)):
            for key in ("faults", "time_s"):
                if not values.get(key, 0) > 0:
                    self.problems.append(f"{side} {key} is not positive")


@dataclass
class Unit:
    """One timed repetition: a sweep, a warm pass, or a round of programs."""

    wall_s: float
    cpu_s: float
    cells: List[Cell]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive numbers."""
    if not values:
        raise ValueError("geomean of no values")
    if min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fail_counts(cells: Sequence[Cell]) -> Dict[str, int]:
    """``attempted``/``failed`` cell counts; a cell fails on any problem."""
    return {"attempted": len(cells),
            "failed": sum(1 for cell in cells if not cell.ok)}


def fail_rate(cells: Sequence[Cell]) -> float:
    counts = fail_counts(cells)
    return counts["failed"] / counts["attempted"] if cells else 1.0


def cells_per_s(units: Sequence[Unit]) -> float:
    """Median over units of cells completed per wall second."""
    return statistics.median(len(u.cells) / u.wall_s for u in units)


def cpu_s_per_cell(units: Sequence[Unit]) -> float:
    return statistics.median(u.cpu_s / len(u.cells) for u in units)


def cpu_seconds() -> float:
    """User + system CPU of this process and every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    Linux reports ``ru_maxrss`` in KiB; for children it is the peak of
    the largest one, which for a sweep is a pool worker.
    """
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every child process (pool workers) has exited.

    The scheduler shuts its pool down without waiting; reaping here makes
    the workers' CPU time count and leaves no process behind.  The pool's
    own thread may reap a worker concurrently, in which case ``join``
    returns before the exit is recorded, so poll until none is listed.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        alive = multiprocessing.active_children()
        if not alive:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"{len(alive)} worker process(es) did not exit")
        alive[0].join(0.05)
