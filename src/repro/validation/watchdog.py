"""Watchdog-bounded execution of built binaries.

A pathological layout cannot change program semantics in this simulator,
but a buggy one can — and a buggy *workload* (or a mutated layout driving
the paging model into a corner) can spin long past any useful measurement.
The watchdog brackets a run with two budgets:

* a **step budget** — an instruction ceiling enforced inside the
  interpreter (``max_ops``), trapped here as the typed
  :class:`~repro.vm.values.OpsBudgetError`;
* a **deadline** — a wall-clock ceiling enforced by running the binary on
  a daemon worker thread and joining with a timeout, exactly how real
  benchmark harnesses detect hung subjects.

Either trip produces a :class:`WatchdogReport` instead of wedging the
pipeline; the caller decides whether a trip is a layout bug (differential
oracle: the optimized run must not time out when the baseline did not) or
an environment problem.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Tuple

from ..image.binary import NativeImageBinary
from ..runtime.executor import ExecutionConfig, RunMetrics, run_binary
from ..vm.values import OpsBudgetError

#: outcome states of a watchdog-bounded run
OUTCOME_COMPLETED = "completed"
OUTCOME_OPS_EXCEEDED = "ops-budget-exceeded"
OUTCOME_DEADLINE_EXCEEDED = "deadline-exceeded"
OUTCOME_CRASHED = "crashed"


@dataclass(frozen=True)
class WatchdogBudget:
    """Step and wall-clock ceilings for one run."""

    #: instruction ceiling (clamps the interpreter's ``max_ops``); None =
    #: keep the executor's own ceiling
    max_ops: Optional[int] = None
    #: wall-clock ceiling in seconds; None = no deadline thread
    deadline_s: Optional[float] = None

    def describe(self) -> str:
        parts = []
        if self.max_ops is not None:
            parts.append(f"max {self.max_ops} ops")
        if self.deadline_s is not None:
            parts.append(f"{self.deadline_s:g}s deadline")
        return ", ".join(parts) or "unbounded"


@dataclass
class WatchdogReport:
    """How one bounded run ended."""

    outcome: str = OUTCOME_COMPLETED
    elapsed_s: float = 0.0
    budget: WatchdogBudget = field(default_factory=WatchdogBudget)
    metrics: Optional[RunMetrics] = None
    error: str = ""

    @property
    def completed(self) -> bool:
        return self.outcome == OUTCOME_COMPLETED

    def describe(self) -> str:
        text = (f"watchdog [{self.budget.describe()}]: {self.outcome} "
                f"after {self.elapsed_s:.3f}s")
        if self.error:
            text += f" ({self.error})"
        return text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def call_with_deadline(fn, deadline_s: float) -> Tuple[bool, str]:
    """Run ``fn()`` on a daemon thread, abandoning it past ``deadline_s``.

    The generic form of the deadline half of :func:`run_with_watchdog`,
    reused by the sweep scheduler's hung-task guard: returns ``(True,
    error)`` when the call finished (``error`` is the formatted exception
    if it raised, else ``""``), or ``(False, detail)`` when the deadline
    tripped and the still-running call was abandoned — the same way a
    real watchdog would SIGKILL a wedged subject.
    """
    box: dict = {}

    def target() -> None:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, never wedge
            box["error"] = f"{type(exc).__name__}: {exc}"

    worker = threading.Thread(target=target, daemon=True,
                              name="repro-deadline-call")
    worker.start()
    worker.join(deadline_s)
    if worker.is_alive():
        return False, (f"still executing after {deadline_s:g}s; abandoned")
    return True, box.get("error", "")


def run_with_watchdog(
    binary: NativeImageBinary,
    config: Optional[ExecutionConfig] = None,
    budget: Optional[WatchdogBudget] = None,
    run_index: int = 0,
    tracer: Optional[Any] = None,
) -> WatchdogReport:
    """One cold run of ``binary`` under the given budgets.

    Never raises for budget trips or workload crashes — the report says
    what happened.  A deadline trip abandons the worker thread (daemon), as
    a real watchdog would SIGKILL the subject.
    """
    budget = budget or WatchdogBudget()
    if config is None:
        config = ExecutionConfig()
    if budget.max_ops is not None:
        config = replace(config, max_ops=min(config.max_ops, budget.max_ops))
    report = WatchdogReport(budget=budget)
    box: dict = {}

    def target() -> None:
        try:
            box["metrics"] = run_binary(binary, config, tracer=tracer,
                                        run_index=run_index)
        except OpsBudgetError as exc:
            box["ops_exceeded"] = str(exc)
        except Exception as exc:  # noqa: BLE001 - report, never wedge
            box["error"] = f"{type(exc).__name__}: {exc}"

    start = time.monotonic()
    if budget.deadline_s is None:
        target()
    else:
        worker = threading.Thread(target=target, daemon=True,
                                  name="repro-watchdog-run")
        worker.start()
        worker.join(budget.deadline_s)
        if worker.is_alive():
            report.outcome = OUTCOME_DEADLINE_EXCEEDED
            report.error = (f"run still executing after "
                            f"{budget.deadline_s:g}s; abandoned")
            report.elapsed_s = time.monotonic() - start
            return report
        if time.monotonic() - start > budget.deadline_s:
            # The run holds the GIL, so this thread may only wake once the
            # run is over; finishing late still overran the ceiling.
            report.outcome = OUTCOME_DEADLINE_EXCEEDED
            report.elapsed_s = time.monotonic() - start
            report.error = (f"run took {report.elapsed_s:.3g}s, past its "
                            f"{budget.deadline_s:g}s deadline")
            return report
    report.elapsed_s = time.monotonic() - start

    if "ops_exceeded" in box:
        report.outcome = OUTCOME_OPS_EXCEEDED
        report.error = box["ops_exceeded"]
    elif "error" in box:
        report.outcome = OUTCOME_CRASHED
        report.error = box["error"]
    else:
        report.metrics = box.get("metrics")
    return report
