"""Differential execution oracle: baseline vs. optimized behavior.

Reordering is a pure layout transformation — the baseline and optimized
binaries of one workload must produce *identical observable behavior*:
same result, same printed output, same per-method call counts.  Page-fault
counts and instruction totals legitimately differ (PGO folding removes
static reads; that is the point), so they are recorded but never compared.
Any divergence in the observables is a layout/build bug, never a perf
artifact, and fails verification.

Run-to-completion (AWFY) workloads compare the full observable record.
Microservice workloads are SIGKILLed after the first response, and thread
interleaving past the response point shifts with instruction counts; they
compare the first-response payload and the *main thread's* call counts at
the response — the portion of behavior that is deterministic up to the
measurement point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..image.binary import NativeImageBinary
from ..runtime.executor import ExecutionConfig, RunMetrics
from .watchdog import WatchdogBudget, WatchdogReport, run_with_watchdog

#: divergence kinds
D_RESULT = "result"
D_OUTPUT = "output"
D_CALL_COUNTS = "call-counts"
D_RESPONSE = "response"
D_RUN_FAILED = "run-failed"


class CallCountRecorder:
    """A tracer-shaped observer that only counts method entries.

    Satisfies the executor's tracer surface (``on_*``, ``kill``,
    ``terminate``, ``event_counts``) without probes or trace files, so the
    observed run stays a *regular* run — the oracle compares production
    behavior, not instrumented behavior.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.main_counts: Dict[str, int] = {}
        self.first_response: Optional[Any] = None
        self.counts_at_response: Optional[Dict[str, int]] = None

    # -- executor tracer surface ----------------------------------------

    def on_method_enter(self, frame, caller, cu_entered, thread) -> None:
        signature = frame.method.signature
        self.counts[signature] = self.counts.get(signature, 0) + 1
        if thread.name == "main":
            self.main_counts[signature] = self.main_counts.get(signature, 0) + 1

    def on_method_exit(self, frame, thread) -> None:
        pass

    def on_object_access(self, obj, op, thread) -> None:
        pass

    def on_block(self, frame, leader_pc, thread) -> None:
        pass

    def leaders_for(self, method):
        return None

    def on_respond(self, value) -> None:
        if self.first_response is None:
            self.first_response = value
            self.counts_at_response = dict(self.main_counts)

    def kill(self, interp) -> None:
        pass

    def terminate(self, interp) -> None:
        pass

    def event_counts(self) -> Dict[str, int]:
        return {}  # no probes -> no overhead in the time model


@dataclass(frozen=True)
class Divergence:
    """One observable difference between the baseline and optimized runs."""

    kind: str
    detail: str

    def describe(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class DifferentialReport:
    """Everything one baseline-vs-optimized comparison produced."""

    workload: str = ""
    strategy: str = ""
    microservice: bool = False
    baseline_ops: int = 0
    optimized_ops: int = 0
    compared_signatures: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    baseline_watchdog: Optional[WatchdogReport] = None
    optimized_watchdog: Optional[WatchdogReport] = None

    @property
    def matches(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        head = (f"differential oracle [{self.workload}"
                + (f" / {self.strategy}" if self.strategy else "") + "]: ")
        body = (f"{self.compared_signatures} signatures compared, "
                f"ops {self.baseline_ops} vs {self.optimized_ops}")
        if self.matches:
            return head + "behavior identical (" + body + ")"
        lines = [head + f"{len(self.divergences)} divergence(s) (" + body + ")"]
        for divergence in self.divergences:
            lines.append(f"  - {divergence.describe()}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()


def run_differential(
    baseline: NativeImageBinary,
    optimized: NativeImageBinary,
    config: Optional[ExecutionConfig] = None,
    workload: str = "",
    strategy: str = "",
    microservice: bool = False,
    watchdog: Optional[WatchdogBudget] = None,
) -> DifferentialReport:
    """Run both binaries on the same workload and compare observables."""
    report = DifferentialReport(workload=workload, strategy=strategy,
                                microservice=microservice)

    base_recorder = CallCountRecorder()
    opt_recorder = CallCountRecorder()
    base_run = run_with_watchdog(baseline, config, watchdog,
                                 tracer=base_recorder)
    opt_run = run_with_watchdog(optimized, config, watchdog,
                                tracer=opt_recorder)
    report.baseline_watchdog = base_run
    report.optimized_watchdog = opt_run

    if not base_run.completed or not opt_run.completed:
        for label, run in (("baseline", base_run), ("optimized", opt_run)):
            if not run.completed:
                report.divergences.append(Divergence(
                    D_RUN_FAILED, f"{label} run did not complete: "
                    f"{run.describe()}"))
        return report

    base_metrics: RunMetrics = base_run.metrics
    opt_metrics: RunMetrics = opt_run.metrics
    report.baseline_ops = base_metrics.ops
    report.optimized_ops = opt_metrics.ops

    if microservice:
        _compare_response(report, base_recorder, opt_recorder)
    else:
        _compare_complete(report, base_metrics, opt_metrics,
                          base_recorder, opt_recorder)
    return report


def _compare_complete(report: DifferentialReport,
                      base_metrics: RunMetrics, opt_metrics: RunMetrics,
                      base_recorder: CallCountRecorder,
                      opt_recorder: CallCountRecorder) -> None:
    if base_metrics.result != opt_metrics.result:
        report.divergences.append(Divergence(
            D_RESULT, f"main result {base_metrics.result!r} vs "
            f"{opt_metrics.result!r}"))
    if base_metrics.output != opt_metrics.output:
        detail = _first_output_difference(base_metrics.output,
                                          opt_metrics.output)
        report.divergences.append(Divergence(D_OUTPUT, detail))
    report.compared_signatures = _compare_counts(
        report, base_recorder.counts, opt_recorder.counts)


def _compare_response(report: DifferentialReport,
                      base_recorder: CallCountRecorder,
                      opt_recorder: CallCountRecorder) -> None:
    if base_recorder.first_response != opt_recorder.first_response:
        report.divergences.append(Divergence(
            D_RESPONSE, f"first response "
            f"{_clip(base_recorder.first_response)} vs "
            f"{_clip(opt_recorder.first_response)}"))
    base_counts = base_recorder.counts_at_response
    opt_counts = opt_recorder.counts_at_response
    if base_counts is None or opt_counts is None:
        if (base_counts is None) != (opt_counts is None):
            missing = "baseline" if base_counts is None else "optimized"
            report.divergences.append(Divergence(
                D_RESPONSE, f"{missing} run never responded"))
        return
    report.compared_signatures = _compare_counts(report, base_counts,
                                                 opt_counts)


def _compare_counts(report: DifferentialReport,
                    base_counts: Dict[str, int],
                    opt_counts: Dict[str, int]) -> int:
    signatures = sorted(set(base_counts) | set(opt_counts))
    for signature in signatures:
        base = base_counts.get(signature, 0)
        opt = opt_counts.get(signature, 0)
        if base != opt:
            report.divergences.append(Divergence(
                D_CALL_COUNTS,
                f"{signature} called {base} times in baseline, "
                f"{opt} in optimized"))
    return len(signatures)


def _first_output_difference(base: List[str], opt: List[str]) -> str:
    for index, (left, right) in enumerate(zip(base, opt)):
        if left != right:
            return (f"line {index}: {_clip(left)} vs {_clip(right)}")
    return (f"output length {len(base)} vs {len(opt)} "
            f"(first {min(len(base), len(opt))} lines equal)")


def _clip(value: Any, limit: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
