"""Chaos sweeps: run the matrix under fault injection, prove identity.

This is the harness behind ``repro chaos``, the bench chaos phase, and the
CI chaos-smoke job.  It runs the workload × strategy matrix twice:

1. a **fault-free serial reference** (unless the caller already has one —
   the bench reuses its cold-cache phase) in its own scratch cache, and
2. the **chaos sweep**: the parallel scheduler with a
   :class:`~repro.robustness.chaos.ChaosPolicy` armed, a
   :class:`~repro.eval.scheduler.RetryPolicy` to recover, and a per-task
   deadline to catch injected hangs,

then checks the headline invariant: every cell that *survives* the chaos
sweep must be byte-identical (canonical JSON) to the fault-free reference.
Faults may cost wall-clock or quarantine poison cells; they must never
silently change a result.  The outcome bundles the sweep, the identity
verdict, and the :class:`~repro.eval.scheduler.SweepHealthReport` into one
JSON-able report.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..obs import get_event_log
from ..robustness.chaos import ChaosPolicy
from .pipeline import ALL_STRATEGY_SPECS, StrategySpec, Workload
from .scheduler import (
    RetryPolicy,
    SchedulerConfig,
    SweepResult,
    SweepScheduler,
)


def _canonical_key(cell: Dict[str, Any]) -> str:
    return f"{cell['workload']}/{cell['strategy']}"


def _canonical_json(cell: Dict[str, Any]) -> str:
    return json.dumps(cell, sort_keys=True, separators=(",", ":"))


@dataclass
class ChaosOutcome:
    """One chaos sweep, its reference, and the identity verdict."""

    policy: ChaosPolicy
    sweep: SweepResult
    #: canonical cells of the fault-free reference, keyed workload/strategy
    reference: Dict[str, str] = field(default_factory=dict)
    #: wall-clock of the reference run (0 when the caller precomputed it)
    reference_wall_s: float = 0.0
    #: surviving cells whose canonical result diverged from the reference
    divergent: List[str] = field(default_factory=list)
    #: surviving cells with no reference cell to compare against
    unmatched: List[str] = field(default_factory=list)
    #: surviving cells checked and found byte-identical
    checked: int = 0

    @property
    def surviving(self) -> List[str]:
        return [f"{t.workload}/{t.strategy}"
                for t in self.sweep.tasks if t.ok]

    @property
    def failed(self) -> List[str]:
        return [f"{t.workload}/{t.strategy}: {t.error}"
                for t in self.sweep.tasks if not t.ok]

    @property
    def quarantined(self) -> List[str]:
        return [f"{e.workload}/{e.strategy}"
                for e in self.sweep.quarantine.entries.values()]

    @property
    def identity_ok(self) -> bool:
        return not self.divergent and not self.unmatched

    @property
    def ok(self) -> bool:
        """Fully healthy: every cell survived and matched the reference."""
        return (self.identity_ok and not self.failed
                and not self.quarantined)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "policy": {
                "seed": self.policy.seed,
                "rate": self.policy.rate,
                "classes": list(self.policy.classes),
                "persistent": self.policy.persistent,
            },
            "cells": len(self.sweep.tasks),
            "surviving": len(self.surviving),
            "failed": self.failed,
            "quarantined": self.quarantined,
            "identity": {
                "ok": self.identity_ok,
                "checked": self.checked,
                "divergent": self.divergent,
                "unmatched": self.unmatched,
            },
            "health": self.sweep.health.as_dict(),
            "wall_s": round(self.sweep.wall_s, 6),
            "reference_wall_s": round(self.reference_wall_s, 6),
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"chaos sweep [{self.policy.describe()}]: "
            f"{len(self.surviving)}/{len(self.sweep.tasks)} cell(s) "
            f"survived in {self.sweep.wall_s:.2f}s",
            ("identity: OK — every surviving result byte-identical to the "
             f"fault-free serial reference ({self.checked} checked)")
            if self.identity_ok else
            (f"identity: FAILED — {len(self.divergent)} divergent, "
             f"{len(self.unmatched)} unmatched"),
        ]
        for cell in self.divergent:
            lines.append(f"  DIVERGENT {cell}")
        for cell in self.quarantined:
            lines.append(f"  quarantined: {cell}")
        lines.append(self.sweep.health.describe())
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def check_identity(outcome: ChaosOutcome) -> None:
    """Compare every surviving cell against the reference (in place)."""
    outcome.divergent = []
    outcome.unmatched = []
    outcome.checked = 0
    for cell in outcome.sweep.canonical():
        if cell["error"] is not None:
            continue  # failed/poisoned cells are reported, not compared
        key = _canonical_key(cell)
        expected = outcome.reference.get(key)
        if expected is None:
            outcome.unmatched.append(key)
        elif _canonical_json(cell) != expected:
            outcome.divergent.append(key)
        else:
            outcome.checked += 1


def run_chaos(
    workloads: Iterable[Workload],
    strategies: Sequence[StrategySpec] = ALL_STRATEGY_SPECS,
    policy: Optional[ChaosPolicy] = None,
    config: Optional[SchedulerConfig] = None,
    retry: Optional[RetryPolicy] = None,
    reference_canonical: Optional[List[Dict[str, Any]]] = None,
    parallel: bool = True,
) -> ChaosOutcome:
    """Run the matrix under ``policy`` and verify the identity invariant.

    ``config`` is the *base* scheduler configuration; the chaos sweep runs
    with ``policy`` and ``retry`` (default :class:`RetryPolicy`) armed on
    top of it.  The fault-free serial reference runs in a scratch cache
    directory so injected cache damage cannot leak between the two runs —
    unless ``reference_canonical`` is supplied (e.g. the bench's cold
    phase), in which case no reference sweep runs at all.
    """
    workloads = list(workloads)
    policy = policy or ChaosPolicy()
    config = config or SchedulerConfig()
    chaos_config = replace(config, chaos=policy,
                           retry=retry or config.retry or RetryPolicy())

    outcome_reference: Dict[str, str] = {}
    reference_wall = 0.0
    if reference_canonical is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-ref-") as scratch:
            ref_config = replace(config, chaos=None, retry=None,
                                 cache_dir=scratch, max_workers=1)
            start = time.perf_counter()
            with get_event_log().span("chaos.reference",
                                      cells=len(workloads) * len(strategies)):
                ref = SweepScheduler(ref_config).run(workloads, strategies,
                                                     parallel=False)
            reference_wall = time.perf_counter() - start
            reference_canonical = ref.canonical()
    for cell in reference_canonical:
        outcome_reference[_canonical_key(cell)] = _canonical_json(cell)

    with get_event_log().span("chaos.sweep", seed=policy.seed,
                              rate=policy.rate):
        sweep = SweepScheduler(chaos_config).run(workloads, strategies,
                                                 parallel=parallel)
    outcome = ChaosOutcome(policy=policy, sweep=sweep,
                           reference=outcome_reference,
                           reference_wall_s=reference_wall)
    check_identity(outcome)
    return outcome
