"""The layout regression explainer — ``repro why``.

The bench gate (PR 4) tells you *that* a layout regressed; this module
tells you *why*.  It diffs two :class:`StartupAttributionReport`s (usually
the baseline image vs an optimized one, or a before/after pair of the same
strategy) and emits a ranked report of the units — compilation units and
heap objects — responsible for the fault delta:

* units whose blamed fault share changed (gained/lost faults),
* units that moved across page boundaries between the two layouts,
* co-tenancy conflicts gained or lost (a unit newly sharing a faulted
  page with strangers is the classic false-sharing regression).

Ranking rule (documented in DESIGN.md Sec. 10): by absolute fault delta,
heaviest first; ties break towards units that moved, then by absolute
cost delta, then by name — so the top of the report is always the most
actionable blame.

Each side is one run from the pipeline's own ``measure`` path, replayed:
every run records its touch stream, and :func:`attributed_run` replays it
through the paging simulator to get the fault log attribution needs.  So
a warm cache serves profiles *and* runs unchanged, and a cached sweep
cell is explained by building its two layouts again, without running
the interpreter.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..obs.attrib import StartupAttributionReport, attribute
from ..runtime.executor import replay_touches
from .pipeline import StrategySpec, WorkloadPipeline


@dataclass
class UnitDelta:
    """How one unit's startup blame changed between two layouts."""

    unit: str
    section: str
    baseline_faults: float
    current_faults: float
    baseline_cost: float
    current_cost: float
    #: the unit's layout page span changed between the two binaries
    moved: bool
    #: faulted pages blamed on the unit, per side
    baseline_pages: Tuple[int, ...] = ()
    current_pages: Tuple[int, ...] = ()
    #: co-tenants (on faulted pages) gained / lost by the change
    new_conflicts: Tuple[str, ...] = ()
    lost_conflicts: Tuple[str, ...] = ()

    @property
    def fault_delta(self) -> float:
        return self.current_faults - self.baseline_faults

    @property
    def cost_delta(self) -> float:
        return self.current_cost - self.baseline_cost

    def as_dict(self) -> Dict[str, object]:
        return {
            "unit": self.unit,
            "section": self.section,
            "baseline_faults": self.baseline_faults,
            "current_faults": self.current_faults,
            "fault_delta": self.fault_delta,
            "baseline_cost": self.baseline_cost,
            "current_cost": self.current_cost,
            "cost_delta": self.cost_delta,
            "moved": self.moved,
            "baseline_pages": list(self.baseline_pages),
            "current_pages": list(self.current_pages),
            "new_conflicts": list(self.new_conflicts),
            "lost_conflicts": list(self.lost_conflicts),
        }


CSV_COLUMNS = [
    "section", "unit", "baseline_faults", "current_faults", "fault_delta",
    "baseline_cost", "current_cost", "cost_delta", "moved",
    "baseline_pages", "current_pages", "new_conflicts", "lost_conflicts",
]


@dataclass
class WhyReport:
    """Ranked explanation of the fault delta between two layouts."""

    workload: str
    strategy: str
    baseline: StartupAttributionReport
    current: StartupAttributionReport
    #: every unit whose blame, position, or conflicts changed, ranked
    ranked: List[UnitDelta] = field(default_factory=list)

    @property
    def fault_delta(self) -> int:
        return self.current.total_faults - self.baseline.total_faults

    @property
    def cost_delta(self) -> float:
        return self.current.total_cost - self.baseline.total_cost

    @property
    def moved_units(self) -> List[str]:
        return [delta.unit for delta in self.ranked if delta.moved]

    def top_blamed(self, count: int = 3) -> List[str]:
        """The heaviest-ranked unit names (the bench gate's diagnosis line)."""
        return [delta.unit for delta in self.ranked[:count]]

    def section_summary(self) -> Dict[str, Dict[str, float]]:
        names = sorted(set(self.baseline.sections) | set(self.current.sections))
        summary: Dict[str, Dict[str, float]] = {}
        for name in names:
            base = self.baseline.sections.get(name)
            cur = self.current.sections.get(name)
            base_faults = base.fault_count if base else 0
            cur_faults = cur.fault_count if cur else 0
            summary[name] = {
                "baseline_faults": base_faults,
                "current_faults": cur_faults,
                "fault_delta": cur_faults - base_faults,
                "baseline_cost": base.total_cost if base else 0.0,
                "current_cost": cur.total_cost if cur else 0.0,
            }
        return summary

    def render(self, top: int = 10) -> str:
        """Human-readable report, heaviest blame first."""
        lines = [
            f"why: {self.workload} — {self.baseline.label} vs {self.current.label}",
            f"  faults {self.baseline.total_faults} -> {self.current.total_faults} "
            f"({self.fault_delta:+d}), cost "
            f"{self.baseline.total_cost * 1e3:.3f} -> "
            f"{self.current.total_cost * 1e3:.3f} ms",
        ]
        for name, row in self.section_summary().items():
            lines.append(
                f"  {name}: {row['baseline_faults']:.0f} -> "
                f"{row['current_faults']:.0f} faults "
                f"({row['fault_delta']:+.0f})"
            )
        if not self.ranked:
            lines.append("  no unit-level changes: layouts blame identically")
            return "\n".join(lines)
        lines.append(f"  top {min(top, len(self.ranked))} of "
                     f"{len(self.ranked)} changed units:")
        for delta in self.ranked[:top]:
            notes = []
            if delta.moved:
                notes.append("moved")
            if delta.new_conflicts:
                shown = ", ".join(delta.new_conflicts[:3])
                if len(delta.new_conflicts) > 3:
                    shown += ", ..."
                notes.append(f"new co-tenants: {shown}")
            if delta.lost_conflicts and not delta.new_conflicts:
                notes.append(f"lost {len(delta.lost_conflicts)} co-tenant(s)")
            suffix = f"  [{'; '.join(notes)}]" if notes else ""
            lines.append(
                f"    {delta.fault_delta:+7.2f} faults  {delta.section:9s} "
                f"{delta.unit}{suffix}"
            )
        return "\n".join(lines)

    def as_dict(self, top: Optional[int] = None) -> Dict[str, object]:
        """JSON-ready view (the ``repro why --json`` schema)."""
        ranked = self.ranked if top is None else self.ranked[:top]
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "baseline_label": self.baseline.label,
            "current_label": self.current.label,
            "fault_delta": self.fault_delta,
            "cost_delta": self.cost_delta,
            "sections": self.section_summary(),
            "moved_units": self.moved_units,
            "top_blamed": self.top_blamed(),
            "ranked": [delta.as_dict() for delta in ranked],
        }

    def to_json(self, top: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(top=top), indent=2, sort_keys=True)

    def to_csv(self, path: Union[Path, str]) -> Path:
        """Export the full per-unit delta table as CSV."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for delta in self.ranked:
                row = delta.as_dict()
                writer.writerow([
                    row["section"], row["unit"],
                    row["baseline_faults"], row["current_faults"],
                    row["fault_delta"],
                    row["baseline_cost"], row["current_cost"],
                    row["cost_delta"], row["moved"],
                    " ".join(str(p) for p in row["baseline_pages"]),
                    " ".join(str(p) for p in row["current_pages"]),
                    " ".join(row["new_conflicts"]),
                    " ".join(row["lost_conflicts"]),
                ])
        return path


def _rank_key(delta: UnitDelta) -> Tuple:
    return (-abs(delta.fault_delta), not delta.moved,
            -abs(delta.cost_delta), delta.unit)


def explain_reports(
    baseline: StartupAttributionReport,
    current: StartupAttributionReport,
    workload: str = "",
    strategy: str = "",
) -> WhyReport:
    """Diff two attribution reports into a ranked :class:`WhyReport`.

    A unit enters the ranking when any of its blame signals changed:
    fault share, faulted pages, layout span (moved), or co-tenancy on
    faulted pages.  Unchanged units are omitted — a report with an empty
    ``ranked`` list means the layouts blame identically.
    """
    deltas: List[UnitDelta] = []
    sections = sorted(set(baseline.sections) | set(current.sections))
    for name in sections:
        base = baseline.sections.get(name)
        cur = current.sections.get(name)
        base_units = {blame.unit: blame for blame in (base.units if base else [])}
        cur_units = {blame.unit: blame for blame in (cur.units if cur else [])}
        base_cot = base.cotenancy() if base else {}
        cur_cot = cur.cotenancy() if cur else {}
        base_spans = base.unit_pages if base else {}
        cur_spans = cur.unit_pages if cur else {}
        for unit in sorted(set(base_units) | set(cur_units)):
            old = base_units.get(unit)
            new = cur_units.get(unit)
            old_span = base_spans.get(unit)
            new_span = cur_spans.get(unit)
            moved = (
                old_span is not None and new_span is not None
                and old_span != new_span
            )
            old_conflicts = set(base_cot.get(unit, ()))
            new_conflicts = set(cur_cot.get(unit, ()))
            delta = UnitDelta(
                unit=unit,
                section=name,
                baseline_faults=old.faults if old else 0.0,
                current_faults=new.faults if new else 0.0,
                baseline_cost=old.cost if old else 0.0,
                current_cost=new.cost if new else 0.0,
                moved=moved,
                baseline_pages=old.pages if old else (),
                current_pages=new.pages if new else (),
                new_conflicts=tuple(sorted(new_conflicts - old_conflicts)),
                lost_conflicts=tuple(sorted(old_conflicts - new_conflicts)),
            )
            changed = (
                delta.fault_delta != 0
                or delta.moved
                or delta.new_conflicts
                or delta.lost_conflicts
                or delta.baseline_pages != delta.current_pages
            )
            if changed:
                deltas.append(delta)
    deltas.sort(key=_rank_key)
    return WhyReport(
        workload=workload,
        strategy=strategy,
        baseline=baseline,
        current=current,
        ranked=deltas,
    )


def attributed_run(
    pipeline: WorkloadPipeline, binary, label: str,
    iterations: int = 1, seed: int = 0,
) -> StartupAttributionReport:
    """Attribute the first run of ``pipeline.measure(binary, iterations, seed)``.

    The run's recorded touches are replayed under the pipeline's exec
    config (so microservice runs still end at first response), and the
    replayed fault log is attributed.  With a warm cache the run is the
    sweep cell's own cached one.  Raises :class:`ValueError` when the
    replay's per-section fault counts differ from the run's ``faults`` —
    a run record that does not carry the touches behind its counts.
    """
    run = pipeline.measure(binary, iterations, seed)[0]
    config = pipeline.exec_config
    cache = replay_touches(binary, config, run.touches)
    replayed = cache.snapshot_counts()
    if replayed != run.faults:
        raise ValueError(
            f"{label}: replaying the run's {len(run.touches)} touches "
            f"gives faults {replayed}, the run counted {run.faults}"
        )
    return attribute(binary, cache.fault_log, config.device, label=label)


def explain_strategy(
    pipeline: WorkloadPipeline,
    strategy: StrategySpec,
    seed: int = 0,
    iterations: int = 1,
) -> WhyReport:
    """End-to-end ``repro why``: baseline vs one strategy's optimized image.

    Builds both images from the (possibly cached) shared profiles through
    the pipeline, attributes one measured run of each (``iterations`` and
    ``seed`` pick the measurement, so a sweep's cached cell is reused),
    and returns the ranked diff.  Deterministic for a fixed (workload,
    strategy, seed) — the acceptance bar for serial-vs-parallel identity.
    """
    name = pipeline.workload.name
    baseline_binary = pipeline.build_baseline(seed=seed)
    outcome = pipeline.profile(seed=seed)
    optimized_binary = pipeline.build_optimized(
        outcome.profiles, strategy, seed=seed
    )
    baseline_report = attributed_run(
        pipeline, baseline_binary, f"{name}/baseline", iterations, seed
    )
    current_report = attributed_run(
        pipeline, optimized_binary, f"{name}/{strategy.name}", iterations,
        seed,
    )
    return explain_reports(
        baseline_report, current_report,
        workload=name, strategy=strategy.name,
    )


def explain_strategies(
    pipeline: WorkloadPipeline,
    baseline_spec: StrategySpec,
    current_spec: StrategySpec,
    seed: int = 0,
) -> WhyReport:
    """``repro why --baseline-strategy``: one optimized layout vs another.

    Same machinery as :func:`explain_strategy`, but both sides are
    profile-guided builds — the canonical use is explaining *where* a
    search-based layout (``cu-opt``) beats its paper seed strategy
    ``cu``, per CU: which units moved, which pages stopped faulting, and
    which co-tenancies the search created.  One shared profiling run feeds
    both builds, so the diff isolates the ordering decision itself.
    """
    name = pipeline.workload.name
    outcome = pipeline.profile(seed=seed)
    baseline_binary = pipeline.build_optimized(
        outcome.profiles, baseline_spec, seed=seed
    )
    current_binary = pipeline.build_optimized(
        outcome.profiles, current_spec, seed=seed
    )
    baseline_report = attributed_run(
        pipeline, baseline_binary, f"{name}/{baseline_spec.name}", seed=seed
    )
    current_report = attributed_run(
        pipeline, current_binary, f"{name}/{current_spec.name}", seed=seed
    )
    return explain_reports(
        baseline_report, current_report,
        workload=name, strategy=current_spec.name,
    )
