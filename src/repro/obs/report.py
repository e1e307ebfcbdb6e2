"""``repro report``: history trends as HTML dashboard + terminal summary.

Renders a :class:`~repro.obs.history.BenchHistory` trajectory with zero
dependencies: the HTML is one self-contained file (inline CSS, inline
SVG sparklines, no scripts, no external references) that can be attached
to a CI run or opened from a checkout; the terminal summary is the same
data as fixed-width text.

Per-series content:

* one sparkline per bench phase (serial/cold/warm/chaos wall clocks);
* one sparkline per matrix cell's fault total (workload/strategy);
* the PGO epoch timeline (refreshes, rollbacks, quarantines per run);
* regression annotations — a point is flagged when it breaches the same
  rolling median + robust-sigma band the trend gate
  (:func:`repro.eval.bench.check_trend`) uses, so the dashboard and the
  gate never disagree about what counts as a regression.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Sequence, Tuple

from ..util.stats import MAD_SIGMA, mad, median

#: sparkline geometry (viewBox units; scales losslessly in the browser)
SPARK_W = 240
SPARK_H = 48
SPARK_PAD = 4

#: minimum history before a point can be flagged as regressed (mirrors
#: the trend gate's abstention threshold)
_MIN_PRIOR = 3

_CSS = """\
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.meta { color: #666; }
table.series { border-collapse: collapse; width: 100%; }
table.series td, table.series th { padding: .3rem .6rem; text-align: left;
       border-bottom: 1px solid #e5e5ef; vertical-align: middle; }
td.num { font-variant-numeric: tabular-nums; text-align: right; }
.spark { display: block; }
.spark polyline { fill: none; stroke: #3b6ecc; stroke-width: 1.5; }
.spark .pt { fill: #3b6ecc; }
.spark .regressed { fill: #cc3b3b; }
.badge { display: inline-block; border-radius: .6rem; padding: 0 .5rem;
       font-size: .8rem; color: #fff; }
.badge.refresh { background: #2d8a4e; }
.badge.rollback { background: #cc3b3b; }
.badge.retain { background: #8888a0; }
.regressed-label { color: #cc3b3b; font-weight: 600; }
"""


def _scale(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Map a series into sparkline viewBox coordinates."""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = max(len(values) - 1, 1)
    points = []
    for index, value in enumerate(values):
        x = SPARK_PAD + index * (SPARK_W - 2 * SPARK_PAD) / n
        y = (SPARK_H - SPARK_PAD
             - (value - lo) * (SPARK_H - 2 * SPARK_PAD) / span)
        points.append((round(x, 1), round(y, 1)))
    return points


def regression_flags(series: Sequence[float],
                     step_sigmas: float = 4.0,
                     rel_floor: float = 0.10) -> List[bool]:
    """Which points breach the trend gate's band against their *prior* runs.

    Point ``i`` is flagged when it exceeds the rolling median of points
    ``[0, i)`` by more than ``step_sigmas`` robust sigmas (MAD-scaled,
    floored at ``rel_floor`` of the median) — the same step band
    :func:`repro.eval.bench.check_trend` enforces, evaluated at every
    position so the dashboard shows *where* the trajectory went wrong.
    """
    flags = [False] * len(series)
    for index in range(_MIN_PRIOR, len(series)):
        prior = list(series[:index])
        center = median(prior)
        sigma = max(mad(prior) * MAD_SIGMA, rel_floor * abs(center), 1e-12)
        flags[index] = series[index] > center + step_sigmas * sigma
    return flags


def _sparkline(series: Sequence[float], flags: Sequence[bool]) -> str:
    """Inline SVG sparkline with regression markers."""
    if not series:
        return "<svg class='spark'></svg>"
    points = _scale(series)
    polyline = " ".join(f"{x},{y}" for x, y in points)
    dots = []
    for (x, y), flagged in zip(points, flags):
        cls = "pt regressed" if flagged else "pt"
        r = 3 if flagged else 1.5
        dots.append(f"<circle class='{cls}' cx='{x}' cy='{y}' r='{r}'/>")
    return (
        f"<svg class='spark' width='{SPARK_W}' height='{SPARK_H}' "
        f"viewBox='0 0 {SPARK_W} {SPARK_H}' role='img'>"
        f"<polyline points='{polyline}'/>" + "".join(dots) + "</svg>"
    )


def _series(entries: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Phase wall-clock series keyed by phase name (missing runs skipped)."""
    names = sorted({name for entry in entries
                    for name in entry.get("phases", {})})
    return {
        name: [float(entry["phases"][name]["wall_s"]) for entry in entries
               if name in entry.get("phases", {})]
        for name in names
    }


def _cell_series(entries: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-cell fault series keyed by ``workload/strategy``."""
    cells = sorted({cell for entry in entries
                    for cell in entry.get("cell_faults", {})})
    return {
        cell: [float(entry["cell_faults"][cell]) for entry in entries
               if cell in entry.get("cell_faults", {})]
        for cell in cells
    }


def _fmt_stamp(timestamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M", time.gmtime(timestamp)) + "Z"


def _series_rows(series: Dict[str, List[float]], unit: str,
                 kind: str) -> List[str]:
    rows = []
    for name, values in series.items():
        flags = regression_flags(values)
        latest = values[-1]
        label = html.escape(name)
        regressed = (" <span class='regressed-label'>regressed</span>"
                     if flags[-1] else "")
        slug = html.escape(
            kind + "-" + name.replace("/", "-").replace(" ", "-"))
        rows.append(
            f"<tr id='{slug}'><td>{label}{regressed}</td>"
            f"<td>{_sparkline(values, flags)}</td>"
            f"<td class='num'>{latest:.2f}{unit}</td>"
            f"<td class='num'>{median(values):.2f}{unit}</td>"
            f"<td class='num'>{len(values)}</td></tr>"
        )
    return rows


def _pgo_timeline(entries: Sequence[Dict[str, Any]]) -> str:
    """One badge row per run summarizing its PGO epochs."""
    rows = []
    for entry in entries:
        pgo = entry.get("pgo")
        if not pgo:
            continue
        badges = []
        if pgo.get("refreshes"):
            badges.append(f"<span class='badge refresh'>"
                          f"{pgo['refreshes']} refresh</span>")
        if pgo.get("rollbacks"):
            badges.append(f"<span class='badge rollback'>"
                          f"{pgo['rollbacks']} rollback</span>")
        if not badges:
            badges.append("<span class='badge retain'>retained</span>")
        quarantined = ", ".join(
            html.escape(q) for q in pgo.get("quarantined", []))
        rows.append(
            f"<tr><td>{html.escape(entry['run_id'])}</td>"
            f"<td>{_fmt_stamp(entry.get('timestamp', 0.0))}</td>"
            f"<td class='num'>{pgo.get('epochs', 0)}</td>"
            f"<td>{' '.join(badges)}</td>"
            f"<td>{quarantined or '—'}</td></tr>"
        )
    if not rows:
        return "<p class='meta'>no PGO phase in this history</p>"
    return (
        "<table class='series'><tr><th>run</th><th>when</th>"
        "<th>epochs</th><th>actions</th><th>quarantined</th></tr>"
        + "".join(rows) + "</table>"
    )


def render_html(entries: Sequence[Dict[str, Any]],
                title: str = "repro bench history") -> str:
    """The self-contained HTML dashboard for a history trajectory."""
    phase_series = _series(entries)
    cell_series = _cell_series(entries)
    hashes = sorted({entry.get("matrix", {}).get("hash", "?")
                     for entry in entries})
    if entries:
        first = _fmt_stamp(entries[0].get("timestamp", 0.0))
        last = _fmt_stamp(entries[-1].get("timestamp", 0.0))
        span = f"{first} → {last}"
    else:
        span = "empty"
    header = (
        f"<p class='meta'>{len(entries)} run(s), {span}; "
        f"matrix hash(es): {html.escape(', '.join(hashes) or 'none')}</p>"
    )
    table_head = ("<tr><th>series</th><th>trend</th><th>latest</th>"
                  "<th>median</th><th>runs</th></tr>")
    parts = [
        "<!DOCTYPE html>",
        "<html lang='en'><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        header,
        "<h2 id='phases'>Phase wall clocks</h2>",
        "<table class='series'>" + table_head
        + "".join(_series_rows(phase_series, "s", "phase")) + "</table>",
        "<h2 id='cells'>Per-cell faults (workload/strategy)</h2>",
        "<table class='series'>" + table_head
        + "".join(_series_rows(cell_series, "", "cell")) + "</table>",
        "<h2 id='pgo'>PGO epoch timeline</h2>",
        _pgo_timeline(entries),
        "</body></html>",
    ]
    return "\n".join(parts) + "\n"


def render_summary(entries: Sequence[Dict[str, Any]],
                   width: int = 24) -> str:
    """Terminal rendering of the same trajectory (unicode sparkbars)."""
    if not entries:
        return "history: no entries yet (run `repro bench` to seed it)"
    lines = [f"bench history: {len(entries)} run(s), latest "
             f"{_fmt_stamp(entries[-1].get('timestamp', 0.0))} "
             f"({entries[-1].get('run_id', '?')})"]
    bars = "▁▂▃▄▅▆▇█"
    for label, series_map, unit in (
            ("phase", _series(entries), "s"),
            ("cell", _cell_series(entries), " faults")):
        for name, values in series_map.items():
            tail = values[-width:]
            lo, hi = min(tail), max(tail)
            span = (hi - lo) or 1.0
            spark = "".join(
                bars[min(int((v - lo) / span * (len(bars) - 1)),
                         len(bars) - 1)] for v in tail)
            flags = regression_flags(values)
            mark = "  << regressed" if flags[-1] else ""
            lines.append(
                f"  {label} {name:<28} {spark:<{width}} "
                f"latest {values[-1]:.2f}{unit}, "
                f"median {median(values):.2f}{unit}{mark}"
            )
    pgo_runs = [e for e in entries if e.get("pgo")]
    if pgo_runs:
        refreshes = sum(e["pgo"].get("refreshes", 0) for e in pgo_runs)
        rollbacks = sum(e["pgo"].get("rollbacks", 0) for e in pgo_runs)
        lines.append(
            f"  pgo timeline: {len(pgo_runs)} run(s), "
            f"{refreshes} refresh(es), {rollbacks} rollback(s)"
        )
    return "\n".join(lines)


__all__ = ["regression_flags", "render_html", "render_summary"]
