"""Export-side helpers: trace/OpenMetrics validation and stats rendering.

``validate_trace`` is the schema check the obs-smoke CI job runs over
``repro trace`` output — it enforces the subset of the Chrome trace-event
format ``EventLog.to_chrome`` renders, so a malformed export fails CI
instead of failing silently in the trace viewer.  ``format_stats`` renders a
:class:`~repro.obs.metrics.MetricsSnapshot` as the human summary behind
``repro stats``.

``to_openmetrics`` renders a snapshot in the OpenMetrics text exposition
format (the Prometheus wire format): counters as ``<name>_total``,
gauges verbatim, histograms as summaries with sketch-backed
``quantile``-labelled samples plus ``_sum``/``_count`` — so the merged
registry of a whole sweep can be scraped or diffed by standard tooling.
``validate_openmetrics`` is its CI-side format check, the same role
``validate_trace`` plays for traces.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List

from .metrics import MetricsSnapshot
from ..util.quantiles import REPORTED_QUANTILES

#: event phases the Chrome renderer emits (spans and instants); metadata
#: events ("M") are tolerated for hand-merged traces
_ALLOWED_PHASES = {"X", "i", "M"}


def validate_trace(payload: Any) -> List[str]:
    """Validate a Chrome trace-event payload; returns problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing 'name'")
        ph = event.get("ph")
        if ph not in _ALLOWED_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad 'ts' {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad 'dur' {dur!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: bad {key!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
        if not isinstance(event.get("cat", ""), str):
            problems.append(f"{where}: 'cat' must be a string")
    return problems


def format_stats(snapshot: MetricsSnapshot) -> str:
    """Human-readable summary of one metrics snapshot."""
    lines: List[str] = []
    if snapshot.counters:
        lines.append("counters:")
        for name, value in sorted(snapshot.counters.items()):
            lines.append(f"  {name:<40} {value}")
    if snapshot.gauges:
        lines.append("gauges:")
        for name, value in sorted(snapshot.gauges.items()):
            lines.append(f"  {name:<40} {value:g}")
    if snapshot.histograms:
        lines.append("histograms:")
        for name, hist in sorted(snapshot.histograms.items()):
            lines.append(
                f"  {name:<40} n={hist.count} mean={hist.mean:.6g} "
                f"min={hist.min:.6g} max={hist.max:.6g}"
                if hist.count else f"  {name:<40} n=0"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def stats_dict(snapshot: MetricsSnapshot) -> Dict[str, Any]:
    """Machine-readable (``repro stats --json``) view of a snapshot."""
    payload = snapshot.as_dict()
    payload["deterministic"] = snapshot.deterministic()
    return payload


#: legal OpenMetrics metric-name characters (anything else becomes ``_``)
_OM_NAME = re.compile(r"[^a-zA-Z0-9_:]")

#: one OpenMetrics sample line: name, optional {labels}, value
_OM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)$")


def _om_name(name: str) -> str:
    """Repo metric name -> OpenMetrics metric name (``repro_`` prefixed)."""
    return "repro_" + _OM_NAME.sub("_", name).strip("_")


def _om_value(value: float) -> str:
    """Float formatting per the exposition format (repr keeps precision)."""
    if value != value:  # pragma: no cover - we never record NaN
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


def to_openmetrics(snapshot: MetricsSnapshot) -> str:
    """OpenMetrics text exposition of one (merged) metrics snapshot.

    Counters become ``<name>_total`` counter families, gauges stay
    gauges, and histograms export as *summaries*: the sketch-backed
    p50/p95/p99 as ``quantile``-labelled samples plus ``_sum`` and
    ``_count``.  Output is name-sorted and ends with the mandatory
    ``# EOF`` terminator, so equal snapshots render byte-identically.
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.counters.items()):
        om = _om_name(name)
        lines.append(f"# TYPE {om} counter")
        lines.append(f"{om}_total {value}")
    for name, value in sorted(snapshot.gauges.items()):
        om = _om_name(name)
        lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om} {_om_value(value)}")
    for name, hist in sorted(snapshot.histograms.items()):
        om = _om_name(name)
        lines.append(f"# TYPE {om} summary")
        for q in REPORTED_QUANTILES:
            quantile = hist.quantile(q)
            if quantile is None:
                continue
            lines.append(f'{om}{{quantile="{q}"}} {_om_value(quantile)}')
        lines.append(f"{om}_sum {_om_value(hist.total)}")
        lines.append(f"{om}_count {hist.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def validate_openmetrics(text: str) -> List[str]:
    """Validate an OpenMetrics exposition; returns problems (empty = ok).

    Checks the invariants CI relies on: a single trailing ``# EOF``,
    every sample parseable as ``name[{labels}] value`` with a float
    value, every sample preceded by a ``# TYPE`` declaration for its
    family, and counter samples carrying the ``_total`` suffix.
    """
    problems: List[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("missing '# EOF' terminator")
    families: Dict[str, str] = {}
    for number, line in enumerate(lines, start=1):
        if not line:
            problems.append(f"line {number}: empty line")
            continue
        if line == "# EOF":
            if number != len(lines):
                problems.append(f"line {number}: '# EOF' before end of text")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "summary", "histogram"):
                problems.append(f"line {number}: bad TYPE line {line!r}")
            else:
                families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT comments are legal, we just don't emit them
        match = _OM_SAMPLE.match(line)
        if not match:
            problems.append(f"line {number}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        family = next((f for f in (name, name.rsplit("_", 1)[0])
                       if f in families), None)
        if family is None:
            problems.append(f"line {number}: sample {name!r} has no TYPE")
        elif families[family] == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {number}: counter sample {name!r} missing '_total'")
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {number}: bad value {match.group('value')!r}")
    return problems
