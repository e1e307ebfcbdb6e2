"""Append-only bench history: the repo's performance trajectory.

Every gate before this PR compared against a single frozen snapshot
(``BENCH_pipeline.json``), so a slow drift spread over several PRs was
invisible.  :class:`BenchHistory` is the longitudinal store behind
``repro bench`` / ``repro history`` / ``repro report``: one JSONL file
(default :data:`DEFAULT_HISTORY`) with one schema-versioned entry per
successful bench run — run id, toolchain fingerprint, matrix config
hash, per-phase wall clocks, per-cell fault counts, and quantile
summaries of the run's phase-duration histograms.

Design points:

* **Append-only JSONL.**  One entry per line; ``append`` is an
  ``open("a")`` + ``fsync`` so a crash can at worst truncate the final
  line.  The lenient reader skips corrupt lines (counted in
  :attr:`BenchHistory.skipped`) instead of losing the whole trajectory —
  the same salvage philosophy as the PR-1 trace format.
* **Schema-versioned.**  Every entry carries ``schema``;
  :func:`migrate_entry` accepts only the current schema (an entry of
  any other schema counts in ``skipped``), and ``compact`` rewrites the
  file with the usable entries only.
* **Matrix-hash comparability.**  Entries are only comparable when they
  benchmarked the same matrix (same workloads × strategies × iterations
  × base seed); :func:`matrix_hash` fingerprints that, and the trend
  gate filters on it so a ``--quick`` run never gates against full-
  matrix history.

The trend math over these series lives in
:func:`repro.eval.bench.check_trend`; the rendering in
:mod:`repro.obs.report`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: current entry schema (bump, and add a migration step to
#: :func:`migrate_entry`, when fields change)
HISTORY_SCHEMA = 2

#: default history file beside ``BENCH_pipeline.json``
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: fields every current-schema entry must carry to be usable
_REQUIRED_FIELDS = ("schema", "run_id", "timestamp", "toolchain",
                    "matrix", "phases", "cell_faults")


def matrix_hash(config: Dict[str, Any]) -> str:
    """Fingerprint of a bench payload's ``config`` block.

    Two entries are trend-comparable iff their hashes agree: same
    workloads, strategies, iterations, and base seed.  Worker count and
    cache directory are deliberately excluded — they change wall clocks,
    which is exactly what the trend gate is supposed to notice, not a
    reason to partition the history.
    """
    material = json.dumps(
        {
            "workloads": list(config.get("workloads", [])),
            "strategies": list(config.get("strategies", [])),
            "iterations": config.get("iterations", 1),
            "base_seed": config.get("base_seed", 1),
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()[:12]


def toolchain_fingerprint(toolchain_version: str) -> Dict[str, str]:
    """What produced an entry: toolchain + interpreter + platform."""
    return {
        "version": toolchain_version,
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


def make_entry(
    payload: Dict[str, Any],
    metrics_snapshot: Optional[Any] = None,
    timestamp: Optional[float] = None,
    run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a history entry from one ``repro bench`` payload.

    ``metrics_snapshot`` (a :class:`~repro.obs.metrics.MetricsSnapshot`)
    contributes the count, total and p50/p95/p99 quantile summaries of
    every ``phase.*`` duration histogram the run recorded.
    ``timestamp``/``run_id`` are injectable for deterministic tests; by
    default the id is a content hash over the canonical results plus the
    timestamp, so two runs of the same matrix still get distinct ids.
    """
    timestamp = time.time() if timestamp is None else timestamp
    config = payload.get("config", {})
    if run_id is None:
        material = json.dumps(payload.get("results", []), sort_keys=True)
        run_id = hashlib.sha256(
            f"{material}\x1f{timestamp!r}".encode()).hexdigest()[:12]
    phases: Dict[str, Dict[str, Any]] = {}
    for name, phase in sorted(payload.get("phases", {}).items()):
        phases[name] = {
            "wall_s": phase.get("wall_s", 0.0),
            "tasks": phase.get("tasks", 0),
            "cache_hits": phase.get("cache_hits", 0),
            "cache_misses": phase.get("cache_misses", 0),
        }
    cell_faults: Dict[str, float] = {}
    for result in payload.get("results", []):
        cell = f"{result.get('workload')}/{result.get('strategy')}"
        cell_faults[cell] = float(sum(
            m.get("faults", 0.0) for m in result.get("optimized", [])))
    entry: Dict[str, Any] = {
        "schema": HISTORY_SCHEMA,
        "run_id": run_id,
        "timestamp": timestamp,
        "toolchain": toolchain_fingerprint(payload.get("toolchain", "")),
        "matrix": {
            "hash": matrix_hash(config),
            "cells": config.get("cells", 0),
            "workloads": list(config.get("workloads", [])),
            "strategies": list(config.get("strategies", [])),
            "iterations": config.get("iterations", 1),
            "base_seed": config.get("base_seed", 1),
        },
        "phases": phases,
        "cell_faults": dict(sorted(cell_faults.items())),
        "ok": bool(payload.get("ok")),
        "deterministic": bool(payload.get("deterministic")),
    }
    for key in ("speedup_parallel", "speedup_warm"):
        if key in payload:
            entry[key] = payload[key]
    pgo = payload.get("pgo")
    if pgo:
        entry["pgo"] = {
            "epochs": pgo.get("epochs", 0),
            "refreshes": pgo.get("refreshes", 0),
            "rollbacks": pgo.get("rollbacks", 0),
            "quarantined": list(pgo.get("quarantined", [])),
            "unguarded_regressions": pgo.get("unguarded_regressions", 0),
        }
    if metrics_snapshot is not None:
        quantiles: Dict[str, Dict[str, Any]] = {}
        for name, hist in sorted(metrics_snapshot.histograms.items()):
            if not name.startswith("phase."):
                continue
            quantiles[name] = {"count": hist.count, "total": hist.total,
                               **hist.sketch.quantiles()}
        if quantiles:
            entry["metrics"] = quantiles
    return entry


def migrate_entry(entry: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The entry if it is usable at :data:`HISTORY_SCHEMA`; ``None`` = not.

    Every other schema is rejected: older ones have no migration, and a
    rolled-back checkout must not misread newer entries it does not
    understand.  Missing required fields also reject the entry.
    """
    if entry.get("schema") != HISTORY_SCHEMA:
        return None
    if any(field not in entry for field in _REQUIRED_FIELDS):
        return None
    return entry


class BenchHistory:
    """One JSONL history file: append, read (leniently), prune, compact."""

    def __init__(self, path: Union[Path, str] = DEFAULT_HISTORY) -> None:
        self.path = Path(path)
        #: corrupt or unusable lines the last read skipped
        self.skipped = 0

    def __len__(self) -> int:
        return len(self.entries())

    # -- writing -------------------------------------------------------------

    def append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Append one entry (stamped with the current schema); fsynced."""
        entry = dict(entry)
        entry.setdefault("schema", HISTORY_SCHEMA)
        missing = [field for field in _REQUIRED_FIELDS if field not in entry]
        if missing:
            raise ValueError(
                f"history entry missing required field(s): {missing}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return entry

    def _rewrite(self, entries: List[Dict[str, Any]]) -> None:
        """Atomic whole-file rewrite (tmp + rename, fsynced)."""
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    # -- reading -------------------------------------------------------------

    def entries(self, matrix_hash: Optional[str] = None,
                ) -> List[Dict[str, Any]]:
        """All usable entries, oldest first.

        Corrupt lines and entries of another schema are skipped (counted
        in :attr:`skipped`); ``matrix_hash`` filters to one comparable
        series.
        """
        self.skipped = 0
        out: List[Dict[str, Any]] = []
        if not self.path.exists():
            return out
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except ValueError:
                    self.skipped += 1
                    continue
                if not isinstance(raw, dict):
                    self.skipped += 1
                    continue
                entry = migrate_entry(raw)
                if entry is None:
                    self.skipped += 1
                    continue
                if (matrix_hash is not None
                        and entry["matrix"].get("hash") != matrix_hash):
                    continue
                out.append(entry)
        return out

    def tail(self, n: int, matrix_hash: Optional[str] = None,
             ) -> List[Dict[str, Any]]:
        """The last ``n`` comparable entries, oldest first."""
        entries = self.entries(matrix_hash=matrix_hash)
        return entries[-n:] if n > 0 else []

    # -- maintenance ---------------------------------------------------------

    def prune(self, keep: Optional[int] = None,
              max_age_s: Optional[float] = None,
              now: Optional[float] = None) -> int:
        """Drop old entries; returns how many were removed.

        ``keep`` retains only the newest N entries; ``max_age_s`` drops
        entries older than that many seconds (against ``now``, injectable
        for tests).  Corrupt lines are dropped too (the rewrite only
        carries usable entries).
        """
        entries = self.entries()
        dropped_corrupt = self.skipped
        survivors = entries
        if max_age_s is not None:
            now = time.time() if now is None else now
            survivors = [e for e in survivors
                         if now - e.get("timestamp", 0.0) <= max_age_s]
        if keep is not None and keep >= 0 and len(survivors) > keep:
            survivors = survivors[len(survivors) - keep:]
        removed = len(entries) - len(survivors) + dropped_corrupt
        if removed:
            self._rewrite(survivors)
        return removed

    def compact(self) -> Tuple[int, int]:
        """Rewrite the file with its usable entries only.

        Returns ``(kept, dropped)`` — dropped counts corrupt lines and
        entries of another schema.  Idempotent.
        """
        entries = self.entries()
        dropped = self.skipped
        self._rewrite(entries)
        return len(entries), dropped

    # -- rendering -----------------------------------------------------------

    def describe(self) -> str:
        """Terminal one-liner-per-entry listing (``repro history list``)."""
        entries = self.entries()
        if not entries:
            return f"{self.path}: empty history"
        lines = [f"{self.path}: {len(entries)} entr(ies)"
                 + (f", {self.skipped} skipped" if self.skipped else "")]
        for entry in entries:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                                  time.gmtime(entry.get("timestamp", 0.0)))
            phases = entry.get("phases", {})
            walls = " ".join(
                f"{name}={phase.get('wall_s', 0.0):.2f}s"
                for name, phase in sorted(phases.items()))
            faults = sum(entry.get("cell_faults", {}).values())
            lines.append(
                f"  {entry['run_id']}  {stamp}Z  "
                f"matrix {entry['matrix'].get('hash', '?')} "
                f"({entry['matrix'].get('cells', '?')} cells)  "
                f"faults {faults:.0f}  {walls}"
            )
        return "\n".join(lines)


__all__ = [
    "BenchHistory",
    "DEFAULT_HISTORY",
    "HISTORY_SCHEMA",
    "make_entry",
    "matrix_hash",
    "migrate_entry",
    "toolchain_fingerprint",
]
