"""Pipeline observability: metrics registry, run records, exporters.

The measurement loop the paper's evaluation depends on (per-section page
faults, Sec. 7.1) needs the pipeline itself to be observable: this package
provides the process-wide :class:`MetricsRegistry` (counters, gauges,
histograms with deterministic snapshot/merge for multiprocess runs) and
the process-wide :class:`EventLog`, the one record stream of how a run
went (phase spans, scheduler tasks, cache, degradation, quarantine, chaos
and PGO records), rendered as JSONL or as Chrome trace-event JSON.

Instrumented call sites live in their own modules (pipeline phases in
:mod:`repro.eval.pipeline` and :mod:`repro.image.builder`, cache events in
:mod:`repro.cache.store`, scheduler tasks in :mod:`repro.eval.scheduler`,
executor runs in :mod:`repro.runtime.executor`, degradation/quarantine
events in :mod:`repro.robustness.degradation` and
:mod:`repro.validation.quarantine`); this package deliberately imports
nothing from them, so any module may instrument without cycles.

Startup attribution lives in :mod:`repro.obs.attrib`: a fault-observer
hook (off by default) records the per-run first-touch fault stream, and
:func:`attribute` joins it against the binary's section maps to blame
every fault on the CUs/heap objects resident on the faulted page.  The
differential explainer on top of it is :mod:`repro.eval.explain`.

CLI entry points: ``repro stats`` (merged metrics summary), ``repro
trace`` (Chrome trace export, ``--events`` for the same records as
JSONL), and ``repro why`` (attribution diff).
"""

from .attrib import (
    FaultEvent,
    FaultObserver,
    SectionAttribution,
    StartupAttributionReport,
    UnitBlame,
    attribute,
    binary_tenancies,
)
from .events import EventLog, get_event_log, phase
from .export import (
    format_stats,
    stats_dict,
    to_openmetrics,
    validate_openmetrics,
    validate_trace,
)
from .history import BenchHistory, HISTORY_SCHEMA, make_entry, matrix_hash
from .metrics import (
    DETERMINISTIC_PREFIX,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    metrics,
)

__all__ = [
    "BenchHistory",
    "DETERMINISTIC_PREFIX",
    "EventLog",
    "FaultEvent",
    "FaultObserver",
    "HISTORY_SCHEMA",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SectionAttribution",
    "StartupAttributionReport",
    "UnitBlame",
    "attribute",
    "binary_tenancies",
    "format_stats",
    "get_event_log",
    "get_registry",
    "make_entry",
    "matrix_hash",
    "metrics",
    "phase",
    "stats_dict",
    "to_openmetrics",
    "validate_openmetrics",
    "validate_trace",
]
