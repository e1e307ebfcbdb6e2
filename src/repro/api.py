"""High-level facade for the reproduction.

Typical use::

    from repro.api import NativeImageToolchain

    toolchain = NativeImageToolchain.from_source(MY_MINIJAVA_SOURCE)
    baseline = toolchain.build()                      # regular image
    report = toolchain.optimize_and_compare("cu+heap path")
    print(report)

or run whole paper experiments via :mod:`repro.eval.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from .cache import ArtifactCache
from .obs import MetricsSnapshot, get_registry
from .eval.pipeline import (
    STRATEGIES,  # noqa: F401 - re-exported as repro.api.STRATEGIES
    Workload,
    WorkloadPipeline,
    strategy_spec,
)
from .image.binary import NativeImageBinary
from .image.builder import BuildConfig
from .robustness.degradation import DegradationPolicy, DegradationReport
from .runtime.executor import ExecutionConfig, RunMetrics
from .util.stats import ratio_factor
from .validation.invariants import LayoutVerificationReport
from .validation.oracle import (
    VerificationOutcome,
    VerificationPolicy,
    verify_strategy,
)
from .validation.quarantine import QuarantineRegistry
from .validation.watchdog import WatchdogBudget

@dataclass
class ComparisonReport:
    """Baseline-vs-optimized outcome of one strategy on one workload.

    Factors follow the paper's convention (baseline / optimized, higher is
    better); time is end-to-end for run-to-completion workloads and
    time-to-first-response when the run recorded one (microservices).
    """

    workload: str
    strategy: str
    baseline: RunMetrics
    optimized: RunMetrics

    @property
    def text_fault_factor(self) -> float:
        """``.text`` page-fault reduction factor (1.0 = unchanged)."""
        return ratio_factor(self.baseline.text_faults, self.optimized.text_faults)

    @property
    def heap_fault_factor(self) -> float:
        """``.svm_heap`` page-fault reduction factor (1.0 = unchanged)."""
        return ratio_factor(self.baseline.heap_faults, self.optimized.heap_faults)

    @property
    def speedup(self) -> float:
        """Execution-time speedup factor (baseline time / optimized time)."""
        base = self.baseline.first_response_time_s or self.baseline.time_s
        opt = self.optimized.first_response_time_s or self.optimized.time_s
        return base / opt

    def __str__(self) -> str:
        return (
            f"[{self.workload} / {self.strategy}] "
            f".text faults {self.baseline.text_faults} -> "
            f"{self.optimized.text_faults} ({self.text_fault_factor:.2f}x), "
            f".svm_heap faults {self.baseline.heap_faults} -> "
            f"{self.optimized.heap_faults} ({self.heap_fault_factor:.2f}x), "
            f"speedup {self.speedup:.2f}x"
        )


class NativeImageToolchain:
    """One workload's end-to-end toolchain: build, profile, optimize, run.

    Pass ``degradation_policy`` (and optionally ``fault_hook``, e.g. a
    :class:`repro.robustness.FaultInjector`) to make the PGO workflow
    crash-tolerant: damaged traces are salvaged, profiling is retried, and
    builds fall back to the default layout instead of raising.  The
    resulting :class:`DegradationReport` is available as
    ``last_degradation_report``.

    Pass ``verification`` (a :class:`repro.validation.VerificationPolicy`)
    to arm the layout-verification rung: every optimized build is
    structurally checked, violations quarantine the ordering profile and
    roll back to the default layout, and :meth:`verify` runs the full
    oracle (invariants + differential execution + watchdogs).

    Pass ``cache`` (an :class:`repro.cache.ArtifactCache` or a directory
    path) to make every stage but the build content-addressed: profiling
    runs, measurements and the ``cu-opt`` layout search whose inputs did
    not change are loaded from the cache instead of recomputed (builds
    are laid out again, which costs less than loading them); the
    registry's ``cache.*`` counters (see :meth:`metrics_snapshot`) count
    its hits, misses and puts.
    """

    def __init__(
        self,
        workload: Workload,
        build_config: Optional[BuildConfig] = None,
        exec_config: Optional[ExecutionConfig] = None,
        degradation_policy: Optional[DegradationPolicy] = None,
        fault_hook: Optional[object] = None,
        verification: Optional[VerificationPolicy] = None,
        cache: Union[ArtifactCache, Path, str, None] = None,
    ) -> None:
        self.workload = workload
        if isinstance(cache, (str, Path)):
            cache = ArtifactCache(Path(cache))
        self._pipeline = WorkloadPipeline(
            workload, build_config, exec_config,
            degradation_policy=degradation_policy, fault_hook=fault_hook,
            verification=verification, cache=cache,
        )
        self._profiles = None

    @classmethod
    def from_source(
        cls,
        source: str,
        name: str = "app",
        microservice: bool = False,
        **kwargs,
    ) -> "NativeImageToolchain":
        """Build a toolchain directly from MiniJava source text."""
        workload = Workload(name=name, source=source, microservice=microservice)
        return cls(workload, **kwargs)

    @property
    def pipeline(self) -> WorkloadPipeline:
        return self._pipeline

    @property
    def last_degradation_report(self) -> Optional[DegradationReport]:
        """What (if anything) degraded during the last profile/build."""
        return self._pipeline.last_degradation_report

    @property
    def last_verification_report(self) -> Optional[LayoutVerificationReport]:
        """Structural report of the last optimized build (rung armed)."""
        return self._pipeline.last_verification_report

    @property
    def quarantine(self) -> QuarantineRegistry:
        """Ordering profiles convicted by the verification rung."""
        return self._pipeline.quarantine

    @property
    def cache(self) -> Optional[ArtifactCache]:
        """The armed artifact cache, or ``None`` when uncached."""
        return self._pipeline.cache

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Point-in-time copy of the process-wide metrics registry.

        Counters/gauges/histograms from every phase this process ran —
        not just this toolchain's workload.  The ``sweep.*`` plane (see
        :meth:`MetricsSnapshot.deterministic`) is only populated by
        scheduler sweeps.
        """
        return get_registry().snapshot()

    def history(self, path: Union[Path, str, None] = None):
        """The bench history store (``BENCH_history.jsonl`` by default).

        Returns a :class:`repro.obs.BenchHistory` for listing, pruning,
        compacting, or trend-gating against the longitudinal record
        ``repro bench`` appends to.
        """
        from .obs.history import DEFAULT_HISTORY, BenchHistory
        return BenchHistory(path if path is not None else DEFAULT_HISTORY)

    def report(self, path: Union[Path, str, None] = None,
               html_path: Union[Path, str, None] = None) -> str:
        """Render the bench history trajectory (``repro report``).

        Returns the terminal summary; when ``html_path`` is given, also
        writes the self-contained HTML dashboard there.
        """
        from .obs.report import render_html, render_summary
        entries = self.history(path).entries()
        if html_path is not None:
            Path(html_path).write_text(render_html(entries))
        return render_summary(entries)

    def attribute(self, binary: NativeImageBinary, label: str = ""):
        """One measured cold run of ``binary``, fully attributed.

        Returns the :class:`repro.obs.StartupAttributionReport`: per-unit
        fault shares, page co-tenancy, the first-touch timeline, and the
        front-density curve, from replaying the touches the run recorded.
        """
        from .eval.explain import attributed_run
        return attributed_run(self._pipeline, binary,
                              label or self.workload.name)

    def explain(self, strategy: str = "cu", seed: int = 0):
        """The layout regression explainer (``repro why``) for one strategy.

        Builds baseline + optimized images (cache-served when warm),
        attributes one measured run of each, and returns the ranked
        :class:`repro.eval.explain.WhyReport` — which units gained/lost
        faults, moved across page boundaries, or changed co-tenancy.
        Raises :class:`KeyError` for unknown strategy names.
        """
        from .eval.explain import explain_strategy
        spec = strategy_spec(strategy)
        return explain_strategy(self._pipeline, spec, seed=seed)

    def optimize(self, seed: int = 0):
        """Run the search-based layout optimizer (``repro optimize``).

        Builds the ``cu-opt`` layout through the pipeline, whose one
        search (greedy chain merging over the co-access graph, scored on
        the reference build's ``.text`` touches) runs unless the cache
        stored it, verifies it against the structural + differential
        oracle, and scores it and ``cu`` by their measured ``.text``
        faults.  Returns the :class:`repro.ordering.OptimizationReport`;
        ``report.ok`` is the never-worse-than-seed invariant.
        """
        from .ordering.optimize import optimize_workload
        return optimize_workload(self._pipeline, seed=seed)

    # -- build & run ---------------------------------------------------------

    def build(self, seed: int = 0) -> NativeImageBinary:
        """Build the regular baseline image for ``seed``."""
        return self._pipeline.build_baseline(seed=seed)

    def run(self, binary: NativeImageBinary, iterations: int = 1) -> List[RunMetrics]:
        """Cold-cache runs of a built image; one :class:`RunMetrics` each.

        With watchdog budgets armed on the verification policy, tripped
        runs yield empty metrics plus a degradation-report note instead of
        raising (see :meth:`WorkloadPipeline.measure`).
        """
        return self._pipeline.measure(binary, iterations)

    # -- PGO workflow -----------------------------------------------------------

    def profile(self, seed: int = 0):
        """Run the instrumented image and keep the resulting profiles.

        Returns the :class:`ProfilingOutcome`; raises the typed
        :class:`TraceDecodeError` on damaged traces unless a degradation
        policy is armed (then the traces are salvaged and the outcome
        annotated via ``last_degradation_report``).
        """
        outcome = self._pipeline.profile(seed=seed)
        self._profiles = outcome.profiles
        return outcome

    def build_optimized(
        self, strategy: str = "cu+heap path", seed: int = 0
    ) -> NativeImageBinary:
        """Build the profile-guided image with the named ordering strategy.

        Profiles from the last :meth:`profile` call are reused (one is run
        on demand otherwise).  Raises :class:`KeyError` for unknown
        strategy names and :class:`LayoutVerificationError` when even the
        rollback build fails structural verification.
        """
        spec = strategy_spec(strategy)
        if self._profiles is None:
            self.profile(seed=seed)
        return self._pipeline.build_optimized(self._profiles, spec, seed=seed)

    # -- verification -----------------------------------------------------------

    def verify(
        self,
        strategy: str = "cu+heap path",
        seed: int = 0,
        differential: bool = True,
        watchdog: Optional[WatchdogBudget] = None,
    ) -> VerificationOutcome:
        """Run the layout-verification oracle for one strategy.

        Structurally verifies baseline and optimized builds, mirrors any
        quarantine/rollback decision of the pipeline's verification rung,
        and (by default) differentially executes both binaries under the
        given watchdog budgets.
        """
        spec = strategy_spec(strategy)
        return verify_strategy(self._pipeline, spec, seed=seed,
                               differential=differential, watchdog=watchdog)

    def optimize_and_compare(
        self, strategy: str = "cu+heap path", seed: int = 0
    ) -> ComparisonReport:
        """One-shot: profile, optimize, and compare against the baseline.

        Raises :class:`KeyError` for unknown strategy names; measurement
        itself cannot fail (watchdog trips degrade to empty metrics).
        """
        baseline = self.build(seed=seed)
        optimized = self.build_optimized(strategy, seed=seed)
        return ComparisonReport(
            workload=self.workload.name,
            strategy=strategy,
            baseline=self.run(baseline)[0],
            optimized=self.run(optimized)[0],
        )
