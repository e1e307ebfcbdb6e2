"""End-to-end pipeline: profile -> post-process -> optimize -> measure.

Implements the methodology of Fig. 1 for one workload:

1. build the **instrumented** binary and run it once under the tracing
   profiler (buffered dumps for run-to-completion workloads, memory-mapped
   buffers for microservices that are SIGKILLed after the first response);
2. post-process the traces into ordering profiles + call counts;
3. build the **optimized** binary with the requested code/heap ordering;
4. run baseline and optimized binaries with cold caches and report
   page faults per section and the simulated execution time.

With an :class:`~repro.cache.ArtifactCache` armed, every stage is
content-addressed: compiled programs, raw traces, post-processed profiles,
built images, and run metrics are keyed by digests of (workload source,
strategy, build/execution/policy configuration, toolchain version, seed)
and loaded instead of rebuilt when nothing they depend on changed.  See
:mod:`repro.cache.keys` for the exact key derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cache import (
    KIND_IMAGE,
    KIND_METRICS,
    KIND_PROFILE,
    KIND_PROGRAM,
    KIND_REPORT,
    KIND_TRACE,
    ArtifactCache,
    fingerprint,
    image_key,
    metrics_key,
    profile_key,
    program_key,
    source_digest,
    trace_key,
)
from ..image.binary import (
    MODE_INSTRUMENTED,
    MODE_OPTIMIZED,
    MODE_REGULAR,
    NativeImageBinary,
)
from ..image.builder import BuildConfig, NativeImageBuilder
from ..image.sections import HEAP_SECTION, TEXT_SECTION
from ..minijava.bytecode import Program
from ..minijava.frontend import compile_source
from ..obs import phase
from ..ordering.optimize import CU_OPT_ORDERING, synthesize_optimizer_profiles
from ..ordering.profiles import ProfileBundle, ProfileCompleteness
from ..postproc.framework import build_profiles
from ..profiling.tracebuf import TraceSession
from ..profiling.tracefile import (
    MODE_DUMP_ON_FULL,
    MODE_MMAP,
    pack_traces,
    unpack_traces,
)
from ..profiling.tracer import PathTracer
from ..robustness.degradation import (
    DegradationPolicy,
    DegradationReport,
    ProfilingAttempt,
)
from ..runtime.executor import ExecutionConfig, RunMetrics, run_binary
from ..validation.invariants import (
    LayoutVerificationError,
    LayoutVerificationReport,
    verify_layout,
)
from ..validation.oracle import VerificationPolicy
from ..validation.quarantine import QuarantineRegistry
from ..validation.watchdog import WatchdogReport, run_with_watchdog


@dataclass(frozen=True)
class Workload:
    """A benchmark program plus how to run/measure it.

    Frozen and picklable by construction, so workloads travel unchanged
    into the parallel scheduler's worker processes; ``source`` is the full
    MiniJava text and its byte-exact digest addresses every cached artifact
    derived from it.
    """

    name: str
    source: str
    main_class: str = "Main"
    #: microservices: measure time-to-first-response, kill after response,
    #: profile with memory-mapped buffers
    microservice: bool = False
    description: str = ""

    def compile(self) -> Program:
        """Compile ``source`` to bytecode.

        Raises the front-end's typed errors (:class:`LexError`,
        :class:`ParseError`, :class:`SemanticError`, :class:`CompileError`,
        all :class:`MiniJavaError`) on malformed source; the pipeline does
        not catch them — a workload that does not compile is a programming
        error, not a degradation.
        """
        return compile_source(self.source, main_class=self.main_class)


@dataclass(frozen=True)
class StrategySpec:
    """An ordering strategy: the paper's six, or the search-based ``cu-opt``."""

    name: str
    code_ordering: Optional[str] = None  # "cu" | "method" | "cu-opt"
    heap_ordering: Optional[str] = None  # an ID-strategy name

    @property
    def is_code(self) -> bool:
        return self.code_ordering is not None

    @property
    def is_heap(self) -> bool:
        return self.heap_ordering is not None

    @property
    def is_search(self) -> bool:
        """Whether the ordering comes from the layout search."""
        return self.code_ordering == CU_OPT_ORDERING


#: The five strategies of the evaluation plus the combined one (Sec. 7.1).
STRATEGY_CU = StrategySpec("cu", code_ordering="cu")
STRATEGY_METHOD = StrategySpec("method", code_ordering="method")
STRATEGY_INCREMENTAL = StrategySpec("incremental id", heap_ordering="incremental_id")
STRATEGY_STRUCTURAL = StrategySpec("structural hash", heap_ordering="structural_hash")
STRATEGY_HEAP_PATH = StrategySpec("heap path", heap_ordering="heap_path")
STRATEGY_COMBINED = StrategySpec(
    "cu+heap path", code_ordering="cu", heap_ordering="heap_path"
)
PAPER_STRATEGY_SPECS = (
    STRATEGY_CU,
    STRATEGY_METHOD,
    STRATEGY_INCREMENTAL,
    STRATEGY_STRUCTURAL,
    STRATEGY_HEAP_PATH,
    STRATEGY_COMBINED,
)

#: The search-based strategy (repro.ordering.optimize): the pipeline
#: derives its profile by searching against the reference build's
#: recorded touches (see :meth:`WorkloadPipeline.optimize_profiles`).
STRATEGY_CU_OPT = StrategySpec("cu-opt", code_ordering=CU_OPT_ORDERING)

#: Everything the scheduler/bench/api can run: paper strategies + cu-opt.
ALL_STRATEGY_SPECS = PAPER_STRATEGY_SPECS + (STRATEGY_CU_OPT,)

#: The same strategies by name.
STRATEGIES: Dict[str, StrategySpec] = {spec.name: spec for spec in ALL_STRATEGY_SPECS}


def strategy_spec(name: str) -> StrategySpec:
    """The strategy called ``name``; :class:`KeyError` lists the choices."""
    spec = STRATEGIES.get(name)
    if spec is None:
        raise KeyError(f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}")
    return spec


@dataclass
class ProfilingOutcome:
    """The artifacts of one profiling run."""

    profiles: ProfileBundle
    instrumented_metrics: RunMetrics
    trace_bytes: int
    lost_records: int
    #: salvage accounting (lenient post-processing only; None = strict)
    completeness: Optional[ProfileCompleteness] = None


class WorkloadPipeline:
    """Builds and measures all binaries of one workload.

    ``degradation_policy`` arms graceful degradation: profiling failures
    are retried with perturbed seeds, damaged traces are salvaged instead
    of raising, and optimized builds fall back to the default layout when
    profiles are empty or mismatched.  Every decision lands in
    ``last_degradation_report``.  ``fault_hook`` (usually a
    :class:`repro.robustness.faults.FaultInjector`) is threaded into every
    profiling session's trace buffers.

    ``verification`` arms the layout-verification rung: every optimized
    build is structurally checked; a violation quarantines the (workload,
    strategy) ordering in ``self.quarantine`` and rolls the build back to
    the default layout.  When the policy carries watchdog budgets, all
    ``measure`` runs are bounded by them; trips land in
    ``last_watchdog_reports`` and the degradation report.

    ``cache`` (an :class:`~repro.cache.ArtifactCache`) makes every stage
    content-addressed: unchanged (source, strategy, config, seed)
    combinations load their compiled program, traces, profiles, images,
    and metrics instead of recomputing them.  Caching is bypassed whenever
    a non-pure hook is armed (``fault_hook``, ``verification.mutator``) —
    injected faults and mutations must never be replayed from disk.  A
    cache hit restores the associated verification report and re-registers
    any quarantine conviction recorded by the building run, so the
    verification rung survives the cache.
    """

    def __init__(
        self,
        workload: Workload,
        build_config: Optional[BuildConfig] = None,
        exec_config: Optional[ExecutionConfig] = None,
        degradation_policy: Optional[DegradationPolicy] = None,
        fault_hook: Optional[object] = None,
        verification: Optional[VerificationPolicy] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.workload = workload
        self.build_config = build_config or BuildConfig()
        base_exec = exec_config or ExecutionConfig()
        if workload.microservice and not base_exec.stop_on_first_response:
            from dataclasses import replace

            base_exec = replace(base_exec, stop_on_first_response=True)
        self.exec_config = base_exec
        self.degradation_policy = degradation_policy
        self.fault_hook = fault_hook
        self.verification = verification
        self.cache = cache
        self.quarantine = QuarantineRegistry()
        self.last_degradation_report: Optional[DegradationReport] = None
        self.last_verification_report: Optional[LayoutVerificationReport] = None
        self.last_watchdog_reports: List[WatchdogReport] = []
        #: compiled lazily (a fully cache-hit sweep never needs it)
        self._program: Optional[Program] = None
        self._src_digest = source_digest(workload.source)
        self._build_fp = self.build_config.fingerprint()
        self._exec_fp = self.exec_config.fingerprint()
        self._policy_fp = (
            fingerprint(degradation_policy) if degradation_policy else ""
        )
        self._watchdog_fp = (
            fingerprint(verification.watchdog)
            if verification is not None and verification.watchdog is not None
            else ""
        )

    @property
    def _cache_armed(self) -> bool:
        """Whether lookups/stores may be served for this configuration."""
        return (
            self.cache is not None
            and self.fault_hook is None
            and (self.verification is None or self.verification.mutator is None)
        )

    @property
    def program(self) -> Program:
        """The workload's compiled bytecode (compiled or cache-loaded lazily)."""
        if self._program is None:
            key = program_key(self._src_digest)
            if self._cache_armed:
                self._program = self.cache.get(KIND_PROGRAM, key)
            if self._program is None:
                with phase("compile", workload=self.workload.name):
                    self._program = self.workload.compile()
                if self._cache_armed:
                    self.cache.put(KIND_PROGRAM, key, self._program,
                                   note=self.workload.name)
        return self._program

    def builder(self) -> NativeImageBuilder:
        """A fresh builder over the compiled program (one per build)."""
        return NativeImageBuilder(self.program, self.build_config)

    # -- builds ------------------------------------------------------------------

    def _cached_build(self, mode: str, seed: int) -> NativeImageBinary:
        """Regular/instrumented build, served content-addressed if possible."""
        key = image_key(self._src_digest, self._build_fp, mode,
                        None, None, "", seed)
        if self._cache_armed:
            binary = self.cache.get(KIND_IMAGE, key)
            if binary is not None:
                binary._cache_key = key
                return binary
        binary = self.builder().build(mode=mode, seed=seed)
        binary._cache_key = key
        if self._cache_armed:
            self.cache.put(KIND_IMAGE, key, binary,
                           note=f"{self.workload.name} {mode}")
        return binary

    def build_baseline(self, seed: int = 0) -> NativeImageBinary:
        """Build (or cache-load) the regular image for ``seed``."""
        return self._cached_build(MODE_REGULAR, seed)

    def build_instrumented(self, seed: int = 0) -> NativeImageBinary:
        """Build (or cache-load) the instrumented image for ``seed``."""
        return self._cached_build(MODE_INSTRUMENTED, seed)

    def build_optimized(
        self,
        profiles: ProfileBundle,
        strategy: Optional[StrategySpec] = None,
        seed: int = 0,
    ) -> NativeImageBinary:
        """Profile-guided build with the degradation + verification rungs.

        Inputs: the profile bundle of :meth:`profile`, an ordering
        ``strategy`` (``None`` = default layout with PGO inlining only),
        and the build ``seed``.  Returns the final (possibly rolled-back)
        binary.  Raises :class:`ValueError` from the builder when profiles
        lack a requested ordering and no degradation policy is armed, and
        :class:`LayoutVerificationError` when even a default-layout rebuild
        fails structural verification (a broken builder, not a broken
        profile).

        With a cache armed, the key binds the strategy, the *content
        digest* of the seed ``profiles``, both policies, the seed and, for
        the search-based strategies, the execution config; a hit
        restores the built image, its verification report, the degradation
        report, and any quarantine conviction of the building run without
        running the reference build or the layout search.
        """
        self.last_verification_report = None
        if self._quarantine_applies(strategy):
            return self._build_quarantined(profiles, strategy, seed)
        key = self._optimized_key(profiles, strategy, seed)
        if key is not None:
            binary = self.cache.get(KIND_IMAGE, key)
            if binary is not None:
                binary._cache_key = key
                self._restore_rung(self.cache.get(KIND_REPORT, key), strategy)
                return binary
        profiles = self.optimize_profiles(profiles, strategy, seed=seed)
        if self.degradation_policy is not None:
            binary = self._build_optimized_degraded(profiles, strategy, seed)
        else:
            binary = self._build_plain(profiles, strategy, seed)
        if self.verification is not None:
            binary = self._verification_rung(binary, profiles, strategy, seed)
        binary._cache_key = key
        if key is not None:
            entry = (self.quarantine.entry_for(self.workload.name, strategy.name)
                     if strategy is not None else None)
            note = (f"{self.workload.name} optimized "
                    f"({strategy.name if strategy else 'default'})")
            # image payload and rung decisions live in separate entries so
            # the warm fast path (cached_strategy_runs) can restore the
            # rung without unpickling the image
            self.cache.put(KIND_IMAGE, key, binary, note=note)
            self.cache.put(KIND_REPORT, key, {
                "verification": self.last_verification_report,
                "degradation": self.last_degradation_report,
                "quarantine": entry,
            }, note=note)
        return binary

    def optimize_profiles(
        self,
        profiles: ProfileBundle,
        strategy: Optional[StrategySpec],
        seed: int = 0,
    ) -> ProfileBundle:
        """Derive the search-based ordering when ``strategy`` needs it.

        For ``cu-opt`` this runs the layout search of
        :mod:`repro.ordering.optimize` against a cached *reference* build
        (default layout, PGO inlining — the source of unit sizes and of
        the recorded touches) and returns a new bundle carrying the derived
        profile; for every other strategy — or when the bundle already
        carries the profile — the input bundle returns unchanged.  Pure
        and deterministic given (profiles, strategy, ``self.exec_config``,
        seed) — the key material of :meth:`_optimized_key` — so
        :meth:`build_optimized` runs it only on a cache miss.  When the
        seed profiles the search needs are missing, no profile is added
        and the degradation ladder falls back as usual.
        """
        if (strategy is None or not strategy.is_search
                or CU_OPT_ORDERING in profiles.code):
            return profiles
        # Reference build: default layout + PGO inlining, so unit sizes
        # match what the final build will place.  strategy=None never
        # recurses back into this method.
        reference = self.build_optimized(profiles, None, seed=seed)
        with phase("optimize", workload=self.workload.name,
                   strategy=strategy.name):
            return synthesize_optimizer_profiles(
                reference, profiles, self.exec_config)

    def _optimized_key(self, profiles: ProfileBundle,
                       strategy: Optional[StrategySpec],
                       seed: int) -> Optional[str]:
        """Cache key of one optimized build; ``None`` = do not cache.

        Binds the build's *inputs* (seed ``profiles``, strategy, policies,
        seed, and for search-based strategies the execution config the
        touches are recorded under), never a search's output, so it
        resolves without searching.
        """
        if not self._cache_armed:
            return None
        # The final binary depends on the degradation ladder (fallbacks)
        # and the verification rung (rollback), so both policies join the
        # profile digest in the key material.
        verif_fp = fingerprint({
            "verify_structure": self.verification.verify_structure,
            "quarantine": self.verification.quarantine,
        }) if self.verification is not None else ""
        material = f"{profiles.digest()}/{self._policy_fp}/{verif_fp}"
        if strategy is not None and strategy.is_search:
            material += f"/{self._exec_fp}"
        return image_key(
            self._src_digest, self._build_fp, MODE_OPTIMIZED,
            strategy.code_ordering if strategy else None,
            strategy.heap_ordering if strategy else None,
            material, seed,
        )

    def _restore_rung(self, rung: Optional[Dict[str, object]],
                      strategy: Optional[StrategySpec]) -> None:
        """Replay a cached build's rung decisions (reports + quarantine)."""
        if rung is None:
            return
        self.last_verification_report = rung.get("verification")
        report = rung.get("degradation")
        if report is not None:
            self.last_degradation_report = report
        entry = rung.get("quarantine")
        if (entry is not None and strategy is not None
                and self.verification is not None
                and self.verification.quarantine):
            self.quarantine.quarantine(entry.workload, entry.strategy,
                                       entry.reason,
                                       layout_digest=entry.layout_digest)

    def _build_plain(
        self,
        profiles: ProfileBundle,
        strategy: Optional[StrategySpec],
        seed: int,
    ) -> NativeImageBinary:
        return self.builder().build(
            mode=MODE_OPTIMIZED,
            profiles=profiles,
            code_ordering=strategy.code_ordering if strategy else None,
            heap_ordering=strategy.heap_ordering if strategy else None,
            seed=seed,
        )

    # -- layout verification rung (quarantine-and-rollback) ----------------

    def _quarantine_applies(self, strategy: Optional[StrategySpec]) -> bool:
        return (self.verification is not None and strategy is not None
                and (strategy.is_code or strategy.is_heap)
                and self.quarantine.is_quarantined(self.workload.name,
                                                   strategy.name))

    def _build_quarantined(
        self, profiles: ProfileBundle, strategy: StrategySpec, seed: int
    ) -> NativeImageBinary:
        """Default-layout build for a quarantined ordering profile."""
        entry = self.quarantine.entry_for(self.workload.name, strategy.name)
        report = self._degradation_report()
        report.strategy = strategy.name
        report.quarantined = True
        report.layout_fallback = True
        report.note(f"ordering profile quarantined ({entry.reason}); "
                    "building the default layout")
        binary = self._build_plain(profiles, None, seed)
        if self.verification.verify_structure:
            with phase("verify", workload=self.workload.name):
                self.last_verification_report = verify_layout(binary)
        return binary

    def _verification_rung(
        self,
        binary: NativeImageBinary,
        profiles: ProfileBundle,
        strategy: Optional[StrategySpec],
        seed: int,
    ) -> NativeImageBinary:
        """Structurally verify an optimized build; quarantine + roll back.

        A violation on an ordered build convicts the ordering profile: the
        (workload, strategy) pair is quarantined (policy permitting) and
        the binary replaced by a default-layout rebuild, which must verify
        clean — if even that fails, the builder itself is broken and
        :class:`LayoutVerificationError` propagates.
        """
        policy = self.verification
        if not policy.verify_structure:
            return binary
        has_ordering = (binary.code_ordering is not None
                        or binary.heap_ordering is not None)
        if policy.mutator is not None and has_ordering:
            policy.mutator.mutate(binary)
        with phase("verify", workload=self.workload.name,
                   strategy=strategy.name if strategy else ""):
            report = verify_layout(binary)
        self.last_verification_report = report
        if report.ok:
            return binary
        if not has_ordering:
            # Default layouts have nothing to roll back to.
            raise LayoutVerificationError(report)
        degradation = self._degradation_report()
        if strategy is not None:
            degradation.strategy = strategy.name
        degradation.layout_fallback = True
        degradation.verification = report
        codes = ", ".join(sorted(report.codes()))
        degradation.note(f"layout verification failed ({codes}); "
                         "rolled back to the default layout")
        if policy.quarantine and strategy is not None:
            self.quarantine.quarantine(
                self.workload.name, strategy.name,
                f"layout verification failed: {codes}",
                layout_digest=report.layout_digest,
            )
            degradation.quarantined = True
        rollback = self._build_plain(profiles, None, seed)
        with phase("verify", workload=self.workload.name, rollback=True):
            rollback_report = verify_layout(rollback)
        self.last_verification_report = rollback_report
        if not rollback_report.ok:
            raise LayoutVerificationError(rollback_report)
        return rollback

    def _build_optimized_degraded(
        self,
        profiles: ProfileBundle,
        strategy: Optional[StrategySpec],
        seed: int,
    ) -> NativeImageBinary:
        """Optimized build that downgrades instead of raising.

        Missing or empty profiles strip the corresponding ordering; a heap
        ID match rate below the policy floor (profile from a mismatched
        build) rebuilds with the default traversal layout.
        """
        policy = self.degradation_policy
        report = self._degradation_report()
        report.strategy = strategy.name if strategy else ""
        code = strategy.code_ordering if strategy else None
        heap = strategy.heap_ordering if strategy else None
        if code is not None:
            code_profile = profiles.code_profile(code)
            if code_profile is None or not code_profile.signatures:
                report.code_fallback = True
                report.note(
                    f"no usable {code!r} code profile; "
                    "keeping default (alphabetical) CU order"
                )
                code = None
        if heap is not None:
            heap_profile = profiles.heap_profile(heap)
            if heap_profile is None or not heap_profile.ids:
                report.heap_fallback = True
                report.note(
                    f"no usable {heap!r} heap profile; "
                    "keeping default (traversal) object order"
                )
                heap = None
        builder = self.builder()
        binary = builder.build(
            mode=MODE_OPTIMIZED, profiles=profiles,
            code_ordering=code, heap_ordering=heap, seed=seed,
        )
        match = builder.last_match_report
        if heap is not None and match is not None:
            report.heap_match_rate = match.profile_match_rate
            if match.profile_match_rate < policy.min_match_rate:
                report.heap_fallback = True
                report.note(
                    f"heap ID match rate {match.profile_match_rate:.0%} below "
                    f"the {policy.min_match_rate:.0%} floor (profile from a "
                    "mismatched build?); rebuilt with default object order"
                )
                binary = self.builder().build(
                    mode=MODE_OPTIMIZED, profiles=profiles,
                    code_ordering=code, heap_ordering=None, seed=seed,
                )
        return binary

    def _degradation_report(self) -> DegradationReport:
        if self.last_degradation_report is None:
            self.last_degradation_report = DegradationReport(
                workload=self.workload.name
            )
        return self.last_degradation_report

    # -- profiling -----------------------------------------------------------------

    def profile(self, seed: int = 0) -> ProfilingOutcome:
        """Run the instrumented binary once and post-process its traces.

        Input: the build/run ``seed``.  Returns a :class:`ProfilingOutcome`
        carrying the ordering profiles, the instrumented run's metrics, and
        salvage accounting.  Without a degradation policy, trace damage
        raises the typed :class:`TraceDecodeError`; with one armed, failed
        or damaged profiling runs are retried with perturbed seeds and the
        traces parsed leniently — this method then never raises on trace
        damage, worst case returning an empty bundle that the optimized
        build turns into a default-layout fallback.

        Caching is layered: a *profile* hit returns the post-processed
        outcome outright; otherwise a *trace* hit replays the raw trace
        bytes through post-processing without re-running the instrumented
        binary; only a double miss runs the profiler.  Fault-injected
        sessions (``fault_hook``) are never cached.
        """
        if not self._cache_armed:
            return self._profile_uncached(seed)
        key = profile_key(self._src_digest, self._build_fp,
                          self._profiler_fp(), seed, self._policy_fp)
        cached = self.cache.get(KIND_PROFILE, key)
        if cached is not None:
            outcome, report = cached
            if report is not None:
                self.last_degradation_report = report
            return outcome
        outcome = self._profile_uncached(seed)
        self.cache.put(KIND_PROFILE, key,
                       (outcome, self.last_degradation_report),
                       note=self.workload.name)
        return outcome

    def _profile_uncached(self, seed: int) -> ProfilingOutcome:
        if self.degradation_policy is None:
            return self._profile_once(seed, lenient=self.fault_hook is not None)
        return self._profile_with_degradation(seed)

    def _profiler_fp(self) -> str:
        """Fingerprint of everything shaping trace content beyond the build."""
        mode = MODE_MMAP if self.workload.microservice else MODE_DUMP_ON_FULL
        return f"{self._exec_fp}/mode{mode}"

    def _profile_once(self, seed: int, lenient: bool) -> ProfilingOutcome:
        tkey = None
        if self._cache_armed:
            tkey = trace_key(self._src_digest, self._build_fp,
                             self._profiler_fp(), seed)
            packed = self.cache.get(KIND_TRACE, tkey)
            if packed is not None:
                return self._postprocess_traces(packed, seed, lenient)
        instrumented = self.build_instrumented(seed=seed)
        mode = MODE_MMAP if self.workload.microservice else MODE_DUMP_ON_FULL
        session = TraceSession(mode=mode, fault_hook=self.fault_hook)
        tracer = PathTracer(instrumented.manifest, session)
        with phase("trace", workload=self.workload.name, seed=seed):
            metrics = run_binary(instrumented, self.exec_config, tracer=tracer)
        trace_files = session.trace_files()
        with phase("post-process", workload=self.workload.name):
            profiles = build_profiles(instrumented.manifest, trace_files,
                                      lenient=lenient)
        stats = session.total_stats()
        if tkey is not None:
            self.cache.put(KIND_TRACE, tkey, {
                "traces": pack_traces(trace_files),
                "metrics": metrics,
                "trace_bytes": stats.bytes_written,
                "lost_records": stats.lost_records,
            }, note=self.workload.name)
        return ProfilingOutcome(
            profiles=profiles,
            instrumented_metrics=metrics,
            trace_bytes=stats.bytes_written,
            lost_records=stats.lost_records,
            completeness=profiles.completeness,
        )

    def _postprocess_traces(self, packed: Dict[str, object], seed: int,
                            lenient: bool) -> ProfilingOutcome:
        """Rebuild profiles from cached raw traces (no instrumented run)."""
        instrumented = self.build_instrumented(seed=seed)
        with phase("post-process", workload=self.workload.name, replay=True):
            profiles = build_profiles(instrumented.manifest,
                                      unpack_traces(packed["traces"]),
                                      lenient=lenient)
        return ProfilingOutcome(
            profiles=profiles,
            instrumented_metrics=packed["metrics"],
            trace_bytes=packed["trace_bytes"],
            lost_records=packed["lost_records"],
            completeness=profiles.completeness,
        )

    def _profile_with_degradation(self, seed: int) -> ProfilingOutcome:
        policy = self.degradation_policy
        self.last_degradation_report = None
        report = self._degradation_report()
        fallback_outcome: Optional[ProfilingOutcome] = None
        for attempt in range(policy.max_retries + 1):
            attempt_seed = policy.retry_seed(seed, attempt)
            try:
                outcome = self._profile_once(attempt_seed, lenient=True)
            except Exception as exc:  # a profiling run died; retry
                report.attempts.append(ProfilingAttempt(
                    attempt=attempt, seed=attempt_seed, status="error",
                    detail=f"{type(exc).__name__}: {exc}",
                ))
                continue
            completeness = outcome.completeness
            usable = completeness.usable_records if completeness else 0
            if usable >= policy.min_records:
                status = "ok" if (completeness is None
                                  or completeness.complete) else "salvaged"
                report.attempts.append(ProfilingAttempt(
                    attempt=attempt, seed=attempt_seed, status=status,
                    records=usable,
                ))
                report.completeness = completeness
                report.profile_source = "profiled" if status == "ok" else "salvaged"
                if status == "salvaged":
                    report.note(
                        f"profile salvaged from damaged trace(s): "
                        f"{completeness.summary()}"
                    )
                return outcome
            report.attempts.append(ProfilingAttempt(
                attempt=attempt, seed=attempt_seed, status="empty",
                records=usable,
                detail=completeness.summary() if completeness else "",
            ))
            fallback_outcome = outcome
        report.profile_source = "none"
        report.note(
            f"profiling produced no usable records after "
            f"{policy.max_retries + 1} attempt(s); optimized build will "
            "fall back to the default layout"
        )
        if fallback_outcome is None:
            fallback_outcome = ProfilingOutcome(
                profiles=ProfileBundle(completeness=ProfileCompleteness()),
                instrumented_metrics=RunMetrics(),
                trace_bytes=0,
                lost_records=0,
                completeness=ProfileCompleteness(),
            )
        report.completeness = fallback_outcome.completeness
        return fallback_outcome

    # -- measurement ------------------------------------------------------------------

    def measure(
        self, binary: NativeImageBinary, iterations: int = 1, seed: int = 0
    ) -> List[RunMetrics]:
        """Cold-cache runs of ``binary`` (each run drops all caches).

        Inputs: a built image, the number of ``iterations``, and the
        ``seed`` folded into each run index.  Returns one
        :class:`RunMetrics` per iteration.  With watchdog budgets armed
        (``verification.watchdog``), every run is bounded; a tripped run
        contributes empty metrics and a note in the degradation report
        rather than wedging the measurement loop.

        Measurements of cache-addressed binaries are themselves cached
        (the simulator is deterministic, so replaying metrics is exact);
        binaries built outside the cache path are always re-measured.
        """
        mkey = None
        if self._cache_armed and getattr(binary, "_cache_key", None):
            mkey = metrics_key(binary._cache_key, self._exec_fp,
                               iterations, seed, self._watchdog_fp)
            cached = self.cache.get(KIND_METRICS, mkey)
            if cached is not None:
                results, watchdog_reports = cached
                self.last_watchdog_reports = watchdog_reports
                return results
        results = self._measure_uncached(binary, iterations, seed)
        if mkey is not None:
            self.cache.put(KIND_METRICS, mkey,
                           (results, self.last_watchdog_reports),
                           note=f"{self.workload.name} {binary.mode}")
        return results

    def _measure_uncached(
        self, binary: NativeImageBinary, iterations: int, seed: int
    ) -> List[RunMetrics]:
        with phase("measure", workload=self.workload.name,
                   mode=binary.mode, runs=iterations):
            return self._measure_runs(binary, iterations, seed)

    def _measure_runs(
        self, binary: NativeImageBinary, iterations: int, seed: int
    ) -> List[RunMetrics]:
        budget = self.verification.watchdog if self.verification else None
        self.last_watchdog_reports = []
        if budget is None:
            return [
                run_binary(binary, self.exec_config,
                           run_index=(seed << 8) | index)
                for index in range(iterations)
            ]
        results: List[RunMetrics] = []
        for index in range(iterations):
            watchdog = run_with_watchdog(
                binary, self.exec_config, budget,
                run_index=(seed << 8) | index,
            )
            self.last_watchdog_reports.append(watchdog)
            if watchdog.metrics is not None:
                results.append(watchdog.metrics)
            else:
                self._degradation_report().note(
                    f"{watchdog.describe()} (run {index}, {binary.mode} binary)"
                )
                results.append(RunMetrics())
        return results

    # -- one-shot convenience ------------------------------------------------------------

    def run_strategy(
        self, strategy: StrategySpec, seed: int = 0, iterations: int = 1
    ) -> Tuple[List[RunMetrics], List[RunMetrics]]:
        """(baseline runs, optimized runs) for one strategy at one seed.

        The one-shot convenience used by ``repro compare``/``robustness``
        and the bench harness's serial reference: builds the baseline,
        profiles, builds the optimized image, and measures both.  Raises
        whatever the underlying stages raise (see :meth:`profile` and
        :meth:`build_optimized`); with degradation + verification armed it
        only raises on programming errors, never on damaged inputs.
        """
        baseline = self.build_baseline(seed=seed)
        outcome = self.profile(seed=seed)
        optimized = self.build_optimized(outcome.profiles, strategy, seed=seed)
        return (
            self.measure(baseline, iterations, seed),
            self.measure(optimized, iterations, seed),
        )

    def cached_strategy_runs(
        self, strategy: StrategySpec, seed: int = 0, iterations: int = 1
    ) -> Optional[Tuple[List[RunMetrics], List[RunMetrics]]]:
        """Warm-only counterpart of :meth:`run_strategy`.

        When every measurement of the (strategy, seed) cell is already
        cached, returns ``(baseline runs, optimized runs)`` without
        unpickling either image payload — metrics entries are keyed by
        image *key*, not image *content*, so the binaries never need to be
        loaded, and optimizer cells key on the cached seed profiles (see
        :meth:`_optimized_key`), so no layout search runs.  Rung decisions
        (verification report, degradation report, quarantine conviction)
        are restored from their side entry exactly as a cached
        :meth:`build_optimized` would.  Returns ``None`` on any miss;
        callers fall back to :meth:`run_strategy`.
        """
        if not self._cache_armed:
            return None
        base_key = image_key(self._src_digest, self._build_fp, MODE_REGULAR,
                             None, None, "", seed)
        base_runs = self._cached_measurements(base_key, iterations, seed)
        if base_runs is None:
            return None
        outcome = self.profile(seed=seed)  # a warm profile() is itself a hit
        if self._quarantine_applies(strategy):
            return None
        opt_key = self._optimized_key(outcome.profiles, strategy, seed)
        if not self.cache.contains(KIND_REPORT, opt_key):
            return None
        opt_runs = self._cached_measurements(opt_key, iterations, seed)
        if opt_runs is None:
            return None
        self.last_verification_report = None
        self._restore_rung(self.cache.get(KIND_REPORT, opt_key), strategy)
        return base_runs, opt_runs

    def _cached_measurements(
        self, image_key_str: str, iterations: int, seed: int
    ) -> Optional[List[RunMetrics]]:
        """Cached runs of an image identified only by its cache key."""
        mkey = metrics_key(image_key_str, self._exec_fp, iterations, seed,
                           self._watchdog_fp)
        if not self.cache.contains(KIND_METRICS, mkey):
            return None  # probe silently: the builder path records the miss
        cached = self.cache.get(KIND_METRICS, mkey)
        if cached is None:
            return None
        results, watchdog_reports = cached
        self.last_watchdog_reports = watchdog_reports
        return results


def relevant_faults(faults: Dict[str, int], strategy: StrategySpec) -> int:
    """The fault count ``strategy`` is judged on (Sec. 7.1).

    Code strategies count ``.text`` faults, heap strategies ``.svm_heap``
    faults, the combined strategy both.
    """
    text = faults.get(TEXT_SECTION, 0)
    heap = faults.get(HEAP_SECTION, 0)
    if strategy.is_code and strategy.is_heap:
        return text + heap
    return text if strategy.is_code else heap


def metric_for_strategy(metrics: RunMetrics, strategy: StrategySpec,
                        microservice: bool) -> Dict[str, float]:
    """Extract the paper's per-strategy measurements from one run.

    The fault metric is :func:`relevant_faults`; time is end-to-end for
    AWFY and time-to-first-response for microservices (Sec. 7.1).
    """
    if microservice and metrics.first_response_time_s is not None:
        time_s = metrics.first_response_time_s
        faults = metrics.first_response_faults or metrics.faults
    else:
        time_s = metrics.time_s
        faults = metrics.faults
    return {"faults": float(relevant_faults(faults, strategy)),
            "time_s": time_s,
            "text_faults": float(faults.get(TEXT_SECTION, 0)),
            "heap_faults": float(faults.get(HEAP_SECTION, 0))}
