"""The Native-Image build pipeline (paper Fig. 1).

Build modes:

* ``regular`` — the baseline: default inlining, alphabetical CU order,
  traversal-order heap layout.
* ``instrumented`` — the profiling build: probe bytes inflate method sizes
  (diverging the inliner), the profiler's runtime state joins the image
  heap, and the binary carries the instrumentation manifest with per-object
  identities.
* ``optimized`` — the profile-guided build: call counts drive extra
  inlining, final statics are constant-folded (changing heap roots), and
  the requested code-/heap-ordering strategies rearrange the sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..graal.cunits import CompilationUnit
from ..graal.inliner import InlinerConfig, default_size_fn, form_compilation_units
from ..graal.reachability import ReachabilityResult, analyze
from ..graal.transform import FoldedConstant, clone_program, fold_final_statics
from ..minijava.bytecode import Program
from ..obs import phase
from ..ordering.code_order import default_order, order_compilation_units
from ..ordering.heap_order import match_and_order
from ..ordering.ids import (
    DEFAULT_MAX_DEPTH,
    HEAP_PATH,
    INCREMENTAL_ID,
    STRUCTURAL_HASH,
)
from ..ordering.profiles import ProfileBundle
from ..profiling.instrument import (
    InstrumentationManifest,
    instrumented_size_fn,
    plan_instrumentation,
)
from ..vm.values import ArrayInstance, ResourceBlob, StaticsHolder
from .binary import (
    MODE_INSTRUMENTED,
    MODE_OPTIMIZED,
    MODE_REGULAR,
    NativeImageBinary,
    copy_heap_values,
)
from .heap import (
    REASON_DATA_SECTION,
    BuildTimeInitializer,
    HeapSnapshotter,
    SnapshotIds,
    make_extra_root,
)
from .sections import layout_heap, layout_text


@dataclass(frozen=True)
class BuildConfig:
    """Knobs of the simulated toolchain."""

    saturation_threshold: int = 5
    inliner: InlinerConfig = field(default_factory=InlinerConfig)
    #: statically linked native code at the end of .text (Appendix A)
    native_blob_bytes: int = 64 * 1024
    structural_max_depth: int = DEFAULT_MAX_DEPTH
    incremental_per_type: bool = True
    heap_path_intern_special: bool = True
    #: profiler runtime buffers added to the instrumented image heap
    instrumented_buffer_objects: int = 3
    instrumented_buffer_ints: int = 2048
    #: profiler metadata strings in the instrumented image heap; these shift
    #: the per-type counters of the (numerous) String objects between the
    #: instrumented and optimized builds
    instrumented_metadata_strings: int = 10

    def with_max_depth(self, depth: int) -> "BuildConfig":
        return replace(self, structural_max_depth=depth)

    def fingerprint(self) -> str:
        """Stable content digest of every build knob.

        Part of the content-addressed cache key of each build: any
        change to any field (including nested :class:`InlinerConfig`
        thresholds) yields a different fingerprint, so a build's cached
        measurements can never be served across configuration changes.
        """
        from ..cache.keys import fingerprint
        return fingerprint(self)


@dataclass
class PreparedImage:
    """A build up to and including inlining: what all its layouts share.

    ``statics`` and ``resources`` are the build-time heap values; every
    layout places its own copy of them, so laying out never writes here.
    """

    mode: str
    seed: int
    program: Program
    reachability: ReachabilityResult
    statics: Dict[str, StaticsHolder]
    resources: List[ResourceBlob]
    folded: List[FoldedConstant]
    cus: List[CompilationUnit]
    #: instrumented builds only; their one layout completes it
    manifest: Optional[InstrumentationManifest] = None


class NativeImageBuilder:
    """Builds binaries from a compiled MiniJava program.

    A build runs in two stages: :meth:`prepare` (program clone, analysis,
    build-time ``<clinit>``, PGO folding and inlining — nothing any
    ordering reads) and :meth:`lay_out` (code order through the constant
    tables).  The builder keeps its last prepared optimized image and lays
    out every later optimized build with the same seed and call counts
    from it; regular and instrumented builds always prepare afresh.
    """

    def __init__(self, program: Program, config: Optional[BuildConfig] = None) -> None:
        self._program = program
        self.config = config or BuildConfig()
        #: ((seed, call counts), image) of the last optimized prepare
        self._kept: Optional[Tuple[Tuple[int, Dict[str, int]], PreparedImage]] = None

    @property
    def kept(self) -> Optional[PreparedImage]:
        """The prepared image later optimized builds are laid out from."""
        return self._kept[1] if self._kept is not None else None

    def build(
        self,
        mode: str = MODE_REGULAR,
        profiles: Optional[ProfileBundle] = None,
        code_ordering: Optional[str] = None,
        heap_ordering: Optional[str] = None,
        seed: int = 0,
    ) -> NativeImageBinary:
        """Run the full pipeline and return the binary.

        ``code_ordering`` is ``"cu"``/``"method"``; ``heap_ordering`` is an
        ID-strategy name.  Both require ``mode="optimized"`` and profiles.
        """
        with phase("build", mode=mode, code=code_ordering or "",
                   heap=heap_ordering or "", seed=seed):
            if mode not in (MODE_REGULAR, MODE_INSTRUMENTED, MODE_OPTIMIZED):
                raise ValueError(f"unknown build mode {mode!r}")
            if mode == MODE_OPTIMIZED and profiles is None:
                raise ValueError("optimized builds require profiles")
            if (code_ordering or heap_ordering) and mode != MODE_OPTIMIZED:
                raise ValueError("ordering strategies apply to optimized builds only")
            return self.lay_out(self._prepared(mode, profiles, seed),
                                profiles, code_ordering, heap_ordering)

    def _prepared(self, mode: str, profiles: Optional[ProfileBundle],
                  seed: int) -> PreparedImage:
        """The prepared image of one build, kept for optimized builds.

        Keyed on exactly what :meth:`prepare` reads of the request: the
        seed and the call counts (not the whole bundle: ``cu-opt`` adds a
        code profile to the same counts).
        """
        if mode != MODE_OPTIMIZED:
            return self.prepare(mode, profiles, seed)
        key = (seed, profiles.calls.counts)
        if self._kept is not None and self._kept[0] == key:
            return self._kept[1]
        prepared = self.prepare(mode, profiles, seed)
        self._kept = ((seed, dict(profiles.calls.counts)), prepared)
        return prepared

    def prepare(self, mode: str, profiles: Optional[ProfileBundle],
                seed: int) -> PreparedImage:
        """Stages 1-6, which no layout depends on.

        Optimized builds read only the call counts of ``profiles``.
        """
        with phase("prepare", mode=mode, seed=seed):
            config = self.config

            # 1-2. per-build program copy + points-to (RTA) analysis
            program = clone_program(self._program)
            reachability = analyze(program, config.saturation_threshold)

            # 3. build-time class initialization (heap snapshotting, phase 1)
            initializer = BuildTimeInitializer(program, seed=seed)
            initializer.run(reachability)
            statics = {name: holder for name, holder in initializer.statics.items()}

            # 4. PGO constant folding (optimized builds)
            folded = []
            call_counts = None
            if mode == MODE_OPTIMIZED:
                folded = fold_final_statics(
                    program, statics, frozenset(reachability.methods)
                )
                call_counts = profiles.calls

            # 5. instrumentation planning (profiling builds)
            manifest = None
            size_fn = default_size_fn
            if mode == MODE_INSTRUMENTED:
                manifest = plan_instrumentation(
                    program, reachability.reachable_methods(program)
                )
                size_fn = instrumented_size_fn(manifest)

            # 6. inlining: form compilation units
            cus = form_compilation_units(
                program, reachability, size_fn, config.inliner, call_counts
            )
        return PreparedImage(
            mode=mode, seed=seed, program=program, reachability=reachability,
            statics=statics, resources=initializer.resources, folded=folded,
            cus=cus, manifest=manifest,
        )

    def lay_out(
        self,
        prepared: PreparedImage,
        profiles: Optional[ProfileBundle],
        code_ordering: Optional[str] = None,
        heap_ordering: Optional[str] = None,
    ) -> NativeImageBinary:
        """Stages 7-13 on a copy of ``prepared``'s heap values.

        ``prepared`` is left as it was, so one prepared image serves any
        number of layouts.
        """
        config = self.config
        mode = prepared.mode
        program = prepared.program

        # 7. code ordering
        if code_ordering is not None:
            code_profile = profiles.code_profile(code_ordering)
            if code_profile is None:
                raise ValueError(f"profiles carry no {code_ordering!r} code ordering")
            with phase("order", ordering="code", strategy=code_ordering):
                ordered_cus = order_compilation_units(prepared.cus, code_profile)
        else:
            ordered_cus = default_order(prepared.cus)

        # 8. .text layout
        text = layout_text(ordered_cus, config.native_blob_bytes)

        # 9. heap snapshot traversal over this layout's copy of the values;
        #    object IDs are computed when first read (HeapSnapshot.id_of)
        statics, resources, copies = copy_heap_values(prepared.statics,
                                                      prepared.resources)
        extra_roots = []
        if mode == MODE_INSTRUMENTED:
            for index in range(config.instrumented_buffer_objects):
                buffer = ArrayInstance("int", config.instrumented_buffer_ints)
                extra_roots.append(make_extra_root(buffer, REASON_DATA_SECTION))
            for index in range(config.instrumented_metadata_strings):
                metadata = f"svm-profiler-metadata-{index:03d}"
                extra_roots.append(make_extra_root(metadata, REASON_DATA_SECTION))
        snapshotter = HeapSnapshotter(
            program, statics, seed=prepared.seed, extra_roots=extra_roots,
            id_options={INCREMENTAL_ID: config.incremental_per_type,
                        STRUCTURAL_HASH: config.structural_max_depth,
                        HEAP_PATH: config.heap_path_intern_special})
        snapshot = snapshotter.snapshot(
            ordered_cus, prepared.reachability, prepared.folded, resources
        )
        for origin, value in enumerate(copies):
            entry = snapshot.lookup(value)
            if entry is not None:
                entry.origin = origin

        # 10. heap ordering
        heap_match = None
        if heap_ordering is not None:
            heap_profile = profiles.heap_profile(heap_ordering)
            if heap_profile is None:
                raise ValueError(f"profiles carry no {heap_ordering!r} heap ordering")
            with phase("order", ordering="heap", strategy=heap_ordering):
                ordered_objects, heap_match = match_and_order(snapshot,
                                                              heap_profile)
        else:
            ordered_objects = list(snapshot.objects)

        # 11. .svm_heap layout
        heap_section = layout_heap(ordered_objects)

        # 12. constant tables
        literal_objects: Dict[int, object] = {}
        for sid, literal in enumerate(program.string_literals):
            entry = snapshot.lookup(literal)
            if entry is not None:
                literal_objects[sid] = entry
        fold_objects = {}
        for fold in prepared.folded:
            entry = snapshot.lookup(fold.value)
            if entry is not None:
                fold_objects[fold.token] = entry

        # 13. instrumentation manifest completion
        manifest = prepared.manifest
        if manifest is not None:
            manifest.register_cus([cu.name for cu in ordered_cus])
            manifest.object_ids = SnapshotIds(snapshot)

        return NativeImageBinary(
            program=program,
            mode=mode,
            cus=ordered_cus,
            text=text,
            snapshot=snapshot,
            heap=heap_section,
            statics=statics,
            literal_objects=literal_objects,
            fold_objects=fold_objects,
            manifest=manifest,
            build_seed=prepared.seed,
            code_ordering=code_ordering,
            heap_ordering=heap_ordering,
            heap_match=heap_match,
        )
