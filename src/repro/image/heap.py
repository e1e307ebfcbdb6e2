"""Heap snapshotting: build-time initialization and object-graph traversal.

Mirrors the Native-Image process described in Sec. 2 of the paper:

* class initializers of reachable classes execute **at build time** (with
  lazy, Java-style triggering: touching an uninitialized class's statics
  runs its ``<clinit>`` first);
* the object graph is traversed in a well-defined order starting from the
  required roots — static fields of reachable classes, constants embedded
  in code, interned strings, data-section objects, and resources — and each
  discovered object records its **first parent**, the edge from that parent,
  and (for roots) its **heap-inclusion reason** (Sec. 5.3);
* by default, objects are ordered by the CU order of the code that
  references them ("objects reachable from a CU A are stored before objects
  reachable from another CU B that is stored after A").

The recorded parent/reason metadata is exactly what Algorithms 1–3 need to
compute object identities.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from ..minijava.bytecode import Program
from ..vm.interpreter import Interpreter, RuntimeHooks
from ..vm.values import (
    ArrayInstance,
    ObjectInstance,
    ResourceBlob,
    StaticsHolder,
)
from ..graal.cunits import CompilationUnit
from ..graal.reachability import ReachabilityResult
from ..graal.transform import FoldedConstant
from ..ordering.ids import (
    ALL_STRATEGIES,
    HEAP_PATH,
    INCREMENTAL_ID,
    STRUCTURAL_HASH,
    assign_incremental_ids,
    heap_path_hash,
    structural_hash,
)

# Heap-inclusion reasons (paper Sec. 5.3); re-exported for convenience.
# Static-field and method-constant reasons are the signatures themselves.
from ..ordering.reasons import (  # noqa: E402  (re-export)
    REASON_DATA_SECTION,
    REASON_INTERNED_STRING,
    REASON_RESOURCE,
)

_HEADER_OBJECT = 16
_HEADER_ARRAY = 24
_REF_BYTES = 8


@dataclass
class HeapObject:
    """One object placed in the ``.svm_heap`` snapshot."""

    value: Any
    index: int  # encounter order during traversal (default layout order)
    type_name: str
    size: int
    parent: Optional["HeapObject"] = None
    parent_edge: Union[str, int, None] = None  # field descriptor or array index
    root_reason: Optional[str] = None
    address: int = -1  # assigned at section layout
    #: strategy IDs computed so far; read them through HeapSnapshot.id_of
    ids: Dict[str, int] = field(default_factory=dict)
    #: the value's place in the copy order of
    #: :func:`~repro.image.binary.copy_heap_values`, the same in every
    #: layout of one prepared image (None for strings, which are keyed by
    #: their value, and for build-internal roots)
    origin: Optional[int] = None

    @property
    def is_root(self) -> bool:
        return self.root_reason is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"@{self.address:#x}" if self.address >= 0 else "(unplaced)"
        return f"<HeapObject #{self.index} {self.type_name} {where}>"


def object_size(value: Any) -> int:
    """Simulated size in bytes of a heap value."""
    if isinstance(value, ObjectInstance):
        return _HEADER_OBJECT + _REF_BYTES * len(value.fields)
    if isinstance(value, ArrayInstance):
        return _HEADER_ARRAY + _REF_BYTES * value.length
    if isinstance(value, StaticsHolder):
        return _HEADER_OBJECT + _REF_BYTES * len(value.fields)
    if isinstance(value, ResourceBlob):
        return _HEADER_ARRAY + value.size
    if isinstance(value, str):
        return _HEADER_ARRAY + len(value.encode("utf-8"))
    raise TypeError(f"not a heap value: {type(value).__name__}")


#: ID kind -> the algorithm (paper Algorithms 2-3) computing one object's
#: ID from the object, its values and its parent chain alone
_OBJECT_ID_ALGORITHMS = {
    STRUCTURAL_HASH: structural_hash,
    HEAP_PATH: heap_path_hash,
}


class HeapSnapshot:
    """The result of snapshotting: ordered objects plus lookup tables.

    Object IDs are computed when :meth:`id_of` first reads them.
    ``id_options`` (kind -> the option its algorithm takes; the build's
    ``BuildConfig`` settings) travel with the snapshot, so an unpickled
    snapshot computes the same IDs the build would have.
    """

    def __init__(self, id_options: Optional[Dict[str, Any]] = None) -> None:
        self.objects: List[HeapObject] = []
        self._by_identity: Dict[int, HeapObject] = {}
        self._strings: Dict[str, HeapObject] = {}
        self._id_options = dict(id_options or {})

    def id_of(self, obj: HeapObject, kind: str) -> Optional[int]:
        """``obj``'s ID of ``kind``; ``None`` if it carries none.

        An ID already on the object is read as stored (a custom strategy's
        are only ever stored).  Otherwise a kind with an option is
        computed: the structural and heap-path hashes for ``obj`` alone,
        the incremental IDs for the whole snapshot in one pass, since
        their per-type counters run in encounter order.
        """
        ids = obj.ids
        if kind not in ids and kind in self._id_options:
            option = self._id_options[kind]
            if kind == INCREMENTAL_ID:
                assign_incremental_ids(self, option)
            else:
                ids[kind] = _OBJECT_ID_ALGORITHMS[kind](obj, option)
        return ids.get(kind)

    def lookup(self, value: Any) -> Optional[HeapObject]:
        """The snapshot entry for a runtime value, if present."""
        if isinstance(value, str):
            return self._strings.get(value)
        return self._by_identity.get(id(value))

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self):
        return iter(self.objects)

    # -- construction (used by the snapshotter) ------------------------------

    def add(self, obj: HeapObject) -> None:
        self.objects.append(obj)
        if isinstance(obj.value, str):
            self._strings[obj.value] = obj
        else:
            self._by_identity[id(obj.value)] = obj


class SnapshotIds(Mapping):
    """Snapshot index -> ``{kind: ID}`` of all three kinds, read through
    :meth:`HeapSnapshot.id_of`: the instrumented manifest's table, which
    computes the IDs only of the objects a trace names."""

    def __init__(self, snapshot: HeapSnapshot) -> None:
        self._snapshot = snapshot

    def __getitem__(self, index: int) -> Dict[str, Optional[int]]:
        objects = self._snapshot.objects
        if not isinstance(index, int) or not 0 <= index < len(objects):
            raise KeyError(index)
        obj = objects[index]
        return {kind: self._snapshot.id_of(obj, kind)
                for kind in ALL_STRATEGIES}

    def __len__(self) -> int:
        return len(self._snapshot.objects)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._snapshot.objects)))


class InitTriggeringStatics(dict):
    """Statics map with Java-style lazy class initialization.

    The first access to a class's statics (``GETSTATIC``/``PUTSTATIC``)
    runs its ``<clinit>``; re-entrant accesses during initialization see
    in-progress values, as in the JVM.
    """

    def __init__(self, base: Dict[str, StaticsHolder], initializer) -> None:
        super().__init__(base)
        self._initializer = initializer
        self._initialized: set = set()
        self._in_progress: set = set()

    def ensure_initialized(self, class_name: str) -> None:
        if class_name in self._initialized or class_name in self._in_progress:
            return
        self._in_progress.add(class_name)
        try:
            self._initializer(class_name)
        finally:
            self._in_progress.discard(class_name)
            self._initialized.add(class_name)

    def __getitem__(self, key: str) -> StaticsHolder:
        self.ensure_initialized(key)
        return super().__getitem__(key)


class BuildTimeInitializer:
    """Executes ``<clinit>`` methods at image build time."""

    def __init__(self, program: Program, seed: int = 0) -> None:
        self._program = program
        self._seed = seed
        self.resources: List[ResourceBlob] = []
        self._statics = InitTriggeringStatics(
            _default_statics(program), self._run_clinit
        )
        self._interp = Interpreter(program, statics=self._statics,
                                   hooks=_ResourceCollector(self.resources))

    @property
    def statics(self) -> InitTriggeringStatics:
        return self._statics

    def run(self, reachability: ReachabilityResult) -> None:
        """Initialize every reachable class.

        The outer iteration order is seed-perturbed to model the parallel
        (non-deterministic) execution of class initializers during real
        Native-Image builds (Sec. 2).  Lazy triggering keeps the *values*
        deterministic; only discovery order shifts.
        """
        names = sorted(reachability.classes)
        rng = random.Random(self._seed)
        rng.shuffle(names)
        for name in names:
            if name in self._program.classes:
                self._statics.ensure_initialized(name)

    def _run_clinit(self, class_name: str) -> None:
        cls = self._program.classes.get(class_name)
        if cls is None or cls.clinit is None:
            return
        self._interp.run_single(cls.clinit)


class _ResourceCollector(RuntimeHooks):
    """Build-time hooks: collect resource registrations, observe nothing else."""

    def __init__(self, sink: List[ResourceBlob]) -> None:
        self._sink = sink

    def on_resource(self, blob: ResourceBlob) -> None:
        self._sink.append(blob)


def _default_statics(program: Program) -> Dict[str, StaticsHolder]:
    statics: Dict[str, StaticsHolder] = {}
    for name, cls in program.classes.items():
        fields = cls.static_fields
        statics[name] = StaticsHolder(
            name, [f.name for f in fields], [f.default_value() for f in fields]
        )
    return statics


@dataclass
class _Root:
    value: Any
    reason: str


class HeapSnapshotter:
    """Traverses the object graph and produces the default-ordered snapshot."""

    def __init__(
        self,
        program: Program,
        statics: Dict[str, StaticsHolder],
        id_options: Dict[str, Any],
        seed: int = 0,
        extra_roots: Optional[List[_Root]] = None,
    ) -> None:
        self._program = program
        self._statics = statics
        self._seed = seed
        self._extra_roots = extra_roots or []
        self._id_options = id_options

    def snapshot(
        self,
        ordered_cus: List[CompilationUnit],
        reachability: ReachabilityResult,
        folded: Optional[List[FoldedConstant]] = None,
        resources: Optional[List[ResourceBlob]] = None,
    ) -> HeapSnapshot:
        """Build the snapshot in default (CU-driven) order."""
        roots = self._enumerate_roots(ordered_cus, reachability, folded or [],
                                      resources or [])
        roots = _jitter(roots, self._seed)
        return self._traverse(roots)

    # -- root enumeration -----------------------------------------------------

    def _enumerate_roots(
        self,
        ordered_cus: List[CompilationUnit],
        reachability: ReachabilityResult,
        folded: List[FoldedConstant],
        resources: List[ResourceBlob],
    ) -> List[_Root]:
        roots: List[_Root] = []
        seen_statics: set = set()
        folds_by_method: Dict[str, List[FoldedConstant]] = {}
        for fold in folded:
            folds_by_method.setdefault(fold.origin_signature, []).append(fold)

        # 0. Build-internal extras first: runtime-internal state (e.g. the
        #    profiler's buffers and metadata in instrumented images) sits at
        #    the front of the data section.  This is a key divergence source:
        #    it shifts per-type encounter counters between the instrumented
        #    and optimized builds (Sec. 5.1's weakness of incremental IDs).
        roots.extend(self._extra_roots)

        # 0.5 Resources: the runtime's resource registry is traversed before
        #     user data, so resource blobs keep the "Resource" reason even
        #     when also referenced from a static field.
        for blob in resources:
            roots.append(_Root(blob, REASON_RESOURCE))

        # 1. Code-driven roots, in final CU order: interned strings, folded
        #    method constants, and statics of classes referenced by the code.
        for cu in ordered_cus:
            for member in cu.members:
                for instr in member.method.code:
                    if instr.op == "CONST_STR":
                        literal = self._program.string_literals[instr.args[0]]
                        roots.append(_Root(literal, REASON_INTERNED_STRING))
                    elif instr.op == "CONST_OBJ":
                        roots.append(_Root(instr.args[0], member.signature))
                    elif instr.op in ("GETSTATIC", "PUTSTATIC"):
                        cls_name = instr.args[0]
                        if cls_name in seen_statics:
                            continue
                        seen_statics.add(cls_name)
                        roots.extend(self._static_roots(cls_name))

        # 2. Statics of reachable classes never referenced from compiled code
        #    (initialized at build time regardless).
        for cls_name in sorted(reachability.classes):
            if cls_name not in seen_statics and cls_name in self._program.classes:
                seen_statics.add(cls_name)
                roots.extend(self._static_roots(cls_name))

        return roots

    def _static_roots(self, cls_name: str) -> List[_Root]:
        """Per-field value roots, then the statics holder (data section).

        Field values come first so they keep their static-field inclusion
        reason (the holder's BFS expansion would otherwise claim them as
        plain children).
        """
        holder = self._statics.get(cls_name)
        if holder is None:
            return []
        roots: List[_Root] = []
        for field_name, value in holder.fields.items():
            if _is_heap_value(value):
                roots.append(_Root(value, f"StaticField:{cls_name}.{field_name}"))
        roots.append(_Root(holder, REASON_DATA_SECTION))
        return roots

    # -- traversal ---------------------------------------------------------------

    def _traverse(self, roots: List[_Root]) -> HeapSnapshot:
        snapshot = HeapSnapshot(self._id_options)
        queue: deque = deque()

        def discover(value: Any, parent: Optional[HeapObject],
                     edge: Union[str, int, None], reason: Optional[str]) -> None:
            if not _is_heap_value(value):
                return
            existing = snapshot.lookup(value)
            if existing is not None:
                return
            obj = HeapObject(
                value=value,
                index=len(snapshot),
                type_name=_heap_type_name(value),
                size=object_size(value),
                parent=parent,
                parent_edge=edge,
                root_reason=reason,
            )
            snapshot.add(obj)
            queue.append(obj)

        for root in roots:
            discover(root.value, None, None, root.reason)
            # BFS from each root before moving to the next keeps the
            # "objects reachable from CU A before CU B" property.
            while queue:
                self._expand(queue.popleft(), discover)

        return snapshot

    def _expand(self, obj: HeapObject, discover) -> None:
        value = obj.value
        if isinstance(value, ObjectInstance):
            for field_info in value.klass.all_instance_fields():
                child = value.fields.get(field_info.name)
                edge = f"{field_info.declared_in}.{field_info.name}:{field_info.type_name}"
                discover(child, obj, edge, None)
        elif isinstance(value, ArrayInstance):
            for index, child in enumerate(value.values):
                discover(child, obj, index, None)
        elif isinstance(value, StaticsHolder):
            for field_name, child in value.fields.items():
                discover(child, obj, f"{value.class_name}.{field_name}", None)
        # str / ResourceBlob are leaves.


def _is_heap_value(value: Any) -> bool:
    return isinstance(
        value, (ObjectInstance, ArrayInstance, StaticsHolder, ResourceBlob, str)
    )


def _heap_type_name(value: Any) -> str:
    if isinstance(value, str):
        return "String"
    if isinstance(value, StaticsHolder):
        return f"{value.class_name}$Statics"
    if isinstance(value, ResourceBlob):
        return "Resource"
    return value.type_name


def _jitter(roots: List[_Root], seed: int, fraction: float = 0.03) -> List[_Root]:
    """Swap a small fraction of adjacent root pairs.

    Models residual build non-determinism (parallel clinit execution) that
    shifts encounter order without changing the object graph.  Seed 0 is the
    identity, so tests stay deterministic by default.
    """
    if seed == 0 or len(roots) < 2:
        return roots
    rng = random.Random(seed)
    out = list(roots)
    index = 0
    while index < len(out) - 1:
        if rng.random() < fraction:
            out[index], out[index + 1] = out[index + 1], out[index]
            index += 2
        else:
            index += 1
    return out


def make_extra_root(value: Any, reason: str) -> _Root:
    """Public constructor for build-internal roots (profiler state etc.)."""
    return _Root(value, reason)
