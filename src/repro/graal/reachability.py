"""Reachability analysis (points-to-lite) for the simulated Native Image.

Native Image decides what goes into the binary with an iterative points-to
analysis, using *saturation* to mark virtual calls as having all possible
targets once the target set crosses a threshold (Wimmer et al., PLDI'24; see
paper Sec. 2).  We implement Rapid Type Analysis (RTA) over MiniJava
bytecode with the same saturation mechanism:

* a **static/super/ctor call** reaches its uniquely resolved target;
* a **virtual call** by name reaches the resolutions in all *instantiated*
  classes — unless the name saturates (more than ``saturation_threshold``
  declarations program-wide), in which case every declaration of the name is
  conservatively reachable;
* ``NEW C`` marks ``C`` instantiated, which can retroactively add targets
  for already-seen virtual names;
* class references (statics, casts, instanceof, array element classes)
  make the class reachable, so its ``<clinit>`` runs at build time.

The analysis is conservative on purpose: as in the real system, it pulls in
more code than a run ever executes, which is exactly why profile-guided
layout has something to win.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..minijava.bytecode import CompiledMethod, Program


@dataclass
class ReachabilityResult:
    """Outcome of the analysis."""

    methods: Set[str] = field(default_factory=set)  # reachable method signatures
    classes: Set[str] = field(default_factory=set)  # reachable class names
    instantiated: Set[str] = field(default_factory=set)
    saturated_names: Set[str] = field(default_factory=set)
    string_literal_ids: Set[int] = field(default_factory=set)

    def reachable_methods(self, program: Program) -> List[CompiledMethod]:
        """Reachable methods as objects, in deterministic (signature) order."""
        out = []
        for method in program.all_methods():
            if method.signature in self.methods and method.name != "<clinit>":
                out.append(method)
        return out


class ReachabilityAnalysis:
    """Worklist RTA over a compiled program."""

    def __init__(self, program: Program, saturation_threshold: int = 5) -> None:
        self._program = program
        self._threshold = saturation_threshold
        self._result = ReachabilityResult()
        self._worklist: List[CompiledMethod] = []
        # virtual names seen at call sites, to re-resolve when a class becomes
        # instantiated later.
        self._pending_virtual: Set[str] = set()
        # name -> all declarations program-wide (computed lazily)
        self._decl_index: Dict[str, List[CompiledMethod]] = {}

    def run(self, entry_points: Optional[List[CompiledMethod]] = None) -> ReachabilityResult:
        """Run to fixpoint from ``entry_points`` (default: ``Main.main``)."""
        self._index_declarations()
        entries = entry_points or [self._program.entry_method()]
        for entry in entries:
            self._mark_method(entry)
            self._mark_class(entry.owner)
        while self._worklist:
            method = self._worklist.pop()
            self._scan(method)
        return self._result

    # -- marking --------------------------------------------------------------

    def _index_declarations(self) -> None:
        for cls in self._program.classes.values():
            for name, method in cls.methods.items():
                self._decl_index.setdefault(name, []).append(method)

    def _mark_method(self, method: CompiledMethod) -> None:
        if method.signature in self._result.methods:
            return
        self._result.methods.add(method.signature)
        self._worklist.append(method)
        self._mark_class(method.owner)

    def _mark_class(self, name: str) -> None:
        base = name.rstrip("[]")
        if base in ("int", "double", "boolean", "String", "void", ""):
            return
        if base in self._result.classes:
            return
        if base not in self._program.classes:
            return
        self._result.classes.add(base)
        cls = self._program.classes[base]
        if cls.superclass_name:
            self._mark_class(cls.superclass_name)
        # Class initializers run at build time; the analysis must see what
        # they reference (they can instantiate types and reach other
        # classes), even though their code never lands in the binary.
        if cls.clinit is not None:
            self._scan(cls.clinit)

    def _mark_instantiated(self, name: str) -> None:
        self._mark_class(name)
        if name in self._result.instantiated:
            return
        self._result.instantiated.add(name)
        # Newly instantiated class may provide targets for pending virtual
        # call names.
        cls = self._program.classes.get(name)
        if cls is None:
            return
        for virtual_name in list(self._pending_virtual):
            target = cls.lookup_method(virtual_name)
            if target is not None and not target.is_static:
                self._mark_method(target)

    # -- scanning --------------------------------------------------------------

    def _scan(self, method: CompiledMethod) -> None:
        for instr in method.code:
            op = instr.op
            if op == "CALL_STATIC":
                target = self._resolve_static(instr.args[0], instr.args[1])
                if target is not None:
                    self._mark_method(target)
            elif op == "CALL_SUPER":
                cls = self._program.classes.get(instr.args[0])
                if cls is not None:
                    target = cls.lookup_method(instr.args[1])
                    if target is not None:
                        self._mark_method(target)
            elif op == "CALL_CTOR":
                self._mark_instantiated(instr.args[0])
                cls = self._program.classes.get(instr.args[0])
                if cls is not None and "<init>" in cls.methods:
                    self._mark_method(cls.methods["<init>"])
            elif op == "CALL_VIRTUAL":
                self._resolve_virtual(instr.args[0])
            elif op == "NEW":
                self._mark_instantiated(instr.args[0])
            elif op in ("GETSTATIC", "PUTSTATIC"):
                self._mark_class(instr.args[0])
            elif op in ("INSTANCEOF", "CHECKCAST", "NEWARRAY"):
                self._mark_class(str(instr.args[0]))
            elif op == "CONST_STR":
                self._result.string_literal_ids.add(instr.args[0])

    def _resolve_static(self, cls_name: str, name: str) -> Optional[CompiledMethod]:
        cls = self._program.classes.get(cls_name)
        while cls is not None:
            method = cls.methods.get(name)
            if method is not None and method.is_static:
                return method
            cls = cls.superclass
        return None

    def _resolve_virtual(self, name: str) -> None:
        declarations = [m for m in self._decl_index.get(name, []) if not m.is_static]
        if len(declarations) > self._threshold:
            # Saturation: every declaration of this name is a possible target.
            if name not in self._result.saturated_names:
                self._result.saturated_names.add(name)
            for method in declarations:
                self._mark_method(method)
            return
        self._pending_virtual.add(name)
        for cls_name in self._result.instantiated:
            cls = self._program.classes[cls_name]
            target = cls.lookup_method(name)
            if target is not None and not target.is_static:
                self._mark_method(target)


def analyze(program: Program, saturation_threshold: int = 5,
            entry_points: Optional[List[CompiledMethod]] = None) -> ReachabilityResult:
    """Convenience wrapper: run RTA on ``program``."""
    return ReachabilityAnalysis(program, saturation_threshold).run(entry_points)


def virtual_targets(program: Program, result: ReachabilityResult, name: str) -> List[CompiledMethod]:
    """Possible targets of a virtual call ``name`` under ``result``.

    Used by the inliner for devirtualization: a single target allows
    inlining.
    """
    targets: Dict[str, CompiledMethod] = {}
    if name in result.saturated_names:
        for cls in program.classes.values():
            method = cls.methods.get(name)
            if method is not None and not method.is_static:
                targets[method.signature] = method
        return sorted(targets.values(), key=lambda m: m.signature)
    for cls_name in result.instantiated:
        cls = program.classes[cls_name]
        method = cls.lookup_method(name)
        if method is not None and not method.is_static:
            targets[method.signature] = method
    return sorted(targets.values(), key=lambda m: m.signature)
