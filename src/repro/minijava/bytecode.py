"""Stack bytecode for MiniJava.

The bytecode plays the role of Graal IR in the reproduction: the front-end
lowers MiniJava methods into this representation; the simulated Graal
mid-end (:mod:`repro.graal`) analyzes it for reachability and inlining; the
tracing profiler (:mod:`repro.profiling`) builds CFGs and Ball–Larus path
numbers over it; and the step interpreter (:mod:`repro.vm`) executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------

#: All opcodes with the simulated machine-code size (in bytes) each one
#: contributes to its compilation unit.  The sizes are loosely modeled on
#: x86-64 instruction sequences Graal would emit; what matters for the
#: reproduction is only that they are stable and roughly proportional.
OPCODE_SIZES: Dict[str, int] = {
    "CONST_INT": 5,
    "CONST_DOUBLE": 8,
    "CONST_BOOL": 3,
    "CONST_NULL": 3,
    "CONST_STR": 7,
    "CONST_OBJ": 7,
    "LOAD": 3,
    "STORE": 3,
    "GETFIELD": 6,
    "PUTFIELD": 6,
    "GETSTATIC": 7,
    "PUTSTATIC": 7,
    "NEWARRAY": 12,
    "ALOAD": 6,
    "ASTORE": 6,
    "ARRAYLEN": 4,
    "NEW": 14,
    "CALL_CTOR": 10,
    "CALL_STATIC": 8,
    "CALL_VIRTUAL": 12,
    "CALL_SUPER": 8,
    "BUILTIN": 10,
    "RET_VAL": 4,
    "RET_VOID": 3,
    "ADD": 3,
    "SUB": 3,
    "MUL": 4,
    "DIV": 8,
    "MOD": 8,
    "NEG": 3,
    "BAND": 3,
    "BOR": 3,
    "BXOR": 3,
    "SHL": 4,
    "SHR": 4,
    "BNOT": 3,
    "NOT": 4,
    "EQ": 5,
    "NE": 5,
    "LT": 5,
    "LE": 5,
    "GT": 5,
    "GE": 5,
    "I2D": 4,
    "D2I": 4,
    "STR_CONCAT": 10,
    "INSTANCEOF": 8,
    "CHECKCAST": 8,
    "JUMP": 5,
    "JMP_FALSE": 6,
    "JMP_TRUE": 6,
    "DUP": 2,
    "DUP2": 2,
    "DUP_X1": 2,
    "DUP_X2": 2,
    "POP": 2,
}

#: Opcodes that transfer control; these terminate basic blocks.
BRANCH_OPS = frozenset({"JUMP", "JMP_FALSE", "JMP_TRUE"})
RETURN_OPS = frozenset({"RET_VAL", "RET_VOID"})
CALL_OPS = frozenset({"CALL_CTOR", "CALL_STATIC", "CALL_VIRTUAL", "CALL_SUPER"})
#: Opcodes whose execution touches an image-heap object at runtime.
HEAP_ACCESS_OPS = frozenset(
    {"GETFIELD", "PUTFIELD", "ALOAD", "ASTORE", "GETSTATIC", "PUTSTATIC"}
)


@dataclass
class Instr:
    """One bytecode instruction: an opcode plus immediate arguments."""

    op: str
    args: Tuple = ()
    line: int = 0

    @property
    def size(self) -> int:
        """Simulated machine-code size of the instruction, in bytes."""
        return OPCODE_SIZES[self.op]

    def __reduce__(self):
        # pickled as its three fields, not as a dataclass's attribute
        # dict: compiled programs are most of what the artifact cache holds
        return (Instr, (self.op, self.args, self.line))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = " ".join(str(a) for a in self.args)
        return f"{self.op} {args}".strip()


@dataclass
class CompiledMethod:
    """A MiniJava method lowered to bytecode."""

    owner: str
    name: str
    param_types: List[str]
    is_static: bool
    is_ctor: bool
    returns_value: bool
    num_slots: int
    code: List[Instr] = field(default_factory=list)
    line: int = 0

    @property
    def signature(self) -> str:
        """Stable signature used to match methods across builds."""
        return f"{self.owner}.{self.name}({','.join(self.param_types)})"

    @property
    def num_params(self) -> int:
        """Parameter count including the implicit receiver slot."""
        return len(self.param_types) + (0 if self.is_static else 1)

    def code_size(self) -> int:
        """Simulated machine-code size of the body, in bytes."""
        return sum(instr.size for instr in self.code)

    def called_signatures(self) -> List[Tuple[str, str, str]]:
        """Call sites as ``(kind, class_or_empty, method_name)`` triples."""
        sites: List[Tuple[str, str, str]] = []
        for instr in self.code:
            if instr.op == "CALL_STATIC":
                sites.append(("static", instr.args[0], instr.args[1]))
            elif instr.op == "CALL_VIRTUAL":
                sites.append(("virtual", "", instr.args[0]))
            elif instr.op == "CALL_SUPER":
                sites.append(("super", instr.args[0], instr.args[1]))
            elif instr.op == "CALL_CTOR":
                sites.append(("ctor", instr.args[0], "<init>"))
        return sites

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledMethod {self.signature} ({len(self.code)} instrs)>"


@dataclass
class FieldInfo:
    """A declared field (instance or static)."""

    name: str
    type_name: str
    is_static: bool
    is_final: bool
    declared_in: str = ""

    @property
    def signature(self) -> str:
        return f"{self.declared_in}.{self.name}"

    def default_value(self):
        """The Java default value for this field's declared type."""
        if self.type_name == "int":
            return 0
        if self.type_name == "double":
            return 0.0
        if self.type_name == "boolean":
            return False
        return None


class ClassInfo:
    """A compiled MiniJava class: fields, methods, and hierarchy links."""

    def __init__(self, name: str, superclass_name: Optional[str]) -> None:
        self.name = name
        self.superclass_name = superclass_name
        self.superclass: Optional["ClassInfo"] = None  # linked after all classes load
        self.instance_fields: List[FieldInfo] = []
        self.static_fields: List[FieldInfo] = []
        self.methods: Dict[str, CompiledMethod] = {}
        self.clinit: Optional[CompiledMethod] = None
        self.line = 0

    # -- hierarchy helpers --------------------------------------------------

    def mro(self) -> List["ClassInfo"]:
        """The class and its superclasses, most-derived first."""
        chain: List[ClassInfo] = []
        cls: Optional[ClassInfo] = self
        while cls is not None:
            chain.append(cls)
            cls = cls.superclass
        return chain

    def all_instance_fields(self) -> List[FieldInfo]:
        """Instance fields in layout order: superclass fields first."""
        fields: List[FieldInfo] = []
        for cls in reversed(self.mro()):
            fields.extend(cls.instance_fields)
        return fields

    def lookup_method(self, name: str) -> Optional[CompiledMethod]:
        """Virtual method lookup along the superclass chain."""
        for cls in self.mro():
            method = cls.methods.get(name)
            if method is not None:
                return method
        return None

    def find_field(self, name: str, static: bool) -> Optional[FieldInfo]:
        """Find a field (by kind) along the superclass chain."""
        for cls in self.mro():
            pool = cls.static_fields if static else cls.instance_fields
            for field_info in pool:
                if field_info.name == name:
                    return field_info
        return None

    def is_subclass_of(self, other_name: str) -> bool:
        return any(cls.name == other_name for cls in self.mro())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.name}>"


class Program:
    """A fully compiled MiniJava program.

    This is the input to the simulated Native-Image build: classes, bytecode
    methods, and the string-literal table (literal strings become interned
    String objects in the image heap).
    """

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.string_literals: List[str] = []
        self._string_ids: Dict[str, int] = {}
        self.main_class = "Main"

    def add_class(self, cls: ClassInfo) -> None:
        if cls.name in self.classes:
            raise ValueError(f"duplicate class {cls.name}")
        self.classes[cls.name] = cls

    def link(self) -> None:
        """Resolve superclass references; call after all classes are added."""
        for cls in self.classes.values():
            if cls.superclass_name is not None:
                parent = self.classes.get(cls.superclass_name)
                if parent is None:
                    raise ValueError(
                        f"class {cls.name} extends unknown class {cls.superclass_name}"
                    )
                cls.superclass = parent
        # Reject inheritance cycles.
        for cls in self.classes.values():
            seen = set()
            node: Optional[ClassInfo] = cls
            while node is not None:
                if node.name in seen:
                    raise ValueError(f"inheritance cycle through {node.name}")
                seen.add(node.name)
                node = node.superclass

    def intern_string(self, value: str) -> int:
        """Return the literal table index for ``value``, interning it."""
        if value in self._string_ids:
            return self._string_ids[value]
        index = len(self.string_literals)
        self.string_literals.append(value)
        self._string_ids[value] = index
        return index

    def get_class(self, name: str) -> ClassInfo:
        cls = self.classes.get(name)
        if cls is None:
            raise KeyError(f"unknown class {name}")
        return cls

    def entry_method(self) -> CompiledMethod:
        """The program entry point ``Main.main``."""
        main_cls = self.get_class(self.main_class)
        method = main_cls.methods.get("main")
        if method is None or not method.is_static:
            raise ValueError(f"{self.main_class}.main must be a static method")
        return method

    def all_methods(self) -> List[CompiledMethod]:
        """All methods (incl. clinits), in deterministic order."""
        methods: List[CompiledMethod] = []
        for name in sorted(self.classes):
            cls = self.classes[name]
            for method_name in sorted(cls.methods):
                methods.append(cls.methods[method_name])
            if cls.clinit is not None:
                methods.append(cls.clinit)
        return methods
