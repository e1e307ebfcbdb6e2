"""AST node definitions for MiniJava.

Nodes are plain dataclasses.  Every node carries a ``line`` for diagnostics.
The tree is produced by :mod:`repro.minijava.parser`, resolved by
:mod:`repro.minijava.analysis`, and lowered to stack bytecode by
:mod:`repro.minijava.codegen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class TypeRef:
    """A source-level type: a base name plus an array dimension count."""

    name: str  # "int", "double", "boolean", "String", "void", or a class name
    dims: int = 0

    def element(self) -> "TypeRef":
        if self.dims == 0:
            raise ValueError("not an array type")
        return TypeRef(self.name, self.dims - 1)

    def __str__(self) -> str:
        return self.name + "[]" * self.dims


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    line: int = 0


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class DoubleLit(Expr):
    value: float = 0.0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class NullLit(Expr):
    pass


@dataclass
class Name(Expr):
    """An identifier: a local, a field of ``this``, or a class reference."""

    ident: str = ""


@dataclass
class ThisExpr(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    obj: Optional[Expr] = None
    name: str = ""


@dataclass
class IndexExpr(Expr):
    array: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class Call(Expr):
    """A method call.

    ``receiver`` is ``None`` for unqualified calls (resolved to a builtin, a
    static/instance method of the enclosing class); a :class:`Name` receiver
    may denote a class (static call) or a value (virtual call) — resolution
    happens in semantic analysis and is recorded in ``kind``.
    """

    receiver: Optional[Expr] = None
    name: str = ""
    args: List[Expr] = field(default_factory=list)
    # Filled by analysis: "builtin", "static", "virtual", "super", "local-virtual"
    kind: str = ""
    target_class: str = ""


@dataclass
class SuperCall(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class NewObject(Expr):
    type_name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class NewArray(Expr):
    elem_type: TypeRef = field(default_factory=lambda: TypeRef("int"))
    length: Optional[Expr] = None


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Optional[Expr] = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Conditional(Expr):
    cond: Optional[Expr] = None
    then: Optional[Expr] = None
    otherwise: Optional[Expr] = None


@dataclass
class Cast(Expr):
    target: TypeRef = field(default_factory=lambda: TypeRef("int"))
    operand: Optional[Expr] = None


@dataclass
class InstanceOf(Expr):
    operand: Optional[Expr] = None
    type_name: str = ""


@dataclass
class Assign(Expr):
    """Assignment expression: ``target op value`` where op may be compound."""

    target: Optional[Expr] = None  # Name, FieldAccess, or IndexExpr
    op: str = "="  # "=", "+=", "-=", ...
    value: Optional[Expr] = None


@dataclass
class IncDec(Expr):
    """Prefix or postfix ``++``/``--`` on an lvalue."""

    target: Optional[Expr] = None
    op: str = "++"
    prefix: bool = False


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = 0


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    type: TypeRef = field(default_factory=lambda: TypeRef("int"))
    name: str = ""
    init: Optional[Expr] = None
    slot: int = -1  # assigned by analysis


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    update: List[Expr] = field(default_factory=list)
    body: Optional[Stmt] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Param:
    type: TypeRef
    name: str
    line: int = 0


@dataclass
class FieldDecl:
    name: str
    type: TypeRef
    is_static: bool = False
    is_final: bool = False
    init: Optional[Expr] = None
    line: int = 0


@dataclass
class MethodDecl:
    name: str
    params: List[Param]
    return_type: TypeRef
    body: Optional[Block]
    is_static: bool = False
    is_ctor: bool = False
    line: int = 0
    # Filled by analysis:
    owner: str = ""
    num_slots: int = 0

    @property
    def signature(self) -> str:
        """Stable, human-readable signature used across builds for matching."""
        params = ",".join(str(p.type) for p in self.params)
        return f"{self.owner}.{self.name}({params})"


@dataclass
class StaticInit:
    body: Block
    line: int = 0


@dataclass
class ClassDecl:
    name: str
    superclass: Optional[str]
    fields: List[FieldDecl] = field(default_factory=list)
    methods: List[MethodDecl] = field(default_factory=list)
    static_inits: List[StaticInit] = field(default_factory=list)
    line: int = 0


@dataclass
class CompilationUnitAst:
    """A parsed source file: a list of class declarations."""

    classes: List[ClassDecl] = field(default_factory=list)
