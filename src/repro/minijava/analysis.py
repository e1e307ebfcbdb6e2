"""Semantic analysis for MiniJava.

Builds the class table (:class:`~repro.minijava.bytecode.ClassInfo` skeletons)
from the parsed AST and performs structural checks: duplicate members, single
constructor per class, known superclasses, acyclic inheritance, and reserved
names.  Name resolution inside method bodies happens during bytecode
generation (:mod:`repro.minijava.codegen`), which owns lexical scoping.
"""

from __future__ import annotations

from typing import Dict

from . import ast_nodes as ast
from .bytecode import ClassInfo, FieldInfo, Program
from .errors import SemanticError

#: Names that cannot be used as class names (primitives and `void`).
RESERVED_TYPE_NAMES = frozenset({"int", "double", "boolean", "String", "void"})

#: Builtin functions callable without a receiver, mapped to their arity.
BUILTINS: Dict[str, int] = {
    "println": 1,
    "print": 1,
    "sqrt": 1,
    "pow": 2,
    "abs": 1,
    "floor": 1,
    "ceil": 1,
    "min": 2,
    "max": 2,
    "intOf": 1,
    "doubleOf": 1,
    "spawn": 2,
    "respond": 1,
    "resource": 2,
    "yieldThread": 0,
}


class ClassTableBuilder:
    """Builds and validates the class table for a parsed program."""

    def __init__(self, unit: ast.CompilationUnitAst) -> None:
        self._unit = unit

    def build(self, program: Program) -> Dict[str, ast.ClassDecl]:
        """Populate ``program`` with class skeletons; return AST decls by name."""
        decls: Dict[str, ast.ClassDecl] = {}
        for decl in self._unit.classes:
            self._check_class(decl)
            if decl.name in decls:
                raise SemanticError(f"duplicate class {decl.name}", decl.line)
            decls[decl.name] = decl
            program.add_class(self._build_skeleton(decl))
        program.link()
        return decls

    def _check_class(self, decl: ast.ClassDecl) -> None:
        if decl.name in RESERVED_TYPE_NAMES:
            raise SemanticError(f"class name {decl.name!r} is reserved", decl.line)
        seen_fields: Dict[str, int] = {}
        for field_decl in decl.fields:
            key = field_decl.name
            if key in seen_fields:
                raise SemanticError(
                    f"duplicate field {decl.name}.{field_decl.name}", field_decl.line
                )
            seen_fields[key] = field_decl.line
        seen_methods: Dict[str, int] = {}
        ctor_count = 0
        for method in decl.methods:
            if method.is_ctor:
                ctor_count += 1
                if ctor_count > 1:
                    raise SemanticError(
                        f"class {decl.name} declares more than one constructor "
                        "(MiniJava allows a single constructor per class)",
                        method.line,
                    )
                continue
            if method.name in seen_methods:
                raise SemanticError(
                    f"duplicate method {decl.name}.{method.name} "
                    "(MiniJava has no overloading)",
                    method.line,
                )
            seen_methods[method.name] = method.line
            if method.name in BUILTINS and method.is_static:
                # Allowed, but class methods shadow builtins; nothing to do.
                pass
        for method in decl.methods:
            method.owner = decl.name
            self._check_params(method)

    def _check_params(self, method: ast.MethodDecl) -> None:
        seen: set = set()
        for param in method.params:
            if param.name in seen:
                raise SemanticError(
                    f"duplicate parameter {param.name} in {method.owner}.{method.name}",
                    param.line,
                )
            seen.add(param.name)

    def _build_skeleton(self, decl: ast.ClassDecl) -> ClassInfo:
        cls = ClassInfo(decl.name, decl.superclass)
        cls.line = decl.line
        for field_decl in decl.fields:
            info = FieldInfo(
                name=field_decl.name,
                type_name=str(field_decl.type),
                is_static=field_decl.is_static,
                is_final=field_decl.is_final,
                declared_in=decl.name,
            )
            if field_decl.is_static:
                cls.static_fields.append(info)
            else:
                cls.instance_fields.append(info)
        return cls


def validate_loop_control(unit: ast.CompilationUnitAst) -> None:
    """Reject ``break``/``continue`` outside loops (cheap recursive walk)."""

    def walk(stmt: ast.Stmt, in_loop: bool, where: str) -> None:
        if isinstance(stmt, (ast.Break, ast.Continue)) and not in_loop:
            kind = "break" if isinstance(stmt, ast.Break) else "continue"
            raise SemanticError(f"{kind} outside loop in {where}", stmt.line)
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                walk(inner, in_loop, where)
        elif isinstance(stmt, ast.If):
            if stmt.then:
                walk(stmt.then, in_loop, where)
            if stmt.otherwise:
                walk(stmt.otherwise, in_loop, where)
        elif isinstance(stmt, (ast.While, ast.For)):
            body = stmt.body
            if body:
                walk(body, True, where)

    for decl in unit.classes:
        for method in decl.methods:
            if method.body is not None:
                walk(method.body, False, f"{decl.name}.{method.name}")
        for static_init in decl.static_inits:
            walk(static_init.body, False, f"{decl.name}.<clinit>")

