"""MiniJava front-end driver: source text -> compiled :class:`Program`.

Compilation runs in two passes: first every method (including synthesized
constructors and ``<clinit>`` initializers) is registered as an empty shell
in the class table, then bodies are compiled.  This allows (mutual)
recursion and forward references between classes.

Responsibilities beyond parse/analyze/lower:

* constructors get the Java expansion — implicit ``super()`` call (when the
  superclass constructor is no-arg), then instance field initializers in
  declaration order, then the body;
* each class with static field initializers or ``static { }`` blocks gets a
  synthetic ``<clinit>`` method, which the image builder executes at *build
  time* (heap snapshotting; Sec. 2 of the paper).
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as ast
from .analysis import ClassTableBuilder, validate_loop_control
from .bytecode import ClassInfo, CompiledMethod, Program
from .codegen import compile_method_body
from .errors import SemanticError
from .parser import parse


def compile_source(source: str, main_class: str = "Main") -> Program:
    """Compile MiniJava ``source`` into a linked, executable :class:`Program`."""
    unit = parse(source)
    validate_loop_control(unit)
    program = Program()
    program.main_class = main_class
    decls = ClassTableBuilder(unit).build(program)

    # Pass 1: register method shells so bodies can reference any method.
    for name, decl in decls.items():
        _register_shells(program.get_class(name), decl)

    # Pass 2: compile bodies, superclasses first (implicit-super checks).
    order = sorted(decls, key=lambda name: len(program.get_class(name).mro()))
    for name in order:
        _compile_bodies(program, program.get_class(name), decls[name])
    return program


def _register_shells(cls: ClassInfo, decl: ast.ClassDecl) -> None:
    for method_decl in decl.methods:
        if method_decl.is_ctor:
            continue
        cls.methods[method_decl.name] = CompiledMethod(
            owner=cls.name,
            name=method_decl.name,
            param_types=[str(p.type) for p in method_decl.params],
            is_static=method_decl.is_static,
            is_ctor=False,
            returns_value=method_decl.return_type.name != "void"
            or method_decl.return_type.dims > 0,
            num_slots=0,
            line=method_decl.line,
        )
    ctor_decl = _find_ctor(decl)
    ctor_params = ctor_decl.params if ctor_decl else []
    cls.methods["<init>"] = CompiledMethod(
        owner=cls.name,
        name="<init>",
        param_types=[str(p.type) for p in ctor_params],
        is_static=False,
        is_ctor=True,
        returns_value=False,
        num_slots=0,
        line=ctor_decl.line if ctor_decl else decl.line,
    )
    if _needs_clinit(decl):
        cls.clinit = CompiledMethod(
            owner=cls.name,
            name="<clinit>",
            param_types=[],
            is_static=True,
            is_ctor=False,
            returns_value=False,
            num_slots=0,
            line=decl.line,
        )


def _needs_clinit(decl: ast.ClassDecl) -> bool:
    if decl.static_inits:
        return True
    return any(f.is_static and f.init is not None for f in decl.fields)


def _find_ctor(decl: ast.ClassDecl) -> Optional[ast.MethodDecl]:
    for method in decl.methods:
        if method.is_ctor:
            return method
    return None


def _compile_bodies(program: Program, cls: ClassInfo, decl: ast.ClassDecl) -> None:
    for method_decl in decl.methods:
        if method_decl.is_ctor:
            continue
        assert method_decl.body is not None
        compile_method_body(
            program,
            cls,
            cls.methods[method_decl.name],
            method_decl.params,
            method_decl.body.stmts,
        )
    _compile_ctor_body(program, cls, decl, _find_ctor(decl))
    if cls.clinit is not None:
        _compile_clinit_body(program, cls, decl)


def _compile_ctor_body(
    program: Program,
    cls: ClassInfo,
    decl: ast.ClassDecl,
    ctor_decl: Optional[ast.MethodDecl],
) -> None:
    params = ctor_decl.params if ctor_decl else []
    body_stmts: List[ast.Stmt] = list(ctor_decl.body.stmts) if ctor_decl else []

    parts: List[ast.Stmt] = []
    explicit_super = bool(body_stmts) and _is_super_ctor_call(body_stmts[0])
    if cls.superclass is not None:
        if explicit_super:
            parts.append(body_stmts.pop(0))
        else:
            _check_noarg_super(cls, decl.line)
            parts.append(
                ast.ExprStmt(
                    expr=ast.SuperCall(name="<init>", args=[], line=decl.line),
                    line=decl.line,
                )
            )
    elif explicit_super:
        raise SemanticError(f"class {cls.name} has no superclass", decl.line)

    for field_decl in decl.fields:
        if field_decl.is_static or field_decl.init is None:
            continue
        parts.append(
            ast.ExprStmt(
                expr=ast.Assign(
                    target=ast.FieldAccess(
                        obj=ast.ThisExpr(line=field_decl.line),
                        name=field_decl.name,
                        line=field_decl.line,
                    ),
                    op="=",
                    value=field_decl.init,
                    line=field_decl.line,
                ),
                line=field_decl.line,
            )
        )
    parts.extend(body_stmts)
    compile_method_body(program, cls, cls.methods["<init>"], list(params), parts)


def _is_super_ctor_call(stmt: ast.Stmt) -> bool:
    return (
        isinstance(stmt, ast.ExprStmt)
        and isinstance(stmt.expr, ast.SuperCall)
        and stmt.expr.name == "<init>"
    )


def _check_noarg_super(cls: ClassInfo, line: int) -> None:
    """An implicit super() is only valid if the superclass ctor takes no args."""
    parent = cls.superclass
    assert parent is not None
    ctor = parent.methods.get("<init>")
    if ctor is not None and ctor.param_types:
        raise SemanticError(
            f"class {cls.name}: superclass {parent.name} constructor requires "
            "arguments; write an explicit super(...) call",
            line,
        )


def _compile_clinit_body(program: Program, cls: ClassInfo, decl: ast.ClassDecl) -> None:
    parts: List[ast.Stmt] = []
    for field_decl in decl.fields:
        if not field_decl.is_static or field_decl.init is None:
            continue
        parts.append(
            ast.ExprStmt(
                expr=ast.Assign(
                    target=ast.FieldAccess(
                        obj=ast.Name(ident=cls.name, line=field_decl.line),
                        name=field_decl.name,
                        line=field_decl.line,
                    ),
                    op="=",
                    value=field_decl.init,
                    line=field_decl.line,
                ),
                line=field_decl.line,
            )
        )
    for static_init in decl.static_inits:
        parts.extend(static_init.body.stmts)
    assert cls.clinit is not None
    compile_method_body(program, cls, cls.clinit, [], parts)

