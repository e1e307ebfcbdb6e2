"""Recursive-descent parser for MiniJava; binary operators by precedence climbing.

The grammar is a compact Java subset sufficient for the AWFY benchmarks and
the microservice startup workloads: classes with single inheritance,
static/instance fields and methods, constructors, static initializer blocks,
arrays, strings, the usual operators (incl. compound assignment and
``++``/``--``), ``if``/``while``/``for``, casts, and ``instanceof``.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import Token, tokenize

_PRIMITIVE_TYPES = ("int", "double", "boolean", "String", "void")

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")

# Binary operator precedence tiers, weakest first.
_BINARY_TIERS = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_PRECEDENCE = {op: level for level, tier in enumerate(_BINARY_TIERS) for op in tier}
# instanceof sits at the relational tier.
_INSTANCEOF_LEVEL = _PRECEDENCE["<"]


class Parser:
    """Parses a token stream into a :class:`~repro.minijava.ast_nodes.CompilationUnitAst`."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        try:
            return self._tokens[self._pos + offset]
        except IndexError:  # lookahead past the end sees the EOF token
            return self._tokens[-1]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _accept_op(self, text: str) -> bool:
        if self._peek().is_op(text):
            self._next()
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._peek().is_keyword(text):
            self._next()
            return True
        return False

    def _expect_op(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_op(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self._next()

    def _expect_keyword(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self._next()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.line, tok.col)
        return self._next()

    # -- program structure -------------------------------------------------

    def parse_program(self) -> ast.CompilationUnitAst:
        classes = []
        while not self._peek().kind == "eof":
            classes.append(self._parse_class())
        return ast.CompilationUnitAst(classes)

    def _parse_class(self) -> ast.ClassDecl:
        start = self._expect_keyword("class")
        name = self._expect_ident().text
        superclass: Optional[str] = None
        if self._accept_keyword("extends"):
            superclass = self._expect_ident().text
        self._expect_op("{")
        decl = ast.ClassDecl(name=name, superclass=superclass, line=start.line)
        while not self._peek().is_op("}"):
            self._parse_member(decl)
        self._expect_op("}")
        return decl

    def _parse_member(self, decl: ast.ClassDecl) -> None:
        is_static = False
        is_final = False
        while True:
            if self._peek().is_keyword("static"):
                # "static {" introduces a static initializer block.
                if self._peek(1).is_op("{"):
                    tok = self._next()
                    body = self._parse_block()
                    decl.static_inits.append(ast.StaticInit(body=body, line=tok.line))
                    return
                self._next()
                is_static = True
            elif self._peek().is_keyword("final"):
                self._next()
                is_final = True
            else:
                break

        # Constructor: "<ClassName> (".
        if (
            self._peek().kind == "ident"
            and self._peek().text == decl.name
            and self._peek(1).is_op("(")
        ):
            tok = self._next()
            params = self._parse_params()
            body = self._parse_block()
            decl.methods.append(
                ast.MethodDecl(
                    name="<init>",
                    params=params,
                    return_type=ast.TypeRef("void"),
                    body=body,
                    is_static=False,
                    is_ctor=True,
                    line=tok.line,
                )
            )
            return

        member_type = self._parse_type(allow_void=True)
        name_tok = self._expect_ident()
        if self._peek().is_op("("):
            params = self._parse_params()
            body = self._parse_block()
            decl.methods.append(
                ast.MethodDecl(
                    name=name_tok.text,
                    params=params,
                    return_type=member_type,
                    body=body,
                    is_static=is_static,
                    line=name_tok.line,
                )
            )
            return
        # Field declaration (possibly a comma-separated list).
        if member_type.name == "void":
            raise ParseError("field cannot have type void", name_tok.line, name_tok.col)
        while True:
            init = self._parse_expr() if self._accept_op("=") else None
            decl.fields.append(
                ast.FieldDecl(
                    name=name_tok.text,
                    type=member_type,
                    is_static=is_static,
                    is_final=is_final,
                    init=init,
                    line=name_tok.line,
                )
            )
            if self._accept_op(","):
                name_tok = self._expect_ident()
                continue
            self._expect_op(";")
            return

    def _parse_params(self) -> List[ast.Param]:
        self._expect_op("(")
        params: List[ast.Param] = []
        if not self._peek().is_op(")"):
            while True:
                ptype = self._parse_type()
                pname = self._expect_ident()
                params.append(ast.Param(type=ptype, name=pname.text, line=pname.line))
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return params

    def _parse_type(self, allow_void: bool = False) -> ast.TypeRef:
        tok = self._peek()
        if tok.kind == "keyword" and tok.text in _PRIMITIVE_TYPES:
            self._next()
            name = tok.text
        elif tok.kind == "ident":
            self._next()
            name = tok.text
        else:
            raise ParseError(f"expected type, found {tok.text!r}", tok.line, tok.col)
        if name == "void" and not allow_void:
            raise ParseError("void not allowed here", tok.line, tok.col)
        dims = 0
        while self._peek().is_op("[") and self._peek(1).is_op("]"):
            self._next()
            self._next()
            dims += 1
        if name == "void" and dims:
            raise ParseError("void array type", tok.line, tok.col)
        return ast.TypeRef(name, dims)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect_op("{")
        stmts: List[ast.Stmt] = []
        while not self._peek().is_op("}"):
            stmts.append(self._parse_stmt())
        self._expect_op("}")
        return ast.Block(stmts=stmts, line=start.line)

    def _starts_var_decl(self) -> bool:
        """Lookahead: does the current position start a local variable declaration?"""
        tok = self._peek()
        if tok.kind == "keyword" and tok.text in ("int", "double", "boolean", "String"):
            return True
        if tok.kind != "ident":
            return False
        # "Foo x" or "Foo[] x" or "Foo[][] x ..."
        offset = 1
        while self._peek(offset).is_op("[") and self._peek(offset + 1).is_op("]"):
            offset += 2
        return self._peek(offset).kind == "ident"

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.is_op("{"):
            return self._parse_block()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("return"):
            self._next()
            value = None if self._peek().is_op(";") else self._parse_expr()
            self._expect_op(";")
            return ast.Return(value=value, line=tok.line)
        if tok.is_keyword("break"):
            self._next()
            self._expect_op(";")
            return ast.Break(line=tok.line)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_op(";")
            return ast.Continue(line=tok.line)
        if tok.is_op(";"):
            self._next()
            return ast.Block(stmts=[], line=tok.line)
        if self._starts_var_decl():
            decl = self._parse_var_decl()
            self._expect_op(";")
            return decl
        expr = self._parse_expr()
        self._expect_op(";")
        return ast.ExprStmt(expr=expr, line=tok.line)

    def _parse_var_decl(self) -> ast.Stmt:
        vtype = self._parse_type()
        stmts: List[ast.Stmt] = []
        while True:
            name = self._expect_ident()
            init = self._parse_expr() if self._accept_op("=") else None
            stmts.append(ast.VarDecl(type=vtype, name=name.text, init=init, line=name.line))
            if not self._accept_op(","):
                break
        if len(stmts) == 1:
            return stmts[0]
        return ast.Block(stmts=stmts, line=stmts[0].line)

    def _parse_if(self) -> ast.Stmt:
        tok = self._expect_keyword("if")
        self._expect_op("(")
        cond = self._parse_expr()
        self._expect_op(")")
        then = self._parse_stmt()
        otherwise = self._parse_stmt() if self._accept_keyword("else") else None
        return ast.If(cond=cond, then=then, otherwise=otherwise, line=tok.line)

    def _parse_while(self) -> ast.Stmt:
        tok = self._expect_keyword("while")
        self._expect_op("(")
        cond = self._parse_expr()
        self._expect_op(")")
        body = self._parse_stmt()
        return ast.While(cond=cond, body=body, line=tok.line)

    def _parse_for(self) -> ast.Stmt:
        tok = self._expect_keyword("for")
        self._expect_op("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_op(";"):
            if self._starts_var_decl():
                init = self._parse_var_decl()
            else:
                init = ast.ExprStmt(expr=self._parse_expr(), line=self._peek().line)
        self._expect_op(";")
        cond = None if self._peek().is_op(";") else self._parse_expr()
        self._expect_op(";")
        update: List[ast.Expr] = []
        if not self._peek().is_op(")"):
            update.append(self._parse_expr())
            while self._accept_op(","):
                update.append(self._parse_expr())
        self._expect_op(")")
        body = self._parse_stmt()
        return ast.For(init=init, cond=cond, update=update, body=body, line=tok.line)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_ternary()
        tok = self._peek()
        if tok.kind == "op" and tok.text in _ASSIGN_OPS:
            if not isinstance(left, (ast.Name, ast.FieldAccess, ast.IndexExpr)):
                raise ParseError("invalid assignment target", tok.line, tok.col)
            self._next()
            value = self._parse_assignment()
            return ast.Assign(target=left, op=tok.text, value=value, line=tok.line)
        return left

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._peek().is_op("?"):
            tok = self._next()
            then = self._parse_expr()
            self._expect_op(":")
            otherwise = self._parse_expr()
            return ast.Conditional(cond=cond, then=then, otherwise=otherwise, line=tok.line)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: operators of ``min_level`` or tighter, left-associative."""
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind == "op":
                level = _PRECEDENCE.get(tok.text, -1)
            elif tok.is_keyword("instanceof"):
                level = _INSTANCEOF_LEVEL
            else:
                return left
            if level < min_level:
                return left
            self._next()
            if tok.kind == "keyword":
                type_name = self._expect_ident().text
                left = ast.InstanceOf(operand=left, type_name=type_name, line=tok.line)
            else:
                right = self._parse_binary(level + 1)
                left = ast.Binary(op=tok.text, left=left, right=right, line=tok.line)

    def _looks_like_cast(self) -> bool:
        """Heuristic for ``(Type) expr`` vs parenthesized expression.

        Called with the current token at ``(``.  A cast is assumed when the
        parentheses contain a type (primitive keyword, or identifier with
        optional ``[]``) and the token after ``)`` can start a unary
        expression.
        """
        if not self._peek().is_op("("):
            return False
        tok = self._peek(1)
        offset = 2
        if tok.kind == "keyword" and tok.text in ("int", "double", "boolean", "String"):
            pass
        elif tok.kind == "ident":
            pass
        else:
            return False
        while self._peek(offset).is_op("[") and self._peek(offset + 1).is_op("]"):
            offset += 2
        if not self._peek(offset).is_op(")"):
            return False
        after = self._peek(offset + 1)
        if after.kind in ("ident", "int", "double", "string", "char"):
            return True
        if after.kind == "keyword" and after.text in ("this", "new", "null", "true", "false"):
            return True
        if after.is_op("(") and tok.kind == "keyword":
            # "(int)(expr)" — only for primitive casts, to avoid treating
            # "(x)(...)" as a cast.
            return True
        return False

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "op" and tok.text in ("-", "!", "~"):
            self._next()
            operand = self._parse_unary()
            return ast.Unary(op=tok.text, operand=operand, line=tok.line)
        if tok.kind == "op" and tok.text in ("++", "--"):
            self._next()
            target = self._parse_unary()
            if not isinstance(target, (ast.Name, ast.FieldAccess, ast.IndexExpr)):
                raise ParseError("invalid ++/-- target", tok.line, tok.col)
            return ast.IncDec(target=target, op=tok.text, prefix=True, line=tok.line)
        if self._looks_like_cast():
            self._next()  # "("
            target = self._parse_type()
            self._expect_op(")")
            operand = self._parse_unary()
            return ast.Cast(target=target, operand=operand, line=tok.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_op("."):
                self._next()
                name = self._expect_ident()
                if self._peek().is_op("("):
                    args = self._parse_args()
                    expr = ast.Call(receiver=expr, name=name.text, args=args, line=name.line)
                else:
                    expr = ast.FieldAccess(obj=expr, name=name.text, line=name.line)
            elif tok.is_op("["):
                self._next()
                index = self._parse_expr()
                self._expect_op("]")
                expr = ast.IndexExpr(array=expr, index=index, line=tok.line)
            elif tok.kind == "op" and tok.text in ("++", "--"):
                if not isinstance(expr, (ast.Name, ast.FieldAccess, ast.IndexExpr)):
                    raise ParseError("invalid ++/-- target", tok.line, tok.col)
                self._next()
                expr = ast.IncDec(target=expr, op=tok.text, prefix=False, line=tok.line)
            else:
                return expr

    def _parse_args(self) -> List[ast.Expr]:
        self._expect_op("(")
        args: List[ast.Expr] = []
        if not self._peek().is_op(")"):
            args.append(self._parse_expr())
            while self._accept_op(","):
                args.append(self._parse_expr())
        self._expect_op(")")
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "ident":
            self._next()
            if self._peek().is_op("("):
                args = self._parse_args()
                return ast.Call(receiver=None, name=tok.text, args=args, line=tok.line)
            return ast.Name(ident=tok.text, line=tok.line)
        if tok.kind == "int":
            self._next()
            return ast.IntLit(value=int(tok.text), line=tok.line)
        if tok.kind == "double":
            self._next()
            return ast.DoubleLit(value=float(tok.text), line=tok.line)
        if tok.kind == "string":
            self._next()
            return ast.StringLit(value=tok.text, line=tok.line)
        if tok.kind == "char":
            self._next()
            return ast.IntLit(value=ord(tok.text), line=tok.line)
        if tok.is_keyword("true") or tok.is_keyword("false"):
            self._next()
            return ast.BoolLit(value=tok.text == "true", line=tok.line)
        if tok.is_keyword("null"):
            self._next()
            return ast.NullLit(line=tok.line)
        if tok.is_keyword("this"):
            self._next()
            return ast.ThisExpr(line=tok.line)
        if tok.is_keyword("super"):
            self._next()
            if self._peek().is_op("("):
                args = self._parse_args()
                return ast.SuperCall(name="<init>", args=args, line=tok.line)
            self._expect_op(".")
            name = self._expect_ident()
            args = self._parse_args()
            return ast.SuperCall(name=name.text, args=args, line=tok.line)
        if tok.is_keyword("new"):
            self._next()
            type_tok = self._peek()
            new_type = self._parse_type_name_for_new()
            if self._peek().is_op("["):
                self._next()
                length = self._parse_expr()
                self._expect_op("]")
                dims = 0
                while self._peek().is_op("[") and self._peek(1).is_op("]"):
                    self._next()
                    self._next()
                    dims += 1
                return ast.NewArray(
                    elem_type=ast.TypeRef(new_type, dims), length=length, line=tok.line
                )
            if new_type in ("int", "double", "boolean", "String"):
                raise ParseError(f"cannot instantiate {new_type}", type_tok.line, type_tok.col)
            args = self._parse_args()
            return ast.NewObject(type_name=new_type, args=args, line=tok.line)
        if tok.is_op("("):
            self._next()
            expr = self._parse_expr()
            self._expect_op(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def _parse_type_name_for_new(self) -> str:
        tok = self._peek()
        if tok.kind == "keyword" and tok.text in ("int", "double", "boolean", "String"):
            self._next()
            return tok.text
        return self._expect_ident().text


def parse(source: str) -> ast.CompilationUnitAst:
    """Parse MiniJava ``source`` into an AST."""
    return Parser(tokenize(source)).parse_program()
