"""MiniJava front-end: the Java-like source language of the reproduction."""

from .bytecode import ClassInfo, CompiledMethod, FieldInfo, Instr, Program
from .errors import CompileError, LexError, MiniJavaError, ParseError, SemanticError
from .frontend import compile_source
from .lexer import Token, tokenize
from .parser import parse

__all__ = [
    "ClassInfo",
    "CompiledMethod",
    "FieldInfo",
    "Instr",
    "Program",
    "CompileError",
    "LexError",
    "MiniJavaError",
    "ParseError",
    "SemanticError",
    "compile_source",
    "Token",
    "tokenize",
    "parse",
]
