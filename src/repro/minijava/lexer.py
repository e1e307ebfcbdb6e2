"""Lexer for MiniJava, the Java-like source language of the reproduction.

MiniJava stands in for Java in the simulated Native-Image toolchain: AWFY
benchmarks and the microservice startup workloads are written in it.  The
lexer produces a flat token stream consumed by :mod:`repro.minijava.parser`.

Lexical rules are ASCII: identifiers are ``[A-Za-z_][A-Za-z0-9_]*``, digits
are ``[0-9]``, a hex literal ``0x``/``0X`` needs at least one hex digit, and
whitespace is space, tab, carriage return and newline.  Any other character
outside string literals, char literals and comments raises
:class:`LexError` ("unexpected character"), and, as in Java, no string or
char literal spans a line break, so malformed input never escapes as
anything but a typed error.  One compiled pattern matches a whole token
at each position; only escapes and errors take a Python path.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from .errors import LexError

KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "static",
        "final",
        "void",
        "int",
        "double",
        "boolean",
        "String",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "new",
        "null",
        "true",
        "false",
        "this",
        "super",
        "instanceof",
    }
)

# Longest first, so the first alternative that matches is the maximal munch.
_OPERATORS = (
    "<<= >>= == != <= >= && || ++ -- += -= *= /= %= &= |= ^= << >> "
    "+ - * / % < > = ! & | ^ ~ ( ) { } [ ] ; , . ? :"
).split()

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\0", "'": "'"}

# One alternative per token class; ``lastgroup`` names the class matched.
# ``error`` matches any one character, so every position matches something.
# Each match also takes the blanks after it, which saves a match per blank.
_TOKEN = re.compile(
    "(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("space", r"[ \t\r]+|//[^\n]*"),
            ("newline", r"\n[ \t\r]*"),
            ("comment", r"/\*(?:[\s\S]*?\*/)?"),
            ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
            ("hex", r"0[xX][0-9A-Fa-f]*"),
            ("double", r"[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"),
            ("int", r"[0-9]+"),
            ("string", r'"(?:[^"\\\n]|\\.)*"'),
            ("char", r"'(?:\\[^\n]|[^\\\n])'"),
            ("op", "|".join(map(re.escape, _OPERATORS))),
            ("error", r"[\s\S]"),
        )
    )
    + r")[ \t\r]*"
)

_ESCAPE = re.compile(r"\\([\s\S])")


class Token(NamedTuple):
    """A single lexical token.

    ``kind`` is one of ``ident``, ``keyword``, ``int``, ``double``,
    ``string``, ``char``, ``op``, or ``eof``; ``text`` is the raw spelling
    (decoded for string/char literals, decimal for hex literals).
    """

    kind: str
    text: str
    line: int
    col: int

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


# Builds a Token without a call to the NamedTuple's Python-level __new__.
_new_token = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """Tokenize MiniJava ``source`` text, ending with a single EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0  # line_start: offset of the current line's first char
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "space":
            continue
        start = match.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        text = match[kind]
        col = start - line_start + 1
        if kind == "op" or kind == "int" or kind == "double":
            append(_new_token(Token, (kind, text, line, col)))
        elif kind == "word":
            kind = "keyword" if text in KEYWORDS else "ident"
            append(_new_token(Token, (kind, text, line, col)))
        elif kind == "comment":
            if len(text) == 2:
                raise LexError("unterminated block comment", line, col)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rfind("\n") + 1
        elif kind == "hex":
            if len(text) == 2:
                raise LexError(f"hex literal {text!r} needs a hex digit", line, col)
            append(_new_token(Token, ("int", str(int(text, 16)), line, col)))
        elif kind == "string" or kind == "char":
            # Char literals are integers in MiniJava (their code point).
            append(_new_token(Token, (kind, _unescape(text[1:-1], line, col), line, col)))
        else:
            _reject(source, start, line, col)
    append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


def _unescape(body: str, line: int, col: int) -> str:
    """Decode the escapes of a literal's ``body``; the first bad one raises."""

    def decode(match: re.Match) -> str:
        esc = match.group(1)
        if esc not in _ESCAPES:
            raise LexError(f"bad escape \\{esc}", line, col)
        return _ESCAPES[esc]

    return _ESCAPE.sub(decode, body)


def _reject(source: str, start: int, line: int, col: int) -> None:
    """Raise the error for the character at ``start``, where no token matched."""
    ch = source[start]
    if ch == '"':
        # a line break ends the literal, escaped or not, so a backslash
        # last on the line escapes nothing
        end = source.find("\n", start)
        _unescape(source[start + 1 : len(source) if end == -1 else end], line, col)
        raise LexError("unterminated string literal", line, col)
    if ch == "'":
        # a line break ends the literal, escaped or not
        if (source.startswith("\\", start + 1)
                and not source.startswith("\n", start + 2)):
            _unescape(source[start + 1 : start + 3], line, col)
        raise LexError("unterminated char literal", line, col)
    raise LexError(f"unexpected character {ch!r}", line, col)
