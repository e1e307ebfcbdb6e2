#!/usr/bin/env python3
"""List definitions under ``src/`` that no Python file references.

Scans every module under ``src/`` for top-level functions and classes
and the methods of those classes (dunders are skipped). A definition is
referenced when its name occurs as a whole word in any ``.py`` file under
``src/``, ``tests/``, ``benchmarks/``, ``perfbench/``, ``examples/`` or
``tools/``. The definition's own line does not count, and neither does a
re-export in an ``__init__.py`` (an ``import`` statement or the
``__all__`` list).

Run:  python tools/unreferenced.py

Prints each unreferenced definition as ``file:line name`` and exits 1 if
there is any, 0 otherwise. Stdlib only; needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples", "tools")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """Yields ``(line, name)`` for top-level defs and their methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.lineno, member.name


def reexport_lines(tree: ast.Module) -> set[int]:
    """Line numbers of an ``__init__.py``'s imports and ``__all__``."""
    lines: set[int] = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target]
                   if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        is_all = any(isinstance(t, ast.Name) and t.id == "__all__"
                     for t in targets)
        if isinstance(node, (ast.Import, ast.ImportFrom)) or is_all:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def main() -> int:
    # word -> every (path, line) it occurs on
    words: dict[str, set] = {}
    defs: list[tuple[Path, int, str]] = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
            skipped = (reexport_lines(tree) if path.name == "__init__.py"
                       else set())
            for number, line in enumerate(text.splitlines(), start=1):
                if number in skipped:
                    continue
                for word in WORD.findall(line):
                    words.setdefault(word, set()).add((path, number))
            if top == "src":
                defs.extend((path, line, name)
                            for line, name in definitions(tree)
                            if not is_dunder(name))
    unreferenced = [
        (path, line, name) for path, line, name in defs
        if not words.get(name, set()) - {(path, line)}
    ]
    for path, line, name in unreferenced:
        print(f"{path.relative_to(ROOT)}:{line} {name}")
    return 1 if unreferenced else 0


if __name__ == "__main__":
    sys.exit(main())
