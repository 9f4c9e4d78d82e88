"""Count the code lines of each module under ``src/``.

A code line is a line of a statement that is not blank, not only a
comment, and not part of a docstring (the first string of a module,
class or function).  Run from the repository root::

    python tools/code_lines.py [DIR]

It prints one ``lines  module`` row per module, sorted by name, and the
total last.  DIR defaults to ``src``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code: no blanks, comments or docstrings."""
    tree = ast.parse(source)
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    text = source.splitlines()
    return sum(
        1
        for number, line in enumerate(text, start=1)
        if number not in docstrings and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root).with_suffix('').as_posix().replace('/', '.')}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
