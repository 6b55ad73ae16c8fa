"""Hand-run size count: the code lines of each ``src/qkad`` module, and their total.

Usage, from the root of a checkout::

    python tests/code_lines.py

A code line is a line that is neither blank, nor a comment, nor part of a
module, class or function docstring; a line of code with a trailing comment
counts.  This is the number ROADMAP aim 2 tracks.  pytest does not collect
this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkad"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1 for number, line in enumerate(source.splitlines(), start=1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )


def main() -> int:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:<14}{count:>6,}")
    print(f"{'total':<14}{sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
