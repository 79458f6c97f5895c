"""Print the code lines of each module of ``src/p2psec`` and their total.

A code line is a line that is not blank, not only a comment and not part
of a docstring (the string that opens a module, class or function body),
found with ``ast``.  Run it from anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "p2psec"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` are code."""
    docs = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in docs and line.strip()
               and not line.lstrip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
