"""Count the lines of code under ``src/`` with comments and docstrings left out.

Each module is parsed, its module, class and function docstrings are
dropped, and the tree is printed back with ``ast.unparse``; the count is
the number of lines of that text that are not empty (``ast.unparse`` sets
each ``def`` and ``class`` apart with an empty line).  This measures code
alone, whatever its formatting and commentary.  Run from the repository root:

    python3 tools/src_lines.py [ROOT]

It prints one line per module and the total.  ROOT defaults to ``src``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def code_lines(source: str) -> int:
    """The count of nonempty lines of ``source`` unparsed without its
    docstrings."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            if node.body and _is_docstring(node.body[0]):
                node.body = node.body[1:] or [ast.Pass()]
    return sum(1 for line in ast.unparse(tree).splitlines() if line)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
