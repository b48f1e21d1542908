"""The `ast` count of a package's source: lines that hold code, without
docstrings, comments or blank lines, decorators counted.  A line counts
once whatever it holds, and every line of a statement or call that spans
several lines counts.

    python tests/ast_count.py [DIR]

prints the count of each module of DIR (default `src/catsim`) and their
total.  Pytest does not collect this file; `tests/test_exports.py` checks
`count` on an inline snippet.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "catsim"

# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The number of lines of `source` that hold a code token, docstrings
    left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else SRC
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count(path.read_text())
        total += n
        print(f"{path.name}\t{n}")
    print(f"total\t{total}")


if __name__ == "__main__":
    main(sys.argv[1:])
