"""Count the code lines of a Python package: docstrings, comments and blank lines left out.

A line counts when it holds at least one token that is not a comment, a line
break or an indentation change, and lies outside every docstring (the first
statement of a module, class or function body, when it is a string).  Run::

    python tools/code_lines.py [package directory]

It prints one row per module and the total; the directory defaults to
``src/eigengames``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/eigengames")
    counts = {path.relative_to(root).as_posix(): code_lines(path.read_text())
              for path in sorted(root.rglob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
