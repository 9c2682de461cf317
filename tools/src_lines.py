"""Line counts and sizes of the Python sources under src/ and tests/.

Prints, for each directory, the ``wc -l`` count of its ``.py`` files,
their logical line count and their size in bytes, then the three of each
file.  The logical lines are the lines that hold a token other than a
comment, a newline, an indent, a dedent or the end marker, less the lines
of module, class and function docstrings.  A string token that spans
several lines holds each of them.

    python tools/src_lines.py            # src and tests of this checkout
    python tools/src_lines.py DIR ...    # other directories
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The ``wc -l`` and the logical line count of one file's text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(lines - _docstring_lines(ast.parse(source)))


def _line(name, wc: int, logical: int, size: int) -> str:
    return f"{name}: {wc:,} lines by wc, {logical:,} logical, {size:,} bytes"


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    for directory in [Path(d) for d in argv] or [root / "src", root / "tests"]:
        files = {path.relative_to(directory): (*count(path.read_text()), path.stat().st_size)
                 for path in sorted(directory.rglob("*.py"))}
        print(_line(directory.name, *(sum(n[k] for n in files.values()) for k in range(3))))
        for path, counts in files.items():
            print("  " + _line(path, *counts))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (as in ``| head``): send the output still
        # buffered to devnull, so that exiting does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
