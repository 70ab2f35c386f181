"""Count code lines: lines with a token that is neither a comment nor part of a docstring.

Run it as `python tests/sloc.py src/intlogic` (a directory is read for its
`*.py` files, sorted; files may be named too).  It prints each file's count
and the total.  A docstring is the string that opens a module, class or
function body; blank lines, comments and docstrings count for nothing, and
a line counts once however many tokens it holds.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The `(line, column)` at which each docstring of `tree` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src/intlogic"]))
