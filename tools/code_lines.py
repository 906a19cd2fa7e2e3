"""Count the code lines of seqpava's sources: no blank lines, comments or docstrings.

A line counts when it holds a token other than a comment or a line break and
that token is not part of a docstring, the string that opens a module, class
or function body. A statement that spans several lines counts each of its
lines. Run from the repository root:

    python3 tools/code_lines.py [FILE_OR_DIRECTORY ...]

It prints the count of each file (default: every ``.py`` file under
``src/seqpava``) and their total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines that docstrings span in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    targets = [Path(arg) for arg in argv] or [Path("src/seqpava")]
    files = [p for t in targets for p in (sorted(t.rglob("*.py")) if t.is_dir() else [t])]
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
