"""Count the code lines of each ``src/jciscan`` module.

A code line holds at least one token that is not a docstring, a comment
or a line break: docstrings (the first statement of a module, class or
function when it is a string), comments and blank lines are not counted,
and a token that spans lines (a multi-line string) counts every line it
covers.  Prints one ``<module> <lines>`` line per module, then the total
for ``src/``.

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "jciscan"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of lines of ``path`` that hold a code token."""
    docstrings = _docstring_lines(ast.parse(path.read_text(encoding="utf-8")))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"src/ {total}")


if __name__ == "__main__":
    main()
