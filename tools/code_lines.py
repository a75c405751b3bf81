"""Count the code lines of Python files.

    python3 tools/code_lines.py [PATH ...]

A physical line counts when it holds a Python token other than a comment
or a line break, and is not part of a module, class or function
docstring.  Each PATH is a file or a directory searched for *.py files;
the default is src/powershave.  Prints one count per file, then the
total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _python_files(path: str) -> list:
    if not os.path.isdir(path):
        return [path]
    return sorted(os.path.join(root, name)
                  for root, _, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def main(argv: list) -> int:
    total = 0
    for path in argv or ["src/powershave"]:
        for name in _python_files(path):
            with open(name, encoding="utf-8") as fh:
                count = code_lines(fh.read())
            print(f"{count:6d}  {name}")
            total += count
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
