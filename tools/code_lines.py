"""Count the code lines of Python files.

    python3 tools/code_lines.py [--against REV] [PATH ...]

A physical line counts when it holds a Python token other than a comment
or a line break, and is not part of a module, class or function
docstring.  Each PATH is a file or a directory searched for *.py files;
the default is src/powershave.  Prints one count per file, then the
total.

With --against REV, run inside a git work tree, each line holds a file's
count at REV (read through git show), its count now and the difference,
then the same for the totals.  A file that exists on one side only
counts 0 on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
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


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          encoding="utf-8").stdout


def _counts_at(rev: str, path: str) -> dict:
    """{file: count} of the *.py files under path at rev, each file named
    by its normalised path."""
    listed = _git("ls-tree", "-r", "--name-only", rev, "--", path).splitlines()
    return {name: code_lines(_git("show", f"{rev}:./{name}"))
            for name in listed if name.endswith(".py")}


def _counts_now(path: str) -> dict:
    counts = {}
    for name in _python_files(path):
        with open(name, encoding="utf-8") as fh:
            counts[name] = code_lines(fh.read())
    return counts


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="code_lines.py")
    parser.add_argument("--against", metavar="REV")
    parser.add_argument("paths", nargs="*", default=["src/powershave"])
    args = parser.parse_args(argv)
    now = {}
    for path in args.paths:
        now |= _counts_now(path)
    if args.against is None:
        for name, count in now.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    now = {os.path.normpath(name): count for name, count in now.items()}
    then = {}
    for path in args.paths:
        then |= _counts_at(args.against, path)
    rows = [(then.get(name, 0), now.get(name, 0), name)
            for name in sorted(then.keys() | now.keys())]
    rows.append((sum(then.values()), sum(now.values()), "total"))
    for old, new, name in rows:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
