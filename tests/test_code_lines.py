"""tools/code_lines.py, the line count that size figures in CHANGES.md
quote: a line counts when it holds code, and docstrings, comments and
blank lines do not."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each code line that can hold a comment is marked "# 1".  Two cannot:
# the line continued by a backslash and the first line of the string.
SOURCE = '''"""Module docstring
over two lines."""

import os  # 1


# A comment line.
class A:  # 1
    """Class docstring."""

    x = 1  # 1
    y = 1 + \\
        2  # 1

    def f(self, a,  # 1
          b):  # 1
        """Function docstring
        over two lines."""
        text = """not a
docstring"""  # 1
        return (a +  # 1
                b)  # 1


async def g():  # 1
    \'\'\'Docstring.\'\'\'
    "a string after the docstring is code"  # 1
    return [  # 1
        os.sep,  # 1
    ]  # 1
'''

EXPECTED = SOURCE.count("# 1") + 2


def test_code_lines_counts_exactly_the_code_lines():
    assert EXPECTED == 16
    assert code_lines.code_lines(SOURCE) == EXPECTED


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    16  {tmp_path / 'a.py'}",
        f"     1  {tmp_path / 'sub' / 'b.py'}",
        "    17  total",
    ]


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_against_prints_each_file_then_and_now(tmp_path, monkeypatch, capsys):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (pkg / "gone.py").write_text("x = 1\n", encoding="utf-8")
    (pkg / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    (pkg / "a.py").write_text(SOURCE, encoding="utf-8")
    (pkg / "gone.py").unlink()
    (pkg / "sub" / "b.py").write_text("x = 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert code_lines.main(["--against", "HEAD", "pkg"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2      16     +14  pkg/a.py",
        "     1       0      -1  pkg/gone.py",
        "     0       1      +1  pkg/sub/b.py",
        "     3      17     +14  total",
    ]
    # A file named on its own, and the default output, which CI prints.
    assert code_lines.main(["--against", "HEAD", "pkg/a.py"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2      16     +14  pkg/a.py",
        "     2      16     +14  total",
    ]
    assert code_lines.main(["pkg"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    16  pkg/a.py", "     1  pkg/sub/b.py", "    17  total"]


def test_against_reads_git_as_utf8_whatever_the_locale(tmp_path):
    # Under -X warn_default_encoding, text I/O that takes the locale's
    # encoding warns, and -W makes that an error; CI runs the tool so.
    (tmp_path / "a.py").write_text("s = 'µs'\n", encoding="utf-8")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", str(_TOOL),
                           "--against", "HEAD", "a.py"],
                          cwd=tmp_path, capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["     1       1      +0  a.py",
                                        "     1       1      +0  total"]
