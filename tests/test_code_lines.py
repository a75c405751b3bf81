"""tools/code_lines.py, the line count that size figures in CHANGES.md
quote: a line counts when it holds code, and docstrings, comments and
blank lines do not."""

import importlib.util
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
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    16  {tmp_path / 'a.py'}",
        f"     1  {tmp_path / 'sub' / 'b.py'}",
        "    17  total",
    ]
