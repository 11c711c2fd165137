"""``tools/src_lines.py``: which lines of a module count as code."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# 21 lines, of which the 8 marked "# code" are code
SOURCE = '''"""Module docstring,
over two lines."""

import os  # code

# a comment-only line
   # an indented one

class A:  # code
    """Class docstring."""

    def f(self):  # code
        """Function docstring.

        Over three lines.
        """
        x = 1  # code
        def g():  # code
            return x  # code
        return g  # code
    "not a docstring"  # code
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("src_lines_under_test", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_total_and_code_lines(tool):
    assert tool.count_lines(SOURCE) == (21, 8)


def test_prints_each_module_then_the_sum(tool, tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\n")
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "3", "1"], ["b.py", "21", "8"], ["total", "24", "9"]]
