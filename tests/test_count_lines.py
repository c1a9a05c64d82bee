"""``tools/count_lines.py`` counts code lines: no docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
spec = importlib.util.spec_from_file_location("count_lines_under_test", TOOL)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

SYNTHETIC = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 1


def f(a,
      b):
    """Function docstring.

    Its body spans lines.
    """
    text = """a string that is
    not a docstring"""
    "a string statement after the first is code"
    return (a +
            b)
'''


def test_synthetic_module():
    # import, class, size, def f (2 lines), text (2 lines), the string statement, return (2 lines)
    assert count_lines.code_lines(SYNTHETIC) == 10


def test_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SYNTHETIC)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    count_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "a.py 1\nb.py 10\ntotal 11\n"
