"""The code-line counter of `tools/code_lines.py`."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as code

# a comment line


def area(r):
    """A function docstring."""
    text = """a string that is not a docstring,
    over two lines"""
    return math.pi * r * r, text


class Shape:
    """A class docstring."""

    sides = (
        3,
    )
'''


def test_drops_docstrings_comments_and_blank_lines():
    # import, def, text (2 lines), return, class, sides (3 lines)
    assert code_lines.code_lines(SNIPPET) == 9


def test_prints_files_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "1", "10"]
    assert lines[-1].split()[1] == "total"
