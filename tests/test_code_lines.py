"""Tests for tools/code_lines.py, the code-line counter."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 8 code lines: the import, the def, both lines of the string bound to
# `text` and the four lines of the parenthesised return
FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


def f(x):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return (
        x
        + len(text)
    )
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
