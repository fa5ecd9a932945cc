"""The code-line counter in tools/code_lines.py: blank lines, comments and
docstrings do not count, every line of a code token does."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each code line is marked "# code"; every other line holds no code.
FIXTURE = '''"""A module docstring
over two lines."""

import os  # code
# a comment line


class Thing:  # code
    """A class docstring."""

    limit = 3  # code
    """A bare string after an assignment is no code either."""

    def run(self, x):  # code
        """A function
        docstring."""
        total = (x +  # code
                 1)  # code
        text = """a string  # code
        that is assigned"""  # code
        return total, text  # code
'''


def test_fixture_counts_only_the_marked_lines():
    assert code_lines.code_lines(FIXTURE) == FIXTURE.count("# code") == 9


@pytest.mark.parametrize("source, expected", [
    ("", 0), ("\n\n", 0), ("# only a comment\n", 0),
    ('"""only a docstring"""\n', 0), ("x = 1", 1),
    ('f("""a\nb""")\n', 2), ("if x:\n    pass\n", 2)])
def test_small_sources(source, expected):
    assert code_lines.code_lines(source) == expected


def test_the_command_prints_the_total_then_each_file(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "11"
    assert [line.split() for line in lines[1:]] == [
        ["9", str(tmp_path / "a.py")], ["2", str(tmp_path / "sub" / "b.py")]]
