"""``tools/code_lines.py``: the code-line count that CHANGES.md quotes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_are_not_code():
    source = '''"""Module
docstring."""

import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    # a comment
    def f(self):
        """Function
        docstring."""
        text = """a string that is
not a docstring"""
        return os.sep + text
'''
    # import, class, def, the two lines of ``text`` and return.
    assert code_lines.code_lines(source) == 6


def test_every_module_of_the_package_is_counted(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert [name for name, _ in rows] == [*modules, "total"]
    assert sum(int(count) for _, count in rows[:-1]) == int(rows[-1][1])
