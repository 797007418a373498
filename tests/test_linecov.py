"""tools/linecov.py: which lines of a source it counts as statements."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"
_spec = importlib.util.spec_from_file_location("linecov", _TOOL)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

SOURCE = '''"""Module docstring,
on two lines."""
import math  # 3


def f(x):  # 6
    """Docstring."""
    global y  # 8
    # a comment, 9
    if (x > 0 and  # 10
            x < 9):  # 11
        return math.sqrt(  # 12
            x)  # 13
    try:  # 14
        y = 1 / x  # 15
    except ZeroDivisionError:
        ...  # 17
    return y  # 18


class C:  # 21
    """Class docstring."""
    size = 2  # 23
'''


def test_docstrings_comments_and_def_lines_are_never_statements():
    found = linecov.statements(SOURCE)
    assert sorted(found) == [3, 10, 12, 15, 18, 23]
    # A compound statement by its header, a simple one by all of its lines.
    assert list(found[10]) == [10, 11]
    assert list(found[12]) == [12, 13]


def test_a_statement_ran_when_any_of_its_lines_did():
    assert linecov.missed(SOURCE, {3, 11, 13, 23}) == [15, 18]
    assert linecov.missed(SOURCE, set()) == [3, 10, 12, 15, 18, 23]
