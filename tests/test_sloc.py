"""`tests/sloc.py` counts code lines, not docstrings, comments or blank lines."""

import sloc

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment after code


# a comment alone
def f(x):
    """A one-line docstring."""
    text = """a string that is
    not a docstring"""
    return (x +
            1)


class C:
    """A class docstring."""

    y = 2
'''


def test_counts_a_snippet_whose_count_is_known():
    # import, def, the string's two lines, return and its continuation, class, y
    assert sloc.code_lines(SNIPPET) == 8
