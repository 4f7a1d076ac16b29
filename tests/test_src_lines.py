"""``tools/src_lines.py``: what its docstring-free line count leaves out and
what it counts."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("src_lines", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return lambda source: module.code_lines(textwrap.dedent(source))


def test_docstrings_are_dropped_everywhere(code_lines):
    source = '''
        """Module docstring,
        over two lines."""
        import os


        class A:
            """Class docstring."""
            x = 1

            def f(self):
                """Method docstring."""
                return 2


        def g():
            """Function docstring."""
            return 3


        async def h():
            """Async docstring."""
            return 4
        '''
    bare = '''
        import os
        class A:
            x = 1
            def f(self):
                return 2
        def g():
            return 3
        async def h():
            return 4
        '''
    # 9 statements; the empty line ast.unparse sets before every def and
    # class after the first statement does not count
    assert code_lines(source) == code_lines(bare) == 9


def test_only_a_leading_string_is_a_docstring(code_lines):
    # a string later in the body is code, and so is a leading f-string or
    # number
    assert code_lines('''
        def f():
            x = 1
            "not a docstring"
        ''') == 3
    assert code_lines('''
        def f():
            f"{1}"
        ''') == 2
    assert code_lines('''
        def f():
            1
            return 2
        ''') == 3


def test_comments_and_blank_lines_do_not_count(code_lines):
    assert code_lines('''
        # a comment

        x = 1  # a trailing comment


        # another
        y = 2
        ''') == 2


def test_a_call_over_several_lines_is_one_line(code_lines):
    assert code_lines('''
        total = sum(
            [1,
             2,
             3],
        )
        ''') == 1


def test_a_body_of_only_a_docstring_counts_as_pass(code_lines):
    assert code_lines('''
        def f():
            """Only a docstring."""


        class C:
            """Only a docstring."""
        ''') == code_lines('''
        def f():
            pass
        class C:
            pass
        ''') == 4
    # a module too; an empty one is no lines at all
    assert code_lines('"""Only a docstring."""\n') == code_lines("pass") == 1
    assert code_lines("") == 0
