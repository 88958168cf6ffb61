"""``tools/code_lines.py``, the line count quoted for ``src/``: exact on a
fixture that holds every kind of line it tells apart."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
on two lines."""

# A comment-only line.
import os


class Thing:
    """Class docstring."""

    size = 1  # a trailing comment: the line is code

    def method(self):
        """Function
        docstring."""
        # Another comment-only line.

        text = """a multi-line string
that is not a docstring
counts every line it covers"""
        "a later string statement is code"
        return text + os.sep
'''

#: ``import os``, ``class Thing:``, ``size = 1``, ``def method``, the three
#: lines of ``text``, the later string statement and ``return``.
FIXTURE_CODE_LINES = 9


def test_code_lines_counts_only_code_tokens(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    fixture = tmp_path / "fixture.py"
    fixture.write_text(FIXTURE, encoding="utf-8")
    assert module.code_lines(fixture) == FIXTURE_CODE_LINES
