"""tools/code_lines.py counts code lines only."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment line
X = 1  # a trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """a string that is
not a docstring"""
'''


def test_docstrings_comments_and_blanks_are_not_counted():
    # X = 1, class C:, def f(self):, and the two lines of the returned string
    assert code_lines.code_lines(SOURCE) == 5


def test_the_package_total_is_the_sum_of_its_modules(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.rpartition(": ")[2]) for line in lines]
    assert lines[-1].startswith("total: ")
    assert "cli.py" in {line.partition(":")[0] for line in lines}
    assert counts[-1] == sum(counts[:-1]) > 0
