"""scripts/code_lines.py, the code-line count reported for each change."""

import importlib.util

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""
import math


def f(x):
    """Function docstring."""
    # a comment line
    y = (x +
         math.pi)  # a trailing comment

    return y
'''


def test_only_statement_lines_count(tmp_path, capsys):
    # import, def, the two lines of y = ..., return
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["5", "a.py", "1", "b.py", "6", "total"]
