"""scripts/unreached.py, the report of the statements tier-1 never runs."""

import importlib.util

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("unreached", ROOT / "scripts" / "unreached.py")
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)

SNIPPET = '''"""Module docstring."""


def f(x):
    """Function docstring."""
    try:
        y = (x +
             1)
    except TypeError:
        return None
    if (x >
            0):
        return y
    return -y
'''


def test_statements_are_their_own_lines():
    # a docstring or a def line is no statement; a compound statement owns
    # its header lines, a simple one all of its lines
    assert unreached.statements(SNIPPET) == {
        6: range(6, 7), 7: range(7, 9), 10: range(10, 11), 11: range(11, 13), 13: range(13, 14),
        14: range(14, 15),
    }


def test_the_statements_a_call_never_ran(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    spec = importlib.util.spec_from_file_location("snippet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result, ran = unreached.traced(str(tmp_path), lambda: module.f(1))
    assert result == 2
    assert unreached.unreached(SNIPPET, ran[str(path)]) == [10, 14]


def test_the_report_exits_with_the_tests_status(monkeypatch, capsys):
    monkeypatch.setattr(pytest, "main", lambda args: 1)
    assert unreached.main(["-q"]) == 1
    assert capsys.readouterr().out.startswith("tier-1 exit status 1; ")
