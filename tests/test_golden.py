"""Golden CLI reports: every fixture x subcommand, stdout and exit code.

Each case runs ``copcone.cli.main`` in process, through conftest's shared
runner ``run_cli``, from the repository root, so the report's paths are
relative, and compares its stdout byte for byte with
``tests/golden/<case>.json`` and its exit code with
``tests/golden/exit-codes.json``.  A data error (exit 65) pins an empty
stdout.

Regenerate the named cases (all of them when none is named), through the
same runner, with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

which prints the name of each case whose report or exit code it changed,
and regenerate only the reports a change is meant to move.
"""

import json
import sys
from pathlib import Path

import pytest

from conftest import ROOT, run_cli

GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit-codes.json"

COMMANDS = {
    **{f"check-{c}": ["check", "--cone", c] for c in ("nonneg", "psd", "copositive", "dnn")},
    **{f"factorize-{m}": ["factorize", "--method", m] for m in ("dd", "posdd", "horn6", "cp3")},
    "factorize-heuristic": ["factorize", "--method", "heuristic", "--target", "6"],
    "bounds": ["bounds"],
    "orbit": ["orbit"],
}
FIXTURES = sorted(p.name for p in (ROOT / "fixtures").iterdir())
CASES = {
    f"{name}-{Path(fixture).stem}": [*argv, f"fixtures/{fixture}"]
    for name, argv in COMMANDS.items()
    for fixture in FIXTURES
}
# the only commands that read a factor file and an orthogonal pair
CASES["verify-orth-w6-hornplus0"] = [
    "verify-orth", "fixtures/w6.json", "fixtures/hornplus0.json", "--factor", "fixtures/w6.json",
]
CASES["bounds-witness-w6-hornplus0"] = [
    "bounds", "fixtures/w6.json", "--witness", "fixtures/hornplus0.json", "--factor", "fixtures/w6.json",
]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    r = run_cli(*CASES[case], cwd=ROOT)
    assert r.returncode == json.loads(EXIT_CODES.read_text())[case]
    assert r.stdout == (GOLDEN / f"{case}.json").read_text()


if __name__ == "__main__":
    codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    for case in sys.argv[1:] or sorted(CASES):
        r = run_cli(*CASES[case], cwd=ROOT)
        path = GOLDEN / f"{case}.json"
        if codes.get(case) != r.returncode or not path.exists() or path.read_text() != r.stdout:
            print(case)
        codes[case] = r.returncode
        path.write_text(r.stdout)
    EXIT_CODES.write_text(json.dumps(dict(sorted(codes.items())), indent=2) + "\n")
