"""scripts/check_certificate.py, specified as a table.

Each row of ROWS runs the checker's ``main`` in process, from the repository
root, and pins its exit code, an empty stderr, the stdout prefix of that
code and a fragment of its message.  A row names:

- the REPORT: a golden by name, the stdout of a copcone command line (the
  word MATRIX in it stands for the row's matrix path), or None for no file;
- the MATRIX: a path from the root, a ``(name, text)`` file written to
  ``tmp_path``, or None;
- an optional edit of the report: each dotted path set to a value, to
  ``value(old)`` when that is callable, or deleted for DROP.  An edit row
  also pins the code of the report before the edit.

A new certificate kind is one entry in the script's KINDS plus its rows
here: one valid report, and one edit per property its predicate checks.
"""

import functools
import hashlib
import json
import operator
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import pytest

from conftest import ROOT, SCRIPT, checker, checkout_env, cycle_matrix, horn_plus, run, run_cli
from copcone import horn_matrix

GOLDEN = ROOT / "tests" / "golden"

PREFIX = {0: "certificate OK", 3: "certificate FAILED", 4: "certificate not verifiable"}
DROP = object()

DD, HORN, NEGDIAG, W6 = "fixtures/dd_example.json", "fixtures/horn.json", "fixtures/negdiag.txt", "fixtures/w6.json"
E12, HORN_PLUS_0, J2 = "fixtures/e12.json", "fixtures/hornplus0.json", "fixtures/j2.json"
BOUNDS = ("bounds", "--n", "6")
PSD_HORN = ("check", "--cone", "psd", HORN)
COP_NEGDIAG = ("check", "--cone", "copositive", NEGDIAG)
COP_DD = ("check", "--cone", "copositive", DD)
POSDD = ("factorize", "--method", "posdd", DD)
DD_LOOSE = ("factorize", "--method", "dd", "--tol", "1e-3", DD)
POSDD_CERT = json.loads((GOLDEN / "factorize-posdd-dd_example.json").read_text())["result"]["certificate"]
# At --tol 1e-3 this matrix is PSD and copositive; at the checker's 1e-9 it is neither.
NEAR_PSD = ("near-psd.txt", "2\n1 0\n0 -1e-6\n")
PSD_LOOSE = ("check", "--cone", "psd", "--tol", "1e-3", "MATRIX")
COP_LOOSE = ("check", "--cone", "copositive", "--tol", "1e-3", "MATRIX")
# Horn + I_2 with its (0, 2) entry at 1 - 5e-3: not copositive on the face {0, 1, 2} alone.
PUSHED_HORN = ("pushed-horn.txt", "7\n1 -1 0.995 1 -1 0 0\n-1 1 -1 1 1 0 0\n0.995 -1 1 -1 1 0 0\n"
               "1 1 -1 1 -1 0 0\n-1 1 1 -1 1 0 0\n0 0 0 0 0 1 0\n0 0 0 0 0 0 1\n")
OTHER_TOL = "tolerance (abs 1e-09, rel 1e-09), but not at the report's (abs 0.001, rel 0.001)"

FLIPPED = {"result.certificate.value": operator.neg}
ZERO_X = {"result.certificate.x": lambda x: [0.0] * len(x), "result.certificate.value": 0.0}
FORGED_IN = {"result.answer": "IN", "result.certificate": None}
PERTURBED = {"result.factor.0.0": lambda v: v + 1e-3}
MADE_AT_1E9 = {"tolerance": {"abs": 1e-9, "rel": 1e-9}}
MADE_AT_1E12 = {"tolerance": {"abs": 1e-12, "rel": 1e-12}}


def matrix_file(name: str, a: np.ndarray) -> tuple:
    return name, json.dumps({"n": a.shape[0], "data": a.tolist()})


def scaled_horn() -> np.ndarray:
    # Entries near 1e12: the zero's form value is about -6e-5, far above an
    # absolute 1e-8 but well inside the library's relative threshold.
    d = np.random.default_rng(5).uniform(0.5, 2.0, 5) * 1e6
    return horn_matrix() * np.outer(d, d)


def off_the_zero(x: list) -> list:
    """Move 1e-3 between two entries of the support: still on the simplex."""
    i, j = np.flatnonzero(x)[:2]
    x[i] += 1e-3
    x[j] -= 1e-3
    return x


def rewritten(text: str):
    """An edit of ``inputs`` that rewrites the report's input file as
    ``text`` and forges its digest to match."""
    def forge(inputs: dict) -> dict:
        for path in inputs:
            Path(path).write_text(text)
        return dict.fromkeys(inputs, hashlib.sha256(text.encode()).hexdigest())
    return forge


class Row(NamedTuple):
    id: str
    report: Any  # a golden name, a copcone command line, or None
    matrix: Any  # a path from the root, a (name, text) file, or None
    code: int
    fragment: str
    edit: dict | None = None
    before: int | None = None  # the code of the report before the edit


ROWS = [
    # REPORT and MATRIX
    Row("psd-not-in", PSD_HORN, HORN, 0, "certificate OK"),
    Row("copositive-in", ("check", "--cone", "copositive", HORN), HORN, 4,
        "copositive membership has no checkable certificate"),
    Row("no-matrix-read-none", BOUNDS, None, 4, "bounds results carry no checkable certificate yet"),
    Row("matrix-read-none", BOUNDS, W6, 3, "w6.json is not an input of the report"),
    Row("no-matrix-read-one", PSD_HORN, None, 3, "the report read files: give one of them as MATRIX"),
    # a report that read files but carries no certificate is not verifiable, with MATRIX or without it
    *(
        Row(f"{name}-{'with' if matrix else 'without'}-matrix", argv, matrix, 4,
            f"{argv[0]} results carry no checkable certificate yet")
        for name, argv in (("verify-orth", ("verify-orth", W6, HORN_PLUS_0)), ("bounds-file", ("bounds", W6)))
        for matrix in (W6, None)
    ),
    # dd_example is copositive too, so only the input digest tells them apart
    Row("matrix-not-an-input", "check-copositive-identity6", DD, 3, "dd_example.json is not an input of the report"),
    Row("report-missing", None, None, 3, "cannot read missing.json: No such file or directory"),
    Row("matrix-missing", "check-psd-horn", "fixtures/missing.json", 3,
        "cannot read fixtures/missing.json: No such file or directory"),
    Row("matrix-a-directory", "check-psd-horn", "fixtures", 3, "cannot read fixtures: Is a directory"),
    # int() read these as orders 2 and 1, where the report's IN holds
    Row("order-float", ("check", "--cone", "psd", "MATRIX"), ("m.json", '{"n": 2, "data": [[1, 0], [0, 1]]}'), 3,
        "n: not an integer 2.5", {"inputs": rewritten('{"n": 2.5, "data": [[1, 0], [0, 1]]}')}, 0),
    Row("order-bool", ("check", "--cone", "psd", "MATRIX"), ("m.json", '{"n": 1, "data": [[1]]}'), 3,
        "n: not an integer True", {"inputs": rewritten('{"n": true, "data": [[1]]}')}, 0),
    # an asymmetry within 1e-12 relative is averaged away on both sides
    Row("symmetrized", ("check", "--cone", "nonneg", "MATRIX"),
        ("near-symmetric.json", '{"n": 2, "data": [[1, -1], [-1.0000000000001, 1]]}'), 0, "certificate OK"),
    # negative_entry; horn[4, 0] is -1, so only the range check rejects the index -1
    Row("entry-outside-minus-1", "check-nonneg-horn", HORN, 3, "negative entry: no index -1",
        {"result.certificate.i": -1, "result.certificate.j": 0}, 0),
    Row("entry-outside-5", "check-nonneg-horn", HORN, 3, "negative entry: no index 5",
        {"result.certificate.i": 5, "result.certificate.j": 0}, 0),
    # violation_vector; a PSD witness has entries of both signs
    Row("psd-flip", PSD_HORN, HORN, 3, "psd witness: reported value", FLIPPED, 0),
    Row("psd-zero", PSD_HORN, HORN, 3, "psd witness: not a unit vector", ZERO_X, 0),
    Row("psd-as-copositive", PSD_HORN, HORN, 3, "violation vector: negative entry", {"result.cone": "COPOSITIVE"}, 0),
    Row("copositive-flip", COP_NEGDIAG, NEGDIAG, 3, "violation vector: reported value", FLIPPED, 0),
    Row("copositive-zero", COP_NEGDIAG, NEGDIAG, 3, "violation vector: sum 0 is not 1", ZERO_X, 0),
    Row("copositive-answer-swapped", COP_NEGDIAG, NEGDIAG, 3, "certificate kind violation_vector does not fit IN",
        {"result.answer": "IN"}, 0),
    # refuted on the face {0, 1, 2}, where no vertex or edge is negative
    Row("copositive-triple", ("check", "--cone", "copositive", "MATRIX"), PUSHED_HORN, 0, "certificate OK"),
    # refuted on four consecutive indices by the full walk, where no vertex, edge or triple is negative
    Row("copositive-full-walk", ("check", "--cone", "copositive", "MATRIX"),
        matrix_file("cycle-8.json", cycle_matrix(8, -0.75)), 0, "certificate OK"),
    # boundary_zero
    Row("boundary-zero-scaled", ("check", "--cone", "copositive", "MATRIX"), matrix_file("dhd.json", scaled_horn()), 3,
        "boundary zero: |x'Ax| =", {"result.certificate.x": off_the_zero}, 4),
    # Horn + I_12 has order 17, past the enumeration; its nonnegative rows are deleted first
    Row("boundary-zero-order-17", ("check", "--cone", "copositive", "MATRIX"),
        matrix_file("horn-plus-i12.json", horn_plus(np.eye(12))), 4, "copositive membership has no checkable certificate"),
    # interior
    Row("posdd", POSDD, DD, 0, "certificate OK"),
    # the interior construction holds at every order: rank 2 with the positive column (1, 1)
    Row("posdd-order-2", ("factorize", "--method", "posdd", "MATRIX"),
        matrix_file("order-2.json", np.array([[2.0, 1.0], [1.0, 2.0]])), 0, "certificate OK"),
    Row("interior-perturbed", POSDD, DD, 3, "factor: residual",
        {"result.certificate.factor.0.0": lambda v: v + 1e-3}, 0),
    Row("interior-wrong-column", POSDD, DD, 3, "interior certificate: column is not positive",
        {"result.certificate.positive_column_index": 1}, 0),
    # column 1 has one nonzero entry, so V V' is unchanged and only the sign check sees it
    Row("interior-negated", POSDD, DD, 3, "factor: negative entry",
        {"result.certificate.factor.0.1": operator.neg}, 0),
    # check answers IN with a zero or nothing: a valid posdd certificate relabelled is neither
    Row("factor-under-in", COP_DD, DD, 3, "certificate kind factor does not fit IN",
        {"result.certificate": dict(POSDD_CERT, kind="factor")}, 4),
    Row("interior-under-in", COP_DD, DD, 3, "certificate kind interior does not fit IN",
        {"result.certificate": POSDD_CERT}, 4),
    # no certificate: an IN is re-checked from the matrix, by its spectrum, its entries or its diagonal
    Row("forged-in-psd", "check-psd-horn", HORN, 3, "IN: eigenvalue -1.24 is negative", FORGED_IN, 0),
    Row("forged-in-nonneg", "check-nonneg-horn", HORN, 3, "IN: entry -1 is negative", FORGED_IN, 0),
    Row("forged-in-dnn", "check-dnn-horn", HORN, 3, "IN: entry -1 is negative", FORGED_IN, 0),
    Row("forged-in-copositive", "check-copositive-negdiag", NEGDIAG, 3, "IN: diagonal entry -1 is negative",
        FORGED_IN, 0),
    Row("not-in-without-certificate", PSD_HORN, HORN, 3, "certificate kind None does not fit NOT_IN",
        {"result.certificate": None}, 0),
    Row("posdd-without-certificate", POSDD, DD, 3, "certificate kind None does not fit posdd",
        {"result.certificate": None}, 0),
    # the indefinite order-17 cycle at c = -0.65 keeps all 17 rows and no vertex, edge or triple
    # refutes it: UNDECIDED
    Row("undecided-order-17", ("check", "--cone", "copositive", "MATRIX"),
        matrix_file("cycle-17.json", cycle_matrix(17, -0.65)), 0, "certificate OK"),
    # no certificate: a factor
    Row("factor-dd", "factorize-dd-dd_example", DD, 3, "factor: residual", PERTURBED, 0),
    Row("factor-posdd", "factorize-posdd-dd_example", DD, 3, "factor: residual", PERTURBED, 0),
    Row("factor-cp3", "factorize-cp3-dd_example", DD, 3, "factor: residual", PERTURBED, 0),
    Row("factor-heuristic", "factorize-heuristic-dd_example", DD, 3, "factor: residual", PERTURBED, 0),
    Row("factor-horn6", "factorize-horn6-w6", W6, 3, "factor: residual", PERTURBED, 0),
    Row("factor-p-miscounted", "factorize-dd-w6", W6, 3, "factor: p is 7, not 6", {"result.p": lambda p: p + 1}, 0),
    # the command is factorize --method heuristic --target 6 MATRIX; `--target=P` reads as `--target P`
    Row("factor-over-target", "factorize-heuristic-dd_example", DD, 3, "factor: 4 columns, limit 1",
        {"command.4": "1"}, 0),
    Row("factor-inline-target-6", "factorize-heuristic-dd_example", DD, 0, "certificate OK",
        {"command.3": "--target=6", "command.4": DROP}, 0),
    Row("factor-inline-target-1", "factorize-heuristic-dd_example", DD, 3, "factor: 4 columns, limit 1",
        {"command.3": "--target=1", "command.4": DROP}, 0),
    # orbit results, keyed by class: a witness (d, perm) rebuilds the matrix, or the Horn
    # block left when the rows through its zero diagonal entries vanish
    Row("orbit-e12", "orbit-e12", E12, 0, "certificate OK"),
    Row("orbit-horn", "orbit-horn", HORN, 0, "certificate OK"),
    Row("orbit-hornplus0", "orbit-hornplus0", HORN_PLUS_0, 0, "certificate OK"),
    # a transposition is not one of the ten symmetries of the Horn matrix
    Row("orbit-perm-swapped", "orbit-horn", HORN, 3, "orbit witness does not reconstruct A",
        {"result.witness.perm": [1, 0, 2, 3, 4]}, 0),
    Row("orbit-perm-repeated", "orbit-hornplus0", HORN_PLUS_0, 3, "orbit witness: not a permutation",
        {"result.witness.perm.1": 0}, 0),
    Row("orbit-perm-fractional", "orbit-horn", HORN, 3, "orbit witness: no index 1.5",
        {"result.witness.perm.1": 1.5}, 0),
    Row("orbit-d-zero", "orbit-e12", E12, 3, "orbit witness: scaling is not positive", {"result.witness.d.0": 0.0}, 0),
    Row("orbit-e12-as-horn", "orbit-e12", E12, 3, "HORN_ORBIT: a row through a zero diagonal entry reaches 1",
        {"result.class": "HORN_ORBIT"}, 0),
    # PSD_RANK1 carries the vector v of A = v v'
    Row("orbit-psd-rank1", "orbit-j2", J2, 0, "certificate OK"),
    Row("orbit-psd-rank1-wrong-vector", "orbit-j2", J2, 3, "PSD_RANK1: v v' misses A by 3",
        {"result.vector": [2.0, 1.0]}, 0),
    Row("orbit-psd-rank1-wrong-length", "orbit-j2", J2, 3, "PSD_RANK1: vector of shape (3,), not (2,)",
        {"result.vector": [1.0, 1.0, 0.0]}, 0),
    Row("orbit-unknown", "orbit-w6", W6, 4, "orbit class UNKNOWN_EXTREME_CLASS claims no orbit"),
    Row("orbit-error", "orbit-negdiag", NEGDIAG, 3, "orbit reported the error NOT_COPOSITIVE"),
    # a malformed report
    Row("no-inputs", "check-psd-horn", HORN, 3, "malformed report: KeyError('inputs')", {"inputs": DROP}, 0),
    Row("no-x", "check-psd-horn", HORN, 3, "malformed report: KeyError('x')", {"result.certificate.x": DROP}, 0),
    Row("fractional-column", "factorize-posdd-dd_example", DD, 3, "interior certificate: no index 1.5",
        {"result.certificate.positive_column_index": 1.5}, 0),
    # a failing report is checked again at its tolerance, which must be numbers
    Row("text-tolerance", "factorize-dd-dd_example", DD, 3, "malformed report: TypeError",
        {"result.factor.0.0": lambda v: v + 1.0, "tolerance": {"abs": "0.001", "rel": "0.001"}}, 0),
    # a claim that holds only at the --tol 1e-3 it was made at is not verifiable; the same report
    # made at the default or a tighter tolerance fails
    Row("psd-other-tolerance", PSD_LOOSE, NEAR_PSD, 4, OTHER_TOL),
    Row("psd-other-tolerance-at-1e-09", PSD_LOOSE, NEAR_PSD, 3, "IN: eigenvalue -1e-06 is negative", MADE_AT_1E9, 4),
    Row("psd-other-tolerance-at-1e-12", PSD_LOOSE, NEAR_PSD, 3, "IN: eigenvalue -1e-06 is negative", MADE_AT_1E12, 4),
    Row("copositive-other-tolerance", COP_LOOSE, NEAR_PSD, 4, OTHER_TOL),
    Row("copositive-other-tolerance-at-1e-09", COP_LOOSE, NEAR_PSD, 3, "boundary zero: |x'Ax| = 1e-06", MADE_AT_1E9, 4),
    Row("copositive-other-tolerance-at-1e-12", COP_LOOSE, NEAR_PSD, 3, "boundary zero: |x'Ax| = 1e-06", MADE_AT_1E12, 4),
    # horn.json is not PSD at either tolerance; its witness checks at 1e-9
    Row("psd-witness-at-its-tolerance", ("check", "--cone", "psd", "--tol", "1e-3", HORN), HORN, 0, "certificate OK"),
    # a failure at 1e-9 that fails at 1e-3 too is a false claim; one that holds at 1e-3 is not verifiable
    Row("looser-entry-outside", ("check", "--cone", "nonneg", "--tol", "1e-3", HORN), HORN, 3,
        "negative entry: no index 5", {"result.certificate.i": 5}, 0),
    Row("looser-perturbed", DD_LOOSE, DD, 3, "factor: residual 3 exceeds 0.001",
        {"result.factor.0.0": lambda v: v + 1.0}, 0),
    # dd's first column is e_0 + e_1: a -1e-12 entry keeps V V' within 1e-9
    Row("looser-negative-entry", DD_LOOSE, DD, 3, "factor: negative entry -1e-12", {"result.factor.2.0": -1e-12}, 0),
    Row("looser-within-its-tolerance", DD_LOOSE, DD, 4, OTHER_TOL, {"result.factor.0.0": lambda v: v + 1e-6}, 0),
]


def edited(report: str, edit: dict) -> str:
    doc = json.loads(report)
    for path, value in edit.items():
        *parents, key = [int(part) if part.isdigit() else part for part in path.split(".")]
        node = functools.reduce(operator.getitem, parents, doc)
        if value is DROP:
            del node[key]
        else:
            node[key] = value(node[key]) if callable(value) else value
    return json.dumps(doc)


def check(tmp_path, report, matrix):
    """The checker on the report text, written to a file (None: a REPORT
    path that does not exist), and on MATRIX when given."""
    path = "missing.json"
    if report is not None:
        path = tmp_path / "report.json"
        path.write_text(report)
    return run(checker.main, path, *([] if matrix is None else [matrix]), cwd=ROOT)


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_checker(tmp_path, row):
    matrix, report = row.matrix, row.report
    if isinstance(matrix, tuple):
        name, text = matrix
        matrix = tmp_path / name
        matrix.write_text(text)
    if isinstance(report, tuple):
        report = run_cli(*(matrix if arg == "MATRIX" else arg for arg in report), cwd=ROOT).stdout
    elif report is not None:
        report = (GOLDEN / f"{report}.json").read_text()
    if row.edit:
        assert check(tmp_path, report, matrix).returncode == row.before
        report = edited(report, row.edit)
    chk = check(tmp_path, report, matrix)
    assert (chk.returncode, chk.stderr) == (row.code, ""), chk.stdout
    assert chk.stdout.startswith(PREFIX[row.code]) and row.fragment in chk.stdout, chk.stdout


def test_loading_the_checker_leaves_sys_path_alone():
    """In a fresh interpreter: pytest itself puts copbench/ on the path when
    it collects copbench/test_copbench_checks.py."""
    probe = f"""
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("check_certificate", {str(SCRIPT)!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(json.dumps([
    [p for p in sys.path if Path(p).resolve() == Path({str(ROOT / "copbench")!r})],
    [name for name in ("tracer", "corpus", "run", "speed") if importlib.util.find_spec(name)],
]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=checkout_env(), cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout) == [[], []]


def golden_reports(pattern):
    """Golden reports of the pattern; a data error (exit 65) left none."""
    return sorted(p.name for p in GOLDEN.glob(pattern) if p.stat().st_size)


def checker_code(doc):
    """The checker's exit code on a golden report: 3 for an error or FAILED
    report, which has no factor, 0 for an orbit witness or rank-1 vector, 4
    for an uncertified copositive IN and for any other result of a command
    other than check and factorize."""
    result = doc["result"]
    if "error" in result or result.get("status") == "FAILED":
        return 3
    if ("witness" in result or "vector" in result) and doc["command"][0] == "orbit":
        return 0
    if doc["command"][0] not in ("check", "factorize"):
        return 4
    return 4 if (result.get("cone"), result.get("answer")) == ("COPOSITIVE", "IN") else 0


@pytest.mark.parametrize("name", [name for name in golden_reports("*.json") if name != "exit-codes.json"])
def test_certificate_checker_on_golden_report(tmp_path, name):
    """Every golden answer, factor and interior certificate re-verifies
    against the first file the report names."""
    report = (GOLDEN / name).read_text()
    doc = json.loads(report)
    chk = check(tmp_path, report, next(iter(doc["inputs"])))
    assert chk.returncode == checker_code(doc), chk.stdout + chk.stderr


def test_certificate_checker_exit_codes_over_the_goldens():
    """25 check reports hold and 7 copositive IN are not verifiable; of the
    30 factorize reports 11 carry a factor and 19 an error or FAILED; of the
    18 bounds, orbit and verify-orth reports 3 carry an orbit witness, 1 a
    rank-1 vector, 9 another result and 5 an error."""
    def codes(*patterns):
        names = [name for pattern in patterns for name in golden_reports(pattern)]
        return [checker_code(json.loads((GOLDEN / name).read_text())) for name in names]

    assert sorted(codes("check-*.json")) == [0] * 25 + [4] * 7
    assert sorted(codes("factorize-*.json")) == [0] * 11 + [3] * 19
    assert sorted(codes("bounds-*.json", "orbit-*.json", "verify-orth-*.json")) == [0] * 4 + [3] * 5 + [4] * 9
