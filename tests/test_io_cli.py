"""copcone's file loaders and report format, and its CLI as a table.

Each row of ROWS runs ``copcone.cli.main`` twice in process, from
``fixtures/``, with every warning an error; both runs must give the same
exit code and stdout bytes.  A row names:

- an id and the argv, whose words name fixtures or the row's files;
- the exit code;
- stdout: None for empty, {dotted path: value} read from the JSON report,
  or a fragment of the text;
- a fragment of stderr;
- optional files, name -> text, written to ``tmp_path``: a word of the
  argv that names one stands for its path.

tests/test_golden.py pins the report of every fixture under each
subcommand byte for byte, and TestProcessBoundary exit codes 0, 1, 64 and
65 across the process boundary; a row pins what neither does.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import pytest

from conftest import SCRIPT, checkout_env, cycle_matrix, positive_horn_partner, run_cli
from copcone import horn_matrix
from copcone.errors import DataError
from copcone.io import canonical_json, load_factor, load_matrix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestLoadMatrix:
    def test_json_fixture(self):
        mf = load_matrix(str(FIXTURES / "horn.json"))
        assert mf.data.shape == (5, 5)
        assert mf.data[0, 1] == -1.0
        assert len(mf.digest) == 64

    def test_text_fallback(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n1 0\n0 2\n")
        mf = load_matrix(str(p))
        assert mf.data.shape == (2, 2)
        assert mf.data[1, 1] == 2.0

    def test_factor_field(self):
        mf = load_matrix(str(FIXTURES / "w6.json"))
        assert mf.factor is not None
        assert np.abs(mf.factor @ mf.factor.T - mf.data).max() == 0.0

    def test_flat_row_major_lists(self, tmp_path):
        nested = tmp_path / "nested.json"
        nested.write_text('{"n": 2, "data": [[2, 1], [1, 3]], "factor": [[1, 0, 1], [0, 1, 1]]}')
        flat = tmp_path / "flat.json"
        flat.write_text('{"n": 2, "data": [2, 1, 1, 3], "factor": [1, 0, 1, 0, 1, 1]}')
        a, b = load_matrix(str(nested)), load_matrix(str(flat))
        assert np.array_equal(a.data, b.data)
        assert b.factor.shape == (2, 3)
        assert np.array_equal(a.factor, b.factor)

    @pytest.mark.parametrize(
        "doc",
        ['{"n": 2, "data": [2, 1, 1]}', '{"n": 2, "data": [2, 1, 1, 3], "factor": [1, 0, 1]}'],
        ids=["data", "factor"],
    )
    def test_flat_length_not_a_multiple_of_n(self, tmp_path, doc):
        p = tmp_path / "bad.json"
        p.write_text(doc)
        with pytest.raises(DataError, match="not a multiple of n"):
            load_matrix(str(p))

    def test_rejects_asymmetric(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2, "data": [[1, 2], [3, 4]]}')
        with pytest.raises(DataError):
            load_matrix(str(p))

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DataError):
            load_matrix(str(p))

    @pytest.mark.parametrize("load", [load_matrix, load_factor])
    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": 2.5, "data": [[1, 0], [0, 1]]}',
            '{"n": true, "data": [[1]]}',
            '{"n": "2", "data": [[1, 0], [0, 1]]}',
        ],
        ids=["float", "bool", "string"],
    )
    def test_rejects_an_order_that_is_not_an_integer(self, tmp_path, doc, load):
        # int() read these as orders 2, 1 and 2, and the data fits each
        p = tmp_path / "bad.json"
        p.write_text(doc)
        with pytest.raises(DataError, match="n must be an integer"):
            load(str(p))

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_matrix("no_such_file.json")


class TestCanonicalJson:
    def test_sorted_and_newline_terminated(self):
        out = canonical_json({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")

    def test_numpy_scalars(self):
        out = json.loads(
            canonical_json(
                {
                    "f": np.float64(0.5),
                    "i": np.int64(3),
                    "b": np.bool_(True),
                    "arr": np.arange(3.0),
                }
            )
        )
        assert out == {"f": 0.5, "i": 3, "b": True, "arr": [0.0, 1.0, 2.0]}
        assert isinstance(out["b"], bool)

    def test_float_is_stable(self):
        x = 0.1 + 0.2
        assert canonical_json(x) == canonical_json(np.float64(x)) == repr(x) + "\n"
        assert json.loads(canonical_json(np.float64(x))) == x

    def test_rejects_other_objects(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})


W6 = json.loads((FIXTURES / "w6.json").read_text())
F6 = np.array(W6["factor"])
F6_NEGATIVE = F6.copy()
F6_NEGATIVE[0, 0] = -1
OVERFLOWING = {
    "ones": "[[1e308, -1e308], [-1e308, 1e308]]",
    "diagonal": "[[1e308, 0], [0, 1]]",
    "ones-1e200": "[[1e200, -1e200], [-1e200, 1e200]]",
    "ones-half-max": "[[8.988465674311579e307, -8.988465674311579e307], "
    "[-8.988465674311579e307, 8.988465674311579e307]]",
}
N_ALONE = "--n reads no matrix file, --witness or --factor"


def pushed_horn() -> np.ndarray:
    a = np.eye(7)
    a[:5, :5] = horn_matrix()
    a[0, 2] = a[2, 0] = 1.0 - 5e-3
    return a


def w6_with_factor(v: np.ndarray) -> str:
    return json.dumps(dict(W6, factor=v.tolist()))


class Row(NamedTuple):
    id: str
    argv: tuple
    code: int
    stdout: Any  # None, {dotted path: value} or a fragment
    stderr: str
    files: dict | None = None  # name -> text, written to tmp_path


ROWS = [
    # the order-17 cycle at c = -0.65: indefinite, past the order-16 enumeration, and no vertex,
    # edge or triple refutes it
    Row("undecided", ("check", "--cone", "copositive", "m.json"), 2, {"result.answer": "UNDECIDED"}, "wall time",
        {"m.json": json.dumps({"n": 17, "data": cycle_matrix(17, -0.65).tolist()})}),
    # I_17 - 0.01 (J - I) is positive definite: the pivoting decides it past the enumeration
    Row("definite-order-17", ("check", "--cone", "copositive", "m.json"), 0,
        {"result.answer": "IN", "result.certificate": None}, "wall time",
        {"m.json": json.dumps({"n": 17, "data": (1.01 * np.eye(17) - 0.01).tolist()})}),
    # Horn + I_2 with its (0, 2) entry at 1 - 5e-3: no vertex or edge is negative, the face {0, 1, 2} is
    Row("triple-violation", ("check", "--cone", "copositive", "m.json"), 1,
        {"result.certificate.kind": "violation_vector", **{f"result.certificate.x.{i}": 0.0 for i in range(3, 7)}},
        "wall time", {"m.json": json.dumps({"n": 7, "data": pushed_horn().tolist()})}),
    Row("trailing-tokens", ("check", "--cone", "psd", "m.txt"), 65, None,
        "could not convert string to float: 'junk'", {"m.txt": "2\n1 0\n0 2\n7 8 9 junk\n"}),
    Row("trailing-token", ("check", "--cone", "psd", "m.txt"), 65, None,
        "expected n^2 = 4 matrix values, got 5", {"m.txt": "2\n1 0\n0 2\n7\n"}),
    Row("data-rows", ("check", "--cone", "psd", "m.json"), 65, None, "data must have 3 rows",
        {"m.json": '{"n": 3, "data": [[1, 0], [0, 1]]}'}),
    Row("data-nan", ("check", "--cone", "psd", "m.json"), 65, None, "data has non-finite entries",
        {"m.json": '{"n": 1, "data": [[NaN]]}'}),
    Row("empty-text", ("check", "--cone", "psd", "m.txt"), 65, None, "empty matrix file", {"m.txt": " \n\t\n"}),
    Row("factor-not-json", ("bounds", "w6.json", "--factor", "f.json"), 65, None, "malformed factor file",
        {"f.json": "not json"}),
    Row("orders-differ-bounds", ("bounds", "w6.json", "--witness", "horn.json"), 65, None,
        "matrix orders differ: 6 and 5"),
    Row("orders-differ-verify-orth", ("verify-orth", "w6.json", "horn.json"), 65, None,
        "matrix orders differ: 6 and 5"),
    # too few rows to index, or enough rows to pass on the wrong ones
    *(
        Row(f"factor-order-{rows}-{argv[0]}", (*argv, "f.json"), 65, None,
            f"factor order {rows} differs from matrix order 6",
            {"f.json": json.dumps({"n": rows, "factor": np.ones((rows, 2)).tolist()})})
        for argv in (("verify-orth", "w6.json", "hornplus0.json", "--factor"), ("bounds", "w6.json", "--factor"))
        for rows in (5, 7)
    ),
    *(
        Row(f"overflow-{name}-{cone}", ("check", "--cone", cone, "m.json"), 65, None,
            "matrix entries must be at most 2**500 in magnitude", {"m.json": f'{{"n": 2, "data": {data}}}'})
        for name, data in OVERFLOWING.items()
        for cone in ("copositive", "psd", "dnn", "nonneg")
    ),
    # a matrix file's factor field, or a --factor file
    Row("factor-field-beyond-bound", ("factorize", "--method", "horn6", "big.json"), 65, None,
        "factor product entries must be at most 2**500 in magnitude", {"big.json": w6_with_factor(1e160 * F6)}),
    Row("factor-file-beyond-bound", ("bounds", "big.json", "--factor", "big.json"), 65, None,
        "factor product entries must be at most 2**500 in magnitude", {"big.json": w6_with_factor(1e160 * F6)}),
    Row("factor-field-negative", ("factorize", "--method", "horn6", "neg.json"), 65, None,
        "factor entries must be nonnegative", {"neg.json": w6_with_factor(F6_NEGATIVE)}),
    Row("factor-file-negative", ("bounds", "w6.json", "--factor", "neg.json"), 65, None,
        "factor entries must be nonnegative", {"neg.json": w6_with_factor(F6_NEGATIVE)}),
    Row("horn6-factor-order-5", ("factorize", "--method", "horn6", "f5.json"), 65, None,
        "order-6 input required", {"f5.json": json.dumps({"n": 5, "data": np.eye(5).tolist(), "factor": [[1.0]] * 5})}),
    # The factor loses its zero column, and with no columns left every index
    # is in the support of all of them: PASS or FAIL, never SKIP.
    Row("all-zero-factor", ("verify-orth", "w6.json", "hornplus0.json", "--factor", "z.json"), 0,
        {"result.nullspace": ["FAIL"] * 5 + ["PASS"]}, "wall time",
        {"z.json": json.dumps({"n": 6, "factor": [[0.0]] * 6})}),
    Row("tol", ("check", "--cone", "nonneg", "j2.json", "--tol", "1e-5"), 0, {"tolerance.abs": 1e-5}, "wall time"),
    # With a NaN threshold this matrix, whose edge minimum is -2, was IN.
    *(
        Row(f"tol-{name}", ("check", "--cone", "copositive", "m.json", f"--tol={value}"), 65, None,
            "tolerances must be finite and nonnegative", {"m.json": '{"n": 2, "data": [[1, -5], [-5, 1]]}'})
        for name, value in (("nan", "nan"), ("inf", "inf"), ("negative", "-1e-9"))
    ),
    # argvs no golden runs
    Row("bounds-table", ("bounds", "--n", "6"), 0, {"result.interval": [9, 15]}, "wall time"),
    Row("bounds-witness", ("bounds", "w6.json", "--witness", "hornplus0.json"), 0,
        {"result.best_interval": [6, 12]}, "wall time"),
    Row("verify-orth", ("verify-orth", "w6.json", "hornplus0.json"), 0,
        {"result.column_check": True, "result.anti_dd_all_pass": True}, "wall time"),
    # the rank-3 witness relation, on a positive nonsingular M: Horn ⊕ 0 has
    # rank 5 and no E12 block, and diag(1, -1, 0) has rank 2
    Row("rank3-witness-pass", ("verify-orth", "m.json", "hornplus0.json"), 0, {"result.rank3_witness": "PASS"},
        "wall time", {"m.json": json.dumps({"n": 6, "data": positive_horn_partner().tolist()})}),
    Row("rank3-witness-fail", ("verify-orth", "m.json", "a.json"), 0, {"result.rank3_witness": "FAIL"}, "wall time",
        {"m.json": json.dumps({"n": 3, "data": (np.ones((3, 3)) + np.eye(3)).tolist()}),
         "a.json": json.dumps({"n": 3, "data": np.diag([1.0, -1.0, 0.0]).tolist()})}),
    # e1 e1' + 1.9e-9 J has numerical rank 2, and the one column e1
    # reproduces it within tolerance: the upper bound 1 undercuts the rank
    Row("inconsistent-bounds", ("bounds", "m.json", "--factor", "f.json"), 1,
        {"result.error": "INCONSISTENT_BOUNDS", "result.message": "minimal upper bound undercuts the rank lower bound"},
        "wall time",
        {"m.json": json.dumps({"n": 3, "data": (np.diag([1.0, 0.0, 0.0]) + 1.9e-9).tolist()}),
         "f.json": json.dumps({"n": 3, "factor": [[1.0], [0.0], [0.0]]})}),
    # usage rules: combinations argparse accepts that no command reads
    Row("bounds-without-input", ("bounds",), 64, None, "error: either a matrix file or --n is required"),
    Row("bounds-n-and-file", ("bounds", "--n", "6", "w6.json"), 64, None, N_ALONE),
    Row("bounds-n-and-witness", ("bounds", "--n", "6", "--witness", "hornplus0.json"), 64, None, N_ALONE),
    Row("bounds-n-and-factor", ("bounds", "--n", "6", "--factor", "w6.json"), 64, None, N_ALONE),
    Row("bounds-n-0", ("bounds", "--n", "0"), 64, None, "error: --n must be at least 1"),
    Row("heuristic-without-target", ("factorize", "--method", "heuristic", "dd_example.json"), 64, None,
        "error: heuristic factorization needs --target"),
    Row("target-without-heuristic", ("factorize", "--method", "dd", "--target", "6", "dd_example.json"), 64, None,
        "error: --target is read by --method heuristic only"),
    *(
        Row(f"target-{value}", ("factorize", "--method", "heuristic", "--target", value, "dd_example.json"), 64,
            None, "error: --target must be at least 1")
        for value in ("0", "-2")
    ),
    Row("help", ("--help",), 0, "usage: copcone [-h]", ""),
    *(
        Row(f"help-{command}", (command, "--help"), 0, f"usage: copcone {command}", "")
        for command in ("check", "factorize", "bounds", "orbit", "verify-orth")
    ),
]


def value_at(doc, path: str):
    return functools.reduce(
        lambda node, key: node[int(key) if isinstance(node, list) else key], path.split("."), doc
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_cli(tmp_path, row):
    files = row.files or {}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [tmp_path / arg if arg in files else arg for arg in row.argv]
    r, again = run_cli(*argv, cwd=FIXTURES), run_cli(*argv, cwd=FIXTURES)
    assert (r.returncode, r.stdout) == (again.returncode, again.stdout)
    assert r.returncode == row.code, r.stderr
    assert row.stderr in r.stderr, r.stderr
    if row.stdout is None:
        assert r.stdout == ""
    elif isinstance(row.stdout, str):
        assert row.stdout in r.stdout
    else:
        doc = json.loads(r.stdout)
        assert {path: value_at(doc, path) for path in row.stdout} == row.stdout


class TestProcessBoundary:
    """The only CLI and checker runs that start interpreters: each pins what
    a run in this process cannot show.  The rest go through conftest's
    in-process runner, which these show to be faithful."""

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize(
        "args, code",
        [
            (("bounds", "w6.json", "--witness", "hornplus0.json", "--factor", "w6.json"), 0),
            (("check", "--cone", "psd", "horn.json"), 1),
            (("check", "horn.json"), 64),
            (("check", "--cone", "psd", "missing.json"), 65),
        ],
        ids=["exit-0", "exit-1", "exit-64", "exit-65"],
    )
    def test_python_m_copcone_matches_the_in_process_runner(self, args, code, seed):
        """Two hash seeds give the report of this process: a second run in
        one process cannot show an order that depends on string hashes."""
        proc = subprocess.run(
            [sys.executable, "-m", "copcone", *args],
            cwd=FIXTURES,
            env=checkout_env(PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
        )
        r = run_cli(*args, cwd=FIXTURES)
        assert proc.returncode == r.returncode == code, proc.stderr
        assert proc.stdout == r.stdout
        if code >= 64:  # an error message, and no wall time
            assert proc.stderr == r.stderr

    def test_a_report_piped_into_the_checker(self):
        with subprocess.Popen(
            [sys.executable, "-m", "copcone", "check", "--cone", "psd", "horn.json"],
            cwd=FIXTURES,
            env=checkout_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        ) as copcone:
            chk = subprocess.run(
                [sys.executable, str(SCRIPT), "/dev/stdin", "horn.json"],
                cwd=FIXTURES,
                stdin=copcone.stdout,
                capture_output=True,
                text=True,
            )
        assert copcone.returncode == 1
        assert (chk.returncode, chk.stdout, chk.stderr) == (0, "certificate OK\n", "")
