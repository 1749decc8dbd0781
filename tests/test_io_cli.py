import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import checkout_env, run_cli
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


class TestCliExitCodes:
    def test_check_in(self):
        r = run_cli("check", "--cone", "copositive", str(FIXTURES / "horn.json"))
        assert r.returncode == 0
        assert json.loads(r.stdout)["result"]["answer"] == "IN"

    def test_check_not_in(self):
        r = run_cli("check", "--cone", "psd", str(FIXTURES / "horn.json"))
        assert r.returncode == 1
        assert json.loads(r.stdout)["result"]["answer"] == "NOT_IN"

    def test_check_undecided(self, tmp_path):
        # I_17 - 0.01 (J - I): past the order-16 enumeration, and no vertex or edge refutes it
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 17, "data": (1.01 * np.eye(17) - 0.01).tolist()}))
        r = run_cli("check", "--cone", "copositive", str(p))
        assert r.returncode == 2
        assert json.loads(r.stdout)["result"]["answer"] == "UNDECIDED"

    def test_usage_error(self):
        r = run_cli("check", str(FIXTURES / "horn.json"))
        assert r.returncode == 64

    def test_data_error(self):
        r = run_cli("check", "--cone", "psd", "missing.json")
        assert r.returncode == 65

    @pytest.mark.parametrize("tail", ["7 8 9 junk", "7"])
    def test_trailing_tokens_are_a_data_error(self, tmp_path, tail):
        p = tmp_path / "m.txt"
        p.write_text(f"2\n1 0\n0 2\n{tail}\n")
        r = run_cli("check", "--cone", "psd", str(p))
        assert r.returncode == 65
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [("bounds", "w6.json", "--witness", "horn.json"), ("verify-orth", "w6.json", "horn.json")],
        ids=["bounds", "verify-orth"],
    )
    def test_matrix_orders_differ_is_a_data_error(self, args):
        r = run_cli(*args, cwd=FIXTURES)
        assert r.returncode == 65
        assert r.stdout == ""
        assert "matrix orders differ: 6 and 5" in r.stderr

    @pytest.mark.parametrize("rows", [5, 7])
    @pytest.mark.parametrize(
        "args",
        [("verify-orth", "w6.json", "hornplus0.json", "--factor"), ("bounds", "w6.json", "--factor")],
        ids=["verify-orth", "bounds"],
    )
    def test_factor_of_another_order_is_a_data_error(self, tmp_path, args, rows):
        # too few rows to index, or enough rows to pass on the wrong ones
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"n": rows, "factor": np.ones((rows, 2)).tolist()}))
        r = run_cli(*args, str(f), cwd=FIXTURES)
        assert r.returncode == 65
        assert r.stdout == ""
        assert f"factor order {rows} differs from matrix order 6" in r.stderr

    @pytest.mark.parametrize("cone", ["copositive", "psd", "dnn", "nonneg"])
    @pytest.mark.parametrize(
        "data",
        [
            "[[1e308, -1e308], [-1e308, 1e308]]",
            "[[1e308, 0], [0, 1]]",
            "[[1e200, -1e200], [-1e200, 1e200]]",
            "[[8.988465674311579e307, -8.988465674311579e307], [-8.988465674311579e307, 8.988465674311579e307]]",
        ],
        ids=["ones", "diagonal", "ones-1e200", "ones-half-max"],
    )
    def test_entries_whose_symmetrization_overflows_are_a_data_error(self, tmp_path, cone, data):
        p = tmp_path / "m.json"
        p.write_text(f'{{"n": 2, "data": {data}}}')
        r = run_cli("check", "--cone", cone, str(p))
        assert r.returncode == 65
        assert r.stdout == ""
        assert "matrix entries must be at most 2**500 in magnitude" in r.stderr
        assert "overflow" not in r.stderr

    @pytest.mark.parametrize(
        "args",
        [("factorize", "--method", "horn6", "big.json"), ("bounds", "big.json", "--factor", "big.json")],
        ids=["horn6", "bounds"],
    )
    def test_factor_beyond_the_entry_bound_is_a_data_error(self, tmp_path, args):
        doc = json.loads((FIXTURES / "w6.json").read_text())
        doc["factor"] = (1e160 * np.array(doc["factor"])).tolist()
        (tmp_path / "big.json").write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 65
        assert r.stdout == ""
        assert "factor product entries must be at most 2**500 in magnitude" in r.stderr

    @pytest.mark.parametrize(
        "args",
        [("factorize", "--method", "horn6", "neg.json"), ("bounds", "w6.json", "--factor", "neg.json")],
        ids=["factor-field", "factor-file"],
    )
    def test_negative_factor_entry_is_a_data_error(self, tmp_path, args):
        # a matrix file's factor field, or a --factor file
        doc = json.loads((FIXTURES / "w6.json").read_text())
        (tmp_path / "w6.json").write_text(json.dumps(doc))
        doc["factor"][0][0] = -1
        (tmp_path / "neg.json").write_text(json.dumps(doc))
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 65
        assert r.stdout == ""
        assert "factor entries must be nonnegative" in r.stderr

    def test_verify_orth_decides_every_index_under_an_all_zero_factor(self, tmp_path):
        """The factor loses its zero column, and with no columns left every
        index is in the support of all of them: PASS or FAIL, never SKIP."""
        (tmp_path / "z.json").write_text(json.dumps({"n": 6, "factor": [[0.0]] * 6}))
        r = run_cli("verify-orth", "w6.json", "hornplus0.json", "--factor", str(tmp_path / "z.json"), cwd=FIXTURES)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["result"]["nullspace"] == ["FAIL"] * 5 + ["PASS"]

    def test_factorize_error_tag(self):
        r = run_cli("factorize", "--method", "dd", str(FIXTURES / "horn.json"))
        assert r.returncode == 1
        assert "error" in json.loads(r.stdout)["result"]


class TestCliDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("check", "--cone", "copositive", "horn.json"),
            ("factorize", "--method", "dd", "dd_example.json"),
            ("factorize", "--method", "horn6", "w6.json"),
            ("bounds", "w6.json", "--witness", "hornplus0.json"),
            ("orbit", "e12.json"),
            ("verify-orth", "w6.json", "hornplus0.json", "--factor", "w6.json"),
        ],
    )
    def test_byte_identical_reports(self, args):
        full = [a if not a.endswith(".json") else str(FIXTURES / a) for a in args]
        r1 = run_cli(*full)
        r2 = run_cli(*full)
        assert r1.stdout == r2.stdout
        assert r1.stdout.strip()

    def test_stdout_carries_no_timing(self):
        r = run_cli("check", "--cone", "copositive", str(FIXTURES / "horn.json"))
        assert "wall" not in r.stdout
        assert "wall time" in r.stderr


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
                [sys.executable, str(FIXTURES.parent / "scripts" / "check_certificate.py"), "/dev/stdin", "horn.json"],
                cwd=FIXTURES,
                stdin=copcone.stdout,
                capture_output=True,
                text=True,
            )
        assert copcone.returncode == 1
        assert (chk.returncode, chk.stdout, chk.stderr) == (0, "certificate OK\n", "")


class TestCliFlags:
    def test_tol_flag(self):
        r = run_cli("check", "--cone", "nonneg", str(FIXTURES / "j2.json"), "--tol", "1e-5")
        assert json.loads(r.stdout)["tolerance"]["abs"] == 1e-5

    @pytest.mark.parametrize(
        "flag", ["--tol=nan", "--tol=inf", "--tol=-1e-9"], ids=["tol-nan", "tol-inf", "tol-negative"]
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, flag):
        # With a NaN threshold this matrix, whose edge minimum is -2, was IN.
        p = tmp_path / "m.json"
        p.write_text('{"n": 2, "data": [[1, -5], [-5, 1]]}')
        r = run_cli("check", "--cone", "copositive", str(p), flag)
        assert r.returncode == 65
        assert r.stdout == ""
        assert "tolerances must be finite and nonnegative" in r.stderr

    def test_bounds_table_mode(self):
        r = run_cli("bounds", "--n", "6")
        res = json.loads(r.stdout)["result"]
        assert res["interval"] == [9, 15]

    def test_report_digests_inputs(self):
        r = run_cli("check", "--cone", "copositive", str(FIXTURES / "horn.json"))
        inputs = json.loads(r.stdout)["inputs"]
        assert all(len(v) == 64 for v in inputs.values())
