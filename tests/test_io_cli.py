import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from copcone import horn_matrix
from copcone.errors import DataError
from copcone.io import canonical_json, load_matrix, to_jsonable

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestLoadMatrix:
    def test_json_fixture(self):
        mf = load_matrix(str(FIXTURES / "horn.json"))
        assert mf.n == 5
        assert mf.data[0, 1] == -1.0
        assert len(mf.digest) == 64

    def test_text_fallback(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n1 0\n0 2\n")
        mf = load_matrix(str(p))
        assert mf.n == 2
        assert mf.data[1, 1] == 2.0

    def test_factor_field(self):
        mf = load_matrix(str(FIXTURES / "w6.json"))
        assert mf.factor is not None
        assert np.abs(mf.factor @ mf.factor.T - mf.data).max() == 0.0

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

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_matrix("no_such_file.json")


class TestCanonicalJson:
    def test_sorted_and_newline_terminated(self):
        out = canonical_json({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")

    def test_numpy_scalars(self):
        out = to_jsonable(
            {
                "f": np.float64(0.5),
                "i": np.int64(3),
                "b": np.bool_(True),
                "arr": np.arange(3.0),
            }
        )
        assert out == {"f": 0.5, "i": 3, "b": True, "arr": [0.0, 1.0, 2.0]}
        assert isinstance(out["b"], bool)

    def test_float_canonicalization_is_stable(self):
        x = 0.1 + 0.2
        assert to_jsonable(x) == to_jsonable(np.float64(x))


class TestCliExitCodes:
    def test_check_in(self):
        r = run_cli("check", "--cone", "copositive", str(FIXTURES / "horn.json"))
        assert r.returncode == 0
        assert json.loads(r.stdout)["result"]["answer"] == "IN"

    def test_check_not_in(self):
        r = run_cli("check", "--cone", "psd", str(FIXTURES / "horn.json"))
        assert r.returncode == 1
        assert json.loads(r.stdout)["result"]["answer"] == "NOT_IN"

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


class TestCliFlags:
    def test_env_tolerance(self):
        r = run_cli(
            "check",
            "--cone",
            "nonneg",
            str(FIXTURES / "j2.json"),
            env={"COPCONE_TOL": "1e-6"},
        )
        assert json.loads(r.stdout)["tolerance"]["abs"] == 1e-6

    def test_tol_flag_beats_env(self):
        r = run_cli(
            "check",
            "--cone",
            "nonneg",
            str(FIXTURES / "j2.json"),
            "--tol",
            "1e-5",
            env={"COPCONE_TOL": "1e-6"},
        )
        assert json.loads(r.stdout)["tolerance"]["abs"] == 1e-5

    @pytest.mark.parametrize(
        "flags, env",
        [
            (["--tol", "nan"], None),
            (["--tol", "inf"], None),
            (["--tol=-1e-9"], None),
            ([], {"COPCONE_TOL": "nan"}),
        ],
        ids=["tol-nan", "tol-inf", "tol-negative", "env-nan"],
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, flags, env):
        # With a NaN threshold this matrix, whose edge minimum is -2, was IN.
        p = tmp_path / "m.json"
        p.write_text('{"n": 2, "data": [[1, -5], [-5, 1]]}')
        r = run_cli("check", "--cone", "copositive", str(p), *flags, env=env)
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


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.iterdir()))
def test_check_copositive_matches_golden_report(fixture):
    """The certificates the copositivity test hands out are pinned byte for
    byte; the command runs from the repository root so the report's paths
    are relative."""
    r = run_cli("check", "--cone", "copositive", f"fixtures/{fixture}", cwd=FIXTURES.parent)
    golden = GOLDEN / f"check-copositive-{Path(fixture).stem}.json"
    assert r.stdout == golden.read_text()


def check_certificate(tmp_path, report_text, matrix):
    report = tmp_path / "report.json"
    report.write_text(report_text)
    return subprocess.run(
        [
            sys.executable,
            str(FIXTURES.parent / "scripts" / "check_certificate.py"),
            str(report),
            str(matrix),
        ],
        capture_output=True,
        text=True,
    )


def test_certificate_checker_script(tmp_path):
    r = run_cli("check", "--cone", "copositive", str(FIXTURES / "horn.json"))
    chk = check_certificate(tmp_path, r.stdout, FIXTURES / "horn.json")
    assert chk.returncode == 0, chk.stdout + chk.stderr


def _negate_value(res):
    res["certificate"]["value"] *= -1.0


def _zero_vector(res):
    res["certificate"]["x"] = [0.0] * len(res["certificate"]["x"])
    res["certificate"]["value"] = 0.0


def _claim_copositive(res):
    res["cone"] = "COPOSITIVE"  # a PSD witness has entries of both signs


def _claim_in(res):
    res["answer"] = "IN"  # a violation vector cannot certify membership


@pytest.mark.parametrize(
    "cone, corrupt",
    [
        ("psd", _negate_value),
        ("psd", _zero_vector),
        ("psd", _claim_copositive),
        ("copositive", _negate_value),
        ("copositive", _zero_vector),
        ("copositive", _claim_in),
    ],
    ids=[
        "psd-flip",
        "psd-zero",
        "psd-as-copositive",
        "copositive-flip",
        "copositive-zero",
        "copositive-answer-swapped",
    ],
)
def test_certificate_checker_rejects_corrupted(tmp_path, cone, corrupt):
    fixture = "horn.json" if cone == "psd" else "negdiag.txt"
    doc = json.loads(run_cli("check", "--cone", cone, str(FIXTURES / fixture)).stdout)
    assert doc["result"]["certificate"]["kind"] == "violation_vector"
    matrix = FIXTURES / "horn.json"
    if cone == "copositive":
        matrix = tmp_path / "negdiag.json"  # the checker reads JSON matrices only
        matrix.write_text('{"n": 2, "data": [[-1, 0], [0, 1]]}')
    assert check_certificate(tmp_path, json.dumps(doc), matrix).returncode == 0
    corrupt(doc["result"])
    chk = check_certificate(tmp_path, json.dumps(doc), matrix)
    assert chk.returncode == 3, chk.stdout + chk.stderr


def _perturb_entry(cert):
    cert["factor"][0][0] += 1e-3  # V V' no longer matches M


def _wrong_column(cert):
    cert["positive_column_index"] = 1  # a column with zero entries


def _negate_entry(cert):
    # Column 1 has one nonzero entry, so V V' is unchanged and only the
    # sign check can see the corruption.
    cert["factor"][0][1] *= -1.0


def test_certificate_checker_accepts_posdd_interior(tmp_path):
    r = run_cli("factorize", "--method", "posdd", str(FIXTURES / "dd_example.json"))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["result"]["certificate"]["kind"] == "interior"
    chk = check_certificate(tmp_path, r.stdout, FIXTURES / "dd_example.json")
    assert chk.returncode == 0, chk.stdout + chk.stderr


@pytest.mark.parametrize(
    "corrupt", [_perturb_entry, _wrong_column, _negate_entry], ids=["perturbed", "wrong-column", "negated"]
)
def test_certificate_checker_rejects_corrupted_interior(tmp_path, corrupt):
    r = run_cli("factorize", "--method", "posdd", str(FIXTURES / "dd_example.json"))
    doc = json.loads(r.stdout)
    cert = doc["result"]["certificate"]
    assert cert["positive_column_index"] == 0 and cert["factor"][0][1] > 0
    corrupt(cert)
    chk = check_certificate(tmp_path, json.dumps(doc), FIXTURES / "dd_example.json")
    assert chk.returncode == 3, chk.stdout + chk.stderr


def write_matrix(path, a):
    path.write_text(json.dumps({"n": a.shape[0], "data": a.tolist()}))
    return path


def test_certificate_checker_scales_boundary_zero(tmp_path):
    # Entries near 1e12: the zero's form value is about -6e-5, far above an
    # absolute 1e-8 but well inside the library's relative threshold.
    d = np.random.default_rng(5).uniform(0.5, 2.0, 5) * 1e6
    matrix = write_matrix(tmp_path / "dhd.json", horn_matrix() * np.outer(d, d))
    r = run_cli("check", "--cone", "copositive", str(matrix))
    doc = json.loads(r.stdout)
    assert doc["result"]["certificate"]["kind"] == "boundary_zero"
    chk = check_certificate(tmp_path, r.stdout, matrix)
    assert chk.returncode == 0, chk.stdout + chk.stderr
    x = doc["result"]["certificate"]["x"]
    i, j = np.flatnonzero(x)[:2]
    x[i] += 1e-3  # still on the simplex, but off the zero
    x[j] -= 1e-3
    chk = check_certificate(tmp_path, json.dumps(doc), matrix)
    assert chk.returncode == 3, chk.stdout + chk.stderr


def test_check_copositive_beyond_enumeration_order(tmp_path):
    """Horn + I_12 has order 17, past the order-16 enumeration limit; its
    nonnegative rows are deleted first, so it is decided with a zero."""
    a = np.eye(17)
    a[:5, :5] = horn_matrix()
    matrix = write_matrix(tmp_path / "horn-plus-i12.json", a)
    r = run_cli("check", "--cone", "copositive", str(matrix))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["result"]["certificate"]["kind"] == "boundary_zero"
    chk = check_certificate(tmp_path, r.stdout, matrix)
    assert chk.returncode == 0, chk.stdout + chk.stderr


def test_check_copositive_undecided_beyond_enumeration_order(tmp_path):
    """I_17 - 0.01 (J - I) keeps all 17 rows and has no negative vertex or
    edge: the answer is UNDECIDED (exit 2) with no certificate."""
    matrix = write_matrix(tmp_path / "near-identity-17.json", 1.01 * np.eye(17) - 0.01)
    r = run_cli("check", "--cone", "copositive", str(matrix))
    assert r.returncode == 2, r.stderr
    result = json.loads(r.stdout)["result"]
    assert result["answer"] == "UNDECIDED"
    assert result["certificate"] is None
    chk = check_certificate(tmp_path, r.stdout, matrix)
    assert chk.returncode == 0, chk.stdout + chk.stderr
