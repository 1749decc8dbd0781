import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from copcone import horn_matrix
from copcone.errors import DataError
from copcone.io import canonical_json, load_matrix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


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
        r = run_cli(*args, cwd=tmp_path, env={"PYTHONWARNINGS": "error"})
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


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.iterdir()))
def test_check_copositive_matches_golden_report(fixture):
    """The certificates the copositivity test hands out are pinned byte for
    byte; the command runs from the repository root so the report's paths
    are relative."""
    r = run_cli("check", "--cone", "copositive", f"fixtures/{fixture}", cwd=FIXTURES.parent)
    golden = GOLDEN / f"check-copositive-{Path(fixture).stem}.json"
    assert r.stdout == golden.read_text()


def check_certificate(tmp_path, report_text, *matrix):
    report = tmp_path / "report.json"
    report.write_text(report_text)
    return subprocess.run(
        [
            sys.executable,
            str(FIXTURES.parent / "scripts" / "check_certificate.py"),
            str(report),
            *map(str, matrix),
        ],
        capture_output=True,
        text=True,
    )


def test_certificate_checker_script(tmp_path):
    r = run_cli("check", "--cone", "psd", str(FIXTURES / "horn.json"))
    chk = check_certificate(tmp_path, r.stdout, FIXTURES / "horn.json")
    assert chk.returncode == 0, chk.stdout + chk.stderr


def test_certificate_checker_cannot_verify_copositive_membership(tmp_path):
    """The boundary zero of a copositive IN is checked, but membership has
    no certificate yet: exit 4, "not verifiable"."""
    r = run_cli("check", "--cone", "copositive", str(FIXTURES / "horn.json"))
    chk = check_certificate(tmp_path, r.stdout, FIXTURES / "horn.json")
    assert chk.returncode == 4, chk.stdout + chk.stderr
    assert "not verifiable" in chk.stdout


def test_certificate_checker_needs_no_matrix_for_a_report_that_read_none(tmp_path):
    """`bounds --n` reads no file, so its inputs are empty: without MATRIX
    the table is not verifiable (exit 4)."""
    r = run_cli("bounds", "--n", "6")
    assert json.loads(r.stdout)["inputs"] == {}
    chk = check_certificate(tmp_path, r.stdout)
    assert chk.returncode == 4, chk.stdout + chk.stderr
    assert "bounds results carry no checkable certificate yet" in chk.stdout


def test_certificate_checker_rejects_a_matrix_the_report_did_not_read(tmp_path):
    r = run_cli("bounds", "--n", "6")
    chk = check_certificate(tmp_path, r.stdout, FIXTURES / "w6.json")
    assert chk.returncode == 3, chk.stdout + chk.stderr
    assert "w6.json is not an input of the report" in chk.stdout


def test_certificate_checker_needs_a_matrix_for_a_report_that_read_one(tmp_path):
    r = run_cli("check", "--cone", "psd", str(FIXTURES / "horn.json"))
    chk = check_certificate(tmp_path, r.stdout)
    assert chk.returncode == 3, chk.stdout + chk.stderr
    assert "the report read files: give one of them as MATRIX" in chk.stdout


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
    matrix = FIXTURES / ("horn.json" if cone == "psd" else "negdiag.txt")
    doc = json.loads(run_cli("check", "--cone", cone, str(matrix)).stdout)
    assert doc["result"]["certificate"]["kind"] == "violation_vector"
    assert check_certificate(tmp_path, json.dumps(doc), matrix).returncode == 0
    corrupt(doc["result"])
    chk = check_certificate(tmp_path, json.dumps(doc), matrix)
    assert chk.returncode == 3, chk.stdout + chk.stderr


@pytest.mark.parametrize(
    "cone, fixture",
    [("psd", "horn.json"), ("nonneg", "horn.json"), ("dnn", "horn.json"), ("copositive", "negdiag.txt")],
)
def test_certificate_checker_rejects_a_forged_in(tmp_path, cone, fixture):
    """An IN without a certificate is re-checked from the matrix: by its
    entries, its spectrum, or for COPOSITIVE by its diagonal."""
    doc = json.loads((GOLDEN / f"check-{cone}-{Path(fixture).stem}.json").read_text())
    assert doc["result"]["answer"] == "NOT_IN"
    doc["result"].update(answer="IN", certificate=None)
    chk = check_certificate(tmp_path, json.dumps(doc), FIXTURES / fixture)
    assert chk.returncode == 3, chk.stdout + chk.stderr


def test_certificate_checker_rejects_a_file_the_report_did_not_read(tmp_path):
    # dd_example is copositive too, so only the input digest tells them apart
    report = (GOLDEN / "check-copositive-identity6.json").read_text()
    assert check_certificate(tmp_path, report, FIXTURES / "identity6.json").returncode == 4
    chk = check_certificate(tmp_path, report, FIXTURES / "dd_example.json")
    assert chk.returncode == 3, chk.stdout + chk.stderr


@pytest.mark.parametrize("i, j", [(-1, 0), (5, 0)])
def test_certificate_checker_rejects_an_entry_outside_the_matrix(tmp_path, i, j):
    # horn[4, 0] is -1, so only the range check rejects the index -1
    doc = json.loads((GOLDEN / "check-nonneg-horn.json").read_text())
    doc["result"]["certificate"].update(i=i, j=j)
    chk = check_certificate(tmp_path, json.dumps(doc), FIXTURES / "horn.json")
    assert chk.returncode == 3, chk.stdout + chk.stderr


@pytest.mark.parametrize("cone", ["psd", "copositive"])
def test_certificate_checker_cannot_verify_a_claim_made_at_another_tolerance(tmp_path, cone):
    """At --tol 1e-3 the matrix (1, 0; 0, -1e-6) is PSD and copositive.  At
    the checker's thresholds the claim fails: exit 4, naming both
    tolerances.  The same report at the default tolerance fails: exit 3."""
    matrix = tmp_path / "near-psd.txt"
    matrix.write_text("2\n1 0\n0 -1e-6\n")
    r = run_cli("check", "--cone", cone, "--tol", "1e-3", str(matrix))
    assert r.returncode == 0 and json.loads(r.stdout)["result"]["answer"] == "IN"
    chk = check_certificate(tmp_path, r.stdout, matrix)
    assert chk.returncode == 4, chk.stdout + chk.stderr
    assert "not verifiable" in chk.stdout
    assert "tolerance (abs 1e-09, rel 1e-09), but not at the report's (abs 0.001, rel 0.001)" in chk.stdout
    doc = json.loads(r.stdout)
    for made_at in (1e-9, 1e-12):  # the default, and a tighter tolerance
        doc["tolerance"] = {"abs": made_at, "rel": made_at}
        chk = check_certificate(tmp_path, json.dumps(doc), matrix)
        assert chk.returncode == 3, chk.stdout + chk.stderr


def test_certificate_checker_accepts_a_claim_that_holds_at_its_thresholds(tmp_path):
    # horn.json is not PSD at either tolerance; its witness checks at 1e-9
    r = run_cli("check", "--cone", "psd", "--tol", "1e-3", str(FIXTURES / "horn.json"))
    assert json.loads(r.stdout)["tolerance"] == {"abs": 0.001, "rel": 0.001}
    chk = check_certificate(tmp_path, r.stdout, FIXTURES / "horn.json")
    assert chk.returncode == 0, chk.stdout + chk.stderr


def test_certificate_checker_symmetrizes_like_the_library(tmp_path):
    # an asymmetry within 1e-12 relative is averaged away on both sides
    matrix = tmp_path / "near-symmetric.json"
    matrix.write_text('{"n": 2, "data": [[1, -1], [-1.0000000000001, 1]]}')
    r = run_cli("check", "--cone", "nonneg", str(matrix))
    assert json.loads(r.stdout)["result"]["certificate"]["value"] == -1.00000000000005
    chk = check_certificate(tmp_path, r.stdout, matrix)
    assert chk.returncode == 0, chk.stdout + chk.stderr


def golden_reports(pattern):
    """Golden reports of the pattern; a data error (exit 65) left none."""
    return sorted(p.name for p in GOLDEN.glob(pattern) if p.stat().st_size)


def checker_code(doc):
    """The checker's exit code on a golden report: 3 for an error or FAILED
    report, which has no factor, 4 for an uncertified copositive IN and for
    the result of a command other than check and factorize."""
    result = doc["result"]
    if "error" in result or result.get("status") == "FAILED":
        return 3
    if doc["command"][0] not in ("check", "factorize"):
        return 4
    return 4 if (result.get("cone"), result.get("answer")) == ("COPOSITIVE", "IN") else 0


@pytest.mark.parametrize("name", [name for name in golden_reports("*.json") if name != "exit-codes.json"])
def test_certificate_checker_on_golden_report(tmp_path, name):
    """Every golden answer, factor and interior certificate re-verifies
    against the first file the report names."""
    report = (GOLDEN / name).read_text()
    doc = json.loads(report)
    chk = check_certificate(tmp_path, report, FIXTURES.parent / next(iter(doc["inputs"])))
    assert chk.returncode == checker_code(doc), chk.stdout + chk.stderr


def test_certificate_checker_exit_codes_over_the_goldens():
    """25 check reports hold and 7 copositive IN are not verifiable; of the
    30 factorize reports 11 carry a factor and 19 an error or FAILED; of the
    18 bounds, orbit and verify-orth reports 13 carry a result and 5 an
    error."""
    def codes(*patterns):
        names = [name for pattern in patterns for name in golden_reports(pattern)]
        return [checker_code(json.loads((GOLDEN / name).read_text())) for name in names]

    assert sorted(codes("check-*.json")) == [0] * 25 + [4] * 7
    assert sorted(codes("factorize-*.json")) == [0] * 11 + [3] * 19
    assert sorted(codes("bounds-*.json", "orbit-*.json", "verify-orth-*.json")) == [3] * 5 + [4] * 13


def _drop_inputs(doc):
    del doc["inputs"]


def _drop_x(doc):
    del doc["result"]["certificate"]["x"]


def _fractional_column(doc):
    doc["result"]["certificate"]["positive_column_index"] = 1.5


def _text_tolerance(doc):
    # a failing report is checked again at its tolerance, which must be numbers
    doc["result"]["factor"][0][0] += 1.0
    doc["tolerance"] = {"abs": "0.001", "rel": "0.001"}


@pytest.mark.parametrize(
    "golden, corrupt",
    [
        ("check-psd-horn", _drop_inputs),
        ("check-psd-horn", _drop_x),
        ("factorize-posdd-dd_example", _fractional_column),
        ("factorize-dd-dd_example", _text_tolerance),
    ],
    ids=["no-inputs", "no-x", "fractional-column", "text-tolerance"],
)
def test_certificate_checker_rejects_a_malformed_report(tmp_path, golden, corrupt):
    """A missing or mistyped field exits 3 with a message, not a traceback."""
    doc = json.loads((GOLDEN / f"{golden}.json").read_text())
    (matrix,) = doc["inputs"]
    corrupt(doc)
    chk = check_certificate(tmp_path, json.dumps(doc), FIXTURES.parent / matrix)
    assert chk.returncode == 3, chk.stdout + chk.stderr
    assert chk.stdout.startswith("certificate FAILED") and not chk.stderr


def _perturb_factor(doc):
    doc["result"]["factor"][0][0] += 1e-3


def _miscount(doc):
    doc["result"]["p"] += 1


def _lower_target(doc):
    command = doc["command"]
    command[command.index("--target") + 1] = "1"  # the factor has more columns


@pytest.mark.parametrize(
    "golden, corrupt",
    [
        ("factorize-dd-dd_example", _perturb_factor),
        ("factorize-posdd-dd_example", _perturb_factor),
        ("factorize-cp3-dd_example", _perturb_factor),
        ("factorize-heuristic-dd_example", _perturb_factor),
        ("factorize-horn6-w6", _perturb_factor),
        ("factorize-dd-w6", _miscount),
        ("factorize-heuristic-dd_example", _lower_target),
    ],
    ids=["dd", "posdd", "cp3", "heuristic", "horn6", "p-miscounted", "over-target"],
)
def test_certificate_checker_rejects_a_perturbed_factor(tmp_path, golden, corrupt):
    doc = json.loads((GOLDEN / f"{golden}.json").read_text())
    (matrix,) = doc["inputs"]
    assert check_certificate(tmp_path, json.dumps(doc), FIXTURES.parent / matrix).returncode == 0
    corrupt(doc)
    chk = check_certificate(tmp_path, json.dumps(doc), FIXTURES.parent / matrix)
    assert chk.returncode == 3, chk.stdout + chk.stderr


def _entry_outside(doc):
    doc["result"]["certificate"]["i"] = 5


def _nudge_factor(doc):
    doc["result"]["factor"][0][0] += 1e-6  # within 1e-3, not within 1e-9


def _spoil_factor(doc):
    doc["result"]["factor"][0][0] += 1.0  # beyond 1e-3 too


def _negate_a_zero(doc):
    # dd's first column is e_0 + e_1: a -1e-12 entry keeps V V' within 1e-9
    doc["result"]["factor"][2][0] = -1e-12


@pytest.mark.parametrize(
    "args, corrupt, code",
    [
        (("check", "--cone", "nonneg"), _entry_outside, 3),
        (("factorize", "--method", "dd"), _spoil_factor, 3),
        (("factorize", "--method", "dd"), _negate_a_zero, 3),
        (("factorize", "--method", "dd"), _nudge_factor, 4),
    ],
    ids=["entry-outside", "perturbed", "negative-entry", "within-its-tolerance"],
)
def test_certificate_checker_rechecks_at_a_looser_tolerance(tmp_path, args, corrupt, code):
    """A report made at --tol 1e-3 that fails a check is checked again at
    1e-3: a failure there is a false claim (exit 3); only a claim that holds
    at 1e-3 is not verifiable (exit 4)."""
    matrix = FIXTURES / ("horn.json" if args[0] == "check" else "dd_example.json")
    doc = json.loads(run_cli(*args, "--tol", "1e-3", str(matrix)).stdout)
    assert doc["tolerance"] == {"abs": 0.001, "rel": 0.001}
    corrupt(doc)
    chk = check_certificate(tmp_path, json.dumps(doc), matrix)
    assert chk.returncode == code, chk.stdout + chk.stderr


@pytest.mark.parametrize("target, code", [("6", 0), ("1", 3)])
def test_certificate_checker_reads_an_inline_target(tmp_path, target, code):
    """`--target=P` is the command line `--target P`, as copcone reads it."""
    doc = json.loads((GOLDEN / "factorize-heuristic-dd_example.json").read_text())
    command = doc["command"]
    k = command.index("--target")
    command[k : k + 2] = [f"--target={target}"]
    chk = check_certificate(tmp_path, json.dumps(doc), FIXTURES / "dd_example.json")
    assert chk.returncode == code, chk.stdout + chk.stderr


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


@pytest.mark.parametrize("kind", ["factor", "interior"])
def test_certificate_checker_rejects_factor_kinds_under_in(tmp_path, kind):
    """`check` answers IN with a zero or nothing; a valid posdd factor
    relabelled into a check report is still not a certificate it emits."""
    matrix = FIXTURES / "dd_example.json"
    doc = json.loads(run_cli("check", "--cone", "copositive", str(matrix)).stdout)
    assert doc["result"]["answer"] == "IN"
    posdd = json.loads(run_cli("factorize", "--method", "posdd", str(matrix)).stdout)
    doc["result"]["certificate"] = dict(posdd["result"]["certificate"], kind=kind)
    chk = check_certificate(tmp_path, json.dumps(doc), matrix)
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
    assert chk.returncode == 4, chk.stdout + chk.stderr  # the zero holds
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
    assert chk.returncode == 4, chk.stdout + chk.stderr  # the zero holds


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
