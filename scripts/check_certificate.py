#!/usr/bin/env python3
"""Re-verify the certificate in a `copcone check` or `copcone factorize`
report with plain numpy, through the predicates of `copbench/checks.py`.

Usage: check_certificate.py REPORT.json [MATRIX]
MATRIX is an input file the report names, as JSON or as plain text; a
report that read no file, as `copcone bounds --n N` does, needs none.
Exits 0 if the certificate holds; 3 if it does not, if the report is
malformed (a field missing or of the wrong type), if it is an error
report or carries no factor, or if MATRIX is missing or not one of its
inputs; 4 if it cannot be verified, which includes the result of any
other command (docs/format.md gives the rule).
"""
import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "copbench"))
import checks  # noqa: E402  numpy only; it never imports copcone

# The certificate kinds each answer may carry, as `check` emits them: a
# failure needs a witness, membership carries a zero or nothing, UNDECIDED
# nothing.  A factorize report is keyed by its method: posdd carries the
# interior certificate, the other methods none.
KINDS = {
    "NOT_IN": {"negative_entry", "violation_vector"},
    "IN": {None, "boundary_zero"},
    "UNDECIDED": {None},
    "posdd": {"interior"},
    "dd": {None},
    "cp3": {None},
    "horn6": {None},
    "heuristic": {None},
}

# Relative residual `heuristic_min_factor` accepts (the library's _FACTOR_FIT).
HEURISTIC_FIT = 1e-7

# Reads the --target of a command line as copcone's argparse does: as
# `--target P`, `--target=P` or an unambiguous prefix.
TARGET = argparse.ArgumentParser(add_help=False, exit_on_error=False)
TARGET.add_argument("--target", type=int)


class NotVerifiable(Exception):
    """The report holds as far as it can be checked, but its claim has no
    certificate to check."""


def index(value, size: int, what: str) -> int:
    """An integer index into ``range(size)``.  checks.py indexes the way
    numpy does, which reads -1 as the last row or column."""
    checks.require(type(value) is int and 0 <= value < size, f"{what}: no index {value!r}")
    return value


def load(path: str):
    """The matrix a file holds, symmetrized as copcone symmetrizes it, the
    file's `factor` field (None in the plain-text format) and its sha256."""
    blob = Path(path).read_bytes()
    text = blob.decode()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        checks.require(type(doc["n"]) is int, f"n: not an integer {doc['n']!r}")
        n, data, factor = doc["n"], doc["data"], doc.get("factor")
    else:  # the plain-text format: n, then the n^2 entries
        n, *data = text.split()
        n, factor = int(n), None
    m = np.asarray(data, dtype=float).reshape(n, n)
    if factor is not None:
        factor = np.asarray(factor, dtype=float).reshape(n, -1)
    return 0.5 * (m + m.T), factor, hashlib.sha256(blob).hexdigest()


def verify(report: dict, path: str | None) -> None:
    """Raise CheckError unless the report's certificate holds for the file
    at ``path``, which is None only for a report that read no file; raise
    NotVerifiable for a claim without a certificate, or one that holds only
    at the looser tolerance the report was made at."""
    if path is None:
        checks.require(not report["inputs"], "the report read files: give one of them as MATRIX")
        m = file_factor = None
    else:
        m, file_factor, digest = load(path)
        checks.require(digest in report["inputs"].values(), f"{path} is not an input of the report")
    try:
        certify(report, m, file_factor)
    except checks.CheckError as exc:
        made_at = report["tolerance"]["abs"], report["tolerance"]["rel"]
        default = checks.ABS, checks.REL
        if made_at[0] <= checks.ABS and made_at[1] <= checks.REL:
            raise
        # Check again at the report's thresholds: a failure there fails the
        # claim at the tolerance it was made with.
        checks.ABS, checks.REL = made_at
        try:
            certify(report, m, file_factor)
        except NotVerifiable:
            pass  # it holds as far as it can be checked
        finally:
            checks.ABS, checks.REL = default
        raise NotVerifiable(
            f"{exc} at the checker's tolerance (abs {default[0]:g}, rel {default[1]:g}), "
            f"but not at the report's (abs {made_at[0]:g}, rel {made_at[1]:g})"
        ) from exc


def certify(report: dict, m: np.ndarray, file_factor) -> None:
    """Check the report's certificate for ``m`` at checks.py's thresholds."""
    result = report["result"]
    command = report["command"][0]
    if command not in ("check", "factorize"):
        # bounds, orbit and verify-orth results carry no certificate yet
        checks.require("error" not in result, f"{command} reported the error {result.get('error')}")
        raise NotVerifiable(f"{command} results carry no checkable certificate yet")
    n = m.shape[0]
    factorize = command == "factorize"
    if factorize:
        role = result["method"]
        # an error or FAILED report carries no factor
        checks.require("factor" in result, f"factorize --method {role}: no factor in the report")
    else:
        role = result["answer"]
    cert = result.get("certificate") or {}
    kind = cert.get("kind")
    checks.require(kind in KINDS.get(role, ()), f"certificate kind {kind} does not fit {role}")
    if kind == "negative_entry":
        i, j = index(cert["i"], n, "negative entry"), index(cert["j"], n, "negative entry")
        checks.negative_entry(m, i, j, cert["value"])
    elif kind == "violation_vector":
        witness = checks.violation if result["cone"] == "COPOSITIVE" else checks.psd_violation
        witness(m, cert["x"], cert["value"])
    elif kind == "boundary_zero":
        checks.boundary_zero(m, cert["x"], cert["value"])
    elif kind == "interior":
        v = np.asarray(cert["factor"], dtype=float).reshape(n, -1)
        j = index(cert["positive_column_index"], v.shape[1], "interior certificate")
        checks.interior_certificate(m, v, j, cert["rank"])
    if factorize:
        v = np.asarray(result["factor"], dtype=float).reshape(n, -1)
        checks.require(result["p"] == v.shape[1], f"factor: p is {result['p']!r}, not {v.shape[1]}")
        # the most columns each method returns at order n
        target, max_cols, rel = m, {"dd": n * (n + 1) // 2, "cp3": 3, "horn6": 15}.get(role), checks.REL
        if role == "horn6":  # it factors the product of the file's factor
            target = file_factor @ file_factor.T
        elif role == "heuristic":  # at most --target columns
            max_cols, rel = TARGET.parse_known_args(report["command"])[0].target, HEURISTIC_FIT
            checks.require(max_cols is not None, "heuristic: no --target in the command")
        checks.factor(target, v, max_cols, rel)
    if role == "IN":
        # Membership itself, re-checked from the matrix.
        cone, thr = result["cone"], checks.threshold(m)
        if cone in ("NONNEG", "DNN"):
            checks.require(m.min() >= -thr, f"IN: entry {m.min():.3g} is negative")
        if cone in ("PSD", "DNN"):
            w = np.linalg.eigvalsh(m).min()
            checks.require(w >= -thr, f"IN: eigenvalue {w:.3g} is negative")
        if cone == "COPOSITIVE":
            d = np.diag(m).min()
            checks.require(d >= -thr, f"IN: diagonal entry {d:.3g} is negative")
            raise NotVerifiable("copositive membership has no checkable certificate")


def main(argv) -> int:
    parser = argparse.ArgumentParser(usage="check_certificate.py REPORT.json [MATRIX]")
    parser.add_argument("report")
    parser.add_argument("matrix", nargs="?")
    args = parser.parse_args(argv)
    try:
        verify(json.loads(Path(args.report).read_text()), args.matrix)
    except (checks.CheckError, LookupError, TypeError, ValueError, AttributeError, argparse.ArgumentError) as exc:
        # a missing or mistyped field fails the report like a false claim
        reason = exc if isinstance(exc, checks.CheckError) else f"malformed report: {exc!r}"
        print(f"certificate FAILED: {reason}")
        return 3
    except NotVerifiable as exc:
        print(f"certificate not verifiable: {exc}")
        return 4
    print("certificate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
