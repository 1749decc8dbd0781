#!/usr/bin/env python3
"""Re-verify the certificate in a `copcone check`, `copcone factorize` or
`copcone orbit` report with plain numpy, through the predicates of
`copbench/checks.py`.

Usage: check_certificate.py REPORT.json [MATRIX]
MATRIX is an input file the report names, as JSON or as plain text; a
report that read no file, as `copcone bounds --n N` does, needs none.
Exits 0 if the certificate holds; 3 if it does not, if the report is
malformed (a field missing or of the wrong type), if it is an error
report or carries no factor, if MATRIX is not one of its inputs or is
missing where a certificate needs it, or if REPORT or MATRIX cannot be
read; 4 if it cannot be verified, which includes the orbit class
UNKNOWN_EXTREME_CLASS and the result of any other command, with or
without MATRIX (docs/format.md gives the rule).  An orbit
report of class HORN_ORBIT, E12_ORBIT or PSD_RANK1 exits 0 or 3.
"""
import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

# copbench/checks.py, loaded by its path: numpy only, it never imports copcone
_spec = importlib.util.spec_from_file_location("checks", Path(__file__).resolve().parents[1] / "copbench/checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

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


def interior(m, cert, result) -> None:
    v = np.asarray(cert["factor"], dtype=float).reshape(len(m), -1)
    j = index(cert["positive_column_index"], v.shape[1], "interior certificate")
    checks.interior_certificate(m, v, j, cert["rank"])


def orbit(m, base, witness) -> None:
    """A = d d' o B permuted, for the witness's d and its perm of integers."""
    perm = [index(p, len(m), "orbit witness") for p in witness["perm"]]
    checks.orbit(m, base, witness["d"], perm)


# The Horn matrix; this script never imports copcone.
HORN = np.array([[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1], [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]])


def horn_orbit(m, witness, result) -> None:
    """The rows through the zero diagonal entries vanish and the 5x5 block
    left is in the Horn orbit."""
    thr = checks.threshold(m)
    zero = np.diag(m) <= thr
    rows = np.abs(m[zero]).max(initial=0.0)
    checks.require(rows <= thr, f"HORN_ORBIT: a row through a zero diagonal entry reaches {rows:.3g}")
    block = m[np.ix_(~zero, ~zero)]
    checks.require(len(block) == 5, f"HORN_ORBIT: the block left has order {len(block)}, not 5")
    orbit(block, HORN, witness)


def e12_orbit(m, witness, result) -> None:
    e12 = np.zeros_like(m)
    e12[0, 1] = e12[1, 0] = 1.0
    orbit(m, e12, witness)


def psd_rank1(m, witness, result) -> None:
    """A = v v' for the report's vector v."""
    v = np.asarray(result["vector"], dtype=float)
    checks.require(v.shape == (len(m),), f"PSD_RANK1: vector of shape {v.shape}, not ({len(m)},)")
    miss = float(np.abs(np.outer(v, v) - m).max())
    checks.require(miss <= checks.threshold(m), f"PSD_RANK1: v v' misses A by {miss:.3g}")


def no_orbit(m, witness, result) -> None:
    raise NotVerifiable("orbit class UNKNOWN_EXTREME_CLASS claims no orbit")


# Each certificate kind: the answers of `check` or the methods of `factorize`
# it may appear under, and the checks.py predicate that verifies it for the
# matrix m.  A failure carries a witness, membership a zero or nothing,
# UNDECIDED nothing; posdd carries the interior certificate, the other
# methods none.  An `orbit` result is keyed by its class, and its witness,
# or for PSD_RANK1 its vector, is the certificate.
KINDS = {
    "negative_entry": ({"NOT_IN"}, lambda m, cert, result: checks.negative_entry(
        m, index(cert["i"], len(m), "negative entry"), index(cert["j"], len(m), "negative entry"), cert["value"])),
    "violation_vector": ({"NOT_IN"}, lambda m, cert, result: (
        checks.violation if result["cone"] == "COPOSITIVE" else checks.psd_violation)(m, cert["x"], cert["value"])),
    "boundary_zero": ({"IN"}, lambda m, cert, result: checks.boundary_zero(m, cert["x"], cert["value"])),
    "interior": ({"posdd"}, interior),
    None: ({"IN", "UNDECIDED", "dd", "cp3", "horn6", "heuristic"}, lambda m, cert, result: None),
    "HORN_ORBIT": ({"orbit"}, horn_orbit),
    "E12_ORBIT": ({"orbit"}, e12_orbit),
    "PSD_RANK1": ({"orbit"}, psd_rank1),
    "UNKNOWN_EXTREME_CLASS": ({"orbit"}, no_orbit),
}


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
        # a report without a certificate is not verifiable whether or not it read files
        screen(report)
        checks.require(not report["inputs"], "the report read files: give one of them as MATRIX")
        m = file_factor = None
    else:
        m, file_factor, digest = load(path)
        checks.require(digest in report["inputs"].values(), f"{path} is not an input of the report")
        screen(report)
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


def screen(report: dict) -> None:
    """Fail an error report of a command other than check and factorize;
    raise NotVerifiable for a bounds or verify-orth result, which carries no
    certificate yet."""
    result, command = report["result"], report["command"][0]
    if command not in ("check", "factorize"):
        checks.require("error" not in result, f"{command} reported the error {result.get('error')}")
        if command != "orbit":
            raise NotVerifiable(f"{command} results carry no checkable certificate yet")


def certify(report: dict, m: np.ndarray, file_factor) -> None:
    """Check the report's certificate for ``m`` at checks.py's thresholds."""
    result = report["result"]
    command = report["command"][0]
    n = m.shape[0]
    factorize = command == "factorize"
    if command == "orbit":  # keyed by its class; the witness is the certificate
        role, kind, cert = command, result["class"], result.get("witness")
    else:
        if factorize:
            role = result["method"]
            # an error or FAILED report carries no factor
            checks.require("factor" in result, f"factorize --method {role}: no factor in the report")
        else:
            role = result["answer"]
        cert = result.get("certificate") or {}
        kind = cert.get("kind")
    roles, predicate = KINDS.get(kind, ((), None))
    checks.require(role in roles, f"certificate kind {kind} does not fit {role}")
    predicate(m, cert, result)
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
    except OSError as exc:  # a missing path, or a directory
        print(f"certificate FAILED: cannot read {exc.filename}: {exc.strerror}")
        return 3
    except NotVerifiable as exc:
        print(f"certificate not verifiable: {exc}")
        return 4
    print("certificate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
