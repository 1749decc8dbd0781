#!/usr/bin/env python3
"""Re-verify the certificate in a `copcone check` or `copcone factorize`
report with plain numpy, through the predicates of `copbench/checks.py`.

Usage: check_certificate.py REPORT.json MATRIX
MATRIX is the input file the report names, as JSON or as plain text.
Exits 0 if the certificate holds, 3 if it does not.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "copbench"))
import checks  # noqa: E402  numpy only; it never imports copcone

# The certificate kinds each answer may carry, as `check` emits them: a
# failure needs a witness, membership carries a zero or nothing, UNDECIDED
# nothing.  A factorize report has no answer; it must carry the interior
# certificate of `--method posdd`.
KINDS = {
    "NOT_IN": {"negative_entry", "violation_vector"},
    "IN": {None, "boundary_zero"},
    "UNDECIDED": {None},
    "factorize": {"interior"},
}

report = json.load(open(sys.argv[1]))
blob = open(sys.argv[2], "rb").read()
text = blob.decode()
if text.lstrip().startswith("{"):
    doc = json.loads(text)
    n, data = int(doc["n"]), doc["data"]
else:  # the plain-text format: n, then the n^2 entries
    n, *data = text.split()
    n = int(n)
m = np.asarray(data, dtype=float).reshape(n, n)
m = 0.5 * (m + m.T)  # copcone symmetrizes what it reads the same way
digest = hashlib.sha256(blob).hexdigest()
result = report["result"]
role = "factorize" if report.get("command", [None])[0] == "factorize" else result.get("answer")
cert = result.get("certificate") or {}
kind = cert.get("kind")
# checks.py indexes the way numpy does, which reads -1 as the last row or
# column, so each index a certificate names is range-checked here first.
try:
    checks.require(digest in report["inputs"].values(), f"{sys.argv[2]} is not an input of the report")
    checks.require(kind in KINDS.get(role, ()), f"certificate kind {kind} does not fit {role}")
    if kind == "negative_entry":
        i, j = cert["i"], cert["j"]
        checks.require(0 <= i < n and 0 <= j < n, f"negative entry: no entry ({i}, {j})")
        checks.negative_entry(m, i, j, cert["value"])
    elif kind == "violation_vector":
        witness = checks.violation if result["cone"] == "COPOSITIVE" else checks.psd_violation
        witness(m, cert["x"], cert["value"])
    elif kind == "boundary_zero":
        checks.boundary_zero(m, cert["x"], cert["value"])
    elif kind == "interior":
        v = np.asarray(cert["factor"], dtype=float).reshape(n, -1)
        j = cert["positive_column_index"]
        checks.require(0 <= j < v.shape[1], f"interior certificate: no column {j}")
        checks.interior_certificate(m, v, j, cert["rank"])
    if role == "IN":
        # Membership itself, re-checked from the matrix.  Copositive
        # membership has no checkable certificate yet: only its diagonal is.
        cone, thr = result["cone"], checks.threshold(m)
        if cone in ("NONNEG", "DNN"):
            checks.require(m.min() >= -thr, f"IN: entry {m.min():.3g} is negative")
        if cone in ("PSD", "DNN"):
            w = np.linalg.eigvalsh(m).min()
            checks.require(w >= -thr, f"IN: eigenvalue {w:.3g} is negative")
        if cone == "COPOSITIVE":
            d = np.diag(m).min()
            checks.require(d >= -thr, f"IN: diagonal entry {d:.3g} is negative")
except checks.CheckError as exc:
    print(f"certificate FAILED: {exc}")
    sys.exit(3)
print("certificate OK")
