#!/usr/bin/env python3
"""Re-verify the certificate in a `copcone check` or `copcone factorize`
report with plain numpy.

Usage: check_certificate.py REPORT.json MATRIX.json
Exits 0 if the certificate holds, 3 if it does not.
"""
import json
import sys

import numpy as np

TOL = 1e-8

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
doc = json.load(open(sys.argv[2]))
n = int(doc["n"])
m = np.asarray(doc["data"], dtype=float).reshape(n, -1)
scale = max(1.0, np.abs(m).max())
result = report["result"]
role = "factorize" if report.get("command", [None])[0] == "factorize" else result.get("answer")
cert = result.get("certificate")
kind = None if cert is None else cert.get("kind")
ok = kind in KINDS.get(role, ())
if not ok or kind is None:
    pass
elif kind == "negative_entry":
    ok = m[cert["i"], cert["j"]] < 0 and abs(m[cert["i"], cert["j"]] - cert["value"]) <= TOL
elif kind == "violation_vector":
    # A PSD (or DNN) witness is any real vector; a copositive one lies on
    # the standard simplex.  Either way the form must be strictly negative
    # and equal to the reported value.
    x = np.asarray(cert["x"], dtype=float)
    q = float(x @ m @ x)
    ok = q < -TOL * scale and abs(q - cert["value"]) <= TOL * scale
    if result["cone"] == "COPOSITIVE":
        ok = ok and x.min() >= -TOL and abs(x.sum() - 1.0) <= TOL
elif kind == "boundary_zero":
    x = np.asarray(cert["x"], dtype=float)
    ok = x.min() >= -TOL and abs(x.sum() - 1.0) <= TOL and abs(float(x @ m @ x)) <= TOL * scale
else:  # interior
    # a nonnegative factor of M with an entrywise positive column and full
    # rank n puts M in the interior of the completely positive cone
    v = np.asarray(cert["factor"], dtype=float).reshape(n, -1)
    ok = v.min() >= -TOL and np.abs(v @ v.T - m).max() <= TOL * scale
    j = cert["positive_column_index"]
    ok = ok and 0 <= j < v.shape[1] and v[:, j].min() > 0
    ok = ok and cert["rank"] == n == np.linalg.matrix_rank(v)
print("certificate OK" if ok else "certificate FAILED")
sys.exit(0 if ok else 3)
