#!/usr/bin/env python3
"""Re-verify the certificate in a `copcone check` report with plain numpy.

Usage: check_certificate.py REPORT.json MATRIX.json
Exits 0 if the certificate holds, 3 if it does not.
"""
import json
import sys

import numpy as np

TOL = 1e-8

report = json.load(open(sys.argv[1]))
doc = json.load(open(sys.argv[2]))
m = np.asarray(doc["data"], dtype=float).reshape(int(doc["n"]), -1)
result = report["result"]
cert = result.get("certificate")
ok = True
if cert is None:
    pass
elif cert["kind"] == "negative_entry":
    ok = m[cert["i"], cert["j"]] < 0 and abs(m[cert["i"], cert["j"]] - cert["value"]) <= TOL
elif cert["kind"] == "violation_vector":
    # A PSD (or DNN) witness is any real vector; a copositive one lies on
    # the standard simplex.  Either way the form must be strictly negative
    # and equal to the reported value.
    x = np.asarray(cert["x"], dtype=float)
    q = float(x @ m @ x)
    scale = max(1.0, np.abs(m).max())
    ok = q < -TOL * scale and abs(q - cert["value"]) <= TOL * scale
    if result["cone"] == "COPOSITIVE":
        ok = ok and x.min() >= -TOL and abs(x.sum() - 1.0) <= TOL
elif cert["kind"] == "boundary_zero":
    x = np.asarray(cert["x"])
    ok = x.min() >= -TOL and abs(x.sum() - 1.0) <= TOL and abs(float(x @ m @ x)) <= TOL
elif cert["kind"] in ("factor", "interior"):
    v = np.asarray(cert["factor"], dtype=float)
    ok = v.min() >= -TOL and np.abs(v @ v.T - m).max() <= TOL * max(1.0, np.abs(m).max())
    if cert["kind"] == "interior":
        ok = ok and v[:, cert["positive_column_index"]].min() > 0
else:
    ok = False
print("certificate OK" if ok else "certificate FAILED")
sys.exit(0 if ok else 3)
