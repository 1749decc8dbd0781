"""Command-line frontend: reads matrix files, dispatches to the library,
and emits deterministic JSON reports with checkable certificates.

Exit codes for ``check``: 0 = IN, 1 = NOT_IN, 2 = UNDECIDED.  Everywhere:
64 = usage error, 65 = data error, 1 = library error (the report carries the
error tag).  Reports go to stdout; wall time goes to stderr so identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from . import cones, extremal, factor
from .errors import CopconeError, DataError
from .io import canonical_json, load_matrix
from .kernel import Tolerance

EXIT_USAGE = 64
EXIT_DATA = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _tolerance(args) -> Tolerance:
    value = getattr(args, "tol", None)
    if value is None:
        env = os.environ.get("COPCONE_TOL")
        value = float(env) if env else None
    if value is None:
        return Tolerance()
    return Tolerance(abs=value, rel=value)


def _load_factor_file(path: str) -> tuple[np.ndarray, str]:
    """Load an n x p nonnegative factor from a JSON file ("factor" or "data"
    field)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        doc = json.loads(blob.decode("utf-8"))
        n = int(doc["n"])
        raw = doc.get("factor", doc.get("data"))
        arr = np.asarray(raw, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(n, -1)
        if arr.shape[0] != n or not np.all(np.isfinite(arr)) or arr.min(initial=0.0) < 0:
            raise DataError("factor must be n x p, finite and nonnegative")
    except DataError:
        raise
    except Exception as exc:
        raise DataError(f"malformed factor file {path}: {exc}") from exc
    import hashlib

    return arr, hashlib.sha256(blob).hexdigest()


def _certificate_dict(cert):
    if cert is None:
        return None
    if isinstance(cert, cones.NegativeEntry):
        return {"kind": "negative_entry", "i": cert.i, "j": cert.j, "value": cert.value}
    if isinstance(cert, cones.ViolationVector):
        return {"kind": "violation_vector", "x": cert.x, "value": cert.value}
    if isinstance(cert, cones.BoundaryZero):
        return {"kind": "boundary_zero", "x": cert.x, "value": cert.value}
    if isinstance(cert, cones.InteriorCertificate):
        return {
            "kind": "interior",
            "factor": cert.factor.v,
            "positive_column_index": cert.positive_column_index,
            "rank": cert.rank,
        }
    return {"kind": "unknown"}


def _verdict_dict(verdict: cones.ConeVerdict):
    out = {
        "cone": verdict.cone,
        "answer": verdict.answer.value,
        "certificate": _certificate_dict(verdict.certificate),
    }
    if verdict.minimum is not None:
        out["minimum"] = verdict.minimum
    return out


def _emit(report: dict, started: float) -> None:
    sys.stdout.write(canonical_json(report))
    sys.stderr.write(f"wall time: {time.perf_counter() - started:.3f}s\n")


def _base_report(argv, tol: Tolerance) -> dict:
    return {
        "command": list(argv),
        "inputs": {},
        "tolerance": {"abs": tol.abs, "rel": tol.rel},
    }


def cmd_check(args, argv, started) -> int:
    tol = _tolerance(args)
    mf = load_matrix(args.path)
    report = _base_report(argv, tol)
    report["inputs"][args.path] = mf.digest
    dispatch = {
        "nonneg": lambda: cones.is_nonneg(mf.data, tol),
        "psd": lambda: cones.is_psd(mf.data, tol),
        "copositive": lambda: cones.is_copositive(mf.data, tol, max_depth=args.max_depth),
        "dnn": lambda: cones.is_dnn(mf.data, tol),
    }
    verdict = dispatch[args.cone]()
    report["result"] = _verdict_dict(verdict)
    _emit(report, started)
    return {"IN": 0, "NOT_IN": 1, "UNDECIDED": 2}[verdict.answer.value]


def cmd_factorize(args, argv, started) -> int:
    tol = _tolerance(args)
    mf = load_matrix(args.path)
    report = _base_report(argv, tol)
    report["inputs"][args.path] = mf.digest
    result: dict = {"method": args.method}
    try:
        if args.method == "dd":
            v = factor.dd_factorize(mf.data, tol)
        elif args.method == "posdd":
            v, cert = factor.positive_dd_factorize(mf.data, tol)
            result["certificate"] = _certificate_dict(cert)
        elif args.method == "cp3":
            v = factor.cp3_factorize(mf.data, tol)
        elif args.method == "horn6":
            if mf.factor is None:
                raise DataError("horn6 needs a 'factor' field in the matrix file")
            v = factor.horn_orthogonal_factorize(factor.NonnegFactor(mf.factor, tol), tol)
        else:  # heuristic
            if args.target is None:
                raise DataError("heuristic factorization needs --target")
            v = factor.heuristic_min_factor(mf.data, args.target, restarts=args.restarts, tol=tol)
            if v is None:
                result["status"] = "FAILED"
                report["result"] = result
                _emit(report, started)
                return 1
    except CopconeError as exc:
        if isinstance(exc, DataError):
            raise
        report["result"] = {"method": args.method, "error": exc.tag, "message": str(exc)}
        _emit(report, started)
        return 1
    target = mf.data if args.method != "horn6" else mf.factor @ mf.factor.T
    scale = max(np.abs(target).max(), np.finfo(float).tiny)
    result.update(
        {
            "factor": v.v,
            "p": v.p,
            "residual": float(np.abs(v.product() - target).max()),
            "relative_residual": float(np.abs(v.product() - target).max() / scale),
        }
    )
    report["result"] = result
    _emit(report, started)
    return 0


def cmd_bounds(args, argv, started) -> int:
    tol = _tolerance(args)
    report = _base_report(argv, tol)
    if args.path is None:
        if args.n is None:
            raise DataError("either a matrix file or --n is required")
        lo, hi = bounds_mod.known_pn_interval(args.n)
        report["result"] = {
            "n": args.n,
            "interval": [lo, hi],
            "djl_lower": bounds_mod.djl_lower(args.n),
            "babe": bounds_mod.babe(args.n),
        }
        _emit(report, started)
        return 0
    mf = load_matrix(args.path)
    report["inputs"][args.path] = mf.digest
    witnesses = []
    for wpath in args.witness or ():
        wf = load_matrix(wpath)
        report["inputs"][wpath] = wf.digest
        witnesses.append(wf.data)
    v = None
    if args.factor:
        arr, digest = _load_factor_file(args.factor)
        report["inputs"][args.factor] = digest
        v = factor.NonnegFactor(arr, tol)
    try:
        rep = bounds_mod.cp_rank_interval(mf.data, v=v, witnesses=witnesses, tol=tol)
    except CopconeError as exc:
        if isinstance(exc, DataError):
            raise
        report["result"] = {"error": exc.tag, "message": str(exc)}
        _emit(report, started)
        return 1
    report["result"] = {
        "n": rep.n,
        "lower": {"value": rep.lower.value, "rule": rep.lower.rule, "note": rep.lower.note},
        "uppers": [{"value": e.value, "rule": e.rule, "note": e.note} for e in rep.uppers],
        "best_interval": list(rep.best_interval),
    }
    _emit(report, started)
    return 0


def cmd_orbit(args, argv, started) -> int:
    tol = _tolerance(args)
    mf = load_matrix(args.path)
    report = _base_report(argv, tol)
    report["inputs"][args.path] = mf.digest
    try:
        cls = extremal.classify_rank12(mf.data, tol)
    except CopconeError as exc:
        if isinstance(exc, DataError):
            raise
        report["result"] = {"error": exc.tag, "message": str(exc)}
        _emit(report, started)
        return 1
    result: dict = {"class": cls.tag}
    if cls.witness is not None:
        result["witness"] = {"d": cls.witness.d, "perm": cls.witness.perm}
    if cls.vector is not None:
        result["vector"] = cls.vector
    report["result"] = result
    _emit(report, started)
    return 0


def cmd_verify_orth(args, argv, started) -> int:
    tol = _tolerance(args)
    mf = load_matrix(args.path_m)
    af = load_matrix(args.path_a)
    report = _base_report(argv, tol)
    report["inputs"][args.path_m] = mf.digest
    report["inputs"][args.path_a] = af.digest
    try:
        col = extremal.orth_column_check(mf.data, af.data, tol)
        result: dict = {"column_defect": col.defect, "column_check": col.passed}
        anti = extremal.anti_dd_check(mf.data, af.data, tol)
        result["anti_dd_rows"] = list(anti.rows)
        result["anti_dd_all_pass"] = anti.all_pass
        if args.factor:
            arr, digest = _load_factor_file(args.factor)
            report["inputs"][args.factor] = digest
            v = factor.NonnegFactor(arr, tol)
            result["nullspace"] = [
                extremal.orth_nullspace_check(mf.data, af.data, v, i, tol)
                for i in range(mf.n)
            ]
    except CopconeError as exc:
        if isinstance(exc, DataError):
            raise
        report["result"] = {"error": exc.tag, "message": str(exc)}
        _emit(report, started)
        return 1
    report["result"] = result
    _emit(report, started)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="copcone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None, help="absolute and relative tolerance")

    p = sub.add_parser("check", help="cone membership test")
    common(p)
    p.add_argument("--cone", required=True, choices=["nonneg", "psd", "copositive", "dnn"])
    p.add_argument("--max-depth", type=int, default=40)
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factorize", help="constructive cp factorization")
    common(p)
    p.add_argument("--method", required=True, choices=["dd", "posdd", "horn6", "cp3", "heuristic"])
    p.add_argument("--target", type=int, default=None, help="column count for --method heuristic")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("path")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("bounds", help="cp-rank bound interval")
    common(p)
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--n", type=int, default=None, help="table mode: known bracket for this order")
    p.add_argument("--witness", action="append", default=None, help="orthogonal copositive witness file")
    p.add_argument("--factor", default=None, help="factor file providing a column-count upper bound")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("orbit", help="extreme-ray classification / orbit recognition")
    common(p)
    p.add_argument("path")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("verify-orth", help="orthogonal-pair structure checks")
    common(p)
    p.add_argument("path_m")
    p.add_argument("path_a")
    p.add_argument("--factor", default=None)
    p.set_defaults(func=cmd_verify_orth)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        return args.func(args, argv, started)
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
