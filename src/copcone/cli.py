"""Command-line frontend: reads matrix files, dispatches to the library,
and emits deterministic JSON reports with checkable certificates.

Exit codes for ``check``: 0 = IN, 1 = NOT_IN, 2 = UNDECIDED.  Everywhere:
64 = usage error, 65 = data error, 1 = library error (the report carries the
error tag).  Reports go to stdout; wall time goes to stderr so identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import sys
import time

import numpy as np

from . import cones
from .errors import CopconeError, DataError
from .io import canonical_json, load_factor, load_matrix
from .kernel import Tolerance


def _lazy(name: str):
    """The module ``copcone.<name>``, put in ``sys.modules`` now but run on
    its first attribute access, so that a command runs only the layers it
    uses while a tracer still finds every layer in ``sys.modules``."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[fullname]


bounds_mod = _lazy("bounds")
extremal = _lazy("extremal")
factor = _lazy("factor")

EXIT_USAGE = 64
EXIT_DATA = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


class _Inputs:
    """Loads a command's input files, recording the digest of each."""

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self.digests: dict[str, str] = {}

    def matrix(self, path: str):
        mf = load_matrix(path)
        self.digests[path] = mf.digest
        return mf

    def nonneg_factor(self, path: str) -> factor.NonnegFactor:
        arr, self.digests[path] = load_factor(path)
        return factor.NonnegFactor(arr, self.tol)


# The report kind of each certificate type; the report then holds its fields.
_KINDS = {
    cones.NegativeEntry: "negative_entry",
    cones.ViolationVector: "violation_vector",
    cones.BoundaryZero: "boundary_zero",
    cones.InteriorCertificate: "interior",
}


def _certificate_dict(cert):
    if cert is None:
        return None
    out = {"kind": _KINDS[type(cert)], **vars(cert)}
    if isinstance(cert, cones.InteriorCertificate):
        out["factor"] = cert.factor.v
    return out


# Each command returns its report's ``result`` and the exit code.


def cmd_check(args, tol, inputs) -> tuple[dict, int]:
    mf = inputs.matrix(args.path)
    # looked up per call: the --cone choices are the one list of cones
    verdict = getattr(cones, f"is_{args.cone}")(mf.data, tol)
    result = {
        "cone": verdict.cone,
        "answer": verdict.answer.value,
        "certificate": _certificate_dict(verdict.certificate),
    }
    if verdict.minimum is not None:
        result["minimum"] = verdict.minimum
    return result, {"IN": 0, "NOT_IN": 1, "UNDECIDED": 2}[verdict.answer.value]


def cmd_factorize(args, tol, inputs) -> tuple[dict, int]:
    mf = inputs.matrix(args.path)
    result: dict = {"method": args.method}
    target = mf.data
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
        target = mf.factor @ mf.factor.T
    else:  # heuristic
        v = factor.heuristic_min_factor(mf.data, args.target, tol=tol)
        if v is None:
            result["status"] = "FAILED"
            return result, 1
    scale = max(np.abs(target).max(), np.finfo(float).tiny)
    residual = np.abs(v.product() - target).max()
    result.update(
        {
            "factor": v.v,
            "p": v.p,
            "residual": float(residual),
            "relative_residual": float(residual / scale),
        }
    )
    return result, 0


def cmd_bounds(args, tol, inputs) -> tuple[dict, int]:
    if args.path is None:
        lo, hi = bounds_mod.known_pn_interval(args.n)
        return {
            "n": args.n,
            "interval": [lo, hi],
            "djl_lower": bounds_mod.djl_lower(args.n),
            "babe": bounds_mod.babe(args.n),
        }, 0
    mf = inputs.matrix(args.path)
    witnesses = [inputs.matrix(wpath).data for wpath in args.witness or ()]
    v = inputs.nonneg_factor(args.factor) if args.factor else None
    rep = bounds_mod.cp_rank_interval(mf.data, v=v, witnesses=witnesses, tol=tol)
    return dataclasses.asdict(rep), 0


def cmd_orbit(args, tol, inputs) -> tuple[dict, int]:
    cls = extremal.classify_rank12(inputs.matrix(args.path).data, tol)
    result: dict = {"class": cls.tag}
    if cls.witness is not None:
        result["witness"] = vars(cls.witness)
    if cls.vector is not None:
        result["vector"] = cls.vector
    return result, 0


def cmd_verify_orth(args, tol, inputs) -> tuple[dict, int]:
    m = inputs.matrix(args.path_m).data
    a = inputs.matrix(args.path_a).data
    col = extremal.orth_column_check(m, a, tol)
    anti = extremal.anti_dd_check(m, a, tol)
    result: dict = {
        "column_defect": col.defect,
        "column_check": col.passed,
        "anti_dd_rows": list(anti.rows),
        "anti_dd_all_pass": anti.all_pass,
        "rank3_witness": extremal.rank3_witness_check(m, a, tol),
    }
    if args.factor:
        v = inputs.nonneg_factor(args.factor)
        result["nullspace"] = [
            extremal.orth_nullspace_check(m, a, v, i, tol) for i in range(m.shape[0])
        ]
    return result, 0


def _misuse(args) -> str | None:
    """The message of the usage rule the parsed arguments break, or None:
    the rules argparse cannot state, which tie one option to another or
    bound the counts ``--n`` and ``--target``."""
    if args.command == "bounds":
        if args.n is None and args.path is None:
            return "either a matrix file or --n is required"
        if args.n is not None and (args.path, args.witness, args.factor) != (None, None, None):
            return "--n reads no matrix file, --witness or --factor"
        if args.n is not None and args.n < 1:
            return "--n must be at least 1"
    elif args.command == "factorize":
        if args.method == "heuristic" and args.target is None:
            return "heuristic factorization needs --target"
        if args.method != "heuristic" and args.target is not None:
            return "--target is read by --method heuristic only"
        if args.target is not None and args.target < 1:
            return "--target must be at least 1"
    return None


def build_parser() -> _Parser:
    parser = _Parser(prog="copcone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="absolute and relative tolerance")

    p = sub.add_parser("check", help="cone membership test", parents=[common])
    p.add_argument("--cone", required=True, choices=["nonneg", "psd", "copositive", "dnn"])
    p.add_argument("path")

    p = sub.add_parser("factorize", help="constructive cp factorization", parents=[common])
    p.add_argument("--method", required=True, choices=["dd", "posdd", "horn6", "cp3", "heuristic"])
    p.add_argument("--target", type=int, default=None, help="column count for --method heuristic")
    p.add_argument("path")

    p = sub.add_parser("bounds", help="cp-rank bound interval", parents=[common])
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--n", type=int, default=None, help="table mode: known bracket for this order")
    p.add_argument("--witness", action="append", default=None, help="orthogonal copositive witness file")
    p.add_argument("--factor", default=None, help="factor file providing a column-count upper bound")

    p = sub.add_parser("orbit", help="extreme-ray classification / orbit recognition", parents=[common])
    p.add_argument("path")

    p = sub.add_parser("verify-orth", help="orthogonal-pair structure checks", parents=[common])
    p.add_argument("path_m")
    p.add_argument("path_a")
    p.add_argument("--factor", default=None)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    misuse = _misuse(args)
    if misuse:
        parser.error(misuse)
    started = time.perf_counter()
    try:
        tol = Tolerance() if args.tol is None else Tolerance(abs=args.tol, rel=args.tol)
        inputs = _Inputs(tol)
        # looked up per call, as cmd_check looks up its cone: the
        # subparser names are the one list of commands
        result, code = globals()[f"cmd_{args.command.replace('-', '_')}"](args, tol, inputs)
    except (DataError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except CopconeError as exc:
        result, code = {"error": exc.tag, "message": str(exc)}, 1
        if args.command == "factorize":
            result["method"] = args.method
    report = {
        "command": argv,
        "inputs": inputs.digests,
        "tolerance": {"abs": tol.abs, "rel": tol.rel},
        "result": result,
    }
    sys.stdout.write(canonical_json(report))
    sys.stderr.write(f"wall time: {time.perf_counter() - started:.3f}s\n")
    return code
