"""Matrix file loading and canonical JSON report serialization.

Files are JSON objects {"n": ..., "data": ..., "factor": ...} or a
whitespace-separated text fallback (first token n, then n^2 values).
Reports serialize with sorted keys and each float as Python's shortest
round-trip repr (``0.1``, not ``0.10000000000000001``), so identical runs
are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .kernel import Tolerance, as_sym

__all__ = ["MatrixFile", "load_matrix", "load_factor", "canonical_json"]

_SYM_TOL = Tolerance(abs=0.0, rel=1e-12)


@dataclass(frozen=True)
class MatrixFile:
    data: np.ndarray
    factor: np.ndarray | None
    digest: str


def _as_matrix(raw, n: int, what: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        if arr.size % n:
            raise DataError(f"{what} length is not a multiple of n")
        arr = arr.reshape(n, -1)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise DataError(f"{what} must have {n} rows")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} has non-finite entries")
    return arr


def _read(path: str) -> tuple[bytes, str]:
    """The bytes of a file and their sha256 digest."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return blob, hashlib.sha256(blob).hexdigest()


def load_matrix(path: str) -> MatrixFile:
    """Load a matrix file; its data must pass :func:`kernel.as_sym` with a
    1e-12 relative symmetry tolerance."""
    blob, digest = _read(path)
    text = blob.decode("utf-8", errors="strict") if blob else ""
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            doc = json.loads(text)
            n = int(doc["n"])
            data = _as_matrix(doc["data"], n, "data")
            factor = None
            if doc.get("factor") is not None:
                factor = _as_matrix(doc["factor"], n, "factor")
        else:
            tokens = text.split()
            if not tokens:
                raise DataError("empty matrix file")
            n = int(tokens[0])
            values = [float(t) for t in tokens[1:]]
            if len(values) != n * n:
                raise DataError(f"expected n^2 = {n * n} matrix values, got {len(values)}")
            data = np.array(values).reshape(n, n)
            factor = None
    except DataError:
        raise
    except Exception as exc:
        raise DataError(f"malformed matrix file {path}: {exc}") from exc
    try:
        data, _ = as_sym(data, _SYM_TOL)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if factor is not None and factor.min(initial=0.0) < 0:
        raise DataError("factor entries must be nonnegative")
    return MatrixFile(data, factor, digest)


def load_factor(path: str) -> tuple[np.ndarray, str]:
    """Load an n x p nonnegative factor from a JSON file ("factor" or "data"
    field); returns it with the sha256 digest of the file bytes."""
    blob, digest = _read(path)
    try:
        doc = json.loads(blob.decode("utf-8"))
        n = int(doc["n"])
        factor = _as_matrix(doc.get("factor", doc.get("data")), n, "factor")
    except DataError:
        raise
    except Exception as exc:
        raise DataError(f"malformed factor file {path}: {exc}") from exc
    if factor.min(initial=0.0) < 0:
        raise DataError("factor entries must be nonnegative")
    return factor, digest


def _plain(obj):
    """numpy arrays and scalars as the Python lists and numbers json writes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"
