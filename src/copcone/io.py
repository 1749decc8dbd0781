"""Matrix file loading and canonical JSON report serialization.

Files are JSON objects {"n": ..., "data": ..., "factor": ...} or a
whitespace-separated text fallback (first token n, then n^2 values).
Reports serialize with sorted keys and floats canonicalized through %.17g,
so identical runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .kernel import MAX_ENTRY, Tolerance

__all__ = ["MatrixFile", "load_matrix", "load_factor", "canonical_json", "to_jsonable"]

_SYM_TOL = Tolerance(abs=0.0, rel=1e-12)


@dataclass(frozen=True)
class MatrixFile:
    n: int
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


def load_matrix(path: str) -> MatrixFile:
    """Load a matrix file, rejecting asymmetric data (1e-12 relative)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
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
    if n < 1 or data.shape != (n, n):
        raise DataError("matrix must be square of order n >= 1")
    scale = np.abs(data).max(initial=0.0)
    if scale > MAX_ENTRY:
        raise DataError("matrix entries must be at most 2**500 in magnitude")
    if np.abs(data - data.T).max(initial=0.0) > _SYM_TOL.scaled(scale):
        raise DataError("matrix is not symmetric (1e-12 relative)")
    if factor is not None and factor.size and factor.min() < 0:
        raise DataError("factor entries must be nonnegative")
    return MatrixFile(n, 0.5 * (data + data.T), factor, digest)


def load_factor(path: str) -> tuple[np.ndarray, str]:
    """Load an n x p nonnegative factor from a JSON file ("factor" or "data"
    field); returns it with the sha256 digest of the file bytes."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        doc = json.loads(blob.decode("utf-8"))
        n = int(doc["n"])
        factor = _as_matrix(doc.get("factor", doc.get("data")), n, "factor")
    except DataError:
        raise
    except Exception as exc:
        raise DataError(f"malformed factor file {path}: {exc}") from exc
    if factor.min(initial=0.0) < 0:
        raise DataError("factor entries must be nonnegative")
    return factor, hashlib.sha256(blob).hexdigest()


def to_jsonable(obj):
    """Recursively convert report payloads to canonical JSON-ready values."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(format(float(obj), ".17g"))
    return obj


def canonical_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"
