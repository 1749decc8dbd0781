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


def _order(doc) -> int:
    """A JSON file's ``n``; ``int()`` would read 2.5 as 2 and true as 1."""
    n = doc["n"]
    if type(n) is not int:
        raise DataError(f"n must be an integer, not {n!r}")
    return n


def _nonnegative(factor: np.ndarray | None) -> np.ndarray | None:
    """``factor``, or ``None``, once no entry is negative."""
    if factor is not None and factor.min(initial=0.0) < 0:
        raise DataError("factor entries must be nonnegative")
    return factor


def _load(path: str, kind: str, parse):
    """``parse`` of a file's UTF-8 text, and the sha256 digest of its bytes.

    A file that cannot be read, decoded or parsed raises :class:`DataError`;
    the parse rule's own ``DataError`` passes through unchanged.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        return parse(blob.decode("utf-8")), hashlib.sha256(blob).hexdigest()
    except DataError:
        raise
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except Exception as exc:
        raise DataError(f"malformed {kind} file {path}: {exc}") from exc


def _parse_matrix(text: str) -> tuple[np.ndarray, np.ndarray | None]:
    """A JSON object's n x n ``data`` and optional ``factor``, or the n^2
    values after the order n of a text file, with no factor."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        n = _order(doc)
        data, factor = _as_matrix(doc["data"], n, "data"), doc.get("factor")
        return data, None if factor is None else _as_matrix(factor, n, "factor")
    tokens = text.split()
    if not tokens:
        raise DataError("empty matrix file")
    n = int(tokens[0])
    values = [float(t) for t in tokens[1:]]
    if len(values) != n * n:
        raise DataError(f"expected n^2 = {n * n} matrix values, got {len(values)}")
    return np.array(values).reshape(n, n), None


def _parse_factor(text: str) -> np.ndarray:
    """A JSON object's n x p ``factor``, or its ``data`` field without one."""
    doc = json.loads(text)
    n = _order(doc)
    return _as_matrix(doc.get("factor", doc.get("data")), n, "factor")


def load_matrix(path: str) -> MatrixFile:
    """Load a matrix file; its data must pass :func:`kernel.as_sym` with a
    1e-12 relative symmetry tolerance."""
    (data, factor), digest = _load(path, "matrix", _parse_matrix)
    try:
        data, _ = as_sym(data, _SYM_TOL)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return MatrixFile(data, _nonnegative(factor), digest)


def load_factor(path: str) -> tuple[np.ndarray, str]:
    """Load an n x p nonnegative factor from a JSON file ("factor" or "data"
    field); returns it with the sha256 digest of the file bytes."""
    factor, digest = _load(path, "factor", _parse_factor)
    return _nonnegative(factor), digest


def _plain(obj):
    """numpy arrays and scalars as the Python lists and numbers json writes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"
