"""Extreme-ray structure tools: orbit recognition under positive diagonal
scaling and permutation, zero-diagonal reduction, rank-based classification
of extreme copositive matrices, and the orthogonality / anti-diagonal-
dominance checks for orthogonal cone pairs.

Extremality of a general copositive matrix is never decided here; the
classification operations take it as a caller assertion and verify only its
checkable consequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernel, special
from .cones import Answer, _negative_entry, is_copositive
from .errors import (
    NotCopositiveError,
    NotNonnegativeError,
    NotOrthogonalError,
    NotPositiveError,
    SingularError,
    ZeroRowError,
)
from .kernel import DEFAULT_TOL, Tolerance

__all__ = [
    "OrbitWitness",
    "ExtremeClass",
    "ZeroDiagReduction",
    "OrthColumnResult",
    "AntiDdResult",
    "PASS",
    "SKIP",
    "FAIL",
    "orth_column_check",
    "orth_nullspace_check",
    "anti_dd_check",
    "zero_diag_reduce",
    "classify_rank12",
    "horn_orbit_recognize",
    "nonneg_extreme_check",
    "rank3_witness_check",
]

PASS = "PASS"
SKIP = "SKIP"
FAIL = "FAIL"


@dataclass(frozen=True)
class OrbitWitness:
    """Positive diagonal d and permutation pi certifying membership in the
    orbit of a reference matrix B: A_ij = d_i d_j B[pi_i, pi_j]."""

    d: np.ndarray
    perm: np.ndarray

    def reconstruct(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        p = np.asarray(self.perm, dtype=int)
        return b[np.ix_(p, p)] * np.outer(self.d, self.d)


@dataclass(frozen=True)
class ExtremeClass:
    tag: str  # PSD_RANK1 | E12_ORBIT | HORN_ORBIT | NONNEG_EXTREME | UNKNOWN_EXTREME_CLASS
    witness: OrbitWitness | None = None
    vector: np.ndarray | None = None  # rank-1 case: A = vector vector^T


@dataclass(frozen=True)
class ZeroDiagReduction:
    s: np.ndarray
    zero_indices: tuple[int, ...]
    structure_ok: bool


@dataclass(frozen=True)
class OrthColumnResult:
    defect: float
    passed: bool


@dataclass(frozen=True)
class AntiDdResult:
    scaled: np.ndarray
    rows: tuple[bool, ...]

    @property
    def all_pass(self) -> bool:
        return all(self.rows)


def _require_orthogonal(m: np.ndarray, a: np.ndarray, tol: Tolerance):
    if m.shape != a.shape:
        raise ValueError(f"matrix orders differ: {m.shape[0]} and {a.shape[0]}")
    gauge = np.linalg.norm(m) * np.linalg.norm(a)
    if abs(float(np.sum(m * a))) > tol.scaled(gauge):
        raise NotOrthogonalError("matrices are not orthogonal within tolerance")


def orth_column_check(m, a, tol: Tolerance = DEFAULT_TOL) -> OrthColumnResult:
    """Column orthogonality of an orthogonal pair: for a completely positive
    M orthogonal to a copositive A, matching columns of M and A are
    orthogonal.  Returns the maximum diagonal defect max_i |(M A)_ii|."""
    m, _ = kernel.as_sym(m, tol)
    a, _ = kernel.as_sym(a, tol)
    _require_orthogonal(m, a, tol)
    defect = float(np.abs(np.diag(m @ a)).max())
    gauge = np.linalg.norm(m) * np.linalg.norm(a)
    return OrthColumnResult(defect, defect <= tol.scaled(gauge))


def orth_nullspace_check(m, a, v, i: int, tol: Tolerance = DEFAULT_TOL) -> str:
    """Nullspace condition of an orthogonal pair: if coordinate i is in the
    support of every factor column, column i of A lies in the nullspace of M.

    Returns PASS/FAIL when the support hypothesis holds, SKIP otherwise.
    """
    m, mscale = kernel.as_sym(m, tol)
    a, ascale = kernel.as_sym(a, tol)
    _require_orthogonal(m, a, tol)
    cols = v.v
    thr = tol.scaled(cols.max(initial=0.0))
    if cols.shape[1] == 0 or not np.all(cols[i, :] > thr):
        return SKIP
    if np.abs(m @ a[:, i]).max() <= tol.scaled(mscale * ascale):
        return PASS
    return FAIL


def anti_dd_check(m, a, tol: Tolerance = DEFAULT_TOL) -> AntiDdResult:
    """Anti-diagonal-dominance of a copositive matrix orthogonal to a
    completely positive matrix with no zero rows.

    Rescales A into the gauge where M has unit diagonal and checks, row by
    row, that the diagonal entry does not exceed the off-diagonal absolute
    row sum.
    """
    m, scale = kernel.as_sym(m, tol)
    a, _ = kernel.as_sym(a, tol)
    diag = np.diag(m)
    if diag.min() <= tol.scaled(scale):
        raise ZeroRowError("completely positive side has a vanishing diagonal entry")
    _require_orthogonal(m, a, tol)
    s = np.sqrt(diag)
    scaled = a * np.outer(s, s)
    thr = tol.scaled(np.abs(scaled).max(initial=0.0))
    rows = []
    for i in range(a.shape[0]):
        off = np.abs(scaled[i]).sum() - abs(scaled[i, i])
        rows.append(bool(scaled[i, i] <= off + thr))
    return AntiDdResult(scaled, tuple(rows))


def zero_diag_reduce(a, tol: Tolerance = DEFAULT_TOL) -> ZeroDiagReduction:
    """Strip the zero-diagonal indices of a copositive matrix.

    For an extreme copositive matrix with a negative entry, the rows and
    columns through its zero diagonal entries must vanish entirely;
    ``structure_ok`` tells whether they do.
    """
    a, scale = kernel.as_sym(a, tol)
    zero, structure_ok = _zero_diag(a, tol.scaled(scale))
    z_idx = tuple(int(i) for i in np.nonzero(zero)[0])
    return ZeroDiagReduction(a[np.ix_(~zero, ~zero)], z_idx, structure_ok)


def _zero_diag(a: np.ndarray, thr: float) -> tuple[np.ndarray, bool]:
    """Mask of the diagonal entries <= thr of ``a``; do their rows vanish?"""
    zero = np.diag(a) <= thr
    return zero, bool(np.abs(a[zero, :]).max(initial=0.0) <= thr)


def _horn_block_orbit(a: np.ndarray, thr: float, tol: Tolerance) -> OrbitWitness | None:
    """Horn-orbit witness of ``a`` less its zero-diagonal rows, which must vanish."""
    zero, structure_ok = _zero_diag(a, thr)
    if not structure_ok or np.count_nonzero(~zero) != 5:
        return None
    return horn_orbit_recognize(a[np.ix_(~zero, ~zero)], tol)


def horn_orbit_recognize(a, tol: Tolerance = DEFAULT_TOL) -> OrbitWitness | None:
    """Recognize membership of an order-5 matrix in the Horn orbit.

    The Horn matrix has unit diagonal, so the scaling is forced to
    d_i = sqrt(A_ii); all 120 permutations are swept and the first exact
    match (within tolerance) is returned, or ``None``.
    """
    a, scale = kernel.as_sym(a, tol)
    if a.shape[0] != 5:
        raise ValueError("Horn-orbit recognition is defined for order 5")
    thr = tol.scaled(scale)
    diag = np.diag(a)
    if diag.min() <= thr:
        return None
    d = np.sqrt(diag)
    h = special.horn_matrix()
    gram = np.outer(d, d)
    for perm in itertools.permutations(range(5)):
        p = np.array(perm)
        if np.abs(a - gram * h[np.ix_(p, p)]).max() <= thr:
            return OrbitWitness(d, p)
    return None


def _e12_recognize(a: np.ndarray, thr: float) -> OrbitWitness | None:
    """Recognize a matrix with exactly one positive symmetric off-diagonal
    pair and zeros elsewhere (the E12 orbit within symmetric matrices)."""
    n = a.shape[0]
    pos = np.argwhere(np.triu(a, 1) > thr)
    if len(pos) != 1:
        return None
    i, j = (int(pos[0][0]), int(pos[0][1]))
    pattern = np.zeros_like(a)
    pattern[i, j] = pattern[j, i] = a[i, j]
    if np.abs(a - pattern).max() > thr:
        return None
    d = np.ones(n)
    d[i] = d[j] = np.sqrt(a[i, j])
    perm = np.empty(n, dtype=int)
    perm[i], perm[j] = 0, 1
    rest = iter(range(2, n))
    for k in range(n):
        if k not in (i, j):
            perm[k] = next(rest)
    return OrbitWitness(d, perm)


def classify_rank12(a, tol: Tolerance = DEFAULT_TOL) -> ExtremeClass:
    """Classify a copositive matrix asserted to be extreme, by rank.

    Rank 1 must be PSD (a single squared vector), rank 2 must lie in the
    E12 orbit; higher ranks are recognized against the Horn orbit where the
    surviving block has order 5, and UNKNOWN_EXTREME_CLASS is the honest
    answer otherwise.
    """
    a, scale = kernel.as_sym(a, tol)
    verdict = is_copositive(a, tol)
    if verdict.answer is not Answer.IN:
        raise NotCopositiveError("matrix is not certified copositive")
    thr = tol.scaled(scale)
    w, q = kernel.eig_sym(a)
    rank = kernel._rank(w, tol)
    if rank <= 1:
        return ExtremeClass("PSD_RANK1", vector=np.sqrt(max(w[0], 0.0)) * q[:, 0])
    if rank == 2:
        witness = _e12_recognize(a, thr)
        if witness is not None:
            return ExtremeClass("E12_ORBIT", witness=witness)
        return ExtremeClass("UNKNOWN_EXTREME_CLASS")
    witness = _horn_block_orbit(a, thr, tol)
    if witness is not None:
        return ExtremeClass("HORN_ORBIT", witness=witness)
    if _negative_entry(a, scale, tol) is None and _one_positive_entry(a, thr):
        return ExtremeClass("NONNEG_EXTREME")
    return ExtremeClass("UNKNOWN_EXTREME_CLASS")


def nonneg_extreme_check(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the extreme pattern for nonnegative matrices: at most one
    positive entry on or above the diagonal (a squared basis vector, or an
    E12-orbit matrix)."""
    a, scale = kernel.as_sym(a, tol)
    if _negative_entry(a, scale, tol) is not None:
        raise NotNonnegativeError("matrix is not nonnegative")
    return _one_positive_entry(a, tol.scaled(scale))


def _one_positive_entry(a: np.ndarray, thr: float) -> bool:
    """Whether exactly one entry on or above the diagonal exceeds ``thr``."""
    return int(np.count_nonzero(a[np.triu_indices(a.shape[0])] > thr)) == 1


def rank3_witness_check(m, a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Consequence check for an extreme copositive matrix orthogonal to a
    positive nonsingular boundary matrix: rank at least 3 and no 2x2
    principal submatrix in the E12 orbit."""
    m, mscale = kernel.as_sym(m, tol)
    a, ascale = kernel.as_sym(a, tol)
    if m.min() <= tol.scaled(mscale):
        raise NotPositiveError("boundary matrix must be entrywise positive")
    n = m.shape[0]
    if kernel.num_rank(m, tol) != n:
        raise SingularError("boundary matrix must be nonsingular")
    _require_orthogonal(m, a, tol)
    if kernel.num_rank(a, tol) < 3:
        return False
    thr = tol.scaled(ascale)
    diag = np.diag(a)
    for i in range(n):
        for j in range(i + 1, n):
            if diag[i] <= thr and diag[j] <= thr and a[i, j] > thr:
                return False
    return True
