"""Extreme-ray structure tools: orbit recognition under positive diagonal
scaling and permutation, rank-based classification of extreme copositive
matrices, and the orthogonality, anti-diagonal-dominance and rank-3 witness
checks for orthogonal cone pairs.

Extremality of a general copositive matrix is never decided here; the
classification operations take it as a caller assertion and verify only its
checkable consequences.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import kernel
from .cones import Answer, _horn_cycle, is_copositive
from .errors import NotCopositiveError, NotOrthogonalError, ZeroRowError
from .kernel import DEFAULT_TOL, Tolerance

__all__ = [
    "OrbitWitness",
    "ExtremeClass",
    "OrthColumnResult",
    "AntiDdResult",
    "PASS",
    "SKIP",
    "FAIL",
    "orth_column_check",
    "orth_nullspace_check",
    "anti_dd_check",
    "classify_rank12",
    "horn_orbit_recognize",
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
    tag: str  # PSD_RANK1 | E12_ORBIT | HORN_ORBIT | UNKNOWN_EXTREME_CLASS
    witness: OrbitWitness | None = None
    vector: np.ndarray | None = None  # rank-1 case: A = vector vector^T


@dataclass(frozen=True)
class OrthColumnResult:
    defect: float
    passed: bool


@dataclass(frozen=True)
class AntiDdResult:
    rows: tuple[bool, ...]

    @property
    def all_pass(self) -> bool:
        return all(self.rows)


def _orthogonal_pair(m, a, tol: Tolerance):
    """Validate M and A, of one order with |<M, A>| within the tolerance of
    the gauge ||M|| ||A||; return ``(m, mscale, a, ascale, gauge)``."""
    m, mscale = kernel.as_sym(m, tol)
    a, ascale = kernel.as_sym(a, tol)
    if m.shape != a.shape:
        raise ValueError(f"matrix orders differ: {m.shape[0]} and {a.shape[0]}")
    gauge = np.linalg.norm(m) * np.linalg.norm(a)
    if abs(float(np.sum(m * a))) > tol.scaled(gauge):
        raise NotOrthogonalError("matrices are not orthogonal within tolerance")
    return m, mscale, a, ascale, gauge


def orth_column_check(m, a, tol: Tolerance = DEFAULT_TOL) -> OrthColumnResult:
    """Column orthogonality of an orthogonal pair: for a completely positive
    M orthogonal to a copositive A, matching columns of M and A are
    orthogonal.  Returns the maximum diagonal defect max_i |(M A)_ii|."""
    m, _, a, _, gauge = _orthogonal_pair(m, a, tol)
    defect = float(np.abs(np.diag(m @ a)).max())
    return OrthColumnResult(defect, bool(defect <= tol.scaled(gauge)))


def orth_nullspace_check(m, a, v, i: int, tol: Tolerance = DEFAULT_TOL) -> str:
    """Nullspace condition of an orthogonal pair: if coordinate i is in the
    support of every factor column, column i of A lies in the nullspace of M.

    Returns PASS/FAIL when the support hypothesis holds, as it does vacuously
    for a factor with no columns, and SKIP otherwise.  A
    factor of another order than M, or an i outside [0, n), is a ValueError;
    an i that is not an integer is a TypeError.
    """
    m, mscale, a, ascale, _ = _orthogonal_pair(m, a, tol)
    n = m.shape[0]
    if v.n != n:
        raise ValueError(f"factor order {v.n} differs from matrix order {n}")
    i = operator.index(i)  # a bool indexes as the integer, not as a mask
    if not 0 <= i < n:
        raise ValueError(f"index {i} is outside [0, {n})")
    if not np.all(v.v[i, :] > tol.scaled(v.scale)):
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
    m, scale, a, _, _ = _orthogonal_pair(m, a, tol)
    diag = np.diag(m)
    if diag.min() <= tol.scaled(scale):
        raise ZeroRowError("completely positive side has a vanishing diagonal entry")
    s = np.sqrt(diag)
    scaled = a * np.outer(s, s)
    thr = tol.scaled(np.abs(scaled).max(initial=0.0))
    d = np.diag(scaled)
    off = np.abs(scaled).sum(axis=1) - np.abs(d)
    return AntiDdResult(tuple((d <= off + thr).tolist()))


def _horn_block_orbit(a: np.ndarray, thr: float, tol: Tolerance) -> OrbitWitness | None:
    """Horn-orbit witness of a validated ``a`` less its zero-diagonal rows,
    those with a_ii <= thr, which must vanish: in an extreme copositive
    matrix with a negative entry the rows through a zero diagonal entry do."""
    zero = np.diag(a) <= thr
    if np.abs(a[zero]).max(initial=0.0) > thr or np.count_nonzero(~zero) != 5:
        return None
    return horn_orbit_recognize(a[np.ix_(~zero, ~zero)], tol)


def horn_orbit_recognize(a, tol: Tolerance = DEFAULT_TOL) -> OrbitWitness | None:
    """Recognize membership of an order-5 matrix in the Horn orbit.

    The scaling is forced to d_i = sqrt(A_ii), and ``cones._horn_cycle``
    finds the negative 5-cycle c_0 = 0, c_1, ..., c_4 that the Horn matrix's
    -1 entries 0-1-2-3-4 must match; |A_ii - d_i^2| <= thr is checked too.
    Of the ten permutations p_{c_k} = +-k mod 5 that fit, the least, the one
    with the smaller p_1, is returned, or ``None``.
    """
    a, scale = kernel.as_sym(a, tol)
    if a.shape[0] != 5:
        raise ValueError("Horn-orbit recognition is defined for order 5")
    thr = tol.scaled(scale)
    diag = np.diag(a)
    if diag.min() <= thr:
        return None
    rows = a.tolist()
    # the diagonal is positive, so a row's negative entries are off it
    cycle = _horn_cycle(rows, [[q for q, x in enumerate(row) if x < 0] for row in rows], thr)
    d = np.sqrt(diag)
    if cycle is None or np.abs(diag - d * d).max() > thr:
        return None
    # sorted, not np.argsort: a numpy sort maps its code into memory on first use
    pos = np.array(sorted(range(5), key=cycle.__getitem__))
    return OrbitWitness(d, pos if pos[1] < 3 else -pos % 5)


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
    # i, j go to 0, 1 and the other indices, in order, to 2..n-1
    perm = np.argsort(np.r_[i, j, np.delete(np.arange(n), [i, j])])
    return OrbitWitness(d, perm)


def classify_rank12(a, tol: Tolerance = DEFAULT_TOL) -> ExtremeClass:
    """Classify a copositive matrix asserted to be extreme, by rank.

    Rank 1 must be PSD (a single squared vector), rank 2 must lie in the
    E12 orbit; higher ranks are recognized against the Horn orbit where the
    surviving block has order 5, and UNKNOWN_EXTREME_CLASS is the honest
    answer otherwise.  No nonnegative matrix of rank 3 or more is extreme
    (the nonnegative extreme rays are E_ii and E_ij + E_ji, Hall-Newman).
    """
    a, scale = kernel.as_sym(a, tol)
    if is_copositive(a, tol).answer is not Answer.IN:
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
    return ExtremeClass("UNKNOWN_EXTREME_CLASS")


def rank3_witness_check(m, a, tol: Tolerance = DEFAULT_TOL) -> str:
    """Consequence check for an extreme copositive matrix orthogonal to a
    positive nonsingular boundary matrix: rank at least 3 and no 2x2
    principal submatrix in the E12 orbit.

    Returns PASS/FAIL when M is entrywise positive and nonsingular, and SKIP
    otherwise.
    """
    m, mscale, a, ascale, _ = _orthogonal_pair(m, a, tol)
    if m.min() <= tol.scaled(mscale) or kernel.num_rank(m, tol) != m.shape[0]:
        return SKIP
    if kernel.num_rank(a, tol) < 3:
        return FAIL
    thr = tol.scaled(ascale)
    zero = np.diag(a) <= thr
    # an E12-orbit 2x2 block: a positive pair between two zero diagonal entries
    return FAIL if (a[np.ix_(zero, zero)] > thr).any() else PASS
