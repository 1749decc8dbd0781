"""Certified membership tests for the matrix cones: nonnegative, PSD,
copositive, doubly nonnegative, plus the sufficient interior certificate for
complete positivity.

Every negative verdict carries a certificate that re-verifies with plain
arithmetic.  Copositivity is decided by simplicial bisection of the standard
simplex as a vertex pre-filter; the first cell that survives it triggers one
exact KKT enumeration of the whole simplex, which settles the decision and
supplies the boundary certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import NotCopositiveError
from .kernel import DEFAULT_TOL, Tolerance

__all__ = [
    "Answer",
    "ConeVerdict",
    "NegativeEntry",
    "ViolationVector",
    "BoundaryZero",
    "InteriorCertificate",
    "is_nonneg",
    "is_psd",
    "is_copositive",
    "copositive_boundary_zeros",
    "is_dnn",
    "cp_interior_certificate",
]


class Answer(str, enum.Enum):
    IN = "IN"
    NOT_IN = "NOT_IN"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class NegativeEntry:
    """Most negative entry of a matrix failing the nonnegativity test."""

    i: int
    j: int
    value: float


@dataclass(frozen=True)
class ViolationVector:
    """Vector x >= 0, ||x||_1 = 1, with x.T A x < 0."""

    x: np.ndarray
    value: float


@dataclass(frozen=True)
class BoundaryZero:
    """Simplex point where the quadratic form of a copositive matrix vanishes."""

    x: np.ndarray
    value: float


@dataclass(frozen=True)
class InteriorCertificate:
    """Sufficient certificate for the interior of the completely positive
    cone: a rank-n nonnegative factor with an entrywise positive column."""

    factor: object  # NonnegFactor
    positive_column_index: int
    rank: int


@dataclass(frozen=True)
class ConeVerdict:
    cone: str
    answer: Answer
    certificate: object = None
    minimum: float | None = field(default=None)


def is_nonneg(a, tol: Tolerance = DEFAULT_TOL) -> ConeVerdict:
    """Membership in the cone of entrywise nonnegative symmetric matrices."""
    a = kernel.as_sym(a, tol)
    thr = tol.scaled(np.abs(a).max())
    i, j = np.unravel_index(np.argmin(a), a.shape)
    if a[i, j] < -thr:
        return ConeVerdict("NONNEG", Answer.NOT_IN, NegativeEntry(int(i), int(j), float(a[i, j])))
    return ConeVerdict("NONNEG", Answer.IN)


def is_psd(a, tol: Tolerance = DEFAULT_TOL) -> ConeVerdict:
    """Membership in the positive-semidefinite cone, with an eigenvector
    witness on failure."""
    a = kernel.as_sym(a, tol)
    ok, witness = kernel.psd_check(a, tol)
    if ok:
        return ConeVerdict("PSD", Answer.IN)
    value = float(witness @ a @ witness)
    return ConeVerdict("PSD", Answer.NOT_IN, ViolationVector(witness, value))


# Depth at which the vertex pre-filter gives up: the first cell that reaches
# it unsettled triggers the exact KKT enumeration of the whole simplex, which
# decides every cell at once.  Cells on the cone boundary (zero minimum) are
# never settled by vertex tests alone, so this keeps boundary inputs fast.
_KKT_DEPTH = 3


def _kept_indices(a: np.ndarray, positive_diag: bool = False) -> np.ndarray:
    """Indices left after deleting, to a fixpoint, every index whose row is
    entrywise >= 0 on the indices still kept (and, with ``positive_diag``,
    whose diagonal entry is > 0)."""
    keep = np.arange(a.shape[0])
    while keep.size:
        sub = a[np.ix_(keep, keep)]
        drop = (sub >= 0).all(axis=1)
        if positive_diag:
            drop &= np.diag(sub) > 0
        if not drop.any():
            break
        keep = keep[~drop]
    return keep


def is_copositive(a, tol: Tolerance = DEFAULT_TOL, max_depth: int = 40) -> ConeVerdict:
    """Copositivity test by simplicial partition of the standard simplex.

    First every index whose row, restricted to the indices still kept, is
    entrywise >= 0 is deleted, until none is left (Hadeler 1983, LAA 49;
    Cottle-Habetler-Lemke 1970, LAA 3).  Such a row has a_ii >= 0 and cannot
    lower a negative simplex minimum, so A is copositive iff the principal
    submatrix that remains is; the threshold still comes from the whole
    matrix, and certificates are zero-padded back to order n.  The order-16
    limit of the exact enumeration applies to the order left after this.

    On what remains, a cell with vertex matrix U is pruned when all entries
    of U.T A U clear the -tol threshold (the form is then certified above
    -tol on the cell), refuted when a vertex value drops below it, and
    otherwise bisected along its longest edge.  The first cell that survives
    to a fixed shallow depth ends the bisection: one KKT support enumeration
    of the whole remaining simplex yields the KKT points of every face, so
    its minimum is exact for every cell, explored or not.  It refutes with
    its minimizer, or decides IN and supplies the ``BoundaryZero``, so a
    call enumerates at most once.  ``minimum`` is then that exact minimum
    (or a smaller diagonal entry of a deleted row); when the vertex tests
    settle every cell it is the smallest vertex value seen.  UNDECIDED is only possible when ``max_depth``
    undercuts the resolution depth.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    a = kernel.as_sym(a, tol)
    n = a.shape[0]
    thr = tol.scaled(np.abs(a).max())
    keep = _kept_indices(a)
    b = a[np.ix_(keep, keep)]
    k = keep.size

    def pad(x):
        out = np.zeros(n)
        out[keep] = x
        return out

    min_seen = float(np.diag(a).min())
    undecided = False
    exact = None  # (val, lam) of the one whole-simplex enumeration
    stack = [(np.eye(k), 0)] if k else []
    while stack:
        u, depth = stack.pop()
        q = u.T @ b @ u
        q = 0.5 * (q + q.T)
        diag = np.diag(q)
        i = int(np.argmin(diag))
        if diag[i] < -thr:
            return ConeVerdict(
                "COPOSITIVE", Answer.NOT_IN, ViolationVector(pad(u[:, i]), float(diag[i]))
            )
        min_seen = min(min_seen, float(diag[i]))
        if q.min() >= -thr:
            continue  # form >= -thr on the whole cell
        if depth >= _KKT_DEPTH:
            val, lam = exact = kernel.simplex_form_min(b)
            if val < -thr:
                return ConeVerdict(
                    "COPOSITIVE", Answer.NOT_IN, ViolationVector(pad(lam), float(lam @ b @ lam))
                )
            min_seen = min(min_seen, float(val))
            break  # the enumeration covered every cell
        if depth >= max_depth:
            undecided = True
            continue
        # Bisect the longest edge, lowest vertex pair first on ties.
        best = (-1.0, 0, 1)
        for p in range(k - 1):
            for r in range(p + 1, k):
                d = float(np.abs(u[:, p] - u[:, r]).sum())
                if d > best[0] + 1e-15:
                    best = (d, p, r)
        _, p, r = best
        mid = 0.5 * (u[:, p] + u[:, r])
        child1 = u.copy()
        child1[:, p] = mid
        child2 = u.copy()
        child2[:, r] = mid
        stack.append((child2, depth + 1))
        stack.append((child1, depth + 1))
    if undecided:
        return ConeVerdict("COPOSITIVE", Answer.UNDECIDED, minimum=min_seen)
    certificate = None
    if abs(min_seen) <= thr:
        # boundary matrix: record one vanishing point of the form
        val = np.inf
        if k:
            val, lam = exact or kernel.simplex_form_min(b)
            x = pad(lam)
        if abs(val) > thr:
            # the remaining block has no zero: a deleted row has a_ii ~ 0
            i = int(np.argmin(np.diag(a)))
            x, val = np.eye(n)[i], a[i, i]
        if abs(val) <= thr:
            certificate = BoundaryZero(x, float(val))
            min_seen = min(min_seen, float(val))
    return ConeVerdict("COPOSITIVE", Answer.IN, certificate, minimum=min_seen)


def copositive_boundary_zeros(a, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Unit-simplex zeros of the quadratic form of a copositive matrix.

    Each returned x satisfies x >= 0, ||x||_1 = 1, |x.T A x| <= tol and
    |[A x]_k| <= tol for every k in the support of x.  Zeros are collected
    from the KKT stationary points of every support set; where the zero set
    is a continuum, one representative per support is returned.

    Only the indices that can carry a zero are enumerated: an index whose row
    is entrywise >= 0 on the indices kept and whose a_ii > 0 is deleted, to a
    fixpoint, because at a zero x, [A x]_i = 0 on supp(x) while such a row
    gives [A x]_i >= a_ii x_i > 0.  Points are zero-padded back to order n.
    """
    a = kernel.as_sym(a, tol)
    verdict = is_copositive(a, tol)
    if verdict.answer is not Answer.IN:
        raise NotCopositiveError("matrix is not certified copositive")
    thr = tol.scaled(np.abs(a).max())
    keep = _kept_indices(a, positive_diag=True)
    zeros = []
    seen = set()
    if not keep.size:
        return zeros
    for val, kept_lam in kernel.simplex_stationary_points(a[np.ix_(keep, keep)]):
        lam = np.zeros(a.shape[0])
        lam[keep] = kept_lam
        if abs(val) > thr:
            continue
        support = lam > thr
        if np.abs((a @ lam)[support]).max(initial=0.0) > thr:
            continue
        key = tuple(np.round(lam, 9))
        if key in seen:
            continue
        seen.add(key)
        zeros.append(lam)
    zeros.sort(key=lambda x: tuple(np.round(x, 12)))
    return zeros


def is_dnn(m, tol: Tolerance = DEFAULT_TOL) -> ConeVerdict:
    """Doubly nonnegative test: entrywise nonnegative and PSD.

    A cheap necessary condition for complete positivity.
    """
    nn = is_nonneg(m, tol)
    if nn.answer is Answer.NOT_IN:
        return ConeVerdict("DNN", Answer.NOT_IN, nn.certificate)
    psd = is_psd(m, tol)
    if psd.answer is Answer.NOT_IN:
        return ConeVerdict("DNN", Answer.NOT_IN, psd.certificate)
    return ConeVerdict("DNN", Answer.IN)


def cp_interior_certificate(v, tol: Tolerance = DEFAULT_TOL) -> InteriorCertificate | None:
    """Sufficient interior-of-CP certificate from a nonnegative factor.

    Succeeds iff the factor has full row rank n and some column is entrywise
    positive; returns ``None`` (not proven) otherwise.
    """
    cols = np.asarray(v.v, dtype=float)
    n = cols.shape[0]
    thr = tol.scaled(cols.max(initial=0.0))
    rank = kernel.num_rank(cols @ cols.T, tol)
    if rank != n:
        return None
    for j in range(cols.shape[1]):
        if cols[:, j].min() > thr:
            return InteriorCertificate(v, j, rank)
    return None
