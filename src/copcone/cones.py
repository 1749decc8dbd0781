"""Certified membership tests for the matrix cones: nonnegative, PSD,
copositive, doubly nonnegative, plus the sufficient interior certificate for
complete positivity.

Every negative verdict carries a certificate that re-verifies with plain
arithmetic.  Copositivity is decided exactly: after deleting nonnegative
rows, the 1x1 (vertex) and 2x2 (edge) principal checks refute in closed form,
and otherwise one exact simplex minimization of the remaining block (an
active set if it is positive definite, a KKT enumeration if not) settles
the decision and supplies the boundary certificate.
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


def _kept_indices(a: np.ndarray, positive_diag: bool = False) -> np.ndarray:
    """Indices left after deleting, to a fixpoint, every index whose row is
    entrywise >= 0 on the indices still kept (and, with ``positive_diag``,
    whose diagonal entry is > 0)."""
    negative = a < 0
    droppable = np.diag(a) > 0 if positive_diag else np.ones(a.shape[0], dtype=bool)
    kept = np.ones(a.shape[0], dtype=bool)
    while True:
        drop = kept & droppable & ~negative[:, kept].any(axis=1)
        if not drop.any():
            return np.flatnonzero(kept)
        kept &= ~drop


def is_copositive(a, tol: Tolerance = DEFAULT_TOL) -> ConeVerdict:
    """Exact copositivity test: vertex and edge checks, then one enumeration.

    First every index whose row, restricted to the indices still kept, is
    entrywise >= 0 is deleted, until none is left (Hadeler 1983, LAA 49;
    Cottle-Habetler-Lemke 1970, LAA 3).  Such a row has a_ii >= 0 and cannot
    lower a negative simplex minimum, so A is copositive iff the principal
    submatrix B that remains is; the threshold still comes from the whole
    matrix, and certificates are zero-padded back to order n.

    On B, the most negative diagonal entry refutes at its vertex, and then
    the lowest edge minimum over the pairs with b_ij < 0 (the exact 2x2
    principal check) refutes at its minimizer.  Otherwise one call of
    ``kernel.simplex_form_min`` finds the exact minimum of the form on the
    simplex of B: by the active set with a strict KKT check when B is
    positive definite, by one KKT support enumeration otherwise.  It refutes
    with its minimizer, or decides IN and supplies the ``BoundaryZero`` when
    the minimum vanishes.  ``minimum`` is the smaller of the smallest
    diagonal entry of A and that exact minimum.  UNDECIDED means that B
    exceeds order 16, the limit of the enumeration.
    """
    a = kernel.as_sym(a, tol)
    n = a.shape[0]
    thr = tol.scaled(np.abs(a).max())
    keep = _kept_indices(a)
    b = a[np.ix_(keep, keep)]

    def pad(x):
        out = np.zeros(n)
        out[keep] = x
        return out

    def refute(x):
        return ConeVerdict("COPOSITIVE", Answer.NOT_IN, ViolationVector(pad(x), float(x @ b @ x)))

    minimum = float(np.diag(a).min())
    val = np.inf
    if keep.size:
        d = np.diag(b)
        i = int(np.argmin(d))
        if d[i] < -thr:
            return refute(np.eye(keep.size)[i])
        # Edge {i, j} minimum (b_ii b_jj - b_ij^2) / (b_ii + b_jj - 2 b_ij),
        # attained at x ~ (b_jj - b_ij, b_ii - b_ij) when both are >= 0.  A
        # pair with b_ij < 0 and a denominator <= 0 has all three entries in
        # [-thr, 0), so its form stays >= -thr and it can refute nothing.
        den = d[:, None] + d[None, :] - 2.0 * b
        with np.errstate(divide="ignore", invalid="ignore"):
            edge = (np.outer(d, d) - b * b) / den
        edge[~(np.triu(b < 0, 1) & (den > 0))] = np.inf
        i, j = np.unravel_index(np.argmin(edge), edge.shape)
        if np.isfinite(edge[i, j]):
            x = np.zeros(keep.size)
            x[[i, j]] = np.maximum([d[j] - b[i, j], d[i] - b[i, j]], 0.0)
            x /= x.sum()
            if x @ b @ x < -thr:
                return refute(x)
        if keep.size > kernel.ENUMERATION_MAX_ORDER:
            return ConeVerdict("COPOSITIVE", Answer.UNDECIDED)
        val, lam = kernel.simplex_form_min(b)
        if val < -thr:
            return refute(lam)
        minimum = min(minimum, float(val))
    certificate = None
    if abs(val) <= thr:
        certificate = BoundaryZero(pad(lam), float(val))
    elif abs(minimum) <= thr:
        # the remaining block has no zero: a deleted row has a_ii ~ 0
        i = int(np.argmin(np.diag(a)))
        certificate = BoundaryZero(np.eye(n)[i], float(a[i, i]))
    return ConeVerdict("COPOSITIVE", Answer.IN, certificate, minimum=minimum)


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
    if not keep.size:
        return []
    values, kept_lams = zip(*kernel.simplex_stationary_points(a[np.ix_(keep, keep)]))
    near = np.abs(values) <= thr
    lams = np.zeros((np.count_nonzero(near), a.shape[0]))
    lams[:, keep] = np.array(kept_lams)[near]
    # [A x]_k for every point, one gemv each as for a single vector
    grad = (a @ lams[:, :, None])[:, :, 0]
    stationary = ~((lams > thr) & (np.abs(grad) > thr)).any(axis=1)
    lams = lams[stationary]
    # The first point of each rounded-to-9 key, ordered by the rounded-to-12
    # key.  Python keys, not np.unique: few points are left here, and a
    # numpy sort maps its sorting code into memory on first use.
    first = {}
    for i, key in enumerate(map(tuple, np.round(lams, 9).tolist())):
        first.setdefault(key, i)
    order = np.round(lams, 12).tolist()
    return [lams[i] for i in sorted(first.values(), key=order.__getitem__)]


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
