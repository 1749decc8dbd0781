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
import math
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
    cert = _negative_entry(*kernel.as_sym(a, tol), tol)
    return ConeVerdict("NONNEG", Answer.NOT_IN if cert else Answer.IN, cert)


def _negative_entry(a, scale, tol) -> NegativeEntry | None:
    """The most negative entry of a validated ``a``, if it is below -thr."""
    i, j = np.unravel_index(np.argmin(a), a.shape)
    if a[i, j] < -tol.scaled(scale):
        return NegativeEntry(int(i), int(j), float(a[i, j]))
    return None


def is_psd(a, tol: Tolerance = DEFAULT_TOL) -> ConeVerdict:
    """Membership in the positive-semidefinite cone, with an eigenvector
    witness on failure."""
    cert = _psd_violation(*kernel.as_sym(a, tol), tol)
    return ConeVerdict("PSD", Answer.NOT_IN if cert else Answer.IN, cert)


def _psd_violation(a, scale, tol) -> ViolationVector | None:
    """An eigenvector witness w with w.T a w < 0 for a validated ``a``, if
    its least eigenvalue is below -thr."""
    w, q = kernel.eig_sym(a)
    if w[-1] >= -tol.scaled(scale):
        return None
    witness = q[:, -1]
    return ViolationVector(witness, float(witness @ a @ witness))


def _kept_indices(a: np.ndarray, positive_diag: bool = False) -> np.ndarray:
    """Indices left after deleting, to a fixpoint, every index whose row is
    entrywise >= 0 on the indices still kept (and, with ``positive_diag``,
    whose diagonal entry is > 0).

    For a symmetric ``a`` the first round is the fixpoint: a row kept for
    its a_ij < 0 keeps j too, whose row holds a_ji = a_ij.
    """
    kept = (a < 0).any(axis=1)
    if positive_diag:
        kept |= ~(a.diagonal() > 0)
    return np.flatnonzero(kept)


def is_copositive(a, tol: Tolerance = DEFAULT_TOL) -> ConeVerdict:
    """Exact copositivity test: vertex and edge checks, then one enumeration.

    The input is validated once, and the threshold comes from the scale
    found by that pass.  Then every index whose row, restricted to the
    indices still kept, is entrywise >= 0 is deleted, until none is left
    (Hadeler 1983, LAA 49; Cottle-Habetler-Lemke 1970, LAA 3).  Such a row
    has a_ii >= 0 and cannot lower a negative simplex minimum, so A is
    copositive iff the principal submatrix B that remains is; the threshold
    still comes from the whole matrix, and certificates are zero-padded
    back to order n.

    On B, the most negative diagonal entry refutes at its vertex, and then
    the lowest edge minimum over the negative pairs b_ij < 0, i < j (the
    exact 2x2 principal check; the other pairs cannot refute) refutes at
    its minimizer, the first such pair in row-major order winning a tie.
    Otherwise one call of ``kernel.simplex_form_min`` finds the exact
    minimum of the form on the simplex of B: by the active set with a
    strict KKT check when B is positive definite, by one KKT support
    enumeration otherwise.  It refutes with its minimizer, or decides IN
    and supplies the ``BoundaryZero`` when the minimum vanishes.
    ``minimum``, reported on IN answers only, is the smaller of the
    smallest diagonal entry of A and that exact minimum.  UNDECIDED means
    that B exceeds order 16, the limit of the enumeration.
    """
    a, scale = kernel.as_sym(a, tol)
    n = a.shape[0]
    thr = tol.scaled(scale)
    keep = _kept_indices(a)
    k = keep.size
    b = a[keep[:, None], keep]

    def pad(x):
        out = np.zeros(n)
        out[keep] = x
        return out

    def refute(x, value):
        return ConeVerdict("COPOSITIVE", Answer.NOT_IN, ViolationVector(pad(x), float(value)))

    val = np.inf
    if k:
        d = b.diagonal()
        i = int(d.argmin())
        if d[i] < -thr:
            x = np.zeros(k)
            x[i] = 1.0
            return refute(x, d[i])  # x @ b @ x, exactly
        # Edge {i, j} minimum (b_ii b_jj - b_ij^2) / (b_ii + b_jj - 2 b_ij),
        # attained at x ~ (b_jj - b_ij, b_ii - b_ij) when both are >= 0.  A
        # pair with b_ij < 0 and a denominator <= 0 has all three entries in
        # [-thr, 0), so its form stays >= -thr and it can refute nothing.
        rows, cols = np.nonzero(b < 0)
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        bij = b[rows, cols]
        di, dj = d[rows], d[cols]
        den = di + dj - 2.0 * bij
        edge = np.divide(di * dj - bij * bij, den, out=np.full(bij.size, np.inf), where=den > 0)
        if edge.size:
            p = int(edge.argmin())
            if math.isfinite(edge[p]):
                i, j, bij = rows[p], cols[p], bij[p]
                x = np.zeros(k)
                x[i] = max(d[j] - bij, 0.0)
                x[j] = max(d[i] - bij, 0.0)
                x /= x[i] + x[j]
                value = x @ b @ x
                if value < -thr:
                    return refute(x, value)
        if k > kernel.ENUMERATION_MAX_ORDER:
            return ConeVerdict("COPOSITIVE", Answer.UNDECIDED)
        val, lam = kernel.simplex_form_min(b)
        if val < -thr:
            return refute(lam, lam @ b @ lam)
    minimum = min(float(a.diagonal().min()), float(val))
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
    a, scale = kernel.as_sym(a, tol)
    verdict = is_copositive(a, tol)
    if verdict.answer is not Answer.IN:
        raise NotCopositiveError("matrix is not certified copositive")
    thr = tol.scaled(scale)
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
    """Doubly nonnegative test: entrywise nonnegative and PSD, both checked
    on one validation of ``m``.

    A cheap necessary condition for complete positivity.
    """
    a, scale = kernel.as_sym(m, tol)
    cert = _negative_entry(a, scale, tol) or _psd_violation(a, scale, tol)
    return ConeVerdict("DNN", Answer.NOT_IN if cert else Answer.IN, cert)


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
