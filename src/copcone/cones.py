"""Certified membership tests for the matrix cones: nonnegative, PSD,
copositive, doubly nonnegative, plus the sufficient interior certificate for
complete positivity.

Every negative verdict carries a certificate that re-verifies with plain
arithmetic.  Copositivity is decided exactly, in stages, by
:func:`is_copositive`, whose docstring gives the stages, their order and the
routes; :func:`_worst_triple` and :func:`_horn_cycle` are its triple and
Horn checks.
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
    i, j = divmod(int(a.argmin()), a.shape[1])
    if a[i, j] < -tol.scaled(scale):
        return NegativeEntry(i, j, float(a[i, j]))
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


def is_copositive(a, tol: Tolerance = DEFAULT_TOL) -> ConeVerdict:
    """Exact copositivity test in stages: vertex, edge, Horn, Cholesky (then
    the pivoting) or triple, then one exact simplex minimization (the walk).

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
    its minimizer.  That check is one loop over the pairs in row-major
    order on Python floats, and a strict comparison lets the first minimum
    win a tie.  It is O(k^2) Python operations, not a dozen numpy calls of
    fixed cost: up to order 12, the benchmark corpora's largest, the loop is
    the faster.

    An order-5 B then gets the Horn check (see :func:`_horn_cycle`): when
    B = D S D + E, S a permuted Horn matrix, D = diag(sqrt(b_pp)) and every
    |E_pq| <= thr, then on the simplex x'Bx >= -thr (1 - sum x_i^2) > -thr,
    as the Horn form is >= 0, so B is copositive within the threshold, and
    no triple can refute it (on a triple face the bound is -2 thr / 3).  One
    ``kernel.simplex_form_min`` call with the five masks of the cycle's
    edges, the negative pairs, gives the least point of those faces, each
    the walk's point for its mask bit for bit; it is within 2 thr of the
    simplex minimum.

    Any other B gets one ``np.linalg.cholesky`` call, and its verdict picks
    the route; the kernel does not test B again.  If it accepts B, B is
    strictly copositive and ``kernel._convex_form_min``, block principal
    pivoting, gives the minimum at any order: the last pivoting step's
    point, which meets the KKT conditions within roundoff, and its form
    value, the walk's minimum up to roundoff (not bit for bit).  If it
    rejects B, the triple check follows (3 is the last order with a
    closed-form test, Hadeler 1983; a block of order 2 has no triple): over
    the triples with two or more negative pairs, the one whose face has the
    lowest interior stationary value below -thr (see :func:`_worst_triple`)
    gets one ``kernel.simplex_form_min`` call on its 3x3 principal block
    with ``supports=[0b111]``, which solves that face alone, and the
    zero-padded stationary point refutes if its form on B is below -thr.
    Every vertex and edge of the triple is >= -thr and the face's
    closed-form value is below it, so that point is the block's simplex
    minimum, the one a walk over all seven supports would return; a face
    without a stationary point (``None``) refutes nothing.

    Then the order gate, for a B that got neither minimum (Cholesky
    rejected it, or the pivoting, which settles on exact face ties too,
    gave ``None``, which no known input makes it do): UNDECIDED means that
    B exceeds order 16, the limit of the enumeration, is indefinite, and no
    vertex, edge or triple of it refutes.
    Past the gate, ``kernel.simplex_form_min``, the walk over every face,
    gives the exact minimum.  The point found refutes with its value below
    -thr, or decides IN and supplies the ``BoundaryZero`` when that value
    vanishes.  ``minimum``, reported on IN answers only, is the smaller of
    the smallest diagonal entry of A and that value.
    """
    a, scale = kernel.as_sym(a, tol)
    n = a.shape[0]
    thr = tol.scaled(scale)
    # one round is the fixpoint: a row kept for its a_ij < 0 keeps j, whose row holds a_ji
    keep = np.flatnonzero((a < 0).any(axis=1))
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
        x = np.zeros(k)  # the point of the vertex, edge and triple checks
        d = b.diagonal()
        i = int(d.argmin())
        if d[i] < -thr:
            x[i] = 1.0
            return refute(x, d[i])  # x @ b @ x, exactly
        # Edge {p, q} minimum (b_pp b_qq - b_pq^2) / (b_pp + b_qq - 2 b_pq),
        # attained at x ~ (b_qq - b_pq, b_pp - b_pq) when both are >= 0.  A
        # pair with b_pq < 0 and a denominator <= 0 has all three entries in
        # [-thr, 0), so its form stays >= -thr and it can refute nothing.
        # Each Python float operation rounds as numpy's elementwise one does,
        # so the edge values keep their bits.
        rows = b.tolist()
        nbrs = [[] for _ in rows]  # the negative pairs, for the triple check
        best = math.inf
        for p, row in enumerate(rows):
            bpp = row[p]
            for q in range(p + 1, k):
                bpq = row[q]
                if bpq < 0:
                    nbrs[p].append(q)
                    nbrs[q].append(p)
                    bqq = rows[q][q]
                    den = bpp + bqq - 2.0 * bpq
                    if den > 0:
                        edge = (bpp * bqq - bpq * bpq) / den
                        if edge < best:  # strict: the first pair wins a tie
                            best, i, j, bij = edge, p, q, bpq
        if best < math.inf:
            x[i] = max(rows[j][j] - bij, 0.0)
            x[j] = max(rows[i][i] - bij, 0.0)
            x /= x[i] + x[j]
            value = x @ b @ x
            if value < -thr:
                return refute(x, value)
        # a cycle means B = D S D + E, S a permuted Horn matrix and
        # |E_pq| <= thr, so x'Bx >= -thr (1 - sum x_i^2) > -thr: no triple
        # or walk can refute
        cycle = k == 5 and _horn_cycle(rows, nbrs, thr)
        found = None
        if cycle:
            found = kernel.simplex_form_min(b, [1 << cycle[i - 1] | 1 << cycle[i] for i in range(5)])
        else:
            try:
                np.linalg.cholesky(b)
            except np.linalg.LinAlgError:
                triple = _worst_triple(rows, nbrs, thr)
                if triple is not None:
                    idx = np.array(triple)
                    face = kernel.simplex_form_min(b[idx[:, None], idx], [0b111])
                    if face is not None:
                        x[:] = 0.0
                        x[idx] = face[1]
                        value = x @ b @ x
                        if value < -thr:
                            return refute(x, value)
            else:
                found = kernel._convex_form_min(b)
        if found is None:  # no Horn cycle, and Cholesky rejected B (or the pivoting failed)
            if k > kernel.ENUMERATION_MAX_ORDER:
                return ConeVerdict("COPOSITIVE", Answer.UNDECIDED)
            found = kernel.simplex_form_min(b)
        val, lam = found
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


def _worst_triple(rows, nbrs, thr):
    """The principal triple (i, j, l), i < j < l, of the block ``rows`` (a
    list of row lists) whose face has the lowest interior stationary value
    below -thr, the first in lexicographic order on ties; ``None`` if none
    is below it.

    Only the triples with two or more negative pairs are scanned, the paths
    p - q - r of the graph joining p and q when b_pq < 0, p != q; ``nbrs[q]``
    lists the neighbours of q in that graph in increasing order.  On any other
    triple some vertex r has a coupling >= 0 to the rest, so the form at
    t y + (1 - t) e_r is never below the least of 0 and its values at y
    and e_r: a negative face minimum there is a vertex's or an edge's,
    which the earlier checks have seen.

    The stationary point is x ~ adj(B_T) 1, since B_T adj(B_T) = det(B_T) I,
    kept when its three entries have one sign.  Its form value is summed
    from x on Python floats, not taken as det / (1' adj 1), whose product
    of three entries can overflow.
    """
    best, found = -thr, ()
    for q, around in enumerate(nbrs):
        for s, p in enumerate(around):
            for r in around[s + 1:]:  # p < r
                if q > p and rows[p][r] < 0:
                    continue  # a triangle is scanned once, from its least index
                i, j, l = (q, p, r) if q < p else (p, q, r) if q < r else (p, r, q)
                bi, bj, bl = rows[i], rows[j], rows[l]
                a, d, f, u, v, w = bi[i], bj[j], bl[l], bi[j], bi[l], bj[l]
                cij, cil, cjl = v * w - u * f, u * w - v * d, u * v - a * w
                yi = (d * f - w * w) + cij + cil
                yj = cij + (a * f - v * v) + cjl
                yl = cil + cjl + (a * d - u * u)
                total = yi + yj + yl
                if not total:
                    continue
                xi, xj, xl = yi / total, yj / total, yl / total
                if xi > 0 and xj > 0 and xl > 0:
                    value = (a * xi * xi + d * xj * xj + f * xl * xl
                             + 2.0 * (u * xi * xj + v * xi * xl + w * xj * xl))
                    if value < best or value == best and (i, j, l) < found:
                        best, found = value, (i, j, l)
    return found or None


def _horn_cycle(rows, nbrs, thr):
    """The indices of the negative 5-cycle of the order-5 block ``rows`` in
    cycle order, from 0 to its lesser neighbour on, when the block lies
    within ``thr`` of the Horn orbit, else ``None``: the one Horn-orbit
    test, :func:`copcone.extremal.horn_orbit_recognize` included.

    The block is accepted when every b_pp > thr, every index has exactly two
    negative neighbours in ``nbrs`` (so the negative graph is a 5-cycle),
    and every off-diagonal entry is -d_p d_q on the cycle and +d_p d_q off
    it within ``thr``, with d_p = sqrt(b_pp).  Where d_p d_q > thr, a Horn
    pattern within ``thr`` must put its -1 entries on the negative pairs.
    """
    if any(len(around) != 2 for around in nbrs):
        return None
    if not all(row[p] > thr for p, row in enumerate(rows)):
        return None
    d = [math.sqrt(row[p]) for p, row in enumerate(rows)]
    for p, row in enumerate(rows):
        for q in range(p + 1, 5):
            dpq = d[p] * d[q]
            if abs(row[q] + dpq if q in nbrs[p] else row[q] - dpq) > thr:
                return None
    cycle = [0, nbrs[0][0]]
    while len(cycle) < 5:  # the next index is the neighbour not just left
        cycle.append(sum(nbrs[cycle[-1]]) - cycle[-2])
    return cycle


def copositive_boundary_zeros(a, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Unit-simplex zeros of the quadratic form of a copositive matrix.

    Each returned x satisfies x >= 0, ||x||_1 = 1, |x.T A x| <= thr and
    |[A x]_k| <= thr for every k in the support of x, where
    thr = tol.scaled(max|a_ij|).  Zeros are collected from the KKT
    stationary points of every support set; where the zero set is a
    continuum, one representative per support is returned.  Points whose
    weights agree when rounded to 9 digits are one zero, the first of them
    kept: the enumeration can yield a subface's point again under a larger
    mask, with other last bits, and the rounded keys merge such copies.

    Only the indices that can carry a zero are enumerated: an index whose row
    is entrywise >= 0 on the indices kept and whose a_ii > 0 is deleted, to a
    fixpoint, because at a zero x, [A x]_i = 0 on supp(x) while such a row
    gives [A x]_i >= a_ii x_i > 0.  Points are zero-padded back to order n.
    So Horn plus an identity block of order 12 (order 17) is enumerated on
    its Horn block and gives the ten Horn zeros.

    Raises :class:`NotCopositiveError` unless :func:`is_copositive` answers
    ``IN``, and the kernel's ``ValueError`` ("support enumeration is limited
    to order 16") when more than 16 indices are kept: zero-diagonal rows
    stay, so Horn plus a zero block of order 12 (order 17), which
    :func:`is_copositive` certifies ``IN``, raises it.
    """
    a, scale = kernel.as_sym(a, tol)
    if is_copositive(a, tol).answer is not Answer.IN:
        raise NotCopositiveError("matrix is not certified copositive")
    thr = tol.scaled(scale)
    keep = np.flatnonzero((a < 0).any(axis=1) | ~(a.diagonal() > 0))
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
    thr = tol.scaled(v.scale)
    rank = kernel.num_rank(v.product(), tol)
    if rank != v.n:
        return None
    positive = np.flatnonzero(v.v.min(axis=0) > thr)
    return InteriorCertificate(v, int(positive[0]), rank) if positive.size else None
