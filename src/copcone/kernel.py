"""Dense numerical kernel for small symmetric matrices.

Eigendecomposition (LAPACK ``eigh``), pivoted Cholesky, numerical rank,
exact quadratic-form minimization over the standard simplex, and a
feasibility test for ``A x = b, x >= 0``.  Orders are small (n <= ~12), so
robustness and high relative accuracy come first.  The feasibility test
takes linearly independent columns and solves the normal equations on a
support that shrinks to the positive weights.  Speed matters in one place, the
exact simplex minimization.  The walk enumerates all 2**n - 1 supports
and solves their KKT systems in stacked LAPACK calls, one per support size.
The integer layout of that walk (per support size, the masks' positions and
member indices) is built once per order and cached.  The enumeration yields
its points in increasing mask order, with the values a
one-support-at-a-time loop gives, bit for bit, and ``simplex_form_min`` is
its first least point.  A face's point need not lie in its relative
interior: a weight in [-1e-10, 0) is clipped to 0, so a subface's point
can come again under a larger mask, with the same weights or weights that
differ in their last bits.  One full enumeration at order 16, the largest,
peaks at 72 MB of RSS, the interpreter and numpy included.  Given a list
of support bitmasks (bit i for index i), the walk solves only those faces,
in the same stacked calls, and each point it yields is the full walk's
point for that mask, bit for bit.  A positive definite form is convex on
the simplex: for a block that Cholesky accepted, ``_convex_form_min``
finds the minimizer by block principal pivoting, at any order and in one
solve when the support is every index, and returns its last step's point
and value, the walk's minimum up to roundoff; where exact face ties make
the pivoting come back to a free set, it goes on from there with flips
against a roundoff tolerance, and it returns ``None`` only when a free set
comes back twice or a free block is singular in roundoff.  The kernel
does not choose between the two: ``cones.is_copositive`` runs the one
Cholesky test and calls the pivoting only when it passes.

A single :class:`Tolerance` object is threaded through every caller; it is
the one accuracy knob of the whole library.  :func:`as_sym` is the one
validator; it also returns the scale that the thresholds are taken from.
The eigen, rank and simplex entry points take the symmetric float matrix
it returns (or a principal block of one) and do not symmetrize it again.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_sym",
    "eig_sym",
    "num_rank",
    "pivoted_cholesky",
    "simplex_stationary_points",
    "simplex_form_min",
    "lp_feasible",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative epsilon pair; comparisons use ``abs + rel * scale``."""

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        # a NaN fails every threshold comparison, which would pass any test
        if not all(math.isfinite(t) and t >= 0 for t in (self.abs, self.rel)):
            raise ValueError("tolerances must be finite and nonnegative")

    def scaled(self, scale: float) -> float:
        return self.abs + self.rel * abs(scale)


DEFAULT_TOL = Tolerance()

# Largest entry magnitude a matrix may have: products of two entries, as in
# the edge check d_i d_j - b_ij**2 and the stacked KKT solves, stay finite.
MAX_ENTRY = 2.0**500


def as_sym(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Validate a square symmetric array; return its exact symmetrization
    and that matrix's largest entry magnitude, the scale of thresholds.

    An input equal to its transpose byte for byte, -0.0 against -0.0
    included, is returned as a copy: 0.5 * (a + a.T) equals it bit for bit,
    so the skew test and the symmetrization are skipped.  Any other input,
    -0.0 facing 0.0 among them, is symmetrized.  The result never shares
    memory with the input.

    Raises ``ValueError`` if the input is not square, not finite, has an
    entry above ``MAX_ENTRY`` in magnitude, or is not symmetric within the
    tolerance.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("order must be at least 1")
    scale = float(np.abs(arr).max())
    if not math.isfinite(scale):  # the max of a NaN or an inf is not finite
        raise ValueError("matrix entries must be finite")
    if scale > MAX_ENTRY:
        raise ValueError("matrix entries must be at most 2**500 in magnitude")
    if arr.tobytes() == arr.T.tobytes():
        return arr.copy(), scale  # 0.5 * (arr + arr.T), bit for bit
    skew = np.abs(arr - arr.T).max()
    if skew > tol.scaled(scale):
        raise ValueError("matrix is not symmetric within tolerance")
    sym = 0.5 * (arr + arr.T)
    if skew:  # else sym equals arr entry for entry
        scale = float(np.abs(sym).max())
    return sym, scale


def eig_sym(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns ``(w, q)`` with eigenvalues ``w`` in descending order and
    orthonormal eigenvector columns ``q``, so that ``a = q @ diag(w) @ q.T``.
    Each column's sign is fixed so that its largest-magnitude entry (the
    first one, on ties) is positive.  ``a`` is exactly symmetric, as
    :func:`as_sym` returns it or as ``NonnegFactor.product()`` computes it.
    """
    w, q = np.linalg.eigh(a)
    w, q = w[::-1], q[:, ::-1]
    lead = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    return w, q * np.where(lead < 0.0, -1.0, 1.0)


def num_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of a symmetric matrix: eigenvalues above the scaled threshold in size."""
    return _rank(eig_sym(a)[0], tol)


def _rank(w, tol: Tolerance) -> int:
    """Count of the eigenvalues ``w`` above ``tol.scaled(max|w|)`` in size."""
    return int(np.count_nonzero(np.abs(w) > tol.scaled(np.abs(w).max())))


def pivoted_cholesky(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Rank-revealing Cholesky of a PSD matrix: ``a ~= L @ L.T``, L is n x r.

    Full diagonal pivoting; stops when the largest residual diagonal drops
    below the scaled threshold.
    """
    r = np.array(a, dtype=float)
    n = r.shape[0]
    scale = max(np.diag(r).max(initial=0.0), 0.0)
    thr = tol.scaled(scale)
    cols = []
    for _ in range(n):
        d = np.diag(r)
        j = int(np.argmax(d))
        if d[j] <= thr:
            break
        col = r[:, j] / np.sqrt(d[j])
        cols.append(col)
        r = r - np.outer(col, col)
    return np.column_stack([np.zeros((n, 0)), *cols])


# Largest order whose 2**n - 1 supports are enumerated.
ENUMERATION_MAX_ORDER = 16

# A face KKT solution whose residual exceeds this times the scale came from a
# singular, inconsistent system (solved by least squares): the face has no
# stationary point in its relative interior.
_RESIDUAL = 1e-8

# Simplex weights down to this are roundoff of a point on the face's boundary
# and are clipped to 0; a lower weight puts the stationary point outside the
# simplex, and the face is skipped.
_WEIGHT_FLOOR = -1e-10

def simplex_stationary_points(q, supports=None):
    """Yield ``(value, lam)`` for all KKT points of ``lam.T @ q @ lam`` on the
    standard simplex, enumerated over support sets in increasing bitmask order.

    Every face's relative-interior stationary points are produced (vertices
    included as singleton supports), so the global minimum over the simplex
    is always among the yielded values.  Supports whose stationarity system
    is inconsistent are skipped: their face attains its minimum on a subface.
    The points are not only relative-interior ones: a weight in [-1e-10, 0)
    is clipped to 0, so a point on a subface's relative interior can come
    again under a larger mask, as the same ``lam`` or with other last bits,
    and with another value.

    ``supports``, a list of bitmasks in [1, 2**n - 1] where bit i stands for
    index i, restricts the walk to those faces: their points come in
    increasing mask order, each bit-identical to the full walk's point for
    its mask.  A mask outside that range, or not an integer, raises
    ``ValueError`` (at the first ``next``, as the order limit does).

    The KKT systems of each support size are solved in one stacked call,
    with the index arrays of the cached :func:`_plan`.  Each system sees
    the same LAPACK/BLAS calls as a one-support-at-a-time solve, so the
    yielded values are bit-identical to it.  ``q`` is a symmetric float
    matrix as :func:`as_sym` returns it, or a principal block of one.
    """
    n = q.shape[0]
    if n > ENUMERATION_MAX_ORDER:
        raise ValueError(f"support enumeration is limited to order {ENUMERATION_MAX_ORDER}")
    if supports is None:
        plan, count = _plan(None, n), (1 << n) - 1
    else:
        try:
            masks = tuple(sorted({operator.index(mask) for mask in supports}))
        except TypeError:
            raise ValueError("support masks must be integers") from None
        if masks and not 1 <= masks[0] <= masks[-1] < 1 << n:
            raise ValueError(f"support masks must lie in [1, {(1 << n) - 1}]")
        plan, count = _plan(masks, n), len(masks)
    scale = max(1.0, np.abs(q).max())
    values = np.empty(count)
    lams = np.zeros((count, n))
    found = np.zeros(count, dtype=bool)
    for rows, idx in plan:
        keep, vals, lam = _face_points(q, idx, scale)
        rows = rows[keep]
        found[rows] = True
        values[rows] = vals
        lams[rows[:, None], idx[keep]] = lam
    yield from zip(values[found].tolist(), lams[found])


@functools.lru_cache(maxsize=64)
def _plan(masks, n):
    """Integer layout of a walk over the increasing bitmasks of the tuple
    ``masks`` at order ``n``, or over every mask when ``masks`` is ``None``:
    for each support size k that occurs, the positions in the masks of the
    size-k masks and their (m, k) index array.  Callers share the cached
    plans, so the arrays are read-only.  Its 64 entries hold the full walks
    of all 16 orders and, from ``is_copositive``, the face 0b111 and the
    edges of the twelve 5-cycles."""
    masks = np.arange(1, 1 << n) if masks is None else np.array(masks, dtype=np.intp)
    member = (masks[:, None] >> np.arange(n) & 1) != 0
    size = member.sum(axis=1)
    plan = []
    for k in range(1, n + 1):
        rows = np.flatnonzero(size == k)
        if rows.size:
            idx = np.nonzero(member[rows])[1].reshape(rows.size, k)
            rows.flags.writeable = idx.flags.writeable = False
            plan.append((rows, idx))
    return tuple(plan)


def _face_points(q, idx, scale):
    """KKT points of the faces with supports ``idx`` (m x k): relative-interior
    points, and points whose weights in [-1e-10, 0) are clipped to 0.

    Returns ``(keep, values, lams)``: the rows of ``idx`` whose face has a
    stationary point, its form value and its k simplex weights.
    """
    m, k = idx.shape
    if k == 1:
        return np.arange(m), q[idx[:, 0], idx[:, 0]], np.ones((m, 1))
    qs = q[idx[:, :, None], idx[:, None, :]]
    kkt = np.zeros((m, k + 1, k + 1))
    np.multiply(qs, 2.0, out=kkt[:, :k, :k])
    kkt[:, :k, k] = -1.0
    kkt[:, k, :k] = 1.0
    rhs = np.zeros((1, k + 1, 1))  # one right-hand side, broadcast over the stack
    rhs[0, k, 0] = 1.0
    sol = _solve_kkt(kkt, rhs)
    # np.clip(lam, 0.0, None) without its Python wrapper: the same maximum
    lam = np.maximum(sol[:, :k, 0], 0.0)
    total = lam.sum(axis=1)
    # One mask: a non-finite solution has a non-finite residual, a residual
    # above the bound means an inconsistent system (no stationary point in
    # this face interior), a weight below the floor a point off the simplex;
    # a NaN fails every comparison.
    resid = np.abs(kkt @ sol - rhs).max(axis=(1, 2))
    keep = np.flatnonzero(
        (resid <= _RESIDUAL * scale) & (sol[:, :k, 0].min(axis=1) >= _WEIGHT_FLOOR) & (total > 0.0)
    )
    lam = lam[keep] / total[keep, None]
    # Stacked matmul: the same gemv + dot per system as ``lam @ qs @ lam``.
    values = ((lam[:, None, :] @ qs[keep]) @ lam[:, :, None])[:, 0, 0]
    return keep, values, lam


def _solve_kkt(kkt, rhs):
    """Solve the stacked (m, k + 1, k + 1) KKT systems for the (1, k + 1, 1)
    right-hand side; exactly singular ones (a zero LU pivot, which makes the
    stacked solve raise) get a least-squares solution.  Returns (m, k + 1, 1)."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        pass
    # slogdet runs the same LU and reports sign 0 exactly when a pivot is 0.
    singular = np.linalg.slogdet(kkt)[0] == 0.0
    sol = np.empty(kkt.shape[:2] + (1,))
    regular = ~singular
    if regular.any():
        sol[regular] = np.linalg.solve(kkt[regular], rhs)
    for i in np.flatnonzero(singular):
        sol[i] = np.linalg.lstsq(kkt[i], rhs[0], rcond=None)[0]
    return sol


def simplex_form_min(q, supports=None) -> tuple[float, np.ndarray] | None:
    """The first least point ``(value, lam)`` of the walk over the faces
    ``supports`` (every face by default), a list of bitmasks as for
    :func:`simplex_stationary_points`; ``None`` when none of them has a
    stationary point, which never happens over every face.

    Over every face it is the global minimum of the quadratic form on the
    standard simplex: ``lam >= 0``, ``sum(lam) == 1``, exact up to
    roundoff, the first point in mask order on ties.  ``q`` is symmetric,
    as for :func:`simplex_stationary_points`.
    """
    return min(simplex_stationary_points(q, supports), key=operator.itemgetter(0), default=None)


def _convex_form_min(q):
    """The minimum ``(value, lam)`` of ``lam @ q @ lam`` on the standard
    simplex, found by block principal pivoting (Judice & Pires 1994)
    without enumerating; ``None`` only when a free set repeats twice (see
    below) or a free block is singular in roundoff.

    Precondition: ``np.linalg.cholesky`` accepted ``q``, so ``q`` is
    positive definite and the problem convex (Bomze 1998, J. Glob. Optim.
    13): for the minimizer z of ``z @ q @ z - 2 * z.sum()`` over z >= 0,
    z / z.sum() is the simplex minimizer.  :func:`copcone.cones.is_copositive`
    tests it once per block and calls this only then.

    Every index starts free.  Each step solves q_F z_F = 1 on the free set
    F, z = 0 off it, and flips every free index with z < 0 and every fixed
    index with (q z - 1) < 0.  When nothing flips, lam = z / z.sum() meets
    the KKT conditions within roundoff: ``(q @ lam)_j`` is the value on the
    support and no less off it.  That last step's point and its form value
    on q are returned; a block whose minimizer has every index in its support
    settles in one solve.  The steps run on q / 2^e, with 2^e the power
    of two at max|q|: the scaling is exact, so z is 2^e times the unscaled
    one and no comparison changes, but a block with subnormal entries no
    longer overflows its solve.

    On exact face ties (a zero weight or a zero multiplier that roundoff
    puts on either side of 0) the exact flips can cycle.  From the first
    free set that repeats, the steps go on with flips against the roundoff
    tau = 8 n eps max_j (|q| |z|)_j of that step (q scaled as above): a free
    index flips when z < -tau, a fixed one when (q z - 1) < -tau, and the
    settled z is clipped to >= 0.  A free set that repeats again gives
    ``None``.  A block that does not cycle never takes that branch, so its
    point keeps the exact flips' bits.
    """
    n = q.shape[0]
    scaled = np.ldexp(q, -math.frexp(np.abs(q).max())[1])
    free = np.ones(n, dtype=bool)
    seen, tied = set(), False  # exact flips until a free set repeats, then one more try
    while (key := free.tobytes()) not in seen or not tied:
        tied = tied or key in seen
        seen.add(key)
        idx = np.flatnonzero(free)
        z = np.zeros(n)
        try:
            z[idx] = np.linalg.solve(scaled[idx[:, None], idx], np.ones(idx.size))
        except np.linalg.LinAlgError:  # singular in roundoff
            return None
        tau = 8 * n * np.finfo(float).eps * (np.abs(scaled) @ np.abs(z)).max() if tied else 0.0
        flip = np.where(free, z < -tau, scaled @ z < 1.0 - tau)
        if not flip.any():
            if tied:  # a weight in [-tau, 0) is roundoff of a zero
                z = np.maximum(z, 0.0)
            lam = z / z.sum()
            return float(lam @ q @ lam), lam
        free ^= flip
    return None


def lp_feasible(a_eq, b_eq, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Find ``x >= 0`` with ``a_eq @ x == b_eq``, each row within
    ``tol.scaled(max|b_eq|)``, for linearly independent columns of ``a_eq``.

    Independent columns admit at most one solution, so the least-squares
    solution decides: the normal equations are solved on a support S that
    starts as every column and shrinks to the positive weights while some
    weight is <= 0 (at most one solve per column).  Returns x, zero off S,
    if its residual is within the threshold, else ``None``.
    """
    a = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b = np.atleast_1d(np.asarray(b_eq, dtype=float))
    if a.ndim != 2 or b.shape != a.shape[:1]:
        raise ValueError("constraint matrix/rhs shape mismatch")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("constraint entries must be finite")
    if np.linalg.matrix_rank(a) < a.shape[1]:
        raise ValueError("constraint columns must be linearly independent")
    q, c = a.T @ a, a.T @ b
    x = np.zeros(a.shape[1])
    support = np.arange(a.shape[1])
    while support.size:
        weights = np.linalg.solve(q[support[:, None], support], c[support])
        if weights.min() > 0.0:
            x[support] = weights
            break
        support = support[weights > 0.0]
    if np.abs(a @ x - b).max(initial=0.0) > tol.scaled(np.abs(b).max(initial=0.0)):
        return None
    return x
