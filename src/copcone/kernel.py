"""Dense numerical kernel for small symmetric matrices.

Eigendecomposition (LAPACK ``eigh``), pivoted Cholesky, numerical rank,
exact quadratic-form minimization over the standard simplex, and a
feasibility test for ``A x = b, x >= 0``.  Orders are small (n <= ~12), so
robustness and high relative accuracy come first.  One Lawson-Hanson active
set serves the last two: the feasibility test is its nonnegative least
squares.  Speed matters in one place, the exact simplex minimization.  A
positive definite form is convex there: the active set finds its optimal
support, whose face point is kept after a strict KKT check.  Any other
form, or a near tie, enumerates all 2**n - 1 supports and solves their KKT
systems in stacked LAPACK calls, one per support size within each block of
1024 bitmasks, which bounds the KKT stacks held to one block's systems.
The integer layout of that walk (per block and support size, the masks'
positions and member indices) is built once per order and cached: 0.9 kB
at order 5, 0.23 MB at order 12, 4.7 MB at order 16.  The enumeration
yields its points in increasing mask order, with the values a
one-support-at-a-time loop gives, bit for bit; the active set returns the
enumeration's minimum, bit for bit.

A single :class:`Tolerance` object is threaded through every caller; it is
the one accuracy knob of the whole library.  :func:`as_sym` is the one
validator; it also returns the scale that the thresholds are taken from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_sym",
    "eig_sym",
    "num_rank",
    "psd_check",
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
    first one, on ties) is positive.
    """
    a = np.asarray(a, dtype=float)
    w, q = np.linalg.eigh(0.5 * (a + a.T))
    w, q = w[::-1], q[:, ::-1]
    lead = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    return w, q * np.where(lead < 0.0, -1.0, 1.0)


def num_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: eigenvalues of magnitude above the scaled threshold."""
    return _rank(eig_sym(np.asarray(a, dtype=float))[0], tol)


def _rank(w, tol: Tolerance) -> int:
    """Count of the eigenvalues ``w`` above ``tol.scaled(max|w|)`` in size."""
    return int(np.count_nonzero(np.abs(w) > tol.scaled(np.abs(w).max())))


def psd_check(a, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, np.ndarray | None]:
    """Positive-semidefiniteness test.

    Returns ``(True, None)`` if the minimum eigenvalue is above the scaled
    ``-tol`` threshold, else ``(False, w)`` with a unit witness vector
    satisfying ``w.T @ a @ w < 0``.
    """
    a = np.asarray(a, dtype=float)
    w, q = eig_sym(a)
    scale = np.abs(a).max()
    if w[-1] >= -tol.scaled(scale):
        return True, None
    return False, q[:, -1]


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
    if not cols:
        return np.zeros((n, 0))
    return np.column_stack(cols)


# Support masks solved per batch.  Bounds the stacked KKT arrays of one
# support size to _BLOCK * (n + 1)**2 floats (2.4 MB at order 16); one
# batch over all masks at order 12 measured +1.8 MB of peak RSS.
_BLOCK = 1024

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

# The positive definite fast path keeps its support S only when every
# j outside S has (q lam)_j - value above this times max|q_ij|.  The
# curvature along e_j - lam is at most max|q_ij|, so the stationary point of
# the face S + {j} then has lam_j below _WEIGHT_FLOOR, ten times over, and
# the enumeration skips that face; a smaller gap is a near tie, left to the
# enumeration.
_KKT_MARGIN = 1e-9

# ... and only when dropping any i from S raises the face minimum, by
# lam_i**2 / (q_S^-1)_ii, by more than this times max|q_ij|.  A smaller rise
# can round to a tie, which the enumeration gives to the subface (it comes
# first in mask order).
_SUBFACE_GAP = 1e-12


def simplex_stationary_points(q):
    """Yield ``(value, lam)`` for all KKT points of ``lam.T @ q @ lam`` on the
    standard simplex, enumerated over support sets in increasing bitmask order.

    Every face's relative-interior stationary points are produced (vertices
    included as singleton supports), so the global minimum over the simplex
    is always among the yielded values.  Supports whose stationarity system
    is inconsistent are skipped: their face attains its minimum on a subface.

    The masks are walked in blocks of ``_BLOCK``; inside a block the KKT
    systems of each support size are solved in one stacked call, with the
    index arrays of the cached :func:`_support_plan`.  Each system sees the
    same LAPACK/BLAS calls as a one-support-at-a-time solve, so the yielded
    values are bit-identical to it.
    """
    q = np.asarray(q, dtype=float)
    q = 0.5 * (q + q.T)
    n = q.shape[0]
    if n > ENUMERATION_MAX_ORDER:
        raise ValueError(f"support enumeration is limited to order {ENUMERATION_MAX_ORDER}")
    scale = max(1.0, np.abs(q).max())
    for count, sizes in _support_plan(n):
        values = np.empty(count)
        lams = np.zeros((count, n))
        found = np.zeros(count, dtype=bool)
        for rows, idx in sizes:
            keep, vals, lam = _face_points(q, idx, scale)
            rows = rows[keep]
            found[rows] = True
            values[rows] = vals
            lams[rows[:, None], idx[keep]] = lam
        yield from zip(values[found].tolist(), lams[found])


@functools.lru_cache(maxsize=None)
def _support_plan(n):
    """Integer layout of the enumeration at order ``n``: per block of
    ``_BLOCK`` masks, its mask count and, for each support size k present,
    the block positions of the size-k masks and their (m, k) index array.
    Every caller shares the cached arrays, so they are read-only."""
    bits = 1 << np.arange(n)
    plan = []
    for start in range(1, 1 << n, _BLOCK):
        masks = np.arange(start, min(start + _BLOCK, 1 << n))
        member = (masks[:, None] & bits) != 0
        size = member.sum(axis=1)
        sizes = []
        for k in range(1, n + 1):
            rows = np.flatnonzero(size == k)
            if rows.size:
                idx = np.nonzero(member[rows])[1].reshape(rows.size, k)
                rows.flags.writeable = idx.flags.writeable = False
                sizes.append((rows, idx))
        plan.append((masks.size, tuple(sizes)))
    return tuple(plan)


def _face_points(q, idx, scale):
    """Relative-interior KKT points of the faces with supports ``idx`` (m x k).

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


def simplex_form_min(q) -> tuple[float, np.ndarray]:
    """Global minimum of the quadratic form over the standard simplex.

    Returns ``(value, lam)`` with ``lam >= 0``, ``sum(lam) == 1``, exact up
    to roundoff.  A positive definite ``q`` is a convex problem (Bomze 1998,
    J. Glob. Optim. 13): an active set finds the optimal support, and its
    face point is kept if it passes a strict KKT check.  Any other ``q``,
    or a near tie, goes to the KKT support enumeration, which resolves ties
    by enumeration order.  Both give the enumeration's answer bit for bit.
    """
    q = np.asarray(q, dtype=float)
    q = 0.5 * (q + q.T)
    found = _convex_form_min(q)
    if found is not None:
        return found
    best_val = np.inf
    best_lam = None
    for val, lam in simplex_stationary_points(q):
        if val < best_val:
            best_val, best_lam = val, lam
    return best_val, best_lam


def _convex_form_min(q):
    """``simplex_form_min`` of a symmetric positive definite ``q`` without
    enumerating, or ``None`` when ``q`` is not positive definite or the
    answer is not certain to be the enumeration's.

    The active set gives the support S of the minimizer; ``_face_points``
    then computes S's point exactly as the enumeration does.  It is kept
    only if every index outside S has a positive KKT multiplier and every
    index in S a positive subface gap, both with a margin: then no other
    face's point can match or undercut it.
    """
    n = q.shape[0]
    if n > ENUMERATION_MAX_ORDER:
        return None
    try:
        np.linalg.cholesky(q)
        z = _nnls(q, np.ones(n))
        if z is None:
            return None
        support = np.flatnonzero(z > 0.0)
        inv_diag = np.diag(np.linalg.inv(q[np.ix_(support, support)]))
    except np.linalg.LinAlgError:  # not positive definite, or singular in roundoff
        return None
    scale = np.abs(q).max()
    keep, values, lams = _face_points(q, support[None, :], max(1.0, scale))
    if not keep.size:
        return None
    val = values[0]
    lam = np.zeros(n)
    lam[support] = lams[0]
    outside = np.delete(q @ lam, support) - val
    inside = lams[0] ** 2 / inv_diag
    # a NaN fails both comparisons
    if outside.min(initial=np.inf) > _KKT_MARGIN * scale and inside.min() > _SUBFACE_GAP * scale:
        return float(val), lam
    return None


def _nnls(q, c, stop=0.0):
    """Minimizer of ``z @ q @ z - 2 * c @ z`` over z >= 0 by the
    Lawson-Hanson active set (Lawson & Hanson 1974, ch. 23) on the normal
    equations.  ``q`` is positive definite, or a Gram matrix A.T @ A with
    dependent columns, whose passive columns the method keeps independent
    while ``stop`` exceeds the roundoff in the gradient.  An index j enters the passive set only while ``(c - q @ z)_j``, minus
    half the gradient, exceeds ``stop``.  ``None`` if it does not settle
    within 3n additions (roundoff cycling)."""
    n = q.shape[0]
    passive = np.zeros(n, dtype=bool)
    z = np.zeros(n)
    for _ in range(3 * n):
        w = c - q @ z  # minus half the gradient
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= stop:
            return z
        passive[j] = True
        while True:
            idx = np.flatnonzero(passive)
            trial = np.zeros(n)
            trial[idx] = np.linalg.solve(q[np.ix_(idx, idx)], c[idx])
            if trial[idx].min() > 0.0:
                break
            if passive[j] and z[j] == 0.0 and trial[j] <= 0.0:
                return None  # roundoff: j cannot enter, and the set would cycle
            # step from z toward trial until the first weight reaches zero
            neg = np.flatnonzero(passive & (trial <= 0.0))
            ratio = z[neg] / (z[neg] - trial[neg])
            k = int(np.argmin(ratio))
            z += ratio[k] * (trial - z)
            z[neg[k]] = 0.0
            passive &= z > 0.0
            if not passive.any():
                return None
        z = trial
    return None


def lp_feasible(a_eq, b_eq, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Find ``x >= 0`` with ``a_eq @ x == b_eq``, each row within
    ``tol.scaled(max|b_eq|)``.

    Solves the nonnegative least-squares problem by the active set of
    :func:`_nnls` on the normal equations and returns its solution if the
    residual is within the threshold.  ``None`` means the system is
    infeasible, or the active set did not settle (it cycled in roundoff or
    met an exactly singular passive set).
    """
    a = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b = np.atleast_1d(np.asarray(b_eq, dtype=float))
    if a.ndim != 2 or b.shape != a.shape[:1]:
        raise ValueError("constraint matrix/rhs shape mismatch")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("constraint entries must be finite")
    thr = tol.scaled(np.abs(b).max(initial=0.0))
    try:
        x = _nnls(a.T @ a, a.T @ b, thr)
    except np.linalg.LinAlgError:
        return None
    if x is None or np.abs(a @ x - b).max(initial=0.0) > thr:
        return None
    return x
