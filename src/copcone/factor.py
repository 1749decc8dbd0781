"""Constructive cp factorizations and factor transformations.

Covers the diagonally dominant expansion, the interior
construction for positive diagonally dominant matrices, the positive-factor
perturbation, the order-6 Horn-orthogonal assembly with at most 15 columns,
order-3 factorization of doubly nonnegative matrices, Newton continuation of
a positive square factor, and a rotation-based heuristic for small column
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel, special
from .cones import InteriorCertificate, cp_interior_certificate, is_dnn, Answer
from .errors import (
    ColumnOutsideConesError,
    KOutOfRangeError,
    NewtonDivergedError,
    NotDiagonallyDominantError,
    NotDnnError,
    NotNonnegativeError,
    NotOrthogonalToHornError,
    NotPositiveError,
    OrderTooSmallError,
    PerronNotPositiveError,
    PositivityLostError,
)
from .kernel import DEFAULT_TOL, Tolerance

__all__ = [
    "NonnegFactor",
    "ContinuationResult",
    "dd_factorize",
    "positive_dd_factorize",
    "perturb_positify",
    "support_split",
    "horn_orthogonal_factorize",
    "cp3_factorize",
    "truncate_factor",
    "factor_continuation",
    "heuristic_min_factor",
]


class NonnegFactor:
    """Entrywise nonnegative n x p factor V; M = V @ V.T is the product.

    Zero columns are dropped on construction and entries within tolerance of
    zero are clamped; a genuinely negative entry raises.
    """

    def __init__(self, columns, tol: Tolerance = DEFAULT_TOL):
        v = np.asarray(columns, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("factor must be a 2-d array of columns")
        if not np.all(np.isfinite(v)):
            raise ValueError("factor entries must be finite")
        scale = np.abs(v).max(initial=0.0)
        if v.size and v.min(initial=0.0) < -tol.scaled(scale):
            raise NotNonnegativeError("factor has a negative entry beyond tolerance")
        v = np.clip(v, 0.0, None)
        keep = v.max(axis=0, initial=0.0) > 0.0 if v.shape[1] else np.zeros(0, dtype=bool)
        self.v = np.array(v[:, keep]) if v.shape[1] else v

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def p(self) -> int:
        return self.v.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.v[:, j].copy()

    def product(self) -> np.ndarray:
        return self.v @ self.v.T

    def __repr__(self):
        return f"NonnegFactor(n={self.n}, p={self.p})"


def dd_factorize(m, tol: Tolerance = DEFAULT_TOL) -> NonnegFactor:
    """Factorize a nonnegative diagonally dominant matrix.

    Rank-1 expansion: sqrt(M_ij) (e_i + e_j) for each positive off-diagonal
    entry plus sqrt(M_ii - sum_j M_ij) e_i for each positive diagonal
    residual.  Exact up to roundoff; at most n(n+1)/2 columns.
    """
    m, scale = kernel.as_sym(m, tol)
    return NonnegFactor(_dd_columns(m, tol.scaled(scale)), tol)


def _dd_columns(m: np.ndarray, thr: float) -> np.ndarray:
    """The columns of :func:`dd_factorize` of a validated ``m``, n x p."""
    n = m.shape[0]
    if m.min() < -thr:
        raise NotNonnegativeError("matrix has a negative entry")
    m = np.clip(m, 0.0, None)
    off_sums = m.sum(axis=1) - np.diag(m)
    if np.any(np.diag(m) - off_sums < -thr):
        raise NotDiagonallyDominantError("diagonal dominance fails")
    cols = []
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] > 0.0:
                c = np.zeros(n)
                c[i] = c[j] = np.sqrt(m[i, j])
                cols.append(c)
        resid = m[i, i] - off_sums[i]
        if resid > 0.0:
            c = np.zeros(n)
            c[i] = np.sqrt(resid)
            cols.append(c)
    if not cols:
        return np.zeros((n, 0))
    return np.column_stack(cols)


def positive_dd_factorize(
    m, tol: Tolerance = DEFAULT_TOL
) -> tuple[NonnegFactor, InteriorCertificate]:
    """Factorize a positive diagonally dominant matrix with an interior
    certificate.

    Peels off mu = min M_ij times the all-ones matrix: the first column is
    sqrt(mu) e, the rest factor the strictly diagonally dominant remainder.
    The result has a positive column and rank n, certifying membership in
    the interior of the completely positive cone.  Orders n <= 2 are
    rejected: there, positive diagonally dominant matrices can sit on the
    boundary.
    """
    m, scale = kernel.as_sym(m, tol)
    n = m.shape[0]
    if n <= 2:
        raise OrderTooSmallError("interior construction needs order >= 3")
    thr = tol.scaled(scale)
    mu = m.min()
    if mu <= thr:
        raise NotPositiveError("matrix must be entrywise positive")
    off_sums = m.sum(axis=1) - np.diag(m)
    if np.any(np.diag(m) - off_sums < -thr):
        raise NotDiagonallyDominantError("diagonal dominance fails")
    # thr, from M, is at least the remainder's own threshold
    rest = _dd_columns(m - mu * special.all_ones(n), thr)
    first = np.full((n, 1), np.sqrt(mu))
    factor = NonnegFactor(np.hstack([first, rest]), tol)
    cert = cp_interior_certificate(factor, tol)
    if cert is None:  # strict dominance guarantees rank n; only roundoff can break this
        raise NotPositiveError("interior certificate unexpectedly failed")
    return factor, cert


def _perron_vector(m: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, float]:
    """Unit Perron vector and eigenvalue of a nonnegative symmetric matrix.

    The support graph must be connected (irreducibility), which makes the
    Perron root simple and its eigenvector positive.  That vector is the
    leading eigenvector of LAPACK ``eigh``, whose sign rule makes its
    largest entry, and so every entry, positive.
    """
    n = m.shape[0]
    thr = tol.scaled(np.abs(m).max())
    # connectivity of the support pattern via BFS
    adj = (m > thr) | np.eye(n, dtype=bool)
    reached = np.zeros(n, dtype=bool)
    frontier = [0]
    reached[0] = True
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(adj[i])[0]:
            if not reached[j]:
                reached[j] = True
                frontier.append(int(j))
    if not reached.all():
        raise PerronNotPositiveError("support graph is not connected")
    v = kernel.eig_sym(m)[1][:, 0]
    lam = float(v @ m @ v)
    if v.min() <= tol.scaled(np.abs(v).max()):
        raise PerronNotPositiveError("Perron vector has a vanishing coordinate")
    return v, lam


def perturb_positify(
    v0: NonnegFactor, eps: float, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, NonnegFactor]:
    """Perturb M0 = V0 V0.T along its Perron direction so that the factor
    becomes entrywise positive with the same column count.

    With unit Perron vector v, eigenvalue lam and x = V0.T v / lam > 0, the
    returned pair is M = M0 + eps v v.T and V = V0 (I + delta x x.T) where
    delta makes (I + delta x x.T)^2 = I + eps x x.T, so V V.T = M exactly.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    m0 = v0.product()
    v, lam = _perron_vector(m0, tol)
    x = v0.v.T @ v / lam
    if x.size == 0 or x.min() <= 0.0:
        raise PerronNotPositiveError("factor columns do not all meet the Perron vector")
    delta = (np.sqrt(1.0 + eps * float(x @ x)) - 1.0) / float(x @ x)
    vout = v0.v + delta * np.outer(v0.v @ x, x)
    m = m0 + eps * np.outer(v, v)
    return m, NonnegFactor(vout, tol)


def support_split(
    v: NonnegFactor, index: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[NonnegFactor, NonnegFactor]:
    """Split columns by whether coordinate ``index`` is in their support.

    The two parts regroup the rank-1 terms, so V1 V1.T + V2 V2.T = V V.T
    exactly.
    """
    if not 0 <= index < v.n:
        raise KOutOfRangeError("index out of range")
    thr = tol.scaled(v.v.max(initial=0.0))
    mask = v.v[index, :] > thr
    return NonnegFactor(v.v[:, mask], tol), NonnegFactor(v.v[:, ~mask], tol)


def truncate_factor(v: NonnegFactor, k: int) -> NonnegFactor:
    """Keep the first k columns.  For a minimal factor the product of the
    truncation has cp-rank exactly k."""
    if not 1 <= k <= v.p:
        raise KOutOfRangeError(f"k must be in 1..{v.p}")
    return NonnegFactor(v.v[:, :k])


# ---------------------------------------------------------------------------
# order-3 factorization


def _quadrant_rotate(l: np.ndarray) -> np.ndarray:
    """Rotate the rows of an n x 2 root into the nonnegative quadrant.

    Rows with pairwise inner products >= 0 lie on an arc of at most 90
    degrees; the row that ends the widest gap between the row angles starts
    that arc and is turned to angle 0.
    """
    theta = np.sort(np.arctan2(l[:, 1], l[:, 0]))
    gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    start = theta[(np.argmax(gaps) + 1) % theta.size]
    c, s = np.cos(start), np.sin(start)
    return l @ np.array([[c, -s], [s, c]])


def cp3_factorize(y, tol: Tolerance = DEFAULT_TOL) -> NonnegFactor:
    """Completely positive factorization of a doubly nonnegative matrix of
    order at most 3, with at most 3 columns.

    At these orders doubly nonnegative implies completely positive with at
    most n columns (Maxfield & Minc 1962), and the proof is constructive.
    With the pivoted Cholesky root L of rank r:

    - r = 1: Y = l l.T with l_j l_k >= 0, so ``|l|`` is a factor.
    - r = 2: the rows of L have pairwise inner products y_jk >= 0, so one
      rotation of the plane moves them all into the nonnegative quadrant.
    - r = 3: take i = argmax y_ii and t = 1 / (Y^-1)_ii, the largest t for
      which Y - t e_i e_i.T stays PSD.  The remainder is doubly nonnegative
      of rank 2: with u = L^-1 e_i, so that t = 1 / |u|^2, its root is L Q
      for Q an orthonormal basis of the complement of u.  Rotate that root
      as for r = 2 and append the column sqrt(t) e_i.

    Entries down to -tol.scaled(max|Y|) / max|L| are roundoff and are
    clipped, which moves the product by at most the tolerance; a root that
    is already nonnegative within that bound is returned as is.
    """
    y, scale = kernel.as_sym(y, tol)
    if y.shape[0] > 3:
        raise ValueError("cp3_factorize handles orders up to 3")
    if is_dnn(y, tol).answer is not Answer.IN:
        raise NotDnnError("matrix is not doubly nonnegative")
    return _cp3_factor(y, scale, tol)


def _cp3_factor(y: np.ndarray, scale: float, tol: Tolerance) -> NonnegFactor:
    """:func:`cp3_factorize` of a validated DNN ``y`` with largest entry ``scale``."""
    n = y.shape[0]
    l = kernel.pivoted_cholesky(y, tol)
    r = l.shape[1]
    if r == 0:
        return NonnegFactor(np.zeros((n, 0)), tol)
    clip = tol.scaled(scale) / np.abs(l).max()
    if l.min() >= -clip:
        v = l
    elif r == 1:
        v = np.abs(l)
    elif r == 2:
        v = _quadrant_rotate(l)
    else:
        i = int(np.argmax(np.diag(y)))
        u = np.linalg.solve(l, np.eye(n)[i])
        q = np.linalg.svd(u[:, None])[0][:, 1:]
        v = np.column_stack([_quadrant_rotate(l @ q), np.eye(n)[i] / np.linalg.norm(u)])
    if v.min() < -clip:
        raise NotDnnError("no nonnegative factor within tolerance")
    return NonnegFactor(np.clip(v, 0.0, None), tol)


# ---------------------------------------------------------------------------
# order-6 Horn-orthogonal factorization


def horn_orthogonal_factorize(v: NonnegFactor, tol: Tolerance = DEFAULT_TOL) -> NonnegFactor:
    """Re-factor an order-6 matrix orthogonal to the Horn block with at most
    15 columns.

    Each input column must lie in one of the five cones spanned by the
    generator pairs (e_i + e_{i+1}, e_{i+1} + e_{i+2}) together with e6
    (indices cyclic over 1..5); columns are grouped per cone, the 3x3
    coefficient Gram matrices are factorized with at most 3 columns each,
    and the pieces are mapped back through the generators.
    """
    if v.n != 6:
        raise ValueError("order-6 input required")
    m = v.product()
    scale = np.abs(m).max(initial=0.0)
    thr = tol.scaled(scale)
    hb = special.horn_block6()
    if abs(float(np.sum(m * hb))) > max(thr, tol.scaled(1.0)):
        raise NotOrthogonalToHornError("product is not orthogonal to the Horn block")
    w = special.horn_generators()
    groups: dict[int, list[np.ndarray]] = {}
    for j in range(v.p):
        col = v.column(j)
        col_thr = tol.scaled(col.max(initial=0.0))
        support = set(np.nonzero(col[:5] > col_thr)[0])
        for i in range(5):
            if support <= {i, (i + 1) % 5, (i + 2) % 5}:
                c = kernel.lp_feasible(w[:, [i, (i + 1) % 5, 5]], col, tol)
                if c is not None:
                    groups.setdefault(i, []).append(c)
                    break
        else:
            raise ColumnOutsideConesError(f"column {j} lies outside the generator cones")
    out_cols = []
    for i in sorted(groups):
        c = np.column_stack(groups[i])  # 3 x p_i coefficient block
        y = c @ c.T  # doubly nonnegative: lp_feasible returns c >= 0
        z = _cp3_factor(y, np.abs(y).max(), tol)
        gens = w[:, [i, (i + 1) % 5, 5]]
        if z.p:
            out_cols.append(gens @ z.v)
    if not out_cols:
        return NonnegFactor(np.zeros((6, 0)), tol)
    return NonnegFactor(np.hstack(out_cols), tol)


# ---------------------------------------------------------------------------
# Newton continuation of a positive square factor

# Newton stops when the largest residual entry falls to this times max|Mhat|,
# a few thousand ulps: roundoff in forming V V.T keeps it from falling much
# further.
_CONTINUATION_STOP = 1e-12

# Newton steps before the run is given up: inside the continuation radius
# Newton converges quadratically, in a handful of steps.
_CONTINUATION_MAX_STEPS = 30


@dataclass(frozen=True)
class ContinuationResult:
    factor: NonnegFactor
    iterations: int
    residuals: tuple[float, ...]


def factor_continuation(
    vbar, vtilde, mhat, tol: Tolerance = DEFAULT_TOL
) -> ContinuationResult:
    """Adjust a positive square factor so the combined factor matches a
    nearby target matrix, keeping the column count.

    Newton iteration on F(V) = V V.T against Mhat - Vtilde Vtilde.T; each
    step solves the linearized equation E V.T + V E.T = R through the SVD
    V = U diag(s) W.T, which diagonalizes it into Z_ij = (U.T R U)_ij /
    (s_i + s_j), E = U Z W.T.  Quadratic convergence inside the radius set
    by the smallest singular value.
    """
    vc = np.array(vbar, dtype=float)
    n = vc.shape[0]
    if vc.shape != (n, n):
        raise ValueError("square positive factor required")
    vtilde = np.asarray(vtilde, dtype=float).reshape(n, -1)
    mhat, scale = kernel.as_sym(mhat, tol)
    thr = tol.scaled(np.abs(vc).max())
    if vc.min() <= thr:
        raise NotPositiveError("square factor must be entrywise positive")
    scale = max(scale, np.finfo(float).tiny)
    target = mhat - vtilde @ vtilde.T
    residuals = []
    stop = _CONTINUATION_STOP * scale
    for _ in range(_CONTINUATION_MAX_STEPS):
        r = target - vc @ vc.T
        rnorm = float(np.abs(r).max())
        residuals.append(rnorm)
        if rnorm <= stop:
            break
        if len(residuals) >= 2 and rnorm > 0.9 * residuals[-2]:
            raise NewtonDivergedError("Newton residual stopped decreasing")
        u, s, wt = np.linalg.svd(vc)
        if s[-1] <= 1e4 * np.finfo(float).eps * s[0] or rnorm > s[-1] ** 2:
            raise NewtonDivergedError("perturbation exceeds the continuation radius")
        z = (u.T @ r @ u) / (s[:, None] + s[None, :])
        vc = vc + u @ z @ wt
    else:
        raise NewtonDivergedError("iteration cap reached without convergence")
    if vc.min() <= 0.0:
        raise PositivityLostError("continuation pushed a factor entry to zero")
    return ContinuationResult(
        NonnegFactor(np.hstack([vc, vtilde]), tol), len(residuals) - 1, tuple(residuals)
    )


# ---------------------------------------------------------------------------
# heuristic minimal factorization

# A rotated root B Q counts as nonnegative when no entry is below
# -_ROOT_FLOOR * max|M|, the roundoff of the product; its entries are then
# clipped to 0 ...
_ROOT_FLOOR = 1e-9
# ... and the clipped factor is accepted when V V.T matches M within this
# times max|M|, which leaves room for the error the clipping adds.
_FACTOR_FIT = 1e-7


def heuristic_min_factor(
    m,
    p_target: int,
    restarts: int = 20,
    tol: Tolerance = DEFAULT_TOL,
) -> NonnegFactor | None:
    """Search a nonnegative factor with at most ``p_target`` columns.

    Alternating projection between the manifold {B Q : Q has orthonormal
    rows} of exact roots and the nonnegative orthant, with deterministic
    random restarts; the first restart index to succeed wins.  The search
    runs with ``p_target`` columns, but columns that end up exactly zero are
    dropped by :class:`NonnegFactor`, so fewer may come back.  ``None``
    means the search failed, which is not a proof of impossibility.
    """
    m, scale = kernel.as_sym(m, tol)
    if is_dnn(m, tol).answer is not Answer.IN:
        raise NotDnnError("matrix is not doubly nonnegative")
    w, q = kernel.eig_sym(m)
    rank = kernel._rank(w, tol)
    if p_target < rank:
        return None  # cp-rank is bounded below by rank
    w = np.clip(w[:rank], 0.0, None)
    b = q[:, :rank] * np.sqrt(w)[None, :]  # n x r root of m
    scale = max(scale, np.finfo(float).tiny)
    rng = np.random.default_rng(0)
    for _ in range(max(1, restarts)):
        g = rng.standard_normal((rank, p_target))
        qr, _ = np.linalg.qr(g.T)
        rot = qr[:, :rank].T  # r x p with orthonormal rows
        for _ in range(500):
            prod = b @ rot
            if prod.min() >= -_ROOT_FLOOR * scale:
                v = NonnegFactor(np.clip(prod, 0.0, None), tol)
                if np.abs(v.product() - m).max() <= _FACTOR_FIT * scale and v.p <= p_target:
                    return v
                break
            targ = np.clip(prod, 0.0, None)
            u, _, vt = np.linalg.svd(b.T @ targ, full_matrices=False)
            rot = u @ vt
    return None
