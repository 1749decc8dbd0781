"""Constructive cp factorizations and factor transformations.

Covers the diagonally dominant expansion, the interior
construction for positive diagonally dominant matrices, the positive-factor
perturbation, the order-6 Horn-orthogonal assembly with at most 15 columns,
order-3 factorization of doubly nonnegative matrices, Newton continuation of
a positive square factor, and a rotation-based heuristic for small column
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel, special
from .cones import InteriorCertificate, cp_interior_certificate, is_dnn, Answer
from .errors import (
    ColumnOutsideConesError,
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
    "horn_orthogonal_factorize",
    "cp3_factorize",
    "factor_continuation",
    "heuristic_min_factor",
]


class NonnegFactor:
    """Entrywise nonnegative n x p factor V; M = V @ V.T is the product.

    Zero columns are dropped on construction and entries within tolerance of
    zero are clamped; a genuinely negative entry raises.  ``scale`` is the
    largest entry, the scale of thresholds on the factor.
    """

    def __init__(self, columns, tol: Tolerance = DEFAULT_TOL):
        v = np.asarray(columns, dtype=float)
        thr = tol.scaled(_factor_scale(v))
        if v.min(initial=0.0) < -thr:
            raise NotNonnegativeError("factor has a negative entry beyond tolerance")
        v = np.maximum(v, 0.0)
        col_max = v.max(axis=0, initial=0.0)
        self.v = v[:, col_max > 0.0]
        self.scale = float(col_max.max(initial=0.0))

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def p(self) -> int:
        return self.v.shape[1]

    def product(self) -> np.ndarray:
        return self.v @ self.v.T

    def __repr__(self):
        return f"NonnegFactor(n={self.n}, p={self.p})"


def _factor_scale(v: np.ndarray) -> float:
    """Largest entry magnitude of a 2-d factor whose entries are finite and
    whose product V V.T has no entry, that is no row sum of squares, above
    ``kernel.MAX_ENTRY``; raises ``ValueError`` otherwise."""
    if v.ndim != 2:
        raise ValueError("factor must be a 2-d array of columns")
    scale = float(np.abs(v).max(initial=0.0))
    if not math.isfinite(scale):  # the max of a NaN or an inf is not finite
        raise ValueError("factor entries must be finite")
    # an entry of at most 2**250 squares to at most MAX_ENTRY: no row sum overflows
    if scale > 2.0**250 or np.square(v).sum(axis=1).max(initial=0.0) > kernel.MAX_ENTRY:
        raise ValueError("factor product entries must be at most 2**500 in magnitude")
    return scale


def dd_factorize(m, tol: Tolerance = DEFAULT_TOL) -> NonnegFactor:
    """Factorize a nonnegative diagonally dominant matrix.

    Rank-1 expansion: sqrt(M_ij) (e_i + e_j) for each positive off-diagonal
    entry plus sqrt(M_ii - sum_j M_ij) e_i for each positive diagonal
    residual.  Exact up to roundoff; at most n(n+1)/2 columns.
    """
    m, scale = kernel.as_sym(m, tol)
    return NonnegFactor(_dd_columns(m, tol.scaled(scale)), tol)


def _dd_columns(m: np.ndarray, thr: float, mu: float = 0.0) -> np.ndarray:
    """The columns of :func:`dd_factorize` of a validated ``m`` less ``mu``
    times the all-ones matrix, n x p.  Nonnegativity and dominance are
    checked on ``m``; for 0 < mu = min m_ij and n >= 3 the remainder keeps
    both, since each of its rows gains (n - 2) mu of slack."""
    n = m.shape[0]
    if m.min() < -thr:
        raise NotNonnegativeError("matrix has a negative entry")
    m = np.maximum(m, 0.0)
    off_sums = m.sum(axis=1) - np.diag(m)
    if np.any(np.diag(m) - off_sums < -thr):
        raise NotDiagonallyDominantError("diagonal dominance fails")
    m = m - mu  # the columns expand the remainder
    off_sums = m.sum(axis=1) - np.diag(m)
    # row i holds its pairs j > i, then its residual in column n; nonzero
    # reads row by row, so the columns come pair by pair, then the residual
    grid = np.column_stack([np.triu(m, 1), np.diag(m) - off_sums])
    rows, cols = np.nonzero(grid > 0.0)
    k = np.arange(rows.size)
    out = np.zeros((n + 1, rows.size))  # row n takes a residual's second entry
    out[rows, k] = out[cols, k] = np.sqrt(grid[rows, cols])
    return out[:n]


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
    rest = _dd_columns(m, thr, mu)
    first = np.full((n, 1), np.sqrt(mu))
    factor = NonnegFactor(np.hstack([first, rest]), tol)
    cert = cp_interior_certificate(factor, tol)
    if cert is None:  # mu > thr puts the first column above the factor's threshold: the rank fell short
        raise NotPositiveError(
            f"the factor's numerical rank is below the order {n}: no interior certificate"
        )
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
    # connected iff the layers reached from vertex 0 cover every vertex;
    # each vertex is expanded once, so this costs O(n^2)
    adj = (m > thr) | np.eye(n, dtype=bool)
    reached = frontier = adj[0]
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reached
        reached = reached | frontier
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

    - r = 1: the root is column j of Y over sqrt(y_jj), and Y >= 0 (clipped
      here, a product of nonnegative factors in horn6), so it is nonnegative.
    - r = 2: the rows of L have pairwise inner products y_jk >= 0, so one
      rotation of the plane moves them all into the nonnegative quadrant.
    - r = 3: take i = argmax y_ii and t = 1 / (Y^-1)_ii, the largest t for
      which Y - t e_i e_i.T stays PSD.  The remainder is doubly nonnegative
      of rank 2: with u = L^-1 e_i, so that t = 1 / |u|^2, its root is L Q
      for Q an orthonormal basis of the complement of u.  Rotate that root
      as for r = 2 and append the column sqrt(t) e_i.

    The entries of Y in [-thr, 0), thr = tol.scaled(max|Y|), which the DNN
    test accepts, are clipped to 0 first, so y_jk >= 0 holds exactly.  Root
    entries down to -thr / max|L| are roundoff and are clipped, which moves
    the product by at most the tolerance; a root that is already nonnegative
    within that bound is returned as is.
    """
    y, scale = kernel.as_sym(y, tol)
    if y.shape[0] > 3:
        raise ValueError("cp3_factorize handles orders up to 3")
    if is_dnn(y, tol).answer is not Answer.IN:
        raise NotDnnError("matrix is not doubly nonnegative")
    return _cp3_factor(np.maximum(y, 0.0), scale, tol)


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
    elif r == 2:
        v = _quadrant_rotate(l)
    else:
        i = int(np.argmax(np.diag(y)))
        u = np.linalg.solve(l, np.eye(n)[i])
        q = np.linalg.svd(u[:, None])[0][:, 1:]
        v = np.column_stack([_quadrant_rotate(l @ q), np.eye(n)[i] / np.linalg.norm(u)])
    if v.min() < -clip:
        raise NotDnnError("no nonnegative factor within tolerance")
    return NonnegFactor(np.maximum(v, 0.0), tol)


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
    hb = special.horn_block6()
    if abs(float(np.sum(m * hb))) > tol.scaled(np.abs(m).max(initial=0.0)):
        raise NotOrthogonalToHornError("product is not orthogonal to the Horn block")
    w = special.horn_generators()
    gens = [w[:, [i, (i + 1) % 5, 5]] for i in range(5)]
    groups: dict[int, list[np.ndarray]] = {}
    for j in range(v.p):
        col = v.v[:, j]
        col_thr = tol.scaled(col.max(initial=0.0))
        support = set(np.nonzero(col[:5] > col_thr)[0])
        for i in range(5):
            if support <= {i, (i + 1) % 5, (i + 2) % 5}:
                c = kernel.lp_feasible(gens[i], col, tol)
                if c is not None:
                    groups.setdefault(i, []).append(c)
                    break
        else:
            raise ColumnOutsideConesError(f"column {j} lies outside the generator cones")
    out_cols = [np.zeros((6, 0))]
    for i in sorted(groups):
        c = np.column_stack(groups[i])  # 3 x p_i coefficient block
        y = c @ c.T  # doubly nonnegative: lp_feasible returns c >= 0
        z = _cp3_factor(y, np.abs(y).max(), tol)
        out_cols.append(gens[i] @ z.v)
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
    if vc.min() <= tol.scaled(_factor_scale(vc)):
        raise NotPositiveError("square factor must be entrywise positive")
    vtilde = NonnegFactor(vtilde, tol).v
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
# -_ROOT_FLOOR * sqrt(max|M|), the roundoff at the root's own scale (so 4 M
# gets 2 V bit for bit); its entries are then clipped to 0 ...
_ROOT_FLOOR = 1e-9
# ... and the clipped factor is accepted when V V.T matches M within this
# times max|M|, which leaves room for the error the clipping adds.
_FACTOR_FIT = 1e-7
# Random starting rotations the search tries before it gives up.
_RESTARTS = 20


def heuristic_min_factor(
    m,
    p_target: int,
    tol: Tolerance = DEFAULT_TOL,
) -> NonnegFactor | None:
    """Search a nonnegative factor with at most ``p_target`` columns.

    Alternating projection between the manifold {B Q : Q has orthonormal
    rows} of exact roots and the nonnegative orthant, with deterministic
    random restarts; the first restart index to succeed wins.  The search
    runs with ``p_target`` columns, but columns that end up exactly zero are
    dropped by :class:`NonnegFactor`, so fewer may come back.  ``None``
    means the search failed, which is not a proof of impossibility.  A
    negative ``p_target`` is a ValueError; a zero matrix gets the factor with
    no columns.
    """
    if p_target < 0:
        raise ValueError("p_target must be nonnegative")
    m, scale = kernel.as_sym(m, tol)
    if is_dnn(m, tol).answer is not Answer.IN:
        raise NotDnnError("matrix is not doubly nonnegative")
    w, q = kernel.eig_sym(m)
    rank = kernel._rank(w, tol)
    if p_target < rank:
        return None  # cp-rank is bounded below by rank
    if rank == 0:
        return NonnegFactor(np.zeros((m.shape[0], 0)), tol)
    w = np.maximum(w[:rank], 0.0)
    b = q[:, :rank] * np.sqrt(w)[None, :]  # n x r root of m
    scale = max(scale, np.finfo(float).tiny)
    rng = np.random.default_rng(0)
    for _ in range(_RESTARTS):
        g = rng.standard_normal((rank, p_target))
        qr, _ = np.linalg.qr(g.T)
        rot = qr[:, :rank].T  # r x p with orthonormal rows
        for _ in range(500):
            prod = b @ rot
            if prod.min() >= -_ROOT_FLOOR * math.sqrt(scale):
                v = NonnegFactor(np.maximum(prod, 0.0), tol)
                if np.abs(v.product() - m).max() <= _FACTOR_FIT * scale:
                    return v
                break
            targ = np.maximum(prod, 0.0)
            u, _, vt = np.linalg.svd(b.T @ targ, full_matrices=False)
            rot = u @ vt
    return None
