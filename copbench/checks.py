"""Output checks for the benchmark, written with numpy alone.

Each check recomputes the property an output must have from the input
matrix and raises :class:`CheckError` when it does not hold.  None of them
calls into copcone, so a fault in the library cannot hide itself by also
breaking its own checker.

The thresholds mirror the library's default tolerance, ``1e-9`` absolute
plus ``1e-9`` relative to the largest entry, so that a certificate the
library is entitled to emit is accepted and anything beyond it is not.
"""

from __future__ import annotations

import numpy as np

ABS = 1e-9
REL = 1e-9


class CheckError(AssertionError):
    """An output does not have the property it must have."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def threshold(a) -> float:
    return ABS + REL * float(np.abs(np.asarray(a, dtype=float)).max(initial=0.0))


def form(a, x) -> float:
    x = np.asarray(x, dtype=float)
    return float(x @ np.asarray(a, dtype=float) @ x)


def _on_simplex(x, n: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    require(x.shape == (n,), f"{what}: shape {x.shape}, expected ({n},)")
    require(np.all(np.isfinite(x)), f"{what}: non-finite entries")
    require(x.min() >= -ABS, f"{what}: negative entry {x.min():.3g}")
    require(abs(x.sum() - 1.0) <= 1e-9, f"{what}: sum {x.sum():.17g} is not 1")
    return x


def _reported(value, recomputed: float, scale: float, what: str) -> None:
    if value is not None:
        require(
            abs(float(value) - recomputed) <= 1e-9 * max(1.0, scale),
            f"{what}: reported value {value!r} but x'Ax = {recomputed!r}",
        )


def violation(a, x, value=None) -> None:
    """A copositivity violation: x >= 0, sum(x) = 1 and x'Ax < -thr."""
    a = np.asarray(a, dtype=float)
    x = _on_simplex(x, a.shape[0], "violation vector")
    q = form(a, x)
    require(q < -threshold(a), f"violation vector: x'Ax = {q:.3g} is not below -thr")
    _reported(value, q, np.abs(a).max(), "violation vector")


def psd_violation(a, x, value=None) -> None:
    """A PSD violation: any real unit vector x with x'Ax < -thr."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    require(x.shape == (a.shape[0],), "psd witness: wrong shape")
    require(abs(np.linalg.norm(x) - 1.0) <= 1e-9, "psd witness: not a unit vector")
    q = form(a, x)
    require(q < -threshold(a), f"psd witness: x'Ax = {q:.3g} is not below -thr")
    _reported(value, q, np.abs(a).max(), "psd witness")


def boundary_zero(a, x, value=None, stationary: bool = False) -> None:
    """A zero of the form on the standard simplex: |x'Ax| <= thr.

    With ``stationary`` the gradient must also vanish on the support of x,
    as it does at every KKT point that is a zero of a copositive form.
    """
    a = np.asarray(a, dtype=float)
    x = _on_simplex(x, a.shape[0], "boundary zero")
    thr = threshold(a)
    q = form(a, x)
    require(abs(q) <= thr, f"boundary zero: |x'Ax| = {abs(q):.3g} exceeds thr")
    _reported(value, q, np.abs(a).max(), "boundary zero")
    if stationary:
        grad = (a @ x)[x > thr]
        require(np.abs(grad).max(initial=0.0) <= thr, "boundary zero: not stationary")


def negative_entry(a, i: int, j: int, value) -> None:
    a = np.asarray(a, dtype=float)
    require(a[i, j] < -threshold(a), f"negative entry ({i}, {j}) is {a[i, j]!r}")
    require(float(value) == a[i, j], "negative entry: reported value differs")


def verdict(answer: str, expected: str) -> None:
    require(answer == expected, f"verdict {answer}, expected {expected} by construction")


def factor(m, v, max_cols: int | None = None, rel: float = 1e-9) -> None:
    """A nonnegative factor: V >= 0 and ||V V' - M||_inf <= rel * scale."""
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    require(v.ndim == 2 and v.shape[0] == m.shape[0], f"factor: shape {v.shape}")
    require(np.all(np.isfinite(v)), "factor: non-finite entries")
    require(v.min(initial=0.0) >= 0.0, f"factor: negative entry {v.min():.3g}")
    resid = float(np.abs(v @ v.T - m).max())
    scale = max(1.0, float(np.abs(m).max()))
    require(resid <= rel * scale, f"factor: residual {resid:.3g} exceeds {rel:g} * {scale:.3g}")
    if max_cols is not None:
        require(v.shape[1] <= max_cols, f"factor: {v.shape[1]} columns, limit {max_cols}")


def interior_certificate(m, v, column: int, rank: int) -> None:
    """Interior of the cp cone: a factor of rank n with a positive column."""
    v = np.asarray(v, dtype=float)
    n = np.asarray(m).shape[0]
    factor(m, v)
    require(v[:, column].min() > 0.0, "interior certificate: column is not positive")
    require(rank == n == np.linalg.matrix_rank(v), "interior certificate: rank is not n")


def numerical_rank(m) -> int:
    """Rank by singular values above the library's tolerance model."""
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    return int(np.linalg.matrix_rank(m, tol=ABS + REL * float(s.max(initial=0.0))))


def interval(m, lower: int, upper: int, rules, factor_cols: int | None = None,
             horn_witness: bool = False) -> None:
    """A cp-rank interval: lower = rank M <= upper, upper <= any factor's
    column count, and HORN15 present for a Horn-block witness."""
    rank = numerical_rank(m)
    require(lower == rank, f"interval: lower end {lower}, matrix_rank {rank}")
    require(lower <= upper, f"interval: lower {lower} > upper {upper}")
    if factor_cols is not None:
        require(upper <= factor_cols, f"interval: upper {upper} > factor columns {factor_cols}")
    if horn_witness:
        require("HORN15" in rules, "interval: HORN15 missing for a Horn-block witness")
        require(upper <= 15, f"interval: upper {upper} above the Horn-block bound 15")


def orbit(a, base, d, perm) -> None:
    """A_ij = d_i d_j B[perm_i, perm_j] with d > 0 and perm a permutation."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    perm = np.asarray(perm, dtype=int)
    n = a.shape[0]
    require(sorted(perm.tolist()) == list(range(n)), "orbit witness: not a permutation")
    require(d.shape == (n,) and d.min() > 0.0, "orbit witness: scaling is not positive")
    b = np.asarray(base, dtype=float)[np.ix_(perm, perm)] * np.outer(d, d)
    require(np.abs(b - a).max() <= threshold(a), "orbit witness does not reconstruct A")


def orthogonal_pair(m, a, column_ok: bool, anti_dd_rows, defect=None) -> None:
    """Properties of an orthogonal pair (M completely positive, A copositive,
    <M, A> = 0): the diagonal of MA vanishes, and A scaled by sqrt(diag M)
    is anti-diagonally dominant, row by row."""
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    gauge = np.linalg.norm(m) * np.linalg.norm(a)
    diag = np.abs(np.diag(m @ a))
    require(diag.max() <= ABS + REL * gauge, f"orthogonal pair: diag(MA) reaches {diag.max():.3g}")
    require(bool(column_ok), "orthogonal pair: column check reported failure")
    if defect is not None:
        require(abs(float(defect) - diag.max()) <= 1e-12 * max(1.0, gauge), "orthogonal pair: defect")
    s = np.sqrt(np.diag(m))
    scaled = a * np.outer(s, s)
    thr = threshold(scaled)
    off = np.abs(scaled).sum(axis=1) - np.abs(np.diag(scaled))
    expected = [bool(x) for x in np.diag(scaled) <= off + thr]
    require(all(expected), "orthogonal pair: scaled A is not anti-diagonally dominant")
    require(list(anti_dd_rows) == expected, "orthogonal pair: anti-dd rows differ")


def nullspace(m, a, v, results) -> None:
    """Nullspace condition: PASS exactly where coordinate i is in the support
    of every factor column and M A[:, i] = 0; SKIP where it is not."""
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    thr = threshold(v)
    gauge = np.abs(m).max() * np.abs(a).max()
    for i, res in enumerate(results):
        if not np.all(v[i, :] > thr):
            require(res == "SKIP", f"nullspace {i}: {res}, expected SKIP")
        else:
            null = np.abs(m @ a[:, i]).max() <= ABS + REL * gauge
            require(null and res == "PASS", f"nullspace {i}: {res}")
