from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_simplex_min, gauss_rank, horn_plus, random_sym, spy
from copcone import kernel
from copcone import (
    DEFAULT_TOL,
    Answer,
    NonnegFactor,
    Tolerance,
    horn_generators,
    horn_matrix,
    is_copositive,
)
from copcone.kernel import (
    eig_sym,
    lp_feasible,
    num_rank,
    pivoted_cholesky,
    simplex_form_min,
    simplex_stationary_points,
)


def test_horn_eigenvalues_match_circulant_formula():
    w, q = eig_sym(horn_matrix())
    expected = sorted(
        (1 - 2 * np.cos(2 * np.pi * j / 5) + 2 * np.cos(4 * np.pi * j / 5) for j in range(5)),
        reverse=True,
    )
    assert np.allclose(w, expected, atol=1e-12)


def check_eig_pairs(a, w, q):
    n = a.shape[0]
    scale = max(np.abs(a).max(), 1.0)
    assert w.shape == (n,) and q.shape == (n, n)
    assert np.all(np.diff(w) <= 0.0)
    assert np.abs(q @ np.diag(w) @ q.T - a).max() <= 1e-12 * scale
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12
    # each column's largest-magnitude entry, the first one on ties, is positive
    lead = q[np.argmax(np.abs(q), axis=0), np.arange(n)]
    assert np.all(lead > 0.0)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
def test_eig_reconstruction_and_orthogonality(rng, n):
    a = random_sym(rng, n, scale=3.0)
    w, q = eig_sym(a)
    check_eig_pairs(a, w, q)


@pytest.mark.parametrize(
    "a, spectrum",
    [
        (np.array([[-2.5]]), [-2.5]),
        (np.zeros((3, 3)), [0.0, 0.0, 0.0]),
        (np.eye(4), [1.0, 1.0, 1.0, 1.0]),
        (np.ones((4, 4)), [4.0, 0.0, 0.0, 0.0]),
    ],
    ids=["order1", "zero", "eye4", "J4"],
)
def test_eig_sym_degenerate_inputs(a, spectrum):
    w, q = eig_sym(a)
    check_eig_pairs(a, w, q)
    assert np.allclose(w, spectrum, atol=1e-12)


def test_num_rank_agrees_with_gaussian_elimination(rng):
    for _ in range(40):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, n + 1))
        b = rng.standard_normal((n, r))
        a = b @ b.T
        assert num_rank(a) == gauss_rank(a) == r
    h = horn_matrix()
    assert num_rank(h) == gauss_rank(h) == 5


def test_pivoted_cholesky_reconstructs_low_rank(rng):
    for _ in range(30):
        n = int(rng.integers(1, 8))
        r = int(rng.integers(1, n + 1))
        b = rng.standard_normal((n, r))
        a = b @ b.T
        l = pivoted_cholesky(a)
        assert l.shape[1] <= r
        assert np.abs(l @ l.T - a).max() <= 1e-9 * max(np.abs(a).max(), 1.0)


@pytest.mark.parametrize("n, p", [(1, 1), (2, 5), (5, 3), (8, 40), (13, 13)])
def test_kernel_inputs_are_exactly_symmetric(rng, n, p):
    """The eigen, rank and simplex entry points do not symmetrize: their
    callers hand them ``as_sym``'s matrix or a factor's product, and both
    are symmetric bit for bit."""
    a = random_sym(rng, n)
    a[0, -1] += 1e-13  # asymmetric within the tolerance
    sym, _ = kernel.as_sym(a)
    assert np.array_equal(sym, sym.T)
    for columns in (rng.random((n, p)), np.asfortranarray(rng.random((n, p))), rng.random((p, n)).T):
        prod = NonnegFactor(columns).product()
        assert np.array_equal(prod, prod.T)


def test_simplex_form_min_quadratic_oracle():
    # min over the simplex of x'Ix = 1/n at the barycenter
    for n in range(1, 6):
        val, x = simplex_form_min(np.eye(n))
        assert abs(val - 1.0 / n) <= 1e-12
        assert np.allclose(x, np.full(n, 1.0 / n), atol=1e-9)
    # Horn form vanishes on edge midpoints
    val, x = simplex_form_min(horn_matrix())
    assert abs(val) <= 1e-12


def reference_tagged_points(q):
    """``(mask, value, lam)``, one KKT solve per support in mask order: the
    loop the batched enumeration must reproduce bit for bit."""
    assert np.array_equal(q, q.T)  # the kernel's precondition
    n = q.shape[0]
    scale = max(1.0, np.abs(q).max())
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        k = len(idx)
        lam_full = np.zeros(n)
        if k == 1:
            lam_full[idx[0]] = 1.0
            yield mask, float(q[idx[0], idx[0]]), lam_full
            continue
        qs = q[np.ix_(idx, idx)]
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * qs
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        if not np.all(np.isfinite(sol)):
            continue
        if np.abs(kkt @ sol - rhs).max() > 1e-8 * scale:
            continue
        lam = sol[:k]
        if lam.min() < -1e-10:
            continue
        lam = np.clip(lam, 0.0, None)
        total = lam.sum()
        if total <= 0.0:
            continue
        lam /= total
        lam_full[idx] = lam
        yield mask, float(lam @ qs @ lam), lam_full


def oracle_matrices():
    rng = np.random.default_rng(7)
    mats = []
    for n in range(2, 10):
        a = random_sym(rng, n, scale=2.0)
        mats += [a, np.round(a)]  # integer entries give singular faces
    h = horn_matrix()
    for _ in range(3):
        p = rng.permutation(5)
        d = rng.uniform(0.5, 2.0, 5)
        mats.append((d[:, None] * h * d[None, :])[np.ix_(p, p)])
    mats.append(horn_plus(np.eye(2)))
    a = random_sym(rng, 11)
    mats += [np.round(2.0 * a), np.eye(11) + 0.05 * a]  # 2047 masks
    mats.append(random_sym(rng, 1))  # one mask, one support size
    a = random_sym(rng, 10, scale=2.0)
    mats += [a, np.round(a)]  # 1023 masks
    mats.append(random_sym(rng, 12))  # 4095 masks
    # 8191 masks: the C(13, 6) = 1716 supports of size 6, and as many of
    # size 7, are each one stacked solve
    mats.append(random_sym(rng, 13))
    return mats


def assert_same_points(got, want):
    """Two streams of ``(value, lam)`` agree point for point, bit for bit."""
    assert len(got) == len(want)
    for (v1, x1), (v2, x2) in zip(got, want):
        assert v1 == v2
        assert np.array_equal(x1, x2)


@pytest.mark.parametrize("a", oracle_matrices(), ids=lambda a: f"n{a.shape[0]}")
def test_stationary_points_match_per_support_loop(a):
    want = [(value, lam) for _, value, lam in reference_tagged_points(a)]
    assert_same_points(list(simplex_stationary_points(a)), want)


@pytest.mark.parametrize("a", oracle_matrices(), ids=lambda a: f"n{a.shape[0]}")
def test_form_min_is_the_first_least_stationary_point(a):
    # Horn orbits and integer entries tie; the first point in mask order wins
    val, lam = simplex_form_min(a)
    want_val, want_lam = enumerated_min(a)
    assert val == want_val
    assert np.array_equal(lam, want_lam)


@pytest.mark.parametrize("a", oracle_matrices(), ids=lambda a: f"n{a.shape[0]}")
def test_a_support_list_walks_only_its_faces(a):
    """The walk over a list of masks is the full walk's stream filtered to
    those masks, bit for bit, and its minimum is the filtered stream's first
    least point.  The masks come unordered, some repeated, some of faces
    without a stationary point."""
    n = a.shape[0]
    full = list(simplex_stationary_points(a))
    tags = [mask for mask, _, _ in reference_tagged_points(a)]
    assert len(tags) == len(full)  # the kernel's stream is the reference's
    rng = np.random.default_rng(n)
    for size in (1, 3, 40):
        chosen = rng.choice(np.arange(1, 1 << n), min(size, (1 << n) - 1), replace=False).tolist()
        chosen += chosen[:1]
        want = [point for mask, point in zip(tags, full) if mask in chosen]
        assert_same_points(list(simplex_stationary_points(a, chosen)), want)
        least = min(want, key=lambda point: point[0], default=None)
        found = simplex_form_min(a, chosen)
        if least is None:
            assert found is None
        else:
            assert found[0] == least[0]
            assert np.array_equal(found[1], least[1])


def test_a_support_list_without_stationary_points_gives_none():
    # The edge's plane is stationary at (1.5, -0.5), off the simplex.
    q = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert [lam.tolist() for _, lam in simplex_stationary_points(q)] == [[1.0, 0.0], [0.0, 1.0]]
    for supports in ([0b11], []):
        assert list(simplex_stationary_points(q, supports)) == []
        assert simplex_form_min(q, supports) is None


def test_support_plan_holds_only_integer_indices():
    """The cached plans of the full walk at the largest order and of one
    face: integer arrays only, one position per mask and one index per
    member of each support, so the full walk's size is
    (2**n - 1 + n * 2**(n - 1)) index entries, 4.7 MB at order 16."""
    for masks, n in ((None, kernel.ENUMERATION_MAX_ORDER), ((0b111,), 3)):
        plan = kernel._plan(masks, n)
        assert kernel._plan(masks, n) is plan
        arrays = [arr for pair in plan for arr in pair]
        assert all(arr.dtype == np.intp and not arr.flags.writeable for arr in arrays)
        listed = range(1, 1 << n) if masks is None else masks
        bound = (len(listed) + sum(bin(mask).count("1") for mask in listed)) * np.dtype(np.intp).itemsize
        assert sum(arr.nbytes for arr in arrays) <= bound <= 5_000_000
        rows = np.concatenate([rows for rows, _ in plan])
        assert np.array_equal(np.sort(rows), np.arange(len(listed)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_simplex_form_min_is_the_exact_minimum(n, seed):
    """The walk's minimum is within 4 eps max|a| of the exact one, at a
    point of the simplex where the form takes that value."""
    rng = np.random.default_rng(seed)
    a = random_sym(rng, n)
    val, x = simplex_form_min(a)
    assert abs(x.sum() - 1.0) <= 1e-9 and x.min() >= -1e-12
    assert abs(float(x @ a @ x) - val) <= 1e-9
    assert abs(Fraction(val) - exact_simplex_min(a)) <= 4 * np.finfo(float).eps * np.abs(a).max()


def enumerated_min(q):
    """The first strict minimum of the enumeration's point stream."""
    best_val, best_lam = np.inf, None
    for val, lam in simplex_stationary_points(q):
        if val < best_val:
            best_val, best_lam = val, lam
    return best_val, best_lam


def positive_definite(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        return np.diag(rng.uniform(0.05, 1.0, n))
    if kind == "near_singular":
        # smallest eigenvalue 1e-10 with the largest entry near 1
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(0.1, 1.0, n)
        w[0] = 1e-10
        q = (u * w) @ u.T
        return 0.5 * (q + q.T)
    g = rng.standard_normal((n, n))
    q = g @ g.T / n
    if kind != "tied" or n == 1:
        return q + 0.1 * np.eye(n)
    # Minimizer x on the first k indices, and (q x)_j equals its value c for
    # every j: faces with and without the index j, or an index of tiny
    # weight, tie up to roundoff.
    k = int(rng.integers(1, n))
    x = np.zeros(n)
    x[:k] = rng.dirichlet(np.ones(k))
    v = q @ x
    c = v[:k].max() + 1.0
    q[np.arange(k), np.arange(k)] += (c - v[:k]) / x[:k]
    q[k:, :k] += (c - v[k:])[:, None]
    q[:k, k:] = q[k:, :k].T
    q[k:, k:] += (np.abs(q).sum() ** 2 + 1.0) * np.eye(n - k)  # positive definite
    p = rng.permutation(n)
    return q[np.ix_(p, p)]


def reference_nnls(q, c, stop=0.0):
    """Minimizer of ``z @ q @ z - 2 * c @ z`` over z >= 0 by the
    Lawson-Hanson active set (Lawson & Hanson 1974, ch. 23) on the normal
    equations: the reference the block principal pivoting is checked
    against.  ``q`` is a Gram matrix A.T @ A, possibly of dependent
    columns.  An index j enters the passive set only
    while ``(c - q @ z)_j``, minus half the gradient, exceeds ``stop``; a
    ``stop`` above the roundoff in the gradient keeps the passive columns
    independent.  ``None`` if it does not settle within 3n additions
    (roundoff cycling)."""
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
            trial[idx] = np.linalg.solve(q[idx[:, None], idx], c[idx])
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


# The pivoting's minimum against the walk's, in units of max|q|: the worst
# gap seen was 1.6e-16 over the verdict families of test_cones (seeds 0-999
# at the scales 10**{-6, 0, 6}, and their permutations) and 1.7e-16 over
# 5 400 blocks of this file's positive definite kinds; the bound is twice
# the machine epsilon, 4.4e-16.
PIVOT_GAP = 2 * np.finfo(float).eps


def assert_kkt_point(q, val, lam):
    """``(val, lam)`` is the form's value at a KKT point of ``lam @ q @ lam``
    on the standard simplex, within the roundoff of the gradient: lam >= 0
    sums to 1, and (q lam)_j is val where lam_j > 0 and no less elsewhere."""
    n = q.shape[0]
    assert type(val) is float and val == float(lam @ q @ lam)
    assert lam.min() >= 0.0 and abs(lam.sum() - 1.0) <= n * np.finfo(float).eps
    grad = q @ lam
    slack = 8 * n * np.finfo(float).eps * (np.abs(q) @ lam).max()
    assert np.abs(grad[lam > 0.0] - val).max() <= slack
    assert grad.min() >= val - slack


def assert_pivoting_matches_the_enumeration(q):
    """Where Cholesky accepts ``q``, the one case ``is_copositive`` takes
    the pivoting in, ``_convex_form_min`` is ``None`` (a free block singular
    in roundoff) or a KKT point whose value is the enumeration's minimum
    within ``PIVOT_GAP * max|q|``; returns it."""
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        return None
    found = kernel._convex_form_min(q)
    if found is not None:
        assert_kkt_point(q, *found)
        assert abs(found[0] - enumerated_min(q)[0]) <= PIVOT_GAP * np.abs(q).max()
    return found


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["gram", "diagonal", "near_singular", "tied"]),
    st.integers(1, 12),
    st.integers(0, 10_000),
    st.floats(-6.0, 6.0),
)
def test_positive_definite_min_matches_the_enumeration(kind, n, seed, log_scale):
    q = 10.0**log_scale * positive_definite(kind, n, seed)
    np.linalg.cholesky(q)
    # the pivoting settles on every block, exact face ties included
    assert assert_pivoting_matches_the_enumeration(q) is not None


@pytest.mark.parametrize("n, seed", [(3, 54), (4, 4), (5, 3), (6, 9), (8, 20)])
def test_near_tie_is_decided_by_the_pivoting(n, seed):
    # Some index j outside the support has a multiplier of roundoff size,
    # so faces with and without j tie; the pivoting's point is one of them.
    assert assert_pivoting_matches_the_enumeration(positive_definite("tied", n, seed)) is not None


def test_a_weight_zero_in_exact_arithmetic_is_decided_by_the_pivoting():
    # q was built so that q v = 1 for v proportional to (0.76, 0.24, 0):
    # index 2's weight is 0 up to roundoff, and a condition number of 3e7
    # makes both roundings of it about 1e-10.  Either way the last step's
    # point meets the KKT conditions within roundoff.
    q = np.array([
        [0.8916728132604592, 0.38459053945364174, 0.050595987885161786],
        [0.38459053945364174, 1.9861236744669108, 3.0409886714922263],
        [0.050595987885161786, 3.0409886714922263, 5.010640065588195],
    ])
    _, lam = assert_pivoting_matches_the_enumeration(q)
    assert lam[2] <= 1e-9


def diagonally_scaled(kind, n, seed):
    """D q D with log10 d_i uniform on (-4, 4) for a ``positive_definite``
    kind, or a diagonal matrix with entries 10**U(-8, 8) for "wide_diagonal":
    weights and multipliers far below the largest entry."""
    rng = np.random.default_rng([seed, n])
    if kind == "wide_diagonal":
        return np.diag(10.0 ** rng.uniform(-8.0, 8.0, n))
    d = 10.0 ** rng.uniform(-4.0, 4.0, n)
    q = d[:, None] * positive_definite(kind, n, seed) * d
    return 0.5 * (q + q.T)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["gram", "diagonal", "near_singular", "tied", "wide_diagonal"]),
    st.integers(1, 12),
    st.integers(0, 10_000),
)
def test_scaled_positive_definite_min_matches_the_enumeration(kind, n, seed):
    assert_pivoting_matches_the_enumeration(diagonally_scaled(kind, n, seed))


@pytest.mark.parametrize(
    "q",
    [
        15.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        diagonally_scaled("near_singular", 8, 11),
    ],
    ids=["edge-zero", "rank1", "scaled-near-singular"],
)
def test_singular_psd_min_matches_the_enumeration(q):
    # Cholesky may pass on these in roundoff; the pivoting then meets a
    # singular block or repeats a free set twice (None, and the enumeration
    # decides), or settles at a KKT point within roundoff.
    assert_pivoting_matches_the_enumeration(q)


@pytest.mark.parametrize("kind", ["gram", "diagonal", "near_singular"])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_pivoting_finds_the_active_set_support(kind, n):
    for seed in range(20):
        for scale in (1e-6, 1.0, 1e6):
            q = scale * positive_definite(kind, n, seed)
            z = reference_nnls(q, np.ones(n))
            if z is None:
                continue
            val, lam = kernel._convex_form_min(q)
            assert np.array_equal(np.flatnonzero(lam > 0.0), np.flatnonzero(z > 0.0))
            assert_kkt_point(q, val, lam)


@pytest.mark.parametrize("n", [2, 5, 8, 12, 18])
def test_pivoting_on_ties_settles_at_a_kkt_point(monkeypatch, n):
    # Exact face ties make the exact flips cycle on some of these blocks
    # (17 of the 40 at order 18); from the first repeated free set the flips
    # are taken against roundoff, and every block settles in a few solves.
    solves = []
    spy(monkeypatch, np.linalg, "solve", lambda out, *args: solves.append(out))
    for seed in range(40):
        q = positive_definite("tied", n, seed)
        solves.clear()
        assert_kkt_point(q, *kernel._convex_form_min(q))
        assert len(solves) < 4 * n + 4


@pytest.fixture
def cycling_solve(monkeypatch):
    """``np.linalg.solve`` whose one-vector solves, the pivoting's, give -1
    everywhere, so every free index flips and the free sets alternate
    between all indices and none; stacked solves, the walk's, are left
    alone."""
    inner = np.linalg.solve

    def solve(a, b):
        return -np.ones(len(b)) if np.ndim(b) == 1 else inner(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)


@pytest.mark.parametrize("n", [5, 17])
def test_pivoting_that_repeats_a_free_set_twice_gives_none(cycling_solve, route, n):
    # The first repeat turns the roundoff tolerance on, the second gives
    # None; is_copositive then walks the block, up to the order limit.
    q = 1.01 * np.eye(n) - 0.01
    assert kernel._convex_form_min(q) is None
    route.clear()
    v = is_copositive(q)
    stages = [call for call in route if not call.startswith("solve")]
    if n <= kernel.ENUMERATION_MAX_ORDER:
        assert v.answer is Answer.IN and stages == [f"cholesky {n}", "convex gives None", f"enumeration {n}", "walk"]
        assert v.minimum == simplex_form_min(q)[0]
    else:
        assert v.answer is Answer.UNDECIDED and stages == [f"cholesky {n}", "convex gives None"]


def test_positive_definite_block_needs_no_enumeration(route, rng):
    a = np.eye(12) + 0.05 * random_sym(rng, 12) + 0.01
    np.linalg.cholesky(a)
    assert a.min() < 0  # no row is deleted before the search
    assert is_copositive(a).answer is Answer.IN
    assert not any(call.startswith("enumeration") for call in route)


def test_well_conditioned_block_is_decided_by_one_inversion(route, rng):
    a = np.eye(12) + 0.05 * random_sym(rng, 12) + 0.01
    assert is_copositive(a).answer is Answer.IN
    # one pivoting step, a solve with the whole block: no face is solved again
    assert [call for call in route if call.startswith(("solve", "enumeration"))] == ["solve 12"]


def test_lp_feasible_basic_cases():
    a = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    # feasible: b = a @ (0.5, 0.25)
    x = lp_feasible(a_eq=a, b_eq=np.array([0.5, 0.75, 0.5]))
    assert np.array_equal(x, [0.5, 0.25])
    # infeasible: b = a @ (1, -1) has its one solution outside x >= 0
    assert lp_feasible(a_eq=a, b_eq=np.array([1.0, 0.0, -2.0])) is None


def test_lp_feasible_cone_membership(rng):
    gens = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    c = np.array([0.3, 0.0, 0.7])
    target = gens @ c
    x = lp_feasible(a_eq=gens, b_eq=target)
    assert x is not None
    assert np.abs(gens @ x - target).max() <= 1e-9


def generator_cone(i):
    """The generators (e_i + e_{i+1}, e_{i+1} + e_{i+2}, e6) of the i-th
    cone of order-6 Horn-orthogonal factor columns."""
    return horn_generators()[:, [i, (i + 1) % 5, 5]]


COEFF = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.lists(COEFF, min_size=3, max_size=3))
def test_lp_feasible_finds_every_nonnegative_combination(i, coeffs):
    gens = generator_cone(i)
    b = gens @ np.array(coeffs)
    x = lp_feasible(gens, b)
    assert x is not None and x.min() >= 0.0
    assert np.abs(gens @ x - b).max() <= DEFAULT_TOL.scaled(np.abs(b).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.lists(COEFF, min_size=3, max_size=3), st.integers(0, 2), st.floats(1e-3, 1e3))
def test_lp_feasible_rejects_a_negative_coefficient(i, coeffs, k, neg):
    gens = generator_cone(i)
    coeffs[k] = -neg
    assert lp_feasible(gens, gens @ np.array(coeffs)) is None


@pytest.mark.parametrize("i", range(5))
def test_lp_feasible_zero_right_hand_side_gives_zero(i):
    x = lp_feasible(generator_cone(i), np.zeros(6))
    assert np.array_equal(x, np.zeros(3))


def test_lp_feasible_takes_its_threshold_from_the_tolerance():
    gens = generator_cone(0)
    b = gens @ np.array([1.0, 2.0, 3.0])
    b[3] = 1e-7  # off the cone's span, within the looser tolerance only
    assert lp_feasible(gens, b) is None
    x = lp_feasible(gens, b, Tolerance(abs=1e-6, rel=0.0))
    assert x is not None and np.abs(gens @ x - b).max() <= 1e-6


def test_lp_feasible_decides_orthogonal_columns():
    """Beyond the Horn generators: k <= n <= 8 orthonormal columns at a
    scale in [1e-3, 1e3].  A nonnegative combination with exact zeros is
    found; one coefficient made negative leaves no solution."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        a = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k] * 10.0 ** rng.uniform(-3, 3)
        c = 10.0 ** rng.uniform(-3, 3, k) * (rng.random(k) < 0.7)
        b = a @ c
        x = lp_feasible(a, b)
        assert x is not None and x.min() >= 0.0, seed
        assert np.abs(a @ x - b).max() <= DEFAULT_TOL.scaled(np.abs(b).max()), seed
        c[rng.integers(k)] = -(10.0 ** rng.uniform(-3, 3))
        assert lp_feasible(a, a @ c) is None, seed


def reference_lp_feasible(a, b, tol=DEFAULT_TOL):
    """One system at a time, on valid input: the normal equations solved on
    a support that shrinks to the positive weights.  Each answer of a
    stacked ``lp_feasible`` call must be this one, bit for bit."""
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


# a system's columns (generator cone 0 to 4, or 5: three orthonormal columns
# of a seeded random basis), its coefficients on them, how the right-hand
# side is made from them, and the scale of the right-hand side
SYSTEM = st.tuples(
    st.integers(0, 5),
    st.lists(COEFF, min_size=3, max_size=3),
    st.sampled_from(["in-cone", "one-zero", "negative", "off-span"]),
    st.sampled_from([1e-6, 1.0, 1e6]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(SYSTEM, min_size=1, max_size=12), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_a_stack_gets_each_system_answer_bit_for_bit(systems, k0, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((len(systems), 6, 3))
    b = np.zeros((len(systems), 6))
    for k, (i, coeffs, kind, scale) in enumerate(systems):
        if i == 5:
            basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        else:  # the generator e_{i+3} + e_{i+4} lies off cone i's span
            basis = horn_generators()[:, [i, (i + 1) % 5, 5, (i + 3) % 5]]
        a[k] = basis[:, :3]
        c = np.array(coeffs)
        if kind == "one-zero":  # the full-support solve gives a weight <= 0
            c[k0] = 0.0
        elif kind == "negative":
            c[k0] = -1.0 - c[k0]
        b[k] = a[k] @ c
        if kind == "off-span":
            b[k] += (1.0 + np.abs(b[k]).max()) * basis[:, 3]
        b[k] *= scale
    got = lp_feasible(a, b)
    assert isinstance(got, list) and len(got) == len(systems)
    for k, (x, (_, _, kind, _)) in enumerate(zip(got, systems)):
        if kind != "negative":  # a negative weight may fit within the tolerance
            assert (x is None) is (kind == "off-span")
        alone = lp_feasible(a[k : k + 1], b[k : k + 1])  # a stack of one
        for want in (lp_feasible(a[k], b[k]), *alone, reference_lp_feasible(a[k], b[k])):
            assert (want is None) is (x is None)
            assert x is None or np.array_equal(want, x)


def test_tolerance_scaling():
    tol = Tolerance(abs=1e-9, rel=1e-6)
    assert tol.scaled(0.0) == 1e-9
    assert abs(tol.scaled(100.0) - (1e-9 + 1e-4)) <= 1e-18
