import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import checker, cycle_matrix, random_sym, reference_horn_orbit, simplex_grid_min
from copcone import cones, kernel
from copcone import (
    Answer,
    NonnegFactor,
    copositive_boundary_zeros,
    cp_interior_certificate,
    horn_matrix,
    is_copositive,
    is_dnn,
    is_nonneg,
    is_psd,
)
from copcone.cones import BoundaryZero, ConeVerdict, NegativeEntry, ViolationVector
from copcone.errors import NotCopositiveError
from copcone.kernel import DEFAULT_TOL, MAX_ENTRY, Tolerance
from test_kernel import PIVOT_GAP, assert_pivoting_matches_the_enumeration, reference_nnls, reference_tagged_points


def test_horn_memberships():
    h = horn_matrix()
    assert is_copositive(h).answer is Answer.IN
    assert is_psd(h).answer is Answer.NOT_IN
    assert is_nonneg(h).answer is Answer.NOT_IN
    assert is_dnn(h).answer is Answer.NOT_IN


def test_nonneg_certificate_points_at_negative_entry():
    a = np.array([[1.0, -2.0], [-2.0, 1.0]])
    v = is_nonneg(a)
    assert v.answer is Answer.NOT_IN
    cert = v.certificate
    assert a[cert.i, cert.j] == cert.value < 0


def test_psd_in_and_eigenvector_witness_on_failure(rng):
    b = rng.standard_normal((4, 4))
    a = b @ b.T + 0.1 * np.eye(4)
    assert is_psd(a).answer is Answer.IN
    v = is_psd(a - 10.0 * np.eye(4))
    assert v.answer is Answer.NOT_IN
    x = np.asarray(v.certificate.x)
    assert float(x @ (a - 10.0 * np.eye(4)) @ x) < 0


def test_copositive_violation_certificate(rng):
    a = random_sym(rng, 5)
    a[0, 0] = -1.0
    v = is_copositive(a)
    assert v.answer is Answer.NOT_IN
    x = np.asarray(v.certificate.x)
    assert x.min() >= -1e-12
    assert float(x @ a @ x) < 0


def test_copositive_verdicts_match_projected_gradient_oracle(rng):
    agree = 0
    total = 0
    for _ in range(80):
        n = int(rng.integers(3, 6))
        a = random_sym(rng, n)
        oracle_min = simplex_grid_min(a, seed=int(rng.integers(1 << 30)))
        if abs(oracle_min) <= 1e-4:
            continue
        total += 1
        v = is_copositive(a)
        want = Answer.IN if oracle_min > 0 else Answer.NOT_IN
        if v.answer is want:
            agree += 1
    assert total > 20
    assert agree == total


def test_copositive_shift_monotonicity(rng):
    # A copositive implies A + D copositive for any nonnegative diagonal D
    for _ in range(10):
        a = random_sym(rng, 4)
        v = is_copositive(a)
        if v.answer is not Answer.IN:
            continue
        d = np.diag(rng.random(4))
        assert is_copositive(a + d).answer is Answer.IN


def assert_certificate_holds(v, a):
    """The verdict's certificate is a simplex point of the right sign on a."""
    thr = 1e-9 * (1.0 + np.abs(a).max())
    if v.certificate is None:
        assert v.answer is Answer.IN
        return
    x = np.asarray(v.certificate.x)
    assert x.shape == (a.shape[0],)
    assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-12
    q = float(x @ a @ x)
    assert abs(q - v.certificate.value) <= 1e-12 * (1.0 + np.abs(a).max())
    if v.answer is Answer.NOT_IN:
        assert isinstance(v.certificate, ViolationVector) and q < -thr
    else:
        assert isinstance(v.certificate, BoundaryZero) and abs(q) <= thr


def test_horn_plus_identity_17_is_decided_on_the_horn_block():
    # Order 17 is past the enumeration limit; the twelve nonnegative rows
    # are deleted first, so the search runs on the 5x5 Horn block.
    a = np.eye(17)
    a[:5, :5] = horn_matrix()
    v = is_copositive(a)
    assert v.answer is Answer.IN
    assert isinstance(v.certificate, BoundaryZero)
    assert not v.certificate.x[5:].any()
    assert_certificate_holds(v, a)


def _interior(rng):
    g = rng.standard_normal((8, 8))
    u = rng.uniform(0.1, 1.0, (8, 8))
    return g @ g.T / 8 + 0.05 * (u + u.T)


def _near_identity_12(rng):
    return np.eye(12) + 0.05 * random_sym(rng, 12) + 0.01


def _horn_plus_i2(rng):
    a = np.eye(7)
    a[:5, :5] = horn_matrix()
    return a


def _horn_orbit(rng):
    a = _horn_plus_i2(rng)
    perm = rng.permutation(7)
    d = rng.uniform(0.5, 2.0, 7)
    return a[np.ix_(perm, perm)] * np.outer(d, d)


def _horn(rng):
    return horn_matrix()


def _horn_plus_0_2(rng):
    a = np.zeros((7, 7))
    a[:5, :5] = horn_matrix()
    return a


def _horn_3_thr_off(rng):
    # Horn with its +1 pair (0, 2) raised by 3 thr: copositive, outside the
    # orbit's tolerance band, and no triple is negative.
    a = horn_matrix()
    a[0, 2] = a[2, 0] = 1.0 + 3.0 * DEFAULT_TOL.scaled(1.0)
    return a


def _near_tie(rng):
    # Positive definite with a negative entry in every row; the minimum
    # 1/4 lies on the face {0, 1} at (1/2, 1/2), where the multipliers of 2
    # and 3 are exactly 0, so faces with them tie; the pivoting decides.
    a = np.array([
        [1.0, -0.5, 0.25, 0.25],
        [-0.5, 1.0, 0.25, 0.25],
        [0.25, 0.25, 2.0, -0.5],
        [0.25, 0.25, -0.5, 2.0],
    ])
    perm = rng.permutation(4)
    return a[np.ix_(perm, perm)]


@pytest.fixture
def form_min_calls(monkeypatch):
    """``(supports, result)`` of every ``kernel.simplex_form_min`` call, in
    call order."""
    inner = kernel.simplex_form_min
    calls = []

    def counting(q, supports=None):
        calls.append((supports, inner(q, supports)))
        return calls[-1][1]

    monkeypatch.setattr(kernel, "simplex_form_min", counting)
    return calls


@pytest.fixture
def pivot_calls(monkeypatch):
    """The result of every ``kernel._convex_form_min`` call, in call order."""
    inner = kernel._convex_form_min
    calls = []

    def counting(q):
        calls.append(inner(q))
        return calls[-1]

    monkeypatch.setattr(kernel, "_convex_form_min", counting)
    return calls


def negative_pair_masks(a):
    """The support masks of the negative pairs of ``a``'s reduced block."""
    keep = np.flatnonzero((a < 0).any(axis=1))
    b = a[np.ix_(keep, keep)]
    return sorted(1 << int(i) | 1 << int(j) for i, j in zip(*np.nonzero(np.triu(b < 0))))


@pytest.mark.parametrize(
    "make, routes",
    [
        pytest.param(_interior, ["pivot"], id="_interior"),
        pytest.param(_near_identity_12, ["pivot"], id="_near_identity_12"),
        pytest.param(_horn_orbit, ["cycle"], id="_horn_orbit"),
        pytest.param(_horn, ["cycle"], id="_horn"),
        pytest.param(_horn_plus_0_2, ["cycle"], id="_horn_plus_0_2"),
        pytest.param(_horn_3_thr_off, ["walk"], id="_horn_3_thr_off"),
        pytest.param(_near_tie, ["pivot"], id="_near_tie"),
    ],
)
def test_is_copositive_enumerates_the_simplex_once(form_min_calls, pivot_calls, rng, make, routes):
    """A call the vertex, edge and triple checks cannot refute solves the
    simplex minimum once: by the five cycle edges of an order-5 block within
    thr of the Horn orbit, by pivoting on a positive definite block, by one
    walk over every face if the block is neither or the pivoting cycles
    (``None``).  That solve decides the call, supplies any BoundaryZero, and
    its value is the reported minimum."""
    a = make(rng)
    v = is_copositive(a)
    assert v.answer is Answer.IN
    taken = ["pivot" if found else "cycled" for found in pivot_calls]
    taken += ["walk" if supports is None else "cycle" for supports, _ in form_min_calls]
    assert taken == routes
    for supports, _ in form_min_calls:
        assert supports is None or sorted(supports) == negative_pair_masks(a)
    val, lam = form_min_calls[0][1] if form_min_calls else pivot_calls[0]
    assert abs(v.minimum - val) <= 1e-15 * max(1.0, np.abs(a).max())
    if v.certificate is not None:
        assert v.certificate.value == val
        assert np.array_equal(v.certificate.x[v.certificate.x > 0], lam[lam > 0])
    assert_certificate_holds(v, a)


@pytest.fixture
def cholesky_orders(monkeypatch):
    """The order of every ``np.linalg.cholesky`` call, in call order."""
    inner = np.linalg.cholesky
    orders = []

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a)[-1])
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return orders


@pytest.mark.parametrize(
    "make, routes",
    [
        (_near_identity_12, ["cholesky-12", "pivot"]),
        (_horn_plus_i2, ["cycle"]),
        (lambda rng: cycle_matrix(8, -0.75), ["cholesky-8", "triples-8", "walk"]),
    ],
    ids=["near-identity-12", "horn-plus-i2", "cycle-8"],
)
def test_is_copositive_factors_its_block_once(cholesky_orders, triple_scans, pivot_calls, form_min_calls, rng,
                                              make, routes):
    # The reduced block is tested for positive definiteness at most once, in
    # is_copositive; the pivoting takes that test as its precondition.  The
    # near-identity block passes it and is decided by one pivoting.  Horn,
    # once I_2's rows are deleted, is an order-5 Horn block: its five cycle
    # edges decide it before any Cholesky call or triple scan.  The cycle
    # fails the test, and after the triple scan the walk refutes it.
    is_copositive(make(rng))
    taken = [f"cholesky-{order}" for order in cholesky_orders] + [f"triples-{order}" for order in triple_scans]
    taken += ["pivot"] * len(pivot_calls)
    taken += ["walk" if supports is None else "cycle" for supports, _ in form_min_calls]
    assert taken == routes


def _vertex_violation(rng):
    a = random_sym(rng, 6)
    np.fill_diagonal(a, 2.0)
    a[3, 3] = -0.5
    return a, {3}


def _edge_violation(rng):
    a = np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4))
    a[1, 2] = a[2, 1] = -1.5
    d = rng.uniform(0.5, 2.0, 4)
    return a * np.outer(d, d), {1, 2}


def _horn_push_minus(rng):
    # Horn + I_2 with the -1 pair (0, 1) pushed down: negative near the
    # scaled midpoint of edge {0, 1}, positive at the plain midpoint.
    a = np.eye(7)
    a[:5, :5] = horn_matrix()
    a[0, 1] = a[1, 0] = -1.006
    d = rng.uniform(0.9, 1.1, 7)
    d[0], d[1] = 0.82, 1.18
    return a * np.outer(d, d), {0, 1}


@pytest.mark.parametrize("make", [_vertex_violation, _edge_violation, _horn_push_minus])
def test_vertex_and_edge_violations_need_no_enumeration(form_min_calls, rng, make):
    a, support = make(rng)
    v = is_copositive(a)
    assert v.answer is Answer.NOT_IN
    assert form_min_calls == []
    assert set(np.flatnonzero(v.certificate.x)) == support
    assert_certificate_holds(v, a)


@pytest.fixture
def triple_scans(monkeypatch):
    """The block order of every scan for a refuting triple, in call order."""
    inner = cones._worst_triple
    orders = []

    def counting(rows, nbrs, thr):
        orders.append(len(rows))
        return inner(rows, nbrs, thr)

    monkeypatch.setattr(cones, "_worst_triple", counting)
    return orders


def test_a_triple_violation_solves_one_3x3_block(form_min_calls, triple_scans, rng):
    # Horn + I_2 with the +1 pair (0, 2) pushed down: no vertex or edge is
    # negative, the face {0, 1, 2} is, and the two rows of I_2 are deleted.
    a = _pushed_horn(rng, 7, (0, 2), 6e-3)
    v = is_copositive(a)
    assert v.answer is Answer.NOT_IN
    assert triple_scans == [5]
    assert [(faces, lam.shape) for faces, (_, lam) in form_min_calls] == [([0b111], (3,))]
    assert set(np.flatnonzero(v.certificate.x)) == {0, 1, 2}
    assert_certificate_holds(v, a)


def test_a_positive_definite_block_scans_no_triple(form_min_calls, pivot_calls, triple_scans, rng):
    a = _near_identity_12(rng)
    v = is_copositive(a)
    assert v.answer is Answer.IN
    assert triple_scans == []
    assert form_min_calls == [] and len(pivot_calls) == 1
    assert v.minimum == pivot_calls[0][0]


@pytest.mark.parametrize("n", [8, 12])
def test_a_cycle_no_triple_refutes_is_refuted_by_the_full_walk(form_min_calls, triple_scans, n):
    a = cycle_matrix(n, -0.75)
    v = is_copositive(a)
    assert v.answer is Answer.NOT_IN
    assert triple_scans == [n]
    assert [faces for faces, _ in form_min_calls] == [None]
    assert np.count_nonzero(v.certificate.x) == 4
    assert abs(v.certificate.value + 1 / 2040) <= 1e-15
    assert_certificate_holds(v, a)
    assert_same_verdicts(a)


@pytest.mark.parametrize("n", [8, 12])
def test_a_cycle_twin_is_copositive(n):
    a = cycle_matrix(n, -0.7)
    v = is_copositive(a)
    assert v.answer is Answer.IN and v.certificate is None
    assert abs(v.minimum - 0.022) <= 1e-15
    assert_same_verdicts(a)


@pytest.mark.parametrize("seed", range(6))
def test_a_triple_refutes_where_the_global_minimizer_is_elsewhere(seed):
    a = verdict_family("triple-not-minimizer", seed)
    v = is_copositive(a)
    assert np.count_nonzero(v.certificate.x) == 3
    val, lam = kernel.simplex_form_min(kernel.as_sym(a)[0])
    assert val < v.certificate.value and np.count_nonzero(lam) > 3
    assert_certificate_holds(v, a)


def test_a_triple_tie_goes_to_the_first_in_lexicographic_order():
    # The triangles {0, 1, 2} and {3, 4, 5} of -0.6 entries have the same
    # value, bit for bit; the positive coupling keeps the minimum on one.
    a = np.full((6, 6), 0.5)
    a[:3, :3] = a[3:, 3:] = 1.6 * np.eye(3) - 0.6
    v = is_copositive(a)
    assert set(np.flatnonzero(v.certificate.x)) == {0, 1, 2}
    assert_same_verdicts(a)


def test_a_stationary_point_off_the_simplex_is_no_triple_value():
    # The plane of {1, 2, 3} is stationary at (-1, 0.75, 1.25), off the
    # simplex, with form -0.25, while that face's minimum is 0.  The face
    # {0, 2, 4} refutes at its interior point, form -0.1748; the simplex
    # minimum, -0.1785, has the support {0, 1, 2, 4}.
    a = np.array([
        [4, -3, -4, 4, -3],
        [-3, 4, -1, 3, 2],
        [-4, -1, 4, -4, -2],
        [4, 3, -4, 4, -2],
        [-3, 2, -2, -2, 4],
    ]) / 4.0
    v = is_copositive(a)
    assert set(np.flatnonzero(v.certificate.x)) == {0, 2, 4}
    assert_certificate_holds(v, a)
    assert_same_verdicts(a)


def test_a_negative_triangle_decides_past_the_enumeration():
    # Order 18 keeps every row, and no vertex or edge is negative; the
    # triangle {0, 1, 2} of -0.6 entries is.
    a = 1.01 * np.eye(18) - 0.01
    a[:3, :3] = 1.6 * np.eye(3) - 0.6
    v = is_copositive(a)
    assert v.answer is Answer.NOT_IN
    assert set(np.flatnonzero(v.certificate.x)) == {0, 1, 2}
    assert_certificate_holds(v, a)
    assert_same_verdicts(a)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_2x2_answer_matches_the_closed_form(a, b, c, scale):
    """[[a, b], [b, c]] is copositive iff a, c >= 0 and b >= -sqrt(ac).
    Integer entries put every input exactly on the boundary or at least
    1/120 (times the scale) away from it, far outside the tolerance band."""
    m = scale * np.array([[a, b], [b, c]], dtype=float)
    copositive = a >= 0 and c >= 0 and (b >= 0 or b * b <= a * c)
    v = is_copositive(m)
    assert v.answer is (Answer.IN if copositive else Answer.NOT_IN)
    assert_certificate_holds(v, m)


def test_reduced_order_beyond_the_enumeration_is_undecided():
    # No row of the order-17 cycle with c in [-0.7, -0.6] is nonnegative, it
    # is not positive definite, and no vertex, edge or triple is negative,
    # so the block is left to an enumeration that the order-16 limit rules
    # out.  The same holds across its family.
    for a in [cycle_matrix(17, -0.7), cycle_matrix(17, -0.6),
              *(verdict_family("undecided-17", seed) for seed in range(6))]:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        v = is_copositive(a)
        assert v.answer is Answer.UNDECIDED
        assert v.certificate is None


@pytest.mark.parametrize("n", [17, 40])
def test_a_positive_definite_block_is_decided_past_the_enumeration(form_min_calls, n):
    # I_n - 0.01 (J - I) keeps every row and Cholesky accepts it: the
    # pivoting gives its minimum 1.01 / n - 0.01 at the centre, with no walk.
    a = 1.01 * np.eye(n) - 0.01
    v = is_copositive(a)
    assert v.answer is Answer.IN and v.certificate is None
    assert abs(v.minimum - (1.01 / n - 0.01)) <= 1e-15
    assert form_min_calls == []
    assert_same_verdicts(a)


@pytest.mark.filterwarnings("error")
def test_a_subnormal_positive_definite_block_is_decided_at_its_minimizer():
    # Its entries are subnormal: the pivoting runs on the block scaled by a
    # power of two, so its solve stays finite (unscaled, it overflowed to a
    # NaN point, and the answer fell back to a vertex and the smallest
    # diagonal entry).  The minimum is at the centre, within thr of 0.
    a = (1.01 * np.eye(6) - 0.01) * 1e-310
    v = is_copositive(a)
    assert v.answer is Answer.IN and isinstance(v.certificate, BoundaryZero)
    assert np.abs(v.certificate.x - 1 / 6).max() <= 1e-15
    exact = sum(map(Fraction, a.ravel())) / 36  # the form's value at the centre
    assert abs(Fraction(v.minimum) - exact) <= 1e-323


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 10_000))
def test_nonnegative_border_keeps_answer(n, m, seed):
    """Bordering A by nonnegative rows and permuting leaves the answer of A,
    and the certificate holds on the bordered matrix."""
    rng = np.random.default_rng(seed)
    a = random_sym(rng, n)
    top = np.abs(a).max()  # keep the threshold of A
    c = rng.random((n, m)) * top
    d = rng.random((m, m)) * top
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, np.diag(d) * (rng.random(m) < 0.7))  # zero diagonal entries too
    full = np.block([[a, c], [c.T, d]])
    perm = rng.permutation(n + m)
    full = full[np.ix_(perm, perm)]
    v = is_copositive(full)
    assert v.answer is is_copositive(a).answer
    assert_certificate_holds(v, full)


def test_boundary_zeros_of_horn_contains_edge_midpoints():
    zeros = copositive_boundary_zeros(horn_matrix())
    h = horn_matrix()
    for z in zeros:
        z = np.asarray(z)
        assert abs(float(z @ h @ z)) <= 1e-12
    found = 0
    for i in range(5):
        x = np.zeros(5)
        x[i] = x[(i + 1) % 5] = 0.5
        if any(np.abs(np.asarray(z) - x).max() <= 1e-9 for z in zeros):
            found += 1
    assert found == 5


def test_boundary_zeros_of_horn_plus_identity_17_stay_on_the_horn_block():
    # Order 17 is past the enumeration limit; the twelve identity rows are
    # nonnegative with a positive diagonal, so no zero can use them.
    a = np.eye(17)
    a[:5, :5] = horn_matrix()
    zeros = copositive_boundary_zeros(a)
    assert len(zeros) == 10
    horn_zeros = copositive_boundary_zeros(horn_matrix())
    for z, h in zip(zeros, horn_zeros):
        assert not z[5:].any()
        assert np.array_equal(z[:5], h)
        assert z.min() >= 0.0 and abs(z.sum() - 1.0) <= 1e-12
        assert abs(float(z @ a @ z)) <= 1e-12
        assert np.abs((a @ z)[z > 0]).max() <= 1e-12


def test_boundary_zeros_of_horn_plus_zeros_17_hit_the_enumeration_limit():
    # Horn plus a zero block is copositive, but the twelve zero-diagonal
    # rows can carry zeros and are kept: 17 indices to enumerate.
    a = np.zeros((17, 17))
    a[:5, :5] = horn_matrix()
    assert is_copositive(a).answer is Answer.IN
    with pytest.raises(ValueError, match=r"^support enumeration is limited to order 16$"):
        copositive_boundary_zeros(a)


def test_boundary_zeros_keep_a_nonnegative_row_with_zero_diagonal():
    # Row 0 is nonnegative but a_00 = 0, so its vertex is a zero.
    zeros = copositive_boundary_zeros(np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert len(zeros) == 1
    assert np.array_equal(zeros[0], [1.0, 0.0])


def reference_boundary_zeros(a, tol=DEFAULT_TOL):
    """The one-point-at-a-time filter that the array filter of
    ``copositive_boundary_zeros`` must reproduce bit for bit: the same
    reduction by ``np.ix_`` rounds, then a Python loop over the points."""
    a, _ = kernel.as_sym(a, tol)
    assert is_copositive(a, tol).answer is Answer.IN
    thr = tol.scaled(np.abs(a).max())
    keep = np.arange(a.shape[0])
    while keep.size:
        sub = a[np.ix_(keep, keep)]
        drop = (sub >= 0).all(axis=1) & (np.diag(sub) > 0)
        if not drop.any():
            break
        keep = keep[~drop]
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


def zero_family(kind, seed):
    """Copositive matrices with zeros on the simplex, by family."""
    rng = np.random.default_rng(seed)
    h = horn_matrix()
    if kind.startswith("horn-orbit-"):  # Horn + I_k, scaled and permuted
        n = 5 + int(kind[-1])
        a = np.eye(n)
        a[:5, :5] = h
        perm = rng.permutation(n)
        return a[np.ix_(perm, perm)] * np.outer(*2 * [rng.uniform(0.5, 2.0, n)])
    if kind == "horn-plus-identity-12":
        a = np.eye(17)
        a[:5, :5] = h
        return a
    if kind == "shifted-interior":  # x'Ax - min on the simplex, a zero at the minimizer
        n = int(rng.integers(3, 10))
        g = rng.standard_normal((n, n))
        u = rng.uniform(0.1, 1.0, (n, n))
        a = g @ g.T / n + 0.05 * (u + u.T)
        return a - kernel.simplex_form_min(a)[0]
    # "bordered": scaled Horn plus nonnegative rows with a zero diagonal
    m = int(rng.integers(1, 4))
    a = np.zeros((5 + m, 5 + m))
    a[:5, :5] = h * np.outer(*2 * [rng.uniform(0.5, 2.0, 5)])
    border = rng.uniform(0.0, 1.0, (m, 5 + m)) * (rng.random((m, 5 + m)) < 0.7)
    a[5:] = border
    a[:, 5:] = border.T
    a[5:, 5:] = 0.5 * (border[:, 5:] + border[:, 5:].T)
    np.fill_diagonal(a[5:, 5:], 0.0)
    return a


ZERO_FAMILIES = [f"horn-orbit-{k}" for k in range(5)] + [
    "horn-plus-identity-12",
    "shifted-interior",
    "bordered",
]


def assert_same_zero_lists(a):
    got = copositive_boundary_zeros(a)
    want = reference_boundary_zeros(a)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)
    return got


@pytest.mark.parametrize("kind", ZERO_FAMILIES)
def test_boundary_zeros_match_the_per_point_loop(kind):
    for seed in range(4):
        zeros = assert_same_zero_lists(zero_family(kind, seed))
        # a scaled Horn block has a zero on each of its 5 edges
        assert len(zeros) >= (1 if kind == "shifted-interior" else 5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ZERO_FAMILIES), st.integers(0, 10_000))
def test_boundary_zeros_match_the_per_point_loop_on_every_family(kind, seed):
    assert_same_zero_lists(zero_family(kind, seed))


def reference_as_sym(a, tol=DEFAULT_TOL):
    """The validation that ``kernel.as_sym`` must keep: the same checks,
    messages and order, and the same symmetrization."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("order must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    scale = np.abs(arr).max()
    if np.abs(arr - arr.T).max() > tol.scaled(scale):
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (arr + arr.T)


def reference_is_copositive(a, tol=DEFAULT_TOL):
    """The straightforward copositivity test that ``is_copositive`` must
    reproduce: the scale computed again for the threshold, the reduction by
    ``np.ix_`` rounds to a fixpoint, the 2x2 check over a full k x k edge
    table, the 120-permutation Horn-orbit loop of ``conftest`` on an order-5
    block, then Cholesky, the 3x3 check over every triple, and ``minimum``
    computed on every path.  Returns the verdict and whether the reduced
    block went the positive definite route: there the minimum is the walk's
    up to order 16, and the Lawson-Hanson active set's past it."""
    a = reference_as_sym(a, tol)
    n = a.shape[0]
    thr = tol.scaled(np.abs(a).max())
    keep = np.arange(n)
    while keep.size:
        drop = (a[np.ix_(keep, keep)] >= 0).all(axis=1)
        if not drop.any():
            break
        keep = keep[~drop]
    b = a[np.ix_(keep, keep)]

    def pad(x):
        out = np.zeros(n)
        out[keep] = x
        return out

    def refute(x):
        return ConeVerdict("COPOSITIVE", Answer.NOT_IN, ViolationVector(pad(x), float(x @ b @ x))), False

    minimum = float(np.diag(a).min())
    val = np.inf
    definite = False
    if keep.size:
        d = np.diag(b)
        i = int(np.argmin(d))
        if d[i] < -thr:
            return refute(np.eye(keep.size)[i])
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
        # The 120-permutation Horn-orbit loop at the whole matrix's
        # threshold comes first on an order-5 block; then Cholesky.
        orbit = reference_horn_orbit(b, Tolerance(abs=thr, rel=0.0)) if keep.size == 5 else None
        if orbit is None:
            try:
                np.linalg.cholesky(b)
                definite = True
            except np.linalg.LinAlgError:
                pass
        # Every triple with two or more negative pairs, in lexicographic
        # order: the stationary point x ~ adj(B_T) 1 when its entries have
        # one sign, and the lowest form value below -thr.  The library skips
        # Horn-orbit and positive definite blocks, where none is below -thr.
        best, triple = -thr, None
        for t in itertools.combinations(range(keep.size), 3):
            (a_, u, v), (_, d_, w), (_, _, f) = b[np.ix_(t, t)].tolist()
            if (u < 0) + (v < 0) + (w < 0) < 2:
                continue
            cij, cil, cjl = v * w - u * f, u * w - v * d_, u * v - a_ * w
            y = [(d_ * f - w * w) + cij + cil, cij + (a_ * f - v * v) + cjl, cil + cjl + (a_ * d_ - u * u)]
            total = y[0] + y[1] + y[2]
            if total == 0:
                continue
            xi, xj, xl = (yi / total for yi in y)
            if min(xi, xj, xl) <= 0:
                continue
            value = a_ * xi * xi + d_ * xj * xj + f * xl * xl + 2.0 * (u * xi * xj + v * xi * xl + w * xj * xl)
            if value < best:
                best, triple = value, list(t)
        if triple is not None:
            x = np.zeros(keep.size)
            x[triple] = kernel.simplex_form_min(b[np.ix_(triple, triple)])[1]
            if x @ b @ x < -thr:
                return refute(x)
        if orbit is not None:
            # on the orbit, the least point of the five faces that the
            # permuted Horn matrix's -1 pairs span
            signs = horn_matrix()[np.ix_(orbit[1], orbit[1])]
            cycle = {1 << int(i) | 1 << int(j) for i, j in zip(*np.nonzero(np.triu(signs < 0)))}
            assert len(cycle) == 5
            val, lam = min(
                ((value, lam) for mask, value, lam in reference_tagged_points(b) if mask in cycle),
                key=lambda point: point[0],
            )
        elif keep.size <= kernel.ENUMERATION_MAX_ORDER:
            val, lam = kernel.simplex_form_min(b)
        elif definite:
            z = reference_nnls(b, np.ones(keep.size))
            lam = z / z.sum()
            val = float(lam @ b @ lam)
        else:
            return ConeVerdict("COPOSITIVE", Answer.UNDECIDED), False
        if val < -thr:
            return refute(lam)
        minimum = min(minimum, float(val))
    certificate = None
    if abs(val) <= thr:
        certificate = BoundaryZero(pad(lam), float(val))
    elif abs(minimum) <= thr:
        i = int(np.argmin(np.diag(a)))
        certificate = BoundaryZero(np.eye(n)[i], float(a[i, i]))
    return ConeVerdict("COPOSITIVE", Answer.IN, certificate, minimum=minimum), definite


def reference_is_dnn(m, tol=DEFAULT_TOL):
    """``is_dnn`` as the nonnegativity test, then the PSD test, each on its
    own validation of the input."""
    a = reference_as_sym(m, tol)
    i, j = np.unravel_index(np.argmin(a), a.shape)
    if a[i, j] < -tol.scaled(np.abs(a).max()):
        return ConeVerdict("DNN", Answer.NOT_IN, NegativeEntry(int(i), int(j), float(a[i, j])))
    a = reference_as_sym(m, tol)
    # the PSD test with its threshold from max|a|: the least eigenvalue
    # against -thr, the last eigenvector column as the witness
    eigvals, q = kernel.eig_sym(a)
    if eigvals[-1] < -tol.scaled(np.abs(a).max()):
        w = q[:, -1]
        return ConeVerdict("DNN", Answer.NOT_IN, ViolationVector(w, float(w @ a @ w)))
    return ConeVerdict("DNN", Answer.IN)


def verdict_key(v):
    """Everything a verdict reports, floats and arrays as their exact bits."""
    cert = v.certificate
    fields = () if cert is None else tuple(
        (name, value.tobytes() if isinstance(value, np.ndarray) else repr(value))
        for name, value in vars(cert).items()
    )
    return v.cone, v.answer, repr(v.minimum), type(cert).__name__, fields


def _pushed_horn(rng, n, pair, delta):
    """Horn + I_(n-5) with the pair (0, 1) (-1) or (0, 2) (+1) pushed down by
    delta, scaled by d; d0 < 0.85 < 1.15 < d1 hides the (0, 1) violation
    from the edge midpoint."""
    a = np.eye(n)
    a[:5, :5] = horn_matrix()
    a[pair] = a[pair[::-1]] = a[pair] - delta
    d = rng.uniform(0.9, 1.1, n)
    if pair == (0, 1):
        d[0], d[1] = rng.uniform(0.8, 0.85), rng.uniform(1.15, 1.2)
    return a * np.outer(d, d)


def verdict_family(kind, seed):
    """Inputs that reach every path of ``is_copositive`` and ``is_dnn``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    if kind == "random":
        return random_sym(rng, n)
    if kind == "integer":  # exact ties and exactly singular faces
        return np.round(random_sym(rng, n, 3.0))
    if kind == "signed-zeros":  # exact ties; -0.0 facing 0.0 or -0.0, and on the diagonal
        a = np.round(random_sym(rng, n, 2.0))
        np.fill_diagonal(a, np.abs(a.diagonal()))
        neg = (a == 0) & (rng.random((n, n)) < 0.5)
        if rng.random() < 0.5:  # in pairs: a equals its transpose byte for byte
            neg |= neg.T
        a[neg] = -0.0
        i = rng.integers(n)
        a[i, i] = -0.0
        return a
    if kind == "nonneg":  # deleted rows; a zero diagonal entry is a zero
        u = rng.random((n, n))
        a = u + u.T
        a[np.diag_indices(n)] *= rng.random(n) < 0.7
        return a
    if kind == "gram-plus-nonneg":
        g = rng.standard_normal((n, n))
        u = rng.random((n, n))
        return g @ g.T / n + 0.1 * (u + u.T) - 0.2 * rng.random() * np.eye(n)
    if kind == "near-symmetric":  # asymmetric within the tolerance
        return random_sym(rng, n) + 1e-12 * rng.standard_normal((n, n))
    if kind == "scaled":
        return random_sym(rng, n) * 10.0 ** rng.uniform(-6, 6)
    if kind == "horn-push-plus":
        return _pushed_horn(rng, 5 + n % 4, (0, 2), rng.uniform(4e-3, 8e-3))
    if kind == "horn-push-minus":
        return _pushed_horn(rng, 5 + n % 4, (0, 1), rng.uniform(4e-3, 8e-3))
    if kind == "minus-identity-18":  # past the enumeration limit
        return -np.eye(18)
    if kind == "triple-not-minimizer":  # triples refute; the simplex minimum has a larger support
        m, c = 4 + n % 6, rng.uniform(0.55, 0.85)
        e = rng.uniform(-0.02, 0.02, (m, m))
        return ((1.0 + c) * np.eye(m) - c + e + e.T) * np.outer(*2 * [rng.uniform(0.5, 2.0, m)])
    if kind == "undecided-17":  # indefinite, and no vertex, edge or triple refutes; order 17 is left
        return cycle_matrix(17, rng.uniform(-0.7, -0.6))
    if kind == "definite-near-tie":  # faces tie at the minimum; the pivoting decides
        return _near_tie(rng)
    if kind == "horn-orbit-noise":  # both sides of the Horn stage's threshold
        k = n % 4
        a = np.eye(5 + k) if rng.random() < 0.5 else np.zeros((5 + k, 5 + k))
        a[:5, :5] = horn_matrix()
        perm = rng.permutation(5 + k)
        d = rng.uniform(0.5, 2.0, 5 + k) * 10.0 ** (0.5 * rng.uniform(-3, 3))
        a = a[np.ix_(perm, perm)] * np.outer(d, d)
        # the Horn block's off-diagonal entries move by c thr U(-1, 1)
        horn = perm < 5
        e = np.triu(rng.uniform(-1.0, 1.0, a.shape), 1) * np.outer(horn, horn)
        c = rng.choice([0.0, 0.3, 0.9, 3.0, 30.0])
        return a + c * DEFAULT_TOL.scaled(np.abs(a).max()) * (e + e.T)
    if kind == "horn-zero-diagonal":  # a negative 5-cycle whose b_00 = 0 fails the Horn stage
        a = horn_matrix()
        a[0, 0] = 0.0
        a[0, 1] = a[1, 0] = a[0, 4] = a[4, 0] = -rng.uniform(1e-7, 1e-6)
        perm = rng.permutation(5)
        return a[np.ix_(perm, perm)]
    return zero_family(kind, seed)  # Horn orbits and Horn + I_12


VERDICT_FAMILIES = [
    "random",
    "integer",
    "signed-zeros",
    "nonneg",
    "gram-plus-nonneg",
    "near-symmetric",
    "scaled",
    "horn-push-plus",
    "horn-push-minus",
    "triple-not-minimizer",
    "minus-identity-18",
    "undecided-17",
    "definite-near-tie",
    "horn-orbit-noise",
    "horn-zero-diagonal",
]

PUBLIC_TESTS = [is_copositive, is_dnn, is_nonneg, is_psd, copositive_boundary_zeros]

MALFORMED = [
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, -np.inf], [-np.inf, 1.0]],
    [[1.0, 2.0], [0.0, np.nan]],  # asymmetric and not finite
    [[1.0, 2.0], [0.0, 1.0]],
    np.ones((2, 3)),
    np.zeros((0, 0)),
    np.ones(3),
    np.ones((2, 2, 2)),
]


def assert_same_copositive(v, a):
    """``v``, ``is_copositive(a)``, is the reference's verdict bit for bit,
    except on a positive definite reduced block: there the answer and the
    certificate kind are the reference's, ``minimum`` is within
    ``PIVOT_GAP * max|a|`` of it, and a BoundaryZero, the pivoting's point,
    passes the checker script's predicates."""
    want, definite = reference_is_copositive(a)
    if not definite:
        assert verdict_key(v) == verdict_key(want)
        return
    assert (v.cone, v.answer, type(v.certificate)) == (want.cone, want.answer, type(want.certificate))
    assert abs(v.minimum - want.minimum) <= PIVOT_GAP * np.abs(a).max()
    if v.certificate is not None:
        checker.checks.boundary_zero(0.5 * (a + a.T), v.certificate.x, v.certificate.value)


def assert_same_verdicts(a):
    sym = kernel.as_sym(a)[0]
    want = reference_as_sym(a)
    assert sym.shape == want.shape and sym.tobytes() == want.tobytes()
    assert not np.shares_memory(sym, a)
    assert_same_copositive(is_copositive(a), a)
    assert verdict_key(is_dnn(a)) == verdict_key(reference_is_dnn(a))


@pytest.mark.parametrize("kind", VERDICT_FAMILIES + ZERO_FAMILIES)
def test_verdicts_match_the_reference_bit_for_bit(kind):
    # bit for bit but for a positive definite block's minimum and
    # BoundaryZero, which match within roundoff (assert_same_copositive)
    for seed in range(6):
        assert_same_verdicts(verdict_family(kind, seed))


@pytest.mark.parametrize("seed", range(6))
def test_the_pivoting_decides_the_near_tie_family(seed):
    # faces with and without the zero-multiplier indices tie at 1/4: the
    # pivoting settles at a KKT point with the walk's minimum
    assert assert_pivoting_matches_the_enumeration(verdict_family("definite-near-tie", seed)) is not None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VERDICT_FAMILIES + ZERO_FAMILIES), st.integers(0, 10_000))
def test_verdicts_match_the_reference_on_every_family(kind, seed):
    assert_same_verdicts(verdict_family(kind, seed))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(VERDICT_FAMILIES + ZERO_FAMILIES), st.integers(0, 10_000), st.sampled_from([-6, 0, 6]))
def test_verdicts_respect_simultaneous_permutation(kind, seed, s):
    """At the scale 10**s, a simultaneous permutation keeps the answer and
    the certificate's kind; each verdict is the reference's (bit for bit
    but for a positive definite block's minimum, see
    ``assert_same_copositive``), and its certificate passes the checker
    script's predicates."""
    a = verdict_family(kind, seed) * 10.0**s
    perm = np.random.default_rng([seed, 1]).permutation(a.shape[0])
    pa = a[np.ix_(perm, perm)]
    v, pv = is_copositive(a), is_copositive(pa)
    assert pv.answer is v.answer
    assert type(pv.certificate) is type(v.certificate)
    for m, verdict in ((a, v), (pa, pv)):
        assert_same_copositive(verdict, m)
        if verdict.answer is Answer.UNDECIDED:  # which carries no certificate
            continue
        assert_certificate_holds(verdict, m)
        if verdict.certificate is not None:  # as the checker reads a report: symmetrized
            holds = checker.checks.violation if verdict.answer is Answer.NOT_IN else checker.checks.boundary_zero
            holds(0.5 * (m + m.T), verdict.certificate.x, verdict.certificate.value)


@pytest.mark.parametrize("a", MALFORMED, ids=range(len(MALFORMED)))
@pytest.mark.parametrize("test", PUBLIC_TESTS)
def test_malformed_input_errors_match_the_reference(a, test):
    with pytest.raises(ValueError) as want:
        reference_as_sym(a)
    with pytest.raises(ValueError) as got:
        test(a)
    assert str(got.value) == str(want.value)


# Each has an entry above MAX_ENTRY.  In the first two, a_ij + a_ji, the sum
# that symmetrizes it, overflows to inf; in the last two, the products of the
# edge check d_i d_j - b_ij**2 overflow.
TOO_LARGE = [
    1e308 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    [[1e308, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, np.nextafter(MAX_ENTRY, np.inf)]],
    1e200 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    np.finfo(float).max / 2 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
]


@pytest.mark.parametrize("a", TOO_LARGE, ids=range(len(TOO_LARGE)))
@pytest.mark.parametrize("test", PUBLIC_TESTS)
def test_entries_whose_symmetrization_overflows_are_rejected(a, test):
    with pytest.raises(ValueError, match=r"matrix entries must be at most 2\*\*500 in magnitude"):
        test(a)


@pytest.mark.parametrize("test", PUBLIC_TESTS)
def test_the_largest_allowed_entry_is_accepted(test):
    got = test([[MAX_ENTRY, 0.0], [0.0, 1.0]])
    assert got == [] if test is copositive_boundary_zeros else got.answer is Answer.IN


def test_threshold_is_taken_from_the_symmetrized_matrix():
    # The input's largest entry is 2 + 1e-10, the symmetrization's is 2.
    # a_00 lies between the two thresholds they give, so only the latter
    # refutes at the vertex.
    v = 3e-9 + 5e-20
    a = np.array([[-v, 2.0 + 1e-10], [2.0 - 1e-10, 1.0]])
    assert DEFAULT_TOL.scaled(2.0) < v < DEFAULT_TOL.scaled(np.abs(a).max())
    assert is_copositive(a).answer is Answer.NOT_IN
    assert_same_verdicts(a)


def test_an_edge_tie_goes_to_the_first_pair_in_row_major_order():
    # The edges {0, 3} and {1, 2} have the same minimum, -0.5.
    a = np.full((4, 4), 0.5)
    np.fill_diagonal(a, 1.0)
    a[0, 3] = a[3, 0] = a[1, 2] = a[2, 1] = -2.0
    v = is_copositive(a)
    assert np.array_equal(v.certificate.x, [0.5, 0.0, 0.0, 0.5])
    assert_same_verdicts(a)


def test_boundary_zeros_drop_a_point_whose_gradient_is_not_zero(monkeypatch):
    """The support-gradient filter, on crafted points: both have |value| <=
    thr, but only e_0 has [A x]_k = 0 on its support; [A e_1]_1 = 1."""
    # Row 0 is nonnegative: is_copositive decides the positive definite
    # block {1, 2}, with its one negative pair, by pivoting.  a_00 = 0
    # keeps row 0 in the enumeration of copositive_boundary_zeros.
    a = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, -0.5], [1.0, -0.5, 1.0]])
    blocks = []

    def crafted(q):
        blocks.append(np.array(q))
        yield 0.0, np.array([0.0, 1.0, 0.0])
        yield 0.0, np.array([1.0, 0.0, 0.0])

    monkeypatch.setattr(kernel, "simplex_stationary_points", crafted)
    zeros = copositive_boundary_zeros(a)
    assert len(blocks) == 1 and np.array_equal(blocks[0], a)
    assert len(zeros) == 1 and np.array_equal(zeros[0], [1.0, 0.0, 0.0])
    assert_same_zero_lists(a)


def test_boundary_zeros_rejects_non_copositive():
    with pytest.raises(NotCopositiveError):
        copositive_boundary_zeros(-np.eye(3))


def test_interior_matrix_has_no_boundary_zero():
    assert copositive_boundary_zeros(np.eye(4)) == []


def test_dnn_requires_both_sides():
    psd_not_nonneg = np.array([[1.0, -0.5], [-0.5, 1.0]])
    nonneg_not_psd = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert is_dnn(psd_not_nonneg).answer is Answer.NOT_IN
    assert is_dnn(nonneg_not_psd).answer is Answer.NOT_IN
    assert is_dnn(np.eye(3) + 0.1).answer is Answer.IN


def test_cp_interior_certificate(rng):
    v = NonnegFactor(rng.random((4, 6)) + 0.2)
    cert = cp_interior_certificate(v)
    assert cert is not None
    assert cert.rank == 4
    assert v.v[:, cert.positive_column_index].min() > 0
    # rank-deficient product is never interior
    flat = NonnegFactor(np.ones((4, 2)))
    assert cp_interior_certificate(flat) is None


def test_cp_interior_certificate_needs_a_positive_column():
    # full rank, but every column of the identity has zero entries
    v = NonnegFactor(np.eye(4))
    assert kernel.num_rank(v.product()) == 4
    assert cp_interior_certificate(v) is None
