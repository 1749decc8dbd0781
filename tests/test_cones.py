import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sym, simplex_grid_min
from copcone import kernel
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
from copcone.kernel import DEFAULT_TOL, MAX_ENTRY


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


def _horn_orbit(rng):
    a = np.eye(7)
    a[:5, :5] = horn_matrix()
    perm = rng.permutation(7)
    d = rng.uniform(0.5, 2.0, 7)
    return a[np.ix_(perm, perm)] * np.outer(d, d)


@pytest.fixture
def form_min_calls(monkeypatch):
    """Results of every ``kernel.simplex_form_min`` call, in call order."""
    inner = kernel.simplex_form_min
    calls = []

    def counting(q):
        calls.append(inner(q))
        return calls[-1]

    monkeypatch.setattr(kernel, "simplex_form_min", counting)
    return calls


@pytest.mark.parametrize("make", [_interior, _near_identity_12, _horn_orbit])
def test_is_copositive_enumerates_the_simplex_once(form_min_calls, rng, make):
    """A call the vertex and edge checks cannot refute solves the simplex
    minimum once (by the active set on a positive definite block, by one
    enumeration otherwise); that solve decides the call, supplies any
    BoundaryZero, and its value is the reported minimum."""
    a = make(rng)
    v = is_copositive(a)
    assert v.answer is Answer.IN
    assert len(form_min_calls) == 1
    val, lam = form_min_calls[0]
    assert abs(v.minimum - val) <= 1e-15 * max(1.0, np.abs(a).max())
    if v.certificate is not None:
        assert v.certificate.value == val
        assert np.array_equal(v.certificate.x[v.certificate.x > 0], lam[lam > 0])
    assert_certificate_holds(v, a)


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
    # No row of I_17 - 0.01 (J - I) is nonnegative and no vertex or edge
    # is negative, so the order-17 block is left to an enumeration that
    # the order-16 limit rules out.
    a = 1.01 * np.eye(17) - 0.01
    v = is_copositive(a)
    assert v.answer is Answer.UNDECIDED
    assert v.certificate is None


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
    reproduce bit for bit: the scale computed again for the threshold, the
    reduction by ``np.ix_`` rounds to a fixpoint, the 2x2 check over a full
    k x k edge table and ``minimum`` computed on every path."""
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
        return ConeVerdict("COPOSITIVE", Answer.NOT_IN, ViolationVector(pad(x), float(x @ b @ x)))

    minimum = float(np.diag(a).min())
    val = np.inf
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
        i = int(np.argmin(np.diag(a)))
        certificate = BoundaryZero(np.eye(n)[i], float(a[i, i]))
    return ConeVerdict("COPOSITIVE", Answer.IN, certificate, minimum=minimum)


def reference_is_dnn(m, tol=DEFAULT_TOL):
    """``is_dnn`` as the nonnegativity test, then the PSD test, each on its
    own validation of the input."""
    a = reference_as_sym(m, tol)
    i, j = np.unravel_index(np.argmin(a), a.shape)
    if a[i, j] < -tol.scaled(np.abs(a).max()):
        return ConeVerdict("DNN", Answer.NOT_IN, NegativeEntry(int(i), int(j), float(a[i, j])))
    a = reference_as_sym(m, tol)
    ok, w = kernel.psd_check(a, tol)
    if not ok:
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
    if kind == "undecided-17":  # no vertex or edge refutes; order 17 is left
        return (1.0 + 0.01 * rng.random()) * np.eye(17) - 0.01
    return zero_family(kind, seed)  # Horn orbits and Horn + I_12


VERDICT_FAMILIES = [
    "random",
    "integer",
    "nonneg",
    "gram-plus-nonneg",
    "near-symmetric",
    "scaled",
    "horn-push-plus",
    "horn-push-minus",
    "minus-identity-18",
    "undecided-17",
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


def assert_same_verdicts(a):
    assert verdict_key(is_copositive(a)) == verdict_key(reference_is_copositive(a))
    assert verdict_key(is_dnn(a)) == verdict_key(reference_is_dnn(a))


@pytest.mark.parametrize("kind", VERDICT_FAMILIES + ZERO_FAMILIES)
def test_verdicts_match_the_reference_bit_for_bit(kind):
    for seed in range(6):
        assert_same_verdicts(verdict_family(kind, seed))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VERDICT_FAMILIES + ZERO_FAMILIES), st.integers(0, 10_000))
def test_verdicts_match_the_reference_on_every_family(kind, seed):
    assert_same_verdicts(verdict_family(kind, seed))


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
    # block {1, 2}, with its one negative pair, by the active set.  a_00 = 0
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
    assert v.column(cert.positive_column_index).min() > 0
    # rank-deficient product is never interior
    flat = NonnegFactor(np.ones((4, 2)))
    assert cp_interior_certificate(flat) is None
