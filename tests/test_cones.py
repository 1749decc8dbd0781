import itertools
import math
import timeit
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STAGES, checker, cycle_matrix, horn_plus, random_sym, reference_horn_orbit, simplex_grid_min
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
from copcone.kernel import DEFAULT_TOL, MAX_ENTRY, Tolerance
from test_kernel import PIVOT_GAP, assert_kkt_point, assert_pivoting_matches_the_enumeration, positive_definite


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


def reduced_rows(a, zeros=False):
    """The indices of ``a`` left when each row that is >= 0 on the indices
    kept is deleted, to a fixpoint; with ``zeros``, only such a row with
    a_ii > 0 is, as no zero of the form can use it."""
    keep = np.arange(a.shape[0])
    while keep.size:
        sub = a[np.ix_(keep, keep)]
        drop = (sub >= 0).all(axis=1)
        if zeros:
            drop &= np.diag(sub) > 0
        if not drop.any():
            break
        keep = keep[~drop]
    return keep


def assert_copositive_contract(v, a):
    """``v``, ``is_copositive(a)``, keeps the contract its docstring states,
    checked against the exact walk on the reduced block B (the rows that are
    >= 0 on the rows kept deleted, to a fixpoint), with thr from max|a| and
    g = ``PIVOT_GAP * max|a|``.

    - Answer: up to order 16, NOT_IN when the walk's minimum is below
      -thr - g and IN from -thr + g on; past it, UNDECIDED only where
      Cholesky rejects B, IN only where it accepts B, at a KKT point.
    - Certificates: each passes the checker's predicate, a violation's
      value is x_B B x_B, and each point is one of the walk's points, bit
      for bit, with its value for a zero (past order 16, the walk of its
      own face); but a 2-index violation is the lowest closed-form edge
      over the negative pairs, a positive definite block's point is a KKT
      point, and a deleted row's zero is its vertex.  A 3-index violation
      is also the lowest triple face, within g.
    - ``minimum``: the walk's bit for bit, within g on a positive definite
      block and within 2 thr on a block in the Horn orbit.
    """
    sym, scale = kernel.as_sym(a)
    thr, gap = DEFAULT_TOL.scaled(scale), PIVOT_GAP * scale
    keep = reduced_rows(sym)
    b, k = sym[np.ix_(keep, keep)], keep.size
    try:
        np.linalg.cholesky(b)
        definite = k > 0
    except np.linalg.LinAlgError:
        definite = False
    if v.answer is Answer.UNDECIDED:
        assert k > kernel.ENUMERATION_MAX_ORDER and not definite and v.certificate is None
        return
    val, off = math.inf, 0.0  # B's minimum, and how far ``minimum`` may be from it
    if k > kernel.ENUMERATION_MAX_ORDER:
        assert definite or v.answer is Answer.NOT_IN
        if definite:
            val, lam = kernel._convex_form_min(b)
            assert_kkt_point(b, val, lam)
    elif k:
        values, lams = map(np.array, zip(*kernel.simplex_stationary_points(b)))
        val = float(values.min())
        assert v.answer is (Answer.NOT_IN if val < -thr else Answer.IN) or abs(val + thr) < gap
        if definite:
            off = gap
        elif k == 5 and reference_horn_orbit(b, Tolerance(thr, 0.0)) is not None:
            off = 2 * thr
    cert = v.certificate
    if v.answer is Answer.IN:
        want = min(float(sym.diagonal().min()), val)
        assert abs(v.minimum - want) <= off if off else repr(v.minimum) == repr(want)
        assert (cert is None) == (abs(v.minimum) > thr)
        if cert is None:
            return
        assert type(cert) is BoundaryZero
        checker.checks.boundary_zero(sym, cert.x, cert.value)
    else:
        assert v.minimum is None and type(cert) is ViolationVector
        checker.checks.violation(sym, cert.x, cert.value)
    if not np.isin(np.flatnonzero(cert.x), keep).all():  # a deleted row's zero is its vertex
        (i,) = np.flatnonzero(cert.x)
        assert v.answer is Answer.IN and cert.x[i] == 1.0 and cert.value == sym[i, i]
        return
    x = cert.x[keep]
    s = np.flatnonzero(x)
    if v.answer is Answer.NOT_IN:
        assert cert.value == float(x @ b @ x)
        if s.size == 2:  # the lowest closed-form edge over the negative pairs
            edges = {(p, q): (b[p, p] * b[q, q] - b[p, q] * b[p, q]) / den
                     for p, q in zip(*np.nonzero(np.triu(b < 0, 1)))
                     if (den := b[p, p] + b[q, q] - 2.0 * b[p, q]) > 0}
            i, j = s
            assert edges[i, j] == min(edges.values())
            y = np.maximum([b[j, j] - b[i, j], b[i, i] - b[i, j]], 0.0)
            assert np.array_equal(x[s], y / y.sum())
            return
    if definite:
        assert_kkt_point(b, cert.value, x)
        return
    if k > kernel.ENUMERATION_MAX_ORDER:  # a vertex or a triple: the walk of its face alone
        assert np.array_equal(kernel.simplex_form_min(b[np.ix_(s, s)], [(1 << s.size) - 1])[1], x[s])
    else:  # one of the walk's points, and for a zero its value
        assert ((lams == x).all(axis=1) & ((values == cert.value) | (v.answer is Answer.NOT_IN))).any()
    if v.answer is Answer.NOT_IN and s.size == 3:  # the lowest face of a triple with two negative pairs
        faces = [kernel.simplex_form_min(b[np.ix_(t, t)], [0b111]) for t in itertools.combinations(range(k), 3)
                 if np.triu(b[np.ix_(t, t)] < 0, 1).sum() >= 2]
        assert cert.value - min(f[0] for f in faces if f is not None) <= gap


def _interior(rng):
    g = rng.standard_normal((8, 8))
    u = rng.uniform(0.1, 1.0, (8, 8))
    return g @ g.T / 8 + 0.05 * (u + u.T)


def _near_identity_12(rng):
    return np.eye(12) + 0.05 * random_sym(rng, 12) + 0.01


def _horn_plus_i2(rng):
    return horn_plus(np.eye(2))


def _horn_orbit(rng):
    a = _horn_plus_i2(rng)
    perm = rng.permutation(7)
    d = rng.uniform(0.5, 2.0, 7)
    return a[np.ix_(perm, perm)] * np.outer(d, d)


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


def _negative_a00(rng):
    a = random_sym(rng, 5)
    a[0, 0] = -1.0
    return a


def _symmetrized_threshold(rng):
    # The input's largest entry is 2 + 1e-10, the symmetrization's is 2.
    # a_00 lies between the two thresholds they give, so only the latter
    # refutes at the vertex.
    v = 3e-9 + 5e-20
    a = np.array([[-v, 2.0 + 1e-10], [2.0 - 1e-10, 1.0]])
    assert DEFAULT_TOL.scaled(2.0) < v < DEFAULT_TOL.scaled(np.abs(a).max())
    return a


def _vertex_violation(rng):
    a = random_sym(rng, 6)
    np.fill_diagonal(a, 2.0)
    a[3, 3] = -0.5
    return a


def _edge_violation(rng):
    a = np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4))
    a[1, 2] = a[2, 1] = -1.5
    d = rng.uniform(0.5, 2.0, 4)
    return a * np.outer(d, d)


def _edge_tie(rng):
    # The edges {0, 3} and {1, 2} have the same minimum, -0.5.
    a = np.full((4, 4), 0.5)
    np.fill_diagonal(a, 1.0)
    a[0, 3] = a[3, 0] = a[1, 2] = a[2, 1] = -2.0
    return a


def _triple_tie(rng):
    # The triangles {0, 1, 2} and {3, 4, 5} of -0.6 entries have the same
    # value, bit for bit; the positive coupling keeps the minimum on one.
    a = np.full((6, 6), 0.5)
    a[:3, :3] = a[3:, 3:] = 1.6 * np.eye(3) - 0.6
    return a


def _off_simplex_stationary_point(rng):
    # The plane of {1, 2, 3} is stationary at (-1, 0.75, 1.25), off the
    # simplex, with form -0.25, while that face's minimum is 0.  The face
    # {0, 2, 4} refutes at its interior point, form -0.1748; the simplex
    # minimum, -0.1785, has the support {0, 1, 2, 4}.
    return np.array([
        [4, -3, -4, 4, -3],
        [-3, 4, -1, 3, 2],
        [-4, -1, 4, -4, -2],
        [4, 3, -4, 4, -2],
        [-3, 2, -2, -2, 4],
    ]) / 4.0


def _negative_triangle_18(rng):
    # Order 18 keeps every row, and no vertex or edge is negative; the
    # triangle {0, 1, 2} of -0.6 entries is.
    a = 1.01 * np.eye(18) - 0.01
    a[:3, :3] = 1.6 * np.eye(3) - 0.6
    return a


def _horn_push_minus(rng):
    # Horn + I_2 with the -1 pair (0, 1) pushed down: negative near the
    # scaled midpoint of edge {0, 1}, positive at the plain midpoint.
    a = _horn_plus_i2(rng)
    a[0, 1] = a[1, 0] = -1.006
    d = rng.uniform(0.9, 1.1, 7)
    d[0], d[1] = 0.82, 1.18
    return a * np.outer(d, d)


def _scaled_definite_10(rng):
    # Entries from 1e-6 to 1e6, each row with a negative one: the pivoting's
    # sign tests have no margin that the largest entry could scale.
    gen = np.random.default_rng(0)
    g = gen.standard_normal((10, 10))
    d = 10.0 ** gen.uniform(-3.0, 3.0, 10)
    return d[:, None] * (g @ g.T / 10 + 0.1 * np.eye(10)) * d


def _heavy_tridiagonal_16(rng):
    """2 I - 0.9 (neighbours) with its entry (3, 3) set to 1e13."""
    a = 2.0 * np.eye(16)
    i = np.arange(15)
    a[i, i + 1] = a[i + 1, i] = -0.9
    a[3, 3] = 1e13
    return a


def _heavy_near_identity_10(rng):
    """1.01 I - 0.01 J with its entry (2, 2) set to 1e13."""
    a = 1.01 * np.eye(10) - 0.01
    a[2, 2] = 1e13
    return a


def route_row(name, make, answer, route, support=None, holds=None):
    """A row of ``ROUTES``; ``route`` lists its stages, comma-separated,
    ``support`` is the certificate's support and ``holds(v, a)`` a predicate
    on the verdict ``v`` of the input ``a``."""
    return pytest.param(make, answer, route.split(", "), support, holds, id=name)


def _tiny_weight(v, a):
    """The heavy index of a heavy block keeps a weight near 1e-14, which a
    margin on the subface gap of 1e-12 times the face value would send to
    the 2**n walk (97 ms at order 16).  The minimum, near 0.02 and 0.1, is
    within thr = 1e4 of 0, so the pivoting's point is a BoundaryZero."""
    return v.certificate.x.min() <= 1e-12


def _minimizer_elsewhere(v, a):
    """A triple refutes, while the walk's minimum lies below its value, on a
    support of more than 3 indices."""
    val, lam = kernel.simplex_form_min(kernel.as_sym(a)[0])
    return np.count_nonzero(v.certificate.x) == 3 and val < v.certificate.value and np.count_nonzero(lam) > 3


IN, NOT_IN, UNDECIDED = Answer.IN, Answer.NOT_IN, Answer.UNDECIDED
ROUTES = [
    route_row("vertex", _vertex_violation, NOT_IN, "vertex", {3}),
    route_row("copositive-violation-certificate", _negative_a00, NOT_IN, "vertex", {0}),
    route_row("symmetrized-threshold", _symmetrized_threshold, NOT_IN, "vertex", {0}),
    route_row("edge", _edge_violation, NOT_IN, "edge", {1, 2}),
    # of tied edges, the first pair in row-major order
    route_row("edge-tie", _edge_tie, NOT_IN, "edge", None, lambda v, a: np.array_equal(v.certificate.x, [0.5, 0, 0, 0.5])),
    route_row("horn-push-minus", _horn_push_minus, NOT_IN, "edge", {0, 1}),
    # Horn + I_2 and Horn + 0_2 are order-5 Horn blocks once the last two
    # rows are deleted: the five cycle faces decide them, with no Cholesky
    *(route_row(name, make, IN, "enumeration 5, Horn")
      for name, make in [("horn", lambda rng: horn_matrix()), ("horn-plus-i2", _horn_plus_i2),
                         ("horn-orbit", _horn_orbit), ("horn-plus-0-2", lambda rng: horn_plus(np.zeros((2, 2))))]),
    # past the enumeration limit, the twelve nonnegative rows are deleted
    route_row("horn-plus-identity-17", lambda rng: horn_plus(np.eye(12)), IN, "enumeration 5, Horn", None,
              lambda v, a: isinstance(v.certificate, BoundaryZero) and not v.certificate.x[5:].any()),
    # Horn + I_2 with the +1 pair (0, 2) pushed down: no vertex or edge is
    # negative, the face {0, 1, 2} is, and it is the one 3x3 block solved
    route_row("triple", lambda rng: _pushed_horn(rng, 7, (0, 2), 6e-3), NOT_IN,
              "cholesky 5 rejects, triple scan 5, enumeration 3, triple", {0, 1, 2}),
    # of tied triples, the first in lexicographic order
    route_row("triple-tie", _triple_tie, NOT_IN, "cholesky 6 rejects, triple scan 6, enumeration 3, triple", {0, 1, 2}),
    route_row("off-simplex-stationary-point", _off_simplex_stationary_point, NOT_IN,
              "cholesky 5 rejects, triple scan 5, enumeration 3, triple", {0, 2, 4}),
    route_row("negative-triangle-18", _negative_triangle_18, NOT_IN,
              "cholesky 18 rejects, triple scan 18, enumeration 3, triple", {0, 1, 2}),
    *(route_row(f"triple-not-minimizer-{seed}", lambda rng, seed=seed: verdict_family("triple-not-minimizer", seed),
                NOT_IN, f"cholesky {m} rejects, triple scan {m}, enumeration 3, triple", None, _minimizer_elsewhere)
      for seed, m in enumerate([6, 9, 6, 6, 5, 5])),
    route_row("horn-3-thr-off", _horn_3_thr_off, IN, "cholesky 5 rejects, triple scan 5, enumeration 5, walk"),
    # no vertex, edge or triple refutes; four consecutive indices do
    *(route_row(f"cycle-{n}", lambda rng, n=n: cycle_matrix(n, -0.75), NOT_IN,
                f"cholesky {n} rejects, triple scan {n}, enumeration {n}, walk", {0, n - 3, n - 2, n - 1},
                lambda v, a: abs(v.certificate.value + 1 / 2040) <= 1e-15) for n in (8, 12)),
    # at c = -0.7 the cycle is copositive, and its minimum is no zero
    *(route_row(f"cycle-twin-{n}", lambda rng, n=n: cycle_matrix(n, -0.7), IN,
                f"cholesky {n} rejects, triple scan {n}, enumeration {n}, walk", None,
                lambda v, a: v.certificate is None and abs(v.minimum - 0.022) <= 1e-15) for n in (8, 12)),
    route_row("interior", _interior, IN, "cholesky 8, solve 8, solve 5, solve 6, convex"),
    # one pivoting step, a solve with the whole block, and no triple scan
    route_row("near-identity-12", _near_identity_12, IN, "cholesky 12, solve 12, convex"),
    route_row("near-tie", _near_tie, IN, "cholesky 4, solve 4, solve 2, convex"),
    route_row("scaled-definite-10", _scaled_definite_10, IN, "cholesky 10, solve 10, solve 8, solve 7, convex"),
    *(route_row(name, make, IN, f"cholesky {n}, solve {n}, convex", set(range(n)), _tiny_weight)
      for name, make, n in [("tridiagonal-16", _heavy_tridiagonal_16, 16),
                            ("near-identity-10", _heavy_near_identity_10, 10)]),
    # past the enumeration, the pivoting gives 1.01 I - 0.01 J's minimum
    # 1.01 / n - 0.01 at the centre
    *(route_row(f"definite-{n}", lambda rng, n=n: 1.01 * np.eye(n) - 0.01, IN, f"cholesky {n}, solve {n}, convex",
                None, lambda v, a, n=n: abs(v.minimum - (1.01 / n - 0.01)) <= 1e-15) for n in (17, 40)),
    # No row of an order-17 cycle with c in [-0.7, -0.6] is nonnegative, it
    # is indefinite, and no vertex, edge or triple is negative: the order-16
    # limit of the enumeration leaves it undecided
    *(route_row(f"cycle-17{c}", lambda rng, c=c: cycle_matrix(17, c), UNDECIDED,
                "cholesky 17 rejects, triple scan 17, order gate") for c in (-0.7, -0.6)),
    *(route_row(f"undecided-17-{seed}", lambda rng, seed=seed: verdict_family("undecided-17", seed), UNDECIDED,
                "cholesky 17 rejects, triple scan 17, order gate") for seed in range(6)),
]


@pytest.mark.parametrize("make, answer, want, support, holds", ROUTES)
def test_is_copositive_takes_its_route(route, rng, make, answer, want, support, holds):
    """``is_copositive`` decides each row's input by ``answer`` on the route
    ``want``: the calls of its stages (see ``conftest.Route``), then the stage
    that decides, which for vertex, edge and the order gate makes no call.
    The deciding minimizer gives the reported ``minimum`` and the
    certificate's point, a Horn call solves the faces of the negative pairs,
    and a route with no walk decides in under 5 ms."""
    a = make(rng)
    v = is_copositive(a)
    cert = v.certificate
    assert v.answer is answer
    silent = want[-1] in ("vertex", "edge", "order gate")  # the stages that make no call
    assert route == (want[:-1] if silent else want)
    keep = reduced_rows(a)
    negative = np.nonzero(np.triu(a[np.ix_(keep, keep)] < 0))
    assert all(masks == sorted(1 << int(i) | 1 << int(j) for i, j in zip(*negative)) for masks in route.masks)
    if not silent:  # a minimizer decides
        val, lam = route.found[-1]
        if v.answer is Answer.IN:
            assert v.minimum == min(float(a.diagonal().min()), val)
            assert cert is None or cert.value == val
        if cert is not None:
            assert np.array_equal(cert.x[cert.x > 0], lam[lam > 0])
    if isinstance(cert, BoundaryZero):
        checker.checks.boundary_zero(a, cert.x, cert.value, stationary=True)
    assert support is None or set(np.flatnonzero(cert.x)) == support
    assert holds is None or holds(v, a)
    if "walk" not in want:
        assert min(timeit.repeat(lambda: is_copositive(a), number=1, repeat=3)) < 5e-3
    assert_verdicts_hold(a)


def test_the_route_table_covers_every_stage():
    # a stage that no row ends in is a route that no row pins
    assert {row.values[2][-1] for row in ROUTES} == set(STAGES)


@pytest.mark.parametrize(
    "make, want",
    [
        (_near_identity_12, ["cholesky 12", "convex"]),
        (_horn_plus_i2, ["Horn"]),
        (lambda rng: cycle_matrix(8, -0.75), ["cholesky 8 rejects", "triple scan 8", "walk"]),
    ],
    ids=["near-identity-12", "horn-plus-i2", "cycle-8"],
)
def test_is_copositive_factors_its_block_once(route, rng, make, want):
    # The reduced block is tested for positive definiteness at most once, in
    # is_copositive; the pivoting takes that test as its precondition.  The
    # near-identity block passes it and is decided by one pivoting.  Horn,
    # once I_2's rows are deleted, is an order-5 Horn block: its five cycle
    # edges decide it before any Cholesky call or triple scan.  The cycle
    # fails the test, and after the triple scan the walk refutes it.
    is_copositive(make(rng))
    assert [call for call in route if not call.startswith(("solve", "enumeration"))] == want


def test_a_positive_definite_block_scans_no_triple(route, rng):
    v = is_copositive(_near_identity_12(rng))
    assert v.answer is Answer.IN
    assert not any(call.startswith("triple") for call in route)
    assert "walk" not in route and route.count("convex") == 1
    assert v.minimum == route.found[0][0]


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
    assert_copositive_contract(v, m)


def test_a_subnormal_positive_definite_block_is_decided_at_its_minimizer(route):
    # Its entries are subnormal: the pivoting runs on the block scaled by a
    # power of two, so its solve stays finite (unscaled, it overflowed to a
    # NaN point, and the answer fell back to a vertex and the smallest
    # diagonal entry).  The minimum is at the centre, within thr of 0.  Every
    # point the walk yields on this block is a vertex, so it is no row of
    # ROUTES: assert_copositive_contract holds a verdict to the walk's minimum.
    a = (1.01 * np.eye(6) - 0.01) * 1e-310
    v = is_copositive(a)
    assert route == ["cholesky 6", "solve 6", "convex"]
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
    assert_copositive_contract(v, full)


def reference_boundary_zeros(a, tol=DEFAULT_TOL):
    """The one-point-at-a-time filter that the array filter of
    ``copositive_boundary_zeros`` must reproduce bit for bit: the same
    reduction by ``np.ix_`` rounds, then a Python loop over the points."""
    a, _ = kernel.as_sym(a, tol)
    assert is_copositive(a, tol).answer is Answer.IN
    thr = tol.scaled(np.abs(a).max())
    keep = reduced_rows(a, zeros=True)
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
        a = horn_plus(np.eye(n - 5))
        perm = rng.permutation(n)
        return a[np.ix_(perm, perm)] * np.outer(*2 * [rng.uniform(0.5, 2.0, n)])
    if kind == "horn-plus-identity-12":
        return horn_plus(np.eye(12))
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


def zeros_row(name, a, want, count=None):
    """A row of ``ZEROS``: ``copositive_boundary_zeros(a)`` holds each point
    of the list ``want`` bit for bit, and ``count`` zeros in all (by default
    as many); or ``want`` is ``(error, message)``, the error it raises."""
    return pytest.param(a, want, len(want) if count is None else count, id=name)


ZEROS = [
    # a zero at each of the five cycle edges' midpoints, and one on each
    # face of three consecutive indices
    zeros_row("horn", horn_matrix(), [np.roll([0.5, 0.5, 0.0, 0.0, 0.0], i) for i in range(5)], 10),
    # Order 17 is past the enumeration limit; the twelve identity rows are
    # nonnegative with a positive diagonal, so no zero can use them.
    zeros_row("horn-plus-identity-17", horn_plus(np.eye(12)),
              [np.pad(z, (0, 12)) for z in copositive_boundary_zeros(horn_matrix())]),
    # Row 0 is nonnegative but a_00 = 0, so its vertex is a zero.
    zeros_row("zero-diagonal", np.array([[0.0, 1.0], [1.0, 1.0]]), [np.array([1.0, 0.0])]),
    zeros_row("interior", np.eye(4), []),
    zeros_row("non-copositive", -np.eye(3), (NotCopositiveError, r"^matrix is not certified copositive$")),
    # Horn plus a zero block is copositive, but the twelve zero-diagonal
    # rows can carry zeros and are kept: 17 indices to enumerate.
    zeros_row("horn-plus-zeros-17", horn_plus(np.zeros((12, 12))),
              (ValueError, r"^support enumeration is limited to order 16$")),
]


@pytest.mark.parametrize("a, want, count", ZEROS)
def test_boundary_zeros_of(a, want, count):
    """Each row's zeros, as the per-point loop finds them bit for bit, each
    a stationary zero to 1e-12; or its error, which is NotCopositiveError
    exactly where ``is_copositive`` does not answer IN."""
    if isinstance(want, tuple):
        error, message = want
        assert (is_copositive(a).answer is Answer.IN) is (error is not NotCopositiveError)
        with pytest.raises(error, match=message):
            copositive_boundary_zeros(a)
        return
    zeros = assert_same_zero_lists(a)
    assert len(zeros) == count
    assert all(any(np.array_equal(x, z) for z in zeros) for x in want)
    for z in zeros:
        checker.checks.boundary_zero(a, z, stationary=True)
        assert z.min() >= 0.0 and np.abs([z.sum() - 1.0, z @ a @ z, *(a @ z)[z > 0]]).max() <= 1e-12


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
    a = horn_plus(np.eye(n - 5))
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
    if kind == "definite-tied":  # exact face ties past the enumeration; the pivoting decides
        return positive_definite("tied", int(rng.integers(17, 25)), seed)
    if kind == "horn-orbit-noise":  # both sides of the Horn stage's threshold
        k = n % 4
        a = horn_plus(np.eye(k) if rng.random() < 0.5 else np.zeros((k, k)))
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
    "definite-tied",
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


def assert_verdicts_hold(a):
    sym = kernel.as_sym(a)[0]
    want = reference_as_sym(a)
    assert sym.shape == want.shape and sym.tobytes() == want.tobytes()
    assert not np.shares_memory(sym, a)
    assert_copositive_contract(is_copositive(a), a)
    assert verdict_key(is_dnn(a)) == verdict_key(reference_is_dnn(a))


@pytest.mark.parametrize("kind", VERDICT_FAMILIES + ZERO_FAMILIES)
def test_verdicts_match_the_reference_bit_for_bit(kind):
    # the walk is the reference of is_copositive (assert_copositive_contract)
    for seed in range(6):
        assert_verdicts_hold(verdict_family(kind, seed))


@pytest.mark.parametrize("seed", range(6))
def test_the_pivoting_decides_the_near_tie_family(seed):
    # faces with and without the zero-multiplier indices tie at 1/4: the
    # pivoting settles at a KKT point with the walk's minimum
    assert assert_pivoting_matches_the_enumeration(verdict_family("definite-near-tie", seed)) is not None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VERDICT_FAMILIES + ZERO_FAMILIES), st.integers(0, 10_000))
def test_verdicts_match_the_reference_on_every_family(kind, seed):
    assert_verdicts_hold(verdict_family(kind, seed))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(VERDICT_FAMILIES + ZERO_FAMILIES), st.integers(0, 10_000), st.sampled_from([-6, 0, 6]))
def test_verdicts_respect_simultaneous_permutation(kind, seed, s):
    """At the scale 10**s, a simultaneous permutation keeps the answer and
    the certificate's kind, and each verdict keeps the contract."""
    a = verdict_family(kind, seed) * 10.0**s
    perm = np.random.default_rng([seed, 1]).permutation(a.shape[0])
    pa = a[np.ix_(perm, perm)]
    v, pv = is_copositive(a), is_copositive(pa)
    assert pv.answer is v.answer
    assert type(pv.certificate) is type(v.certificate)
    assert_copositive_contract(v, a)
    assert_copositive_contract(pv, pa)


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
