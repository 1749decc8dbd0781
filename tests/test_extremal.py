import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import positive_horn_partner, random_admissible_factor, random_sym, reference_horn_orbit
from copcone import (
    DEFAULT_TOL,
    Answer,
    NonnegFactor,
    anti_dd_check,
    classify_rank12,
    copositive_boundary_zeros,
    e12,
    horn_block6,
    horn_matrix,
    horn_orbit_recognize,
    is_copositive,
    kernel,
    orth_column_check,
    orth_nullspace_check,
    rank3_witness_check,
)
from copcone.extremal import FAIL, PASS, SKIP


@pytest.mark.parametrize("n", [2, 5])
def test_e12_pattern(n):
    a = e12(n)
    expected = np.zeros((n, n))
    expected[0, 1] = expected[1, 0] = 1.0
    assert a.shape == (n, n)
    assert np.array_equal(a, expected)


def random_orbit_of_horn(rng):
    d = rng.random(5) + 0.25
    p = rng.permutation(5)
    return horn_matrix()[np.ix_(p, p)] * np.outer(d, d), d, p


class TestHornOrbit:
    def test_round_trip(self, rng):
        for _ in range(40):
            a, _, _ = random_orbit_of_horn(rng)
            w = horn_orbit_recognize(a)
            assert w is not None
            recon = w.reconstruct(horn_matrix())
            assert np.abs(recon - a).max() <= 1e-9 * np.abs(a).max()

    def test_rejects_random_symmetric(self, rng):
        for _ in range(40):
            a = random_sym(rng, 5)
            assert horn_orbit_recognize(a) is None

    def test_identity_not_in_orbit(self):
        assert horn_orbit_recognize(np.eye(5)) is None

    def test_a_threshold_at_the_entries_scale_leaves_no_sign_pattern(self):
        # thr = 1 = d_p d_q: every 0 is within thr of both -1 and +1, so the
        # 120-permutation loop matched the identity; no negative cycle exists
        a = np.nextafter(1.0, 2.0) * np.eye(5)
        assert reference_horn_orbit(a, kernel.Tolerance(1.0, 0.0))[1].tolist() == [0, 1, 2, 3, 4]
        assert horn_orbit_recognize(a, kernel.Tolerance(1.0, 0.0)) is None

    def test_a_returned_perm_is_a_fresh_array(self):
        horn_orbit_recognize(horn_matrix()).perm[:] = 4
        assert horn_orbit_recognize(horn_matrix()).perm.tolist() == [0, 1, 2, 3, 4]


ZERO_TOL, LOOSE_TOL = kernel.Tolerance(0.0, 0.0), kernel.Tolerance(0.0, 1e-3)


def horn_orbit_case(kind, scale, seed, tol=kernel.DEFAULT_TOL):
    """A Horn-orbit member d d' o H_p, d in [0.5, 2] times ``scale``; the same
    with one symmetric off-diagonal pair pushed by 10 thr; or a random
    symmetric matrix, with its diagonal made positive half of the time."""
    rng = np.random.default_rng([seed, 27])
    if kind == "random":
        a = random_sym(rng, 5, scale)
        if seed % 2:
            np.fill_diagonal(a, np.abs(np.diag(a)))
        return a
    d, p = rng.uniform(0.5, 2.0, 5) * scale, rng.permutation(5)
    a = horn_matrix()[np.ix_(p, p)] * np.outer(d, d)
    if kind == "pushed":
        i, j = rng.choice(5, size=2, replace=False)
        push = 10 * tol.scaled(np.abs(a).max()) * rng.choice([-1.0, 1.0])
        a[i, j] += push
        a[j, i] += push
    return a


def assert_matches_the_loop(a, tol=kernel.DEFAULT_TOL):
    """``horn_orbit_recognize`` is the 120-permutation loop bit for bit:
    the same d bytes and permutation, or ``None`` for both."""
    want, got = reference_horn_orbit(a, tol), horn_orbit_recognize(a, tol)
    if want is None:
        assert got is None
    else:
        assert (got.d.tobytes(), got.perm.tolist()) == (want[0].tobytes(), want[1].tolist())
    return want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["orbit", "pushed", "random"]), st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 10_000))
def test_horn_orbit_recognize_matches_the_loop_bit_for_bit(kind, scale, seed):
    want = assert_matches_the_loop(horn_orbit_case(kind, scale, seed))
    if kind != "random":  # the case is what it was built to be
        assert (want is None) == (kind == "pushed")


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([ZERO_TOL, LOOSE_TOL]),
    st.sampled_from(["orbit", "pushed", "random"]),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.integers(0, 10_000),
)
def test_horn_orbit_recognize_matches_the_loop_at_zero_and_loose_tolerance(tol, kind, scale, seed):
    # at thr = 0 a built member may miss by roundoff, |a_ii - d_i^2| included
    want = assert_matches_the_loop(horn_orbit_case(kind, scale, seed, tol), tol)
    if kind != "random" and tol is LOOSE_TOL:
        assert (want is None) == (kind == "pushed")


@pytest.mark.parametrize("tol", [kernel.DEFAULT_TOL, ZERO_TOL, LOOSE_TOL], ids=["default", "zero", "loose"])
@pytest.mark.parametrize("entry", ["pair", "diagonal"])
@pytest.mark.parametrize("factor", [-1.1, -0.9, 0.9, 1.1])
def test_horn_orbit_recognize_matches_the_loop_at_the_threshold(tol, entry, factor):
    """One off-diagonal pair, or one diagonal entry, pushed by 0.9 thr or
    1.1 thr either way; a pushed pair is in the orbit iff it stays within thr."""
    for seed in range(8):
        a = horn_orbit_case("orbit", 1.0, seed)
        i, j = np.random.default_rng([seed, 28]).choice(5, size=2, replace=False)
        push = factor * tol.scaled(np.abs(a).max())
        if entry == "pair":
            a[i, j] += push
            a[j, i] += push
        else:
            a[i, i] += push
        want = assert_matches_the_loop(a, tol)
        if entry == "pair" and tol is not ZERO_TOL:
            assert (want is None) == (abs(factor) > 1)


def test_every_dihedral_image_of_a_scaled_horn_matrix_gives_the_least_permutation():
    """The ten images a[s][:, s] of a scaled permuted Horn matrix a under the
    symmetries s of the 5-cycle give d = sqrt(diag) and, of the ten
    permutations t o p o s that carry them onto Horn, the least."""
    d, p = np.array([0.6, 1.7, 1.1, 0.9, 1.4]), np.array([3, 0, 2, 4, 1])
    a = horn_matrix()[np.ix_(p, p)] * np.outer(d, d)
    dihedral = [(shift + sign * np.arange(5)) % 5 for shift in range(5) for sign in (1, -1)]
    for s in dihedral:
        image = a[np.ix_(s, s)]
        w = horn_orbit_recognize(image)
        assert w.d.tobytes() == np.sqrt(np.diag(image)).tobytes()
        assert w.perm.tolist() == min(t[p[s]].tolist() for t in dihedral)
        assert_matches_the_loop(image)


class TestClassify:
    def test_rank1(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            x = rng.random(n) + 0.05
            cls = classify_rank12(np.outer(x, x))
            assert cls.tag == "PSD_RANK1"
            v = np.asarray(cls.vector)
            assert np.abs(np.outer(v, v) - np.outer(x, x)).max() <= 1e-8

    def test_e12_orbit(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            i, j = sorted(rng.choice(n, size=2, replace=False))
            a = np.zeros((n, n))
            a[i, j] = a[j, i] = float(rng.random() + 0.1)
            cls = classify_rank12(a)
            assert cls.tag == "E12_ORBIT"
            w = cls.witness
            base = np.zeros((n, n))
            base[0, 1] = base[1, 0] = 1.0
            assert np.abs(w.reconstruct(base) - a).max() <= 1e-9

    def test_horn_orbit_rank5(self, rng):
        a, _, _ = random_orbit_of_horn(rng)
        assert classify_rank12(a).tag == "HORN_ORBIT"

    def test_horn_block_less_its_zero_row(self):
        cls = classify_rank12(horn_block6())
        assert cls.tag == "HORN_ORBIT"
        assert cls.witness.reconstruct(horn_matrix()).tobytes() == horn_matrix().tobytes()

    def test_a_zero_diagonal_row_that_does_not_vanish_is_unknown(self):
        # still copositive (row 5 is >= 0), but a zero diagonal entry with
        # mass off it rules out an extreme matrix with a negative entry
        a = horn_block6()
        a[0, 5] = a[5, 0] = 0.5
        assert is_copositive(a).answer is Answer.IN
        assert classify_rank12(a).tag == "UNKNOWN_EXTREME_CLASS"

    def test_unknown_for_generic_copositive(self):
        cls = classify_rank12(np.eye(5) + 0.5)
        assert "UNKNOWN" in cls.tag

    @pytest.mark.parametrize("a", [np.diag([1.0, 1.0, 0.0]), np.array([[1.0, 1.0], [1.0, 0.0]])])
    def test_rank2_outside_the_e12_orbit_is_unknown(self, a):
        # no positive off-diagonal pair; one pair but a nonzero diagonal
        assert classify_rank12(a).tag == "UNKNOWN_EXTREME_CLASS"

    def test_nonnegative_rank3_inside_the_tolerance_band_is_unknown(self):
        """a_00 = 1 is the one entry above thr = 2e-9, but the two all-1.9e-9
        blocks of order 3 give numerical rank 3: no nonnegative matrix of that
        rank is extreme, so no class claims it."""
        a = np.zeros((7, 7))
        a[0, 0] = 1.0
        a[1:4, 1:4] = a[4:, 4:] = 1.9e-9
        assert kernel.num_rank(a) == 3
        assert classify_rank12(a).tag == "UNKNOWN_EXTREME_CLASS"


class TestOrthChecks:
    def setup_method(self, method):
        rng = np.random.default_rng(7)
        self.v = random_admissible_factor(rng, 5, full6=True)
        self.m = self.v.product()
        self.a = horn_block6()

    def test_column_check(self):
        res = orth_column_check(self.m, self.a)
        assert res.passed is True
        assert res.defect <= 1e-10

    def test_nullspace_pass_when_index_in_all_supports(self):
        # full6 puts coordinate 6 in every column support
        assert orth_nullspace_check(self.m, self.a, self.v, 5) == PASS

    def test_nullspace_skip_otherwise(self):
        assert orth_nullspace_check(self.m, self.a, self.v, 0) in (SKIP, PASS)

    def test_nullspace_fail_when_a_factor_is_not_m_s(self):
        """W6 = W W' with W the 5-cycle factor plus e6, orthogonal to Horn
        plus a zero row.  A column of ones has coordinate 0 in its support,
        but (W6 A)[:, 0] = (0, 0, 2, 2, 0, 0), so the condition fails; under
        W itself, whose row 0 has zeros, it is skipped."""
        w = np.eye(6)
        w[[1, 2, 3, 4, 0], [0, 1, 2, 3, 4]] = 1.0
        m, a = w @ w.T, horn_block6()
        assert orth_nullspace_check(m, a, NonnegFactor(np.ones((6, 1))), 0) == FAIL
        assert orth_nullspace_check(m, a, NonnegFactor(w), 0) == SKIP

    def test_nullspace_of_an_empty_factor_is_decided(self):
        """A factor with no columns puts every index in the support of all
        of them, so each index gets PASS or FAIL, never SKIP: the condition
        holds where (M A)[:, i] vanishes, as for column 5 of W6 and Horn plus
        a zero row.  A bool index is its integer (as a numpy index it is a
        mask, and the product with it raised ValueError)."""
        w = np.eye(6)
        w[[1, 2, 3, 4, 0], [0, 1, 2, 3, 4]] = 1.0
        m, a = w @ w.T, horn_block6()
        v = NonnegFactor(np.zeros((6, 1)))
        assert v.p == 0
        assert [orth_nullspace_check(m, a, v, i) for i in [*range(6), False, True]] == [FAIL] * 5 + [PASS] + [FAIL] * 2

    def test_anti_dd_all_rows(self):
        res = anti_dd_check(self.m, self.a)
        assert res.all_pass

    def test_anti_dd_failing_row(self):
        # diag(1, -1) is orthogonal to I; row 0 has no off-diagonal mass to
        # dominate its diagonal entry 1
        res = anti_dd_check(np.eye(2), np.diag([1.0, -1.0]))
        assert res.rows == (False, True)
        assert not res.all_pass


def test_rank3_witness_check():
    m = positive_horn_partner()
    assert m.min() > 0
    assert rank3_witness_check(m, horn_block6()) == PASS
    # e6 e6' is orthogonal to the Horn block but has zero entries
    assert rank3_witness_check(np.diag([0.0] * 5 + [1.0]), horn_block6()) == SKIP


def _e12_block_rank4():
    # a_01 = 1 between the zero diagonal entries a_00 and a_11;
    # <J + I, A> = 2 a_01 + 2 a_22 + 2 a_33 = 0
    a = np.diag([0.0, 0.0, 1.0, -2.0])
    a[0, 1] = a[1, 0] = 1.0
    return a


@pytest.mark.parametrize(
    "a",
    [np.diag([1.0, -1.0, 0.0]), _e12_block_rank4()],
    ids=["rank-2", "e12-block"],
)
def test_rank3_witness_check_false(a):
    # J + I is positive and nonsingular, and orthogonal to both witnesses
    n = a.shape[0]
    assert rank3_witness_check(np.ones((n, n)) + np.eye(n), a) == FAIL


@pytest.mark.parametrize("m", [np.eye(3), np.ones((3, 3))], ids=["zero-entry", "singular"])
def test_rank3_witness_check_guards(m):
    # diag(1, -1, 0) is orthogonal to both I and J; neither is positive and nonsingular
    assert rank3_witness_check(m, np.diag([1.0, -1.0, 0.0])) == SKIP


def order6_pairs(count, seed=11):
    """Pairs (V, A): V an admissible order-6 factor of 2 to 8 columns, every
    other one with a positive last coordinate in each column, and A the
    Horn block, which V V' is orthogonal to."""
    rng = np.random.default_rng(seed)
    return [(random_admissible_factor(rng, int(rng.integers(2, 9)), full6=k % 2 == 0), horn_block6())
            for k in range(count)]


def horn_zero_pairs(count, seed=12):
    """Pairs (V, A): A a scaled Horn matrix plus a zero block of order k <= 2,
    simultaneously permuted, and V's columns positive multiples of some of
    A's boundary zeros, so that M = V V' is orthogonal to A."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = 5 + int(rng.integers(0, 3))
        a = np.zeros((n, n))
        a[:5, :5] = horn_matrix()
        perm = rng.permutation(n)
        d = rng.random(n) + 0.25
        a = a[np.ix_(perm, perm)] * np.outer(d, d)
        zeros = np.array(copositive_boundary_zeros(a))
        pick = rng.permutation(len(zeros))[: int(rng.integers(1, len(zeros) + 1))]
        out.append((NonnegFactor(zeros[pick].T * (rng.random(pick.size) + 0.1)), a))
    return out


def psd_kernel_pairs(count, seed=13):
    """Pairs (V, A): A = B B' of order 3..7 with r nonnegative vectors in its
    kernel, and V those vectors times positive weights, so that A V = 0."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 8))
        r = int(rng.integers(1, n))
        u = rng.random((n, r)) * (rng.random((n, r)) < 0.7)
        u[rng.integers(0, n, r), np.arange(r)] += 0.1  # no zero vector
        # the last n - r right singular vectors of u' are orthogonal to u
        b = np.linalg.svd(u.T)[2][r:].T @ rng.standard_normal((n - r, n - r))
        out.append((NonnegFactor(u * (rng.random(r) + 0.1)), b @ b.T))
    return out


@pytest.mark.parametrize(
    "pairs", [order6_pairs, horn_zero_pairs, psd_kernel_pairs], ids=["order6", "horn-zero", "psd-kernel"]
)
def test_orthogonal_pair_relations(pairs):
    """The paper's relations on 200 orthogonal pairs (M = V V', A) of each
    family: the column check passes, every row is anti-dominant when M's
    diagonal is positive, a row of V positive in every column makes the
    nullspace check PASS and no other row makes it FAIL, and the rank-3
    witness check never fails."""
    for v, a in pairs(200):
        m = v.product()
        col = orth_column_check(m, a)
        assert col.passed and col.defect <= 1e-10
        if np.diag(m).min() > DEFAULT_TOL.scaled(np.abs(m).max()):
            assert anti_dd_check(m, a).all_pass
        thr = 1e-12 * max(v.v.max(), 1.0)
        for i in range(v.n):
            got = orth_nullspace_check(m, a, v, i)
            assert got == PASS if np.all(v.v[i, :] > thr) else got != FAIL
        assert rank3_witness_check(m, a) != FAIL
