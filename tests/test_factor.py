
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_admissible_factor, random_dd_nonneg, random_positive_dd, spy
from copcone import (
    DEFAULT_TOL,
    Answer,
    NonnegFactor,
    Tolerance,
    cp_interior_certificate,
    cp3_factorize,
    dd_factorize,
    factor_continuation,
    heuristic_min_factor,
    horn_block6,
    horn_matrix,
    is_dnn,
    perturb_positify,
    positive_dd_factorize,
)
from copcone.kernel import pivoted_cholesky
from copcone.errors import (
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
from copcone.factor import _perron_vector, horn_orthogonal_factorize


def indep_cols_rank(v, tol=1e-9):
    """Column rank via Gram-Schmidt, independent of the library kernels."""
    basis = []
    for j in range(v.shape[1]):
        c = np.array(v[:, j], dtype=float)
        for b in basis:
            c -= (c @ b) * b
        norm = np.linalg.norm(c)
        if norm > tol * max(np.abs(v).max(), 1.0):
            basis.append(c / norm)
    return len(basis)


class TestNonnegFactor:
    def test_drops_zero_columns_and_clamps(self):
        v = NonnegFactor(np.array([[1.0, 0.0, -1e-15], [2.0, 0.0, 0.0]]))
        assert v.p == 1
        assert v.v.min() >= 0
        assert v.scale == 2.0

    def test_rejects_negative(self):
        with pytest.raises(NotNonnegativeError):
            NonnegFactor(np.array([[-1.0]]))

    def test_rejects_a_vector(self):
        # a factor is an n x p array of columns, even when p is 1
        with pytest.raises(ValueError, match="2-d array of columns"):
            NonnegFactor(np.ones(3))

    def test_repr_gives_the_shape(self):
        assert repr(NonnegFactor(np.ones((3, 2)))) == "NonnegFactor(n=3, p=2)"

    def test_product(self, rng):
        raw = rng.random((3, 5))
        v = NonnegFactor(raw)
        assert np.abs(v.product() - raw @ raw.T).max() <= 1e-12

    def test_product_entries_are_bounded(self):
        assert NonnegFactor([[2.0**250]]).product()[0, 0] == 2.0**500  # largest allowed
        # one entry above 2**250; five entries whose squares sum past 2**500
        for cols in ([[np.nextafter(2.0**250, np.inf)]], [[2.0**249] * 5]):
            with pytest.raises(ValueError, match=r"at most 2\*\*500"):
                NonnegFactor(cols)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            NonnegFactor([[1.0, bad]])

    @pytest.mark.parametrize("scale", [1e100, 1e130, 1e160])
    @pytest.mark.parametrize(
        "op",
        [horn_orthogonal_factorize, cp_interior_certificate, lambda v: perturb_positify(v, 0.1)],
        ids=["horn6", "interior", "positify"],
    )
    def test_factor_whose_product_leaves_the_entry_bound_is_rejected(self, op, scale):
        v = random_admissible_factor(np.random.default_rng(7), 15).v * scale
        with pytest.raises(ValueError, match=r"at most 2\*\*500"):
            op(NonnegFactor(v))


def reference_dd_columns(m):
    """The dd expansion one column at a time: per row i, its pairs j > i,
    then its residual."""
    n = m.shape[0]
    off_sums = m.sum(axis=1) - np.diag(m)
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
    return np.column_stack(cols) if cols else np.zeros((n, 0))


class TestDd:
    def test_residual_and_column_count(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = random_dd_nonneg(rng, n)
            v = dd_factorize(m)
            assert v.p <= n * (n + 1) // 2
            assert v.v.min() >= 0
            assert np.abs(v.product() - m).max() <= 1e-9 * np.abs(m).max()

    def test_rejects_non_dd(self):
        with pytest.raises(NotDiagonallyDominantError):
            dd_factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_negative_entry(self):
        with pytest.raises(NotNonnegativeError):
            dd_factorize(np.array([[2.0, -1.0], [-1.0, 2.0]]))

    def test_columns_match_the_per_entry_loop(self, rng):
        """dd and posdd expand bit for bit as one column at a time does."""
        inputs = [np.zeros((3, 3)), np.eye(4)]
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = random_dd_nonneg(rng, n)
            pattern = rng.random((n, n)) < 0.5
            pattern = pattern | pattern.T | np.eye(n, dtype=bool)
            m = np.where(pattern, m, 0.0)
            # some rows with a residual of 0 up to roundoff
            off_sums = m.sum(axis=1) - np.diag(m)
            np.fill_diagonal(m, np.where(rng.random(n) < 0.3, off_sums, np.diag(m)))
            inputs.append(m)
        for m in inputs:
            assert np.array_equal(dd_factorize(m).v, reference_dd_columns(m))
        for _ in range(50):
            m = random_positive_dd(rng, int(rng.integers(3, 9)))
            mu = m.min()
            expected = np.column_stack([np.full(m.shape[0], np.sqrt(mu)), reference_dd_columns(m - mu)])
            assert np.array_equal(positive_dd_factorize(m)[0].v, expected)


class TestPositiveDd:
    def test_certificate(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            m = random_positive_dd(rng, n)
            v, cert = positive_dd_factorize(m)
            assert np.abs(v.product() - m).max() <= 1e-9 * np.abs(m).max()
            assert cert.rank == n
            assert v.v[:, cert.positive_column_index].min() > 0

    def test_small_order_rejected(self):
        with pytest.raises(OrderTooSmallError):
            positive_dd_factorize(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_zero_entry_rejected(self):
        m = random_positive_dd(np.random.default_rng(0), 4)
        m[0, 1] = m[1, 0] = 0.0
        with pytest.raises(NotPositiveError):
            positive_dd_factorize(m)

    def test_positive_but_not_dd_rejected(self):
        # each row of J + 0.5 I has diagonal 1.5 against an off-diagonal sum of 2
        with pytest.raises(NotDiagonallyDominantError, match="diagonal dominance fails"):
            positive_dd_factorize(np.ones((3, 3)) + 0.5 * np.eye(3))

    def test_a_least_eigenvalue_inside_the_rank_threshold_has_no_certificate(self):
        # Positive, and dominant with equality in rows 0 and 1: e_0 - e_1 has
        # the eigenvalue mu = 2.5e-9, under the rank threshold 1e-9 (1 + 2 + mu),
        # so the factor has numerical rank 2 and no interior certificate.
        mu = 2.5e-9
        m = np.array([[1.0 + mu, 1.0, mu], [1.0, 1.0 + mu, mu], [mu, mu, 1.0]])
        rank = r"^the factor's numerical rank is below the order 3: no interior certificate$"
        with pytest.raises(NotPositiveError, match=rank):
            positive_dd_factorize(m)


class TestPerturbPositify:
    def test_j2_example(self):
        v0 = NonnegFactor(np.array([[1.0], [1.0]]))
        m, v = perturb_positify(v0, 0.5)
        assert v.p == 1
        assert v.v.min() > 0
        assert np.abs(v.product() - m).max() <= 1e-10

    def test_random_inputs(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, 7))
            v0 = NonnegFactor(rng.random((n, p)) + 0.01)
            eps = float(rng.random() * 0.5 + 1e-3)
            m, v = perturb_positify(v0, eps)
            assert v.p == v0.p
            assert v.v.min() > 0
            assert np.abs(v.product() - m).max() <= 1e-10 * max(np.abs(m).max(), 1.0)
            # the perturbation is a rank-one nonnegative bump of the product
            bump = m - v0.product()
            assert bump.min() >= -1e-12
            assert indep_cols_rank(bump) <= 1


    # (d1**2, d2**2) for the path 0 - 1 - 2 below.  A shifted power
    # iteration needs more than 1e5 steps on the first; on the second, one
    # stopped when no entry moves by 1e-14 ends 4e-6 off the Perron vector.
    @pytest.mark.parametrize("d1sq, d2sq", [(3e-11, 7e-11), (5e-11, 5.0001e-11)])
    def test_tiny_spectral_gap(self, d1sq, d2sq):
        # Two unit vertices joined through a middle one with zero diagonal:
        # the eigenvalues near 1 are 1 + O(d**4) and 1 + d1**2 + d2**2, a
        # relative gap of 1e-10.
        d1, d2 = np.sqrt(d1sq), np.sqrt(d2sq)
        m = np.array([[1.0, d1, 0.0], [d1, 0.0, d2], [0.0, d2, 1.0]])
        v, lam = _perron_vector(m, DEFAULT_TOL)
        w = np.linalg.eigvalsh(m)
        assert (w[-1] - w[-2]) / w[-1] == pytest.approx(1e-10, rel=1e-4)
        assert v.min() > 0
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert abs(lam - w[-1]) <= 1e-15
        assert np.linalg.norm(m @ v - lam * v) <= 1e-15

    def test_disconnected_support_is_rejected(self):
        with pytest.raises(PerronNotPositiveError, match="support graph is not connected"):
            _perron_vector(np.eye(2), DEFAULT_TOL)
        with pytest.raises(PerronNotPositiveError, match="support graph is not connected"):
            perturb_positify(NonnegFactor(np.eye(2)), 0.5)

    def test_rejects_a_negative_eps(self):
        # NaN and inf passed an eps < 0 test and failed later on the factor's entries
        for eps in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                perturb_positify(NonnegFactor(np.ones((2, 1))), eps)

    def test_a_perron_coordinate_below_the_threshold_is_rejected(self):
        # The path 0 - 1 - 2 has entries 1e-4 and 1e-8, both above the
        # threshold 2e-9, so it is connected; the Perron vector's last
        # coordinate is about 1e-4 * 1e-8 and reads as zero.
        v0 = NonnegFactor(np.array([[1.0, 0.0], [1e-4, 1e-4], [0.0, 1e-4]]))
        with pytest.raises(PerronNotPositiveError, match="Perron vector has a vanishing coordinate"):
            perturb_positify(v0, 0.5)

    def test_a_factor_without_columns_is_rejected(self):
        # order 1 is connected, but the zero product's Perron vector meets no column
        with pytest.raises(PerronNotPositiveError, match="factor columns do not all meet the Perron vector"):
            perturb_positify(NonnegFactor(np.zeros((1, 0))), 0.5)


class TestCp3:
    def test_diagonal(self):
        v = cp3_factorize(np.diag([1.0, 2.0, 3.0]))
        assert v.p <= 3
        assert np.abs(v.product() - np.diag([1.0, 2.0, 3.0])).max() <= 1e-9

    def test_random_gram_of_nonneg(self, rng):
        for _ in range(40):
            r = int(rng.integers(1, 4))
            b = rng.random((3, r))
            y = b @ b.T
            v = cp3_factorize(y)
            assert v.p <= 3
            assert np.abs(v.product() - y).max() <= 1e-7 * max(np.abs(y).max(), 1.0)

    def test_rotation_needed_case(self):
        # Gram of a nonneg factor whose plain Cholesky root has negative entries
        b = np.array([[1.0, 0.0], [0.9, 0.9], [0.0, 1.0]])
        y = b @ b.T
        v = cp3_factorize(y)
        assert v.p <= 3
        assert np.abs(v.product() - y).max() <= 1e-7

    @pytest.mark.parametrize("s", [1.0, 1e6, 1e12])
    def test_relative_residual_does_not_grow_with_scale(self, s):
        # the residual of a rotation search that accepts negatives down to
        # -1e-12 max|Y| grew with s: 1.4e-12 at s = 1, 1.3e-6 at s = 1e12
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            v = rng.uniform(0.0, 1.0, (3, 3))
            y = s * (v @ v.T)
            f = cp3_factorize(y)
            worst = max(worst, np.abs(f.product() - y).max() / np.abs(y).max())
        assert worst <= 1e-14

    def test_a_rank_1_root_an_ulp_below_the_clip_is_factorized(self):
        # y_01 = -thr passes the DNN test.  The root's entry y_01 / sqrt(y_00)
        # rounds one ulp below -thr / max|l| (max|l| = y_00 / sqrt(y_00)
        # rounds above sqrt(y_00)), so the r = 1 branch is reached.
        d = 2.72936590562509
        thr = DEFAULT_TOL.scaled(d)
        y = np.array([[d, -thr], [-thr, 2.0 * thr * thr / d]])
        root = pivoted_cholesky(y)
        assert root.shape[1] == 1 and root.min() < -thr / np.abs(root).max()
        f = cp3_factorize(y)
        assert f.p == 1 and f.v.min() >= 0.0
        # clipped, not flipped: the product moves by thr, not 2 thr
        assert np.abs(f.product() - y).max() <= DEFAULT_TOL.scaled(np.abs(y).max())

    def test_rejects_non_dnn(self):
        with pytest.raises(NotDnnError):
            cp3_factorize(np.array([[1.0, -0.5], [-0.5, 1.0]]))

    def test_a_rotated_root_with_a_roundoff_negative_entry_is_clipped_only_within_tolerance(self):
        # Y = V V' is exact in binary, and its pivoted root needs the
        # rotation; the rotated root has an entry a roundoff below 0, which
        # the default tolerance clips and the zero tolerance cannot
        v = np.array([[1.0, 0.0], [0.0, 0.25], [0.25, 2.0]])
        y = v @ v.T
        assert cp3_factorize(y).p == 2
        with pytest.raises(NotDnnError, match="no nonnegative factor within tolerance"):
            cp3_factorize(y, Tolerance(0.0, 0.0))

    def test_rejects_large_order(self):
        with pytest.raises(ValueError):
            cp3_factorize(np.eye(4))

    def test_a_negative_pair_inside_the_tolerance_is_clipped_before_factoring(self):
        # is_dnn accepts the (1, 2) pair -1.9e-9 > -thr; against the diagonal
        # 1e-8 it would put the rows of the rank-2 remainder 101 degrees apart,
        # beyond any rotation into the quadrant, were it not clipped to 0.
        y = np.array([[1.0, 0.0, 0.0], [0.0, 1e-8, -1.9e-9], [0.0, -1.9e-9, 1e-8]])
        f = cp3_factorize(y)
        assert f.p <= 3
        assert np.abs(f.product() - y).max() <= DEFAULT_TOL.scaled(1.0)

    def test_every_near_dnn_matrix_is_factorized(self):
        # D B B' D with B sparse and nonnegative, every zero off-diagonal pair
        # moved to -U(0, 1) thr: doubly nonnegative within the tolerance.
        # Clipping Y moves the product by less than thr, clipping the root by
        # at most thr more.
        rng = np.random.default_rng(41)
        tried = 0
        for _ in range(400):
            n = int(rng.integers(2, 4))
            b = rng.random((n, 3)) * (rng.random((n, 3)) < 0.5)
            b *= 10.0 ** rng.uniform(-5, 0, (n, 1))
            y = b @ b.T
            if not y.any():
                continue
            thr = DEFAULT_TOL.scaled(np.abs(y).max())
            e = np.triu(y == 0, 1) * rng.uniform(0.0, 1.0, (n, n)) * thr
            y -= e + e.T
            if is_dnn(y).answer is not Answer.IN:
                continue
            tried += 1
            f = cp3_factorize(y)
            assert f.p <= 3
            assert np.abs(f.product() - y).max() <= 2.0 * thr
        assert tried >= 300


class TestHorn6:
    def test_column_budget_residual_orthogonality(self, rng):
        for _ in range(30):
            v0 = random_admissible_factor(rng, int(rng.integers(1, 8)))
            m = v0.product()
            v = horn_orthogonal_factorize(v0)
            assert v.p <= 15
            assert np.abs(v.product() - m).max() <= 1e-8 * max(np.abs(m).max(), 1.0)
            assert abs(float(np.sum(m * horn_block6()))) <= 1e-10

    def test_rejects_non_orthogonal(self):
        v0 = NonnegFactor(np.ones((6, 1)))
        with pytest.raises(NotOrthogonalToHornError):
            horn_orthogonal_factorize(v0)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_orthogonality_margin_scales_with_the_product(self, scale):
        # <M, H6> = (v1 - v2)**2 = 1.5e-9 * scale**2 against the threshold
        # tol.scaled(max|M|): 1.0e-9 at scale 1, so neither scale passes
        col = scale * np.array([1e-3 + np.sqrt(1.5e-9), 1e-3, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(NotOrthogonalToHornError):
            horn_orthogonal_factorize(NonnegFactor(col[:, None]))

    def test_wrong_order(self):
        with pytest.raises(ValueError):
            horn_orthogonal_factorize(NonnegFactor(np.ones((5, 1))))

    def test_all_zero_factor_gives_no_columns(self):
        assert horn_orthogonal_factorize(NonnegFactor(np.zeros((6, 2)))).v.shape == (6, 0)

    def test_cone_fit_uses_the_given_tolerance(self):
        # e1 + e2 plus 1e-7 e3: orthogonal to the Horn block up to 1e-14,
        # but 6e-8 off every generator cone in the least-squares fit
        v0 = NonnegFactor(np.array([[1.0], [1.0], [1e-7], [0.0], [0.0], [0.0]]))
        with pytest.raises(ColumnOutsideConesError):
            horn_orthogonal_factorize(v0)
        v = horn_orthogonal_factorize(v0, Tolerance(abs=1e-6, rel=0.0))
        assert v.p == 1
        assert np.abs(v.product() - v0.product()).max() <= 1e-6


class TestContinuation:
    @staticmethod
    def interior_point(rng, n, k):
        # diagonal boost keeps the square factor well conditioned, so the
        # continuation radius comfortably covers a 1e-3 perturbation
        vbar = 0.2 * rng.random((n, n)) + 0.1 + np.eye(n)
        vtilde = rng.random((n, k))
        return vbar, vtilde, vbar @ vbar.T + vtilde @ vtilde.T

    def test_converges_quadratically_near_target(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 5))
            vbar, vtilde, m0 = self.interior_point(rng, n, int(rng.integers(0, 3)))
            d = rng.standard_normal((n, n))
            d = 1e-3 * (d + d.T) / np.abs(d + d.T).max()
            res = factor_continuation(vbar, vtilde, m0 + d)
            assert res.iterations <= 8
            assert res.residuals[-1] <= 1e-10
            out = res.factor.v
            assert out[:, :n].min() > 0
            assert np.abs(res.factor.product() - (m0 + d)).max() <= 1e-9

    def test_large_perturbation_diverges(self, rng):
        vbar, vtilde, m0 = self.interior_point(rng, 3, 0)
        with pytest.raises(NewtonDivergedError):
            factor_continuation(vbar, vtilde, m0 + 100.0 * np.eye(3))

    def test_rejects_a_factor_that_is_not_square(self):
        with pytest.raises(ValueError, match="square positive factor required"):
            factor_continuation(np.ones((3, 2)), np.zeros((3, 0)), np.eye(3))
        # a 0-d factor has no shape[0]: it raised IndexError
        with pytest.raises(ValueError, match="square positive factor required"):
            factor_continuation(5.0, np.zeros((1, 0)), [[25.0]])

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(NotPositiveError):
            factor_continuation(np.eye(3), np.zeros((3, 0)), np.eye(3))

    def test_rejects_non_finite_factors(self, rng):
        vbar, vtilde, m0 = self.interior_point(rng, 3, 1)
        bad = vbar.copy()
        bad[0, 1] = np.nan  # fails no positivity comparison
        with pytest.raises(ValueError, match="finite"):
            factor_continuation(bad, vtilde, m0)
        with pytest.raises(ValueError, match="finite"):
            factor_continuation(vbar, np.full((3, 1), np.inf), m0)

    def test_rejects_factors_beyond_the_entry_bound(self, rng):
        vbar, vtilde, m0 = self.interior_point(rng, 3, 1)
        with pytest.raises(ValueError, match=r"at most 2\*\*500"):
            factor_continuation(1e200 * vbar, vtilde, m0)
        with pytest.raises(ValueError, match=r"at most 2\*\*500"):
            factor_continuation(vbar, 1e200 * vtilde, m0)

    def test_rejects_negative_vtilde_before_newton(self, rng):
        # target = M - Vtilde Vtilde.T is far from Vbar Vbar.T: Newton would
        # diverge, so only a check made before it gives this error
        vbar, _, _ = self.interior_point(rng, 3, 0)
        with pytest.raises(NotNonnegativeError):
            factor_continuation(vbar, np.full((3, 1), -10.0), vbar @ vbar.T)

    def test_a_target_that_needs_a_zero_entry_loses_positivity(self):
        # the off-diagonal pair of vbar vbar' is 2e-3: lowered by 2e-3 it is 0, which no
        # entrywise positive factor gives; lowered by 1e-3 the continuation converges
        vbar = np.array([[1.0, 1e-3], [1e-3, 1.0]])
        e12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PositivityLostError, match="pushed a factor entry to zero"):
            factor_continuation(vbar, np.zeros((2, 0)), vbar @ vbar.T - 2e-3 * e12)

    def test_a_residual_that_falls_too_slowly_diverges(self):
        # vbar = J + I / 2 has the singular value 1/2 on w = (1, -1, 1, -1) / 2.
        # The residual c w w', c = 0.95, has max entry c / 4, inside the radius
        # 1/4; the Newton step along w leaves -c^2 w w', c times the first
        # residual: above 0.9 times it.
        vbar = np.ones((4, 4)) + 0.5 * np.eye(4)
        w = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        with pytest.raises(NewtonDivergedError, match="Newton residual stopped decreasing"):
            factor_continuation(vbar, np.zeros((4, 0)), vbar @ vbar.T + 0.95 * np.outer(w, w))

    def test_a_target_reached_only_in_the_limit_hits_the_iteration_cap(self):
        # v^2 = 0 from v = 1: each Newton step halves v exactly, so the
        # residual falls by 4 per step and stays above 1e-12 times the tiny
        # scale of the zero target after 30 steps
        with pytest.raises(NewtonDivergedError, match="iteration cap reached without convergence"):
            factor_continuation(np.ones((1, 1)), np.zeros((1, 0)), np.zeros((1, 1)))


class TestHeuristic:
    def test_finds_known_factorization(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(n, n + 3))
            b = rng.random((n, p))
            m = b @ b.T
            v = heuristic_min_factor(m, p)
            assert v is not None
            assert v.p <= p  # exact zero columns are dropped
            assert np.abs(v.product() - m).max() <= 1e-7 * np.abs(m).max()

    def test_zero_column_leaves_fewer_than_target(self):
        # The projection lands on a factor with one all-zero column, which
        # NonnegFactor drops: 5 columns come back for a target of 6.
        b = np.random.default_rng(0).random((5, 8))
        m = b @ b.T
        v = heuristic_min_factor(m, 6)
        assert v is not None
        assert v.p <= 6
        assert v.v.min() >= 0.0
        assert np.abs(v.product() - m).max() <= 1e-7 * np.abs(m).max()

    def test_below_rank_returns_none(self):
        assert heuristic_min_factor(np.eye(3), 2) is None

    def test_rejects_a_negative_target(self):
        # a negative target fell under the rank test and read as a failed search
        with pytest.raises(ValueError, match="p_target must be nonnegative"):
            heuristic_min_factor(np.eye(3), -1)

    @pytest.mark.parametrize("p_target", [2.5, 4.0])
    def test_rejects_a_target_that_is_not_an_integer(self, p_target):
        # 2.5 fell under the rank test and read as a failed search, and 4.0
        # failed inside numpy after the eigendecomposition
        with pytest.raises(TypeError):
            heuristic_min_factor(np.eye(3), p_target)

    def test_a_rank_that_drops_a_tiny_eigenvalue_finds_no_factor(self):
        """diag(1e-3, 1e-3, 5e-10) has a factor within thr (cp3_factorize
        gives one), but the rank threshold's absolute part drops the 5e-10
        eigenvalue, and the root of rank 2 misses the purely relative fit
        1e-7 max|M|: every restart gives up, so the search answers None.
        This pins today's failure; thresholds that respect scale (ROADMAP
        item 6) will flip these answers to factors, and this test with
        them."""
        m = np.diag([1e-3, 1e-3, 5e-10])
        assert cp3_factorize(m).p == 2
        assert [heuristic_min_factor(m, p) for p in (2, 3, 4)] == [None] * 3

    def test_zero_matrix_target_zero_has_no_columns(self):
        # the projection loop reduced over an n x 0 product
        v = heuristic_min_factor(np.zeros((3, 3)), 0)
        assert v.v.shape == (3, 0)

    def test_deterministic(self):
        m = np.eye(3) + 1.0
        a = heuristic_min_factor(m, 3)
        b = heuristic_min_factor(m, 3)
        assert np.abs(a.v - b.v).max() == 0.0

    def test_rejects_non_dnn(self):
        with pytest.raises(NotDnnError):
            heuristic_min_factor(horn_matrix(), 5)

    def test_a_clipped_root_that_misses_the_fit_is_not_returned(self):
        # A rotation whose clipped root misses the fit 1e-7 * scale is given
        # up for the next restart, so whatever comes back fits.
        m = 1e6 * (np.ones((3, 3)) + 2.0 * np.eye(3))
        v = heuristic_min_factor(m, 4)
        if v is not None:
            assert v.p <= 4 and v.v.min() >= 0.0
            assert np.abs(v.product() - m).max() <= 1e-7 * 1e6


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e5, 1e6, 1e9, 1e12])
def test_heuristic_takes_one_restart_at_every_scale(monkeypatch, scale):
    # the root floor grows like the root, sqrt(scale), so the first rotation
    # of J + 2I fits at every scale; each restart draws one QR
    restarts = []
    spy(monkeypatch, np.linalg, "qr", lambda out, g: restarts.append(g))
    m = scale * (np.ones((3, 3)) + 2.0 * np.eye(3))
    v = heuristic_min_factor(m, 4)
    assert len(restarts) == 1
    assert v.v.min() >= 0.0 and np.abs(v.product() - m).max() <= 1e-7 * scale


@pytest.mark.parametrize("n, p", [(4, 5), (5, 6), (5, 8), (6, 8)])
def test_heuristic_factor_of_4_to_the_k_m_is_2_to_the_k_times_m_s(n, p):
    # the benchmark's heuristic items: M = V V' with V uniform on [0.05, 1]
    for seed in range(10):
        rng = np.random.default_rng([seed, n, p])
        v = rng.uniform(0.05, 1.0, (n, p))
        m = v @ v.T
        k = int(rng.choice([-5, -2, -1, 1, 3, 6, 9]))
        base = heuristic_min_factor(m, p)
        assert np.array_equal(heuristic_min_factor(4.0**k * m, p).v, 2.0**k * base.v)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_dd_factorization_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    m = random_dd_nonneg(rng, n)
    v = dd_factorize(m)
    assert np.abs(v.product() - m).max() <= 1e-9 * np.abs(m).max()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(["uniform", "wide", "integer"]),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.integers(0, 10_000),
)
def test_cp3_property(n, r, kind, zero_rows, seed):
    """Order <= 3 V V' with V >= 0 of rank <= 3: zero rows, entries spread
    over 1e-6..1e6, and small integer entries that make Y exactly singular."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        v = rng.integers(0, 3, (n, r)).astype(float)
    else:
        v = rng.uniform(0.0, 1.0, (n, r))
        if kind == "wide":
            v *= 10.0 ** rng.uniform(-6.0, 6.0, (n, r))
    v[np.array(zero_rows[:n])] = 0.0
    y = v @ v.T
    f = cp3_factorize(y)
    scale = np.abs(y).max()
    assert f.p <= 3
    assert f.v.min(initial=0.0) >= 0.0
    assert np.abs(f.product() - y).max() <= DEFAULT_TOL.scaled(scale) + 1e-12 * max(1.0, scale)
