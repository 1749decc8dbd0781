import numpy as np
import pytest

from conftest import random_admissible_factor, random_sym
from copcone import (
    NonnegFactor,
    anti_dd_check,
    classify_rank12,
    horn_block6,
    horn_matrix,
    horn_orbit_recognize,
    nonneg_extreme_check,
    orth_column_check,
    orth_nullspace_check,
    rank3_witness_check,
    zero_diag_reduce,
)
from copcone.errors import NotOrthogonalError, ZeroRowError
from copcone.extremal import FAIL, PASS, SKIP


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

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            horn_orbit_recognize(np.eye(4))

    def test_identity_not_in_orbit(self):
        assert horn_orbit_recognize(np.eye(5)) is None


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

    def test_unknown_for_generic_copositive(self):
        cls = classify_rank12(np.eye(5) + 0.5)
        assert "UNKNOWN" in cls.tag


class TestOrthChecks:
    def setup_method(self, method):
        rng = np.random.default_rng(7)
        self.v = random_admissible_factor(rng, 5, full6=True)
        self.m = self.v.product()
        self.a = horn_block6()

    def test_column_check(self):
        res = orth_column_check(self.m, self.a)
        assert res.passed
        assert res.defect <= 1e-10

    def test_column_check_requires_orthogonality(self):
        with pytest.raises(NotOrthogonalError):
            orth_column_check(np.eye(2) + 1.0, np.eye(2))

    def test_nullspace_pass_when_index_in_all_supports(self):
        # full6 puts coordinate 6 in every column support
        assert orth_nullspace_check(self.m, self.a, self.v, 5) == PASS

    def test_nullspace_skip_otherwise(self):
        assert orth_nullspace_check(self.m, self.a, self.v, 0) in (SKIP, PASS)

    def test_anti_dd_all_rows(self):
        res = anti_dd_check(self.m, self.a)
        assert res.all_pass

    def test_anti_dd_zero_row_guard(self):
        m = np.zeros((2, 2))
        with pytest.raises(ZeroRowError):
            anti_dd_check(m, np.zeros((2, 2)))


class TestZeroDiagReduce:
    def test_horn_block(self):
        red = zero_diag_reduce(horn_block6())
        assert red.structure_ok
        assert list(red.zero_indices) == [5]
        assert np.abs(red.s - horn_matrix()).max() == 0.0

    def test_structure_violation(self):
        # negative entry plus off-diagonal mass in a zero-diagonal row:
        # incompatible with an extremality claim
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        a[1, 2] = a[2, 1] = -1.0
        red = zero_diag_reduce(a)
        assert not red.structure_ok

    def test_nonneg_matrix_not_flagged(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        a[1, 2] = a[2, 1] = 1.0
        red = zero_diag_reduce(a)
        assert not red.structure_ok


def test_nonneg_extreme_check():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 2.0
    assert nonneg_extreme_check(a)
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert nonneg_extreme_check(b)
    assert not nonneg_extreme_check(np.ones((3, 3)))


def test_rank3_witness_check():
    # entrywise positive nonsingular matrix orthogonal to the Horn block:
    # every generator cone contributes, all coefficients positive
    from copcone import horn_generators

    w = horn_generators()
    rng = np.random.default_rng(3)
    x = np.zeros((6, 10))
    for j in range(10):
        i = j % 5
        x[i, j] = rng.random() + 0.2
        x[(i + 1) % 5, j] = rng.random() + 0.2
        x[5, j] = rng.random() + 0.2
    m = (w @ x) @ (w @ x).T
    assert m.min() > 0
    assert rank3_witness_check(m, horn_block6())

    with pytest.raises(Exception):
        rank3_witness_check(np.eye(6), horn_block6())
