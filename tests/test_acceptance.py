"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line.  Run with -s to see the lines as they happen."""

import time

import numpy as np
import pytest

import copcone as cc
from conftest import (
    random_admissible_factor,
    random_dd_nonneg,
    random_positive_dd,
    random_sym,
    simplex_grid_min,
)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_horn_fixture_suite():
    started = time.perf_counter()
    h = cc.horn_matrix()
    ok = cc.is_copositive(h).answer is cc.Answer.IN
    ok &= cc.is_psd(h).answer is cc.Answer.NOT_IN
    ok &= cc.is_nonneg(h).answer is cc.Answer.NOT_IN
    ok &= cc.kernel.num_rank(h) == 5
    zeros = cc.copositive_boundary_zeros(h)
    for i in range(5):
        x = np.zeros(5)
        x[i] = x[(i + 1) % 5] = 0.5
        ok &= any(np.abs(np.asarray(z) - x).max() <= 1e-9 for z in zeros)
    ok &= all(abs(float(np.asarray(z) @ h @ np.asarray(z))) <= 1e-12 for z in zeros)
    ok &= (time.perf_counter() - started) < 1.0
    report("01 horn fixture suite", ok)


def test_02_copositivity_oracle_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    agree = total = 0
    while total < 500:
        n = int(rng.integers(4, 6))
        a = random_sym(rng, n)
        oracle = simplex_grid_min(a, seed=int(rng.integers(1 << 30)))
        if abs(oracle) <= 1e-4:
            continue
        total += 1
        verdict = cc.is_copositive(a)
        want = cc.Answer.IN if oracle > 0 else cc.Answer.NOT_IN
        agree += verdict.answer is want
    elapsed = time.perf_counter() - started
    report("02 copositivity oracle agreement", agree == total == 500 and elapsed < 60.0)


def test_03_factorization_residuals():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = random_dd_nonneg(rng, n)
        v = cc.dd_factorize(m)
        ok &= np.abs(v.product() - m).max() <= 1e-9 * np.abs(m).max()
        ok &= v.v.min() >= 0
        ok &= v.p <= n * (n + 1) // 2
    for _ in range(200):
        n = int(rng.integers(3, 9))
        m = random_positive_dd(rng, n)
        v, cert = cc.positive_dd_factorize(m)
        ok &= np.abs(v.product() - m).max() <= 1e-9 * np.abs(m).max()
        ok &= cert.rank == n
        ok &= v.v[:, cert.positive_column_index].min() > 0
    report("03 factorization residuals", ok)


def _order6_pairs(count, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        v = random_admissible_factor(rng, int(rng.integers(2, 9)), full6=(k % 2 == 0))
        out.append(v)
    return out


def test_04_order6_fifteen_column_factorization():
    hb = cc.horn_block6()
    ok = True
    for v0 in _order6_pairs(200):
        m = v0.product()
        v = cc.horn_orthogonal_factorize(v0)
        ok &= v.p <= 15
        ok &= np.abs(v.product() - m).max() <= 1e-8 * max(np.abs(m).max(), 1.0)
        ok &= abs(float(np.sum(m * hb))) <= 1e-10
    report("04 order-6 fifteen-column factorization", ok)


def _horn_zero_pairs(count, seed=12):
    """Pairs (V, A): A a scaled Horn matrix plus a zero block of order k <= 2,
    simultaneously permuted, and V's columns positive multiples of some of
    A's boundary zeros, so that M = V V' is orthogonal to A."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = 5 + int(rng.integers(0, 3))
        a = np.zeros((n, n))
        a[:5, :5] = cc.horn_matrix()
        perm = rng.permutation(n)
        d = rng.random(n) + 0.25
        a = a[np.ix_(perm, perm)] * np.outer(d, d)
        zeros = np.array(cc.copositive_boundary_zeros(a))
        pick = rng.permutation(len(zeros))[: int(rng.integers(1, len(zeros) + 1))]
        out.append((cc.NonnegFactor(zeros[pick].T * (rng.random(pick.size) + 0.1)), a))
    return out


def _psd_kernel_pairs(count, seed=13):
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
        out.append((cc.NonnegFactor(u * (rng.random(r) + 0.1)), b @ b.T))
    return out


def test_05_orthogonal_pair_property_suite():
    """The paper's relations on orthogonal pairs (M = V V', A): the order-6
    factors against the Horn block, and the two generated families."""
    hb = cc.horn_block6()
    pairs = [(v, hb) for v in _order6_pairs(200)] + _horn_zero_pairs(200) + _psd_kernel_pairs(200)
    ok = True
    for v, a in pairs:
        m = v.product()
        col = cc.orth_column_check(m, a)
        ok &= col.passed and col.defect <= 1e-10
        if np.diag(m).min() > cc.DEFAULT_TOL.scaled(np.abs(m).max()):
            ok &= cc.anti_dd_check(m, a).all_pass
        # a row of V positive in every column makes the nullspace check PASS
        thr = 1e-12 * max(v.v.max(), 1.0)
        for i in range(v.n):
            got = cc.orth_nullspace_check(m, a, v, i)
            ok &= got == "PASS" if np.all(v.v[i, :] > thr) else got != "FAIL"
        ok &= cc.rank3_witness_check(m, a) != "FAIL"
    report("05 orthogonal pair property suite", ok)


def test_06_bounds_table():
    ok = cc.babe(6) == 20
    ok &= cc.djl_lower(6) == 9
    ok &= cc.known_pn_interval(5) == (6, 6)
    ok &= cc.known_pn_interval(6) == (9, 15)
    ok &= cc.known_pn_interval(7) == (12, 24)
    v = random_admissible_factor(np.random.default_rng(5), 6, full6=True)
    entries = cc.witness_bound(v.product(), cc.horn_block6())
    ok &= min(e.value for e in entries) == 15
    ze = [e.value for e in cc.cp_rank_interval(np.eye(6)).uppers if e.rule == "ZERO_ENTRY"]
    ok &= ze == [12]
    ok &= all(e.rule != "ZERO_ENTRY" for e in cc.cp_rank_interval(np.ones((6, 6)) + np.eye(6)).uppers)
    report("06 bounds table", ok)


def test_07_orbit_round_trips():
    rng = np.random.default_rng(13)
    h = cc.horn_matrix()
    ok = True
    for _ in range(100):
        d = rng.random(5) + 0.25
        p = rng.permutation(5)
        a = h[np.ix_(p, p)] * np.outer(d, d)
        w = cc.horn_orbit_recognize(a)
        ok &= w is not None and np.abs(w.reconstruct(h) - a).max() <= 1e-9 * np.abs(a).max()
    for _ in range(100):
        a = random_sym(rng, 5)
        ok &= cc.horn_orbit_recognize(a) is None
    for _ in range(100):
        n = int(rng.integers(2, 6))
        x = rng.random(n) + 0.05
        ok &= cc.classify_rank12(np.outer(x, x)).tag == "PSD_RANK1"
    for _ in range(100):
        n = int(rng.integers(2, 6))
        i, j = sorted(rng.choice(n, size=2, replace=False))
        a = np.zeros((n, n))
        a[i, j] = a[j, i] = float(rng.random() + 0.1)
        ok &= cc.classify_rank12(a).tag == "E12_ORBIT"
    report("07 orbit round trips", ok)


def test_08_factor_continuation():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 5))
        k = int(rng.integers(0, 3))
        vbar = 0.2 * rng.random((n, n)) + 0.1 + np.eye(n)
        vtilde = rng.random((n, k))
        m0 = vbar @ vbar.T + vtilde @ vtilde.T
        d = rng.standard_normal((n, n))
        d = 1e-3 * (d + d.T) / np.abs(d + d.T).max()
        res = cc.factor_continuation(vbar, vtilde, m0 + d)
        ok &= res.iterations <= 8
        ok &= res.residuals[-1] <= 1e-10
        ok &= res.factor.v[:, :n].min() > 0
    report("08 factor continuation", ok)


def test_09_perturb_positify():
    rng = np.random.default_rng(19)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 7))
        v0 = cc.NonnegFactor(rng.random((n, p)) + 0.01)
        eps = float(rng.random() * 0.5) or 1e-3
        m, v = cc.perturb_positify(v0, eps)
        ok &= v.v.min() > 0
        ok &= np.abs(v.product() - m).max() <= 1e-10
        ok &= v.p == v0.p
    report("09 perturb positify", ok)
