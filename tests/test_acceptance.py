"""Three release criteria that still repeat module tests (the Horn suite,
the bounds table, orbit round trips), each printing a single PASS/FAIL
line.  Run with -s to see the lines as they happen."""

import time

import numpy as np

import copcone as cc
from conftest import random_admissible_factor, random_sym


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
