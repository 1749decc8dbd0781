"""The benchmark's output checks accept valid outputs and reject corrupted
ones.  Run with: PYTHONPATH=src python -m pytest copbench"""

import dataclasses

import numpy as np
import pytest

import checks
import corpus

HORN = corpus.HORN
H6 = corpus.HORN_BLOCK


def rejects(fn, *args, **kwargs):
    with pytest.raises(checks.CheckError):
        fn(*args, **kwargs)


def test_violation_vector():
    a = HORN.copy()
    a[0, 1] = a[1, 0] = -1.5
    x = np.array([0.5, 0.5, 0, 0, 0])
    checks.violation(a, x, checks.form(a, x))
    rejects(checks.violation, a, x, checks.form(a, x) + 1e-3)  # wrong reported value
    rejects(checks.violation, a, np.array([0.6, 0.6, -0.2, 0, 0]))  # negative entry
    rejects(checks.violation, a, 2 * x)  # off the simplex
    rejects(checks.violation, HORN, x)  # a zero, not a violation


def test_psd_witness_needs_no_sign():
    w, q = np.linalg.eigh(HORN)
    x = q[:, 0] if q[:, 0].min() < 0 else -q[:, 0]
    checks.psd_violation(HORN, x, w[0])
    rejects(checks.psd_violation, HORN, 2 * x)
    rejects(checks.psd_violation, HORN, q[:, -1])


def test_boundary_zero():
    x = np.array([0.5, 0.5, 0, 0, 0])
    checks.boundary_zero(HORN, x, 0.0, stationary=True)
    rejects(checks.boundary_zero, HORN, np.array([0.5, 0.4, 0.1, 0, 0]))
    rejects(checks.boundary_zero, HORN, x, 1e-3)
    rejects(checks.boundary_zero, HORN, np.array([0.5, 0, 0.5, 0, 0]))


def test_factor_limits():
    v = np.abs(np.random.default_rng(0).standard_normal((6, 15)))
    m = v @ v.T
    checks.factor(m, v, max_cols=15)
    rejects(checks.factor, m, v, max_cols=14)
    bad = v.copy()
    bad[2, 3] += 1e-6
    rejects(checks.factor, m, bad)
    neg = v.copy()
    neg[0, 0] = -1e-3
    rejects(checks.factor, neg @ neg.T, neg)


def test_interval():
    v = np.abs(np.random.default_rng(1).standard_normal((6, 4)))
    m = v @ v.T  # rank 4
    checks.interval(m, 4, 4, ["RANK_LB", "FACTOR"], factor_cols=4)
    rejects(checks.interval, m, 5, 6, ["FACTOR"])  # lower end is not the rank
    rejects(checks.interval, m, 4, 3, ["FACTOR"])  # lower above upper
    rejects(checks.interval, m, 4, 5, ["FACTOR"], factor_cols=4)
    rejects(checks.interval, m, 4, 12, ["FACTOR", "BN_4"], horn_witness=True)


def test_orbit_witness():
    d = np.array([1.0, 2.0, 0.5, 1.5, 3.0])
    perm = np.array([2, 0, 4, 1, 3])
    a = corpus.congruence(HORN, d, perm)
    checks.orbit(a, HORN, d, perm)
    rejects(checks.orbit, a, HORN, d, perm[::-1])
    rejects(checks.orbit, a, HORN, -d, perm)
    rejects(checks.orbit, a, HORN, d, [0, 0, 1, 2, 3])


def test_orthogonal_pair():
    rng = np.random.default_rng(2)
    v = corpus.generator_factor(rng, 8, full6=True)
    m = v @ v.T
    checks.orthogonal_pair(m, H6, True, [True] * 6)
    checks.nullspace(m, H6, v, ["SKIP"] * 5 + ["PASS"])
    rejects(checks.orthogonal_pair, m, H6, False, [True] * 6)
    rejects(checks.orthogonal_pair, m, H6, True, [True] * 5 + [False])
    rejects(checks.nullspace, m, H6, v, ["SKIP"] * 6)
    e02 = np.eye(6)[0] + np.eye(6)[2]  # (e1 + e3)' H (e1 + e3) = 4, so M leaves the face
    m_off = m + 0.1 * np.outer(e02, e02)
    rejects(checks.orthogonal_pair, m_off, H6, True, [True] * 6)


def test_interior_certificate():
    m = np.array([[3.0, 1, 1], [1, 3, 1], [1, 1, 3]])
    v = np.hstack([np.ones((3, 1)), np.sqrt(2) * np.eye(3)])
    checks.interior_certificate(m, v, 0, 3)
    rejects(checks.interior_certificate, m, v, 1, 3)
    rejects(checks.interior_certificate, m, v, 0, 2)


def test_corpus_items_reject_corrupted_library_outputs():
    cc = pytest.importorskip("copcone")
    rng = np.random.default_rng(3)
    refute = corpus.cop_refute(rng, cc)[0]
    verdict = refute.run()
    refute.check(verdict)
    cert = dataclasses.replace(verdict.certificate, x=np.roll(verdict.certificate.x, 1))
    with pytest.raises(checks.CheckError):
        refute.check(dataclasses.replace(verdict, certificate=cert))
    with pytest.raises(checks.CheckError):
        refute.check(dataclasses.replace(verdict, answer=cc.Answer.IN))

    horn = next(i for i in corpus.cop_certify(rng, cc) if i.name == "horn-orbit-5#0")
    verdict = horn.run()
    horn.check(verdict)
    with pytest.raises(checks.CheckError):
        horn.check(dataclasses.replace(verdict, certificate=None))

    pairs = corpus.cp_pairs(rng, cc)
    horn6 = next(i for i in pairs if i.kind == "horn6")
    f = horn6.run()
    horn6.check(f)
    with pytest.raises(checks.CheckError):
        horn6.check(cc.NonnegFactor(f.v * 1.001))
    interval = next(i for i in pairs if i.kind == "cp_rank_interval")
    report = interval.run()
    interval.check(report)
    without = [e for e in report.uppers if e.rule != "HORN15"]
    with pytest.raises(checks.CheckError):
        interval.check(cc.BoundReport(report.n, report.lower, tuple(without)))


def test_cli_item_demands_identical_reruns(tmp_path):
    outputs = iter([(0, b'{"result": {"interval": [12, 24]}}'), (0, b'{"result": {"interval": [12, 24]} }')])
    items = corpus.cli(np.random.default_rng(4), str(tmp_path), lambda argv: next(outputs))
    table = items[0]
    table.check(table.run())
    with pytest.raises(checks.CheckError):
        table.check(table.run())
