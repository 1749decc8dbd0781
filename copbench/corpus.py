"""Seeded corpora for the four workloads.

Every input is built here with numpy from the run's seed, and every expected
answer is known from the construction, never from running the library.  The
seed moves values (scalings, permutations, random entries); the make-up of
each corpus (families, orders, counts, operations) is fixed, so that runs
with different seeds do the same amount of work in the same mix.

An item is one operation on one input.  ``run`` performs the operation and
``check`` raises :class:`checks.CheckError` if the output lacks a property
it must have.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("cop-certify", "cop-refute", "cp-pairs", "cli")

HORN = np.array(
    [
        [1, -1, 1, 1, -1],
        [-1, 1, -1, 1, 1],
        [1, -1, 1, -1, 1],
        [1, 1, -1, 1, -1],
        [-1, 1, 1, -1, 1],
    ],
    dtype=float,
)

HORN_BLOCK = np.zeros((6, 6))
HORN_BLOCK[:5, :5] = HORN

# Order-17 Horn + I_12 is copositive, but support enumeration stops at order
# 16, so is_copositive raises this today.  The item does not depend on the
# seed and is counted as failed on every run until the limit is lifted.
ORDER_LIMIT_FAULT = "support enumeration is limited to order 16"


class Undecided(Exception):
    """The library answered UNDECIDED: the operation did not succeed."""


@dataclass
class Item:
    name: str
    kind: str  # operation, e.g. "is_copositive"; the warm-up calls each kind once
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: str | None = None
    reps: int = 1  # timed calls per pass


# ---------------------------------------------------------------------------
# matrix families


def sym(b: np.ndarray) -> np.ndarray:
    return 0.5 * (b + b.T)


def horn_plus_identity(k: int) -> np.ndarray:
    a = np.eye(5 + k)
    a[:5, :5] = HORN
    return a


def congruence(a: np.ndarray, d: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """A[perm][:, perm] scaled by d on both sides: the orbit action."""
    return a[np.ix_(perm, perm)] * np.outer(d, d)


def horn_orbit(rng, k: int):
    """Horn + I_k under a random positive scaling and permutation, with the
    supports of its simplex zeros (the cyclically adjacent Horn pairs)."""
    n = 5 + k
    perm = rng.permutation(n)
    d = rng.uniform(0.5, 2.0, n)
    a = congruence(horn_plus_identity(k), d, perm)
    where = {int(perm[i]): i for i in range(n)}
    supports = [frozenset({where[j], where[(j + 1) % 5]}) for j in range(5)]
    return a, supports


def psd_plus_nonneg(rng, n: int) -> np.ndarray:
    """Interior of the copositive cone: G G'/n plus an entrywise positive part,
    so x'Ax >= 0.01 on the simplex."""
    g = rng.standard_normal((n, n))
    return sym(g @ g.T / n + 0.1 * rng.uniform(0.1, 1.0, (n, n)))


def near_identity(rng, n: int) -> np.ndarray:
    """I + 0.05 S, positive definite while ||S|| < 20, plus a small positive part."""
    return sym(np.eye(n) + 0.05 * rng.standard_normal((n, n)) + 0.01 * rng.uniform(0.1, 1.0, (n, n)))


def planted(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Normalize a planted violation and confirm it by construction."""
    x = x / x.sum()
    if checks.form(a, x) >= -1e4 * checks.threshold(a):
        raise RuntimeError("planted violation is not far below the tolerance")
    return a


def generator_factor(rng, p: int, full6: bool) -> np.ndarray:
    """An order-6 factor whose columns lie in the generator cones of matrices
    orthogonal to the Horn block: column j is c1 (e_i + e_i+1) +
    c2 (e_i+1 + e_i+2) + c3 e6, indices cyclic over the first five.  The first
    five columns use i = 0..4, so the product has a positive diagonal."""
    w = np.zeros((6, 6))
    for i in range(5):
        w[i, i] = w[(i + 1) % 5, i] = 1.0
    w[5, 5] = 1.0
    x = np.zeros((6, p))
    for j in range(p):
        i = j if j < 5 else int(rng.integers(0, 5))
        x[i, j] = rng.uniform(0.2, 1.0)
        if rng.random() < 0.7:
            x[(i + 1) % 5, j] = rng.uniform(0.0, 1.0)
        if full6 or j == 0 or rng.random() < 0.7:
            x[5, j] = rng.uniform(0.1, 1.0)
    return w @ x


def orthogonal_pair(rng, p: int, full6: bool):
    """An orthogonal pair of order 6: A = the Horn block under a random
    scaling d and permutation, M = V V' with V = P D^-1 V0 and V0 from
    generator_factor.  Returns V0, A, V, M and the 5x5 block of A left after
    deleting its zero row, which lies in the Horn orbit."""
    v0 = generator_factor(rng, p, full6)
    perm = rng.permutation(6)
    d = rng.uniform(0.5, 2.0, 6)
    a = congruence(HORN_BLOCK, d, perm)
    v = v0[perm] / d[:, None]
    keep = perm != 5
    return v0, a, v, v @ v.T, a[np.ix_(keep, keep)]


def pivoted_root(y: np.ndarray) -> np.ndarray:
    """Cholesky root with full diagonal pivoting, y ~ L L' (columns of L)."""
    r = np.array(y, dtype=float)
    cols = []
    for _ in range(r.shape[0]):
        j = int(np.argmax(np.diag(r)))
        if r[j, j] <= 1e-9 * (1.0 + np.abs(y).max()):
            break
        cols.append(r[:, j] / np.sqrt(r[j, j]))
        r = r - np.outer(cols[-1], cols[-1])
    return np.column_stack(cols)


def dnn3(rng, rank: int, negative_root: bool) -> np.ndarray:
    """Order-3 V V' with V >= 0 of the given rank, drawn until its pivoted
    Cholesky root has (or has not) an entry below -1e-6."""
    while True:
        v = rng.uniform(0.0, 1.0, (3, rank))
        y = v @ v.T
        if (pivoted_root(y).min() < -1e-6) == negative_root:
            return y


def dd_nonneg(rng, n: int) -> np.ndarray:
    m = sym(rng.random((n, n)))
    np.fill_diagonal(m, 0.0)
    return m + np.diag(m.sum(axis=1) + rng.random(n))


def dd_positive(rng, n: int) -> np.ndarray:
    m = sym(rng.random((n, n)) + 0.05)
    np.fill_diagonal(m, 0.0)
    return m + np.diag(m.sum(axis=1) + rng.random(n) + 0.05)


# ---------------------------------------------------------------------------
# checks shared by the in-process and the cli items


def _copositive_check(a, expected: str, zero: bool):
    def check(v):
        answer = v.answer.value
        if answer == "UNDECIDED":
            raise Undecided("UNDECIDED")
        checks.verdict(answer, expected)
        cert = v.certificate
        if expected == "NOT_IN":
            checks.violation(a, cert.x, cert.value)
            return
        checks.require(cert is not None or not zero, "boundary matrix without a BoundaryZero")
        if cert is not None:
            checks.boundary_zero(a, cert.x, cert.value)
    return check


def _zeros_check(a, supports):
    def check(zeros):
        checks.require(len(zeros) > 0, "boundary zeros: none returned")
        thr = checks.threshold(a)
        found = set()
        for x in zeros:
            checks.boundary_zero(a, x, stationary=True)
            found.add(frozenset(np.nonzero(np.asarray(x) > thr)[0].tolist()))
        missing = [sorted(s) for s in supports if s not in found]
        checks.require(not missing, f"boundary zeros: no zero with support {missing}")
    return check


# ---------------------------------------------------------------------------
# workloads


# Items up to this order run SMALL_REPS times per pass on cop-certify, so that
# the cheap items, where the median item lies, get as many samples as a run
# of the expensive ones allows.
SMALL_ORDER, SMALL_REPS = 7, 4


def cop_certify(rng, cc) -> list[Item]:
    items = []

    def reps(a):
        return SMALL_REPS if a.shape[0] <= SMALL_ORDER else 1

    def copositive(name, a, zero):
        items.append(Item(name, "is_copositive", lambda: cc.is_copositive(a),
                          _copositive_check(a, "IN", zero), reps=reps(a)))

    for n in range(5, 11):
        copositive(f"interior-{n}", psd_plus_nonneg(rng, n), zero=False)
    for n in (8, 9, 12):
        copositive(f"near-identity-{n}", near_identity(rng, n), zero=False)
    for k, count in ((0, 3), (1, 1), (2, 1), (3, 1), (4, 1)):
        for c in range(count):
            a, supports = horn_orbit(rng, k)
            name = f"horn-orbit-{5 + k}" + (f"#{c}" if count > 1 else "")
            copositive(name, a, zero=True)
            items.append(Item(f"zeros:{name}", "copositive_boundary_zeros",
                              lambda a=a: cc.copositive_boundary_zeros(a), _zeros_check(a, supports),
                              reps=reps(a)))
    a17 = horn_plus_identity(12)
    items.append(Item("horn-plus-identity-17", "is_copositive", lambda: cc.is_copositive(a17),
                      _copositive_check(a17, "IN", zero=True), known_fault=ORDER_LIMIT_FAULT))
    return items


def cop_refute(rng, cc) -> list[Item]:
    items = []

    def refute(name, a):
        items.append(Item(name, "is_copositive", lambda: cc.is_copositive(a),
                          _copositive_check(a, "NOT_IN", zero=False)))

    for n in (5, 8, 10, 12):  # violation at a vertex: a negative diagonal entry
        a = psd_plus_nonneg(rng, n)
        i = n // 2
        a[i, i] = -rng.uniform(0.1, 1.0)
        refute(f"vertex-{n}", planted(a, np.eye(n)[i]))
    for n in range(5, 13):  # violation at the midpoint of the last edge
        a = sym(rng.uniform(0.5, 1.5, (n, n)))
        i, j = n - 2, n - 1
        a[i, j] = a[j, i] = -(a[i, i] + a[j, j]) / 2 - rng.uniform(0.2, 0.5)
        x = np.zeros(n)
        x[[i, j]] = 1.0
        refute(f"edge-{n}", planted(a, x))
    for n in range(5, 13):
        # Horn + I scaled, with the +1 pair (0, 2) pushed down by delta: the
        # form turns negative only inside the face {0, 1, 2}, near its zero
        # segment x1 = x0 + x2, so the violation is found deep in the search.
        b = horn_plus_identity(n - 5)
        b[0, 2] = b[2, 0] = 1.0 - rng.uniform(4e-3, 8e-3)
        d = rng.uniform(0.9, 1.1, n)
        y = np.zeros(n)
        y[:3] = (1.0, 2.0, 1.0)
        refute(f"horn-push-plus-{n}", planted(b * np.outer(d, d), y / d))
    for n in range(5, 13):
        # The -1 pair (0, 1) pushed down by delta: negative near y0 = y1.  With
        # d0 < 0.85 < 1.15 < d1 the midpoint of the edge (e0 + e1) / 2 stays
        # positive, as (d0 - d1)^2 > 2 delta d0 d1, so no vertex test sees the
        # violation and it too is found deep in the search, on every seed.
        b = horn_plus_identity(n - 5)
        b[0, 1] = b[1, 0] = -1.0 - rng.uniform(4e-3, 8e-3)
        d = rng.uniform(0.9, 1.1, n)
        d[0], d[1] = rng.uniform(0.8, 0.85), rng.uniform(1.15, 1.2)
        y = np.zeros(n)
        y[:2] = 1.0
        refute(f"horn-push-minus-{n}", planted(b * np.outer(d, d), y / d))
    return items


def cp_pairs(rng, cc) -> list[Item]:
    items = []
    for p, full6 in ((6, False), (10, True), (15, False), (20, False), (30, True)):
        v0, a, v, m, block = orthogonal_pair(rng, p, full6)
        m0 = v0 @ v0.T
        name = f"pair-6x{p}"

        def horn6(v0=v0):
            return cc.horn_orthogonal_factorize(cc.NonnegFactor(v0))

        items.append(Item(f"horn6:{name}", "horn6", horn6,
                          lambda f, m0=m0: checks.factor(m0, f.v, max_cols=15)))

        def interval(m=m, v=v, a=a):
            return cc.cp_rank_interval(m, v=cc.NonnegFactor(v), witnesses=[a])

        items.append(Item(f"interval:{name}", "cp_rank_interval", interval,
                          lambda r, m=m, p=p: checks.interval(
                              m, r.best_interval[0], r.best_interval[1],
                              [e.rule for e in r.uppers], factor_cols=p, horn_witness=True)))

        def orth(m=m, a=a, v=v):
            f = cc.NonnegFactor(v)
            return (cc.orth_column_check(m, a), cc.anti_dd_check(m, a),
                    [cc.orth_nullspace_check(m, a, f, i) for i in range(6)])

        def orth_check(out, m=m, a=a, v=v):
            col, anti, null = out
            checks.orthogonal_pair(m, a, col.passed, anti.rows, col.defect)
            checks.nullspace(m, a, v, null)

        items.append(Item(f"orth:{name}", "orthogonal_pair", orth, orth_check))

        def classify_check(c, block=block):
            checks.verdict(c.tag, "HORN_ORBIT")
            checks.orbit(block, HORN, c.witness.d, c.witness.perm)

        items.append(Item(f"classify:{name}", "classify_rank12", lambda a=a: cc.classify_rank12(a),
                          classify_check))

    # Order-3 doubly nonnegative V V' (V >= 0).  Whether the pivoted Cholesky
    # root has a negative entry decides which search cp3_factorize runs, so
    # each item fixes that class and the seed only moves values within it.
    for r, negative in ((3, True), (3, True), (3, True), (3, False), (2, True), (2, True), (2, True), (2, True),
                        (1, False)):
        y = dnn3(rng, r, negative)
        items.append(Item(f"cp3:rank{r}{'-negroot' if negative else ''}#{len(items)}", "cp3",
                          lambda y=y: cc.cp3_factorize(y), lambda f, y=y: checks.factor(y, f.v, max_cols=3)))
    for n in range(3, 9):
        m = dd_nonneg(rng, n)
        items.append(Item(f"dd-{n}", "dd", lambda m=m: cc.dd_factorize(m),
                          lambda f, m=m, n=n: checks.factor(m, f.v, max_cols=n * (n + 1) // 2)))
        mp = dd_positive(rng, n)

        def posdd_check(out, mp=mp):
            f, cert = out
            checks.factor(mp, f.v)
            checks.interior_certificate(mp, cert.factor.v, cert.positive_column_index, cert.rank)

        items.append(Item(f"posdd-{n}", "posdd", lambda mp=mp: cc.positive_dd_factorize(mp),
                          posdd_check))
        items.append(Item(f"interval:dd-{n}", "cp_rank_interval", lambda m=m: cc.cp_rank_interval(m),
                          lambda r, m=m: checks.interval(m, r.best_interval[0], r.best_interval[1],
                                                         [e.rule for e in r.uppers])))
    for n, k in ((3, 0), (3, 2), (4, 1), (4, 2)):
        vbar = 0.2 * rng.random((n, n)) + 0.1 + np.eye(n)
        vtilde = rng.random((n, k))
        e = rng.standard_normal((n, n))
        e = 1e-3 * (e + e.T) / np.abs(e + e.T).max()
        mhat = vbar @ vbar.T + vtilde @ vtilde.T + e

        def cont_check(res, mhat=mhat, n=n, k=k):
            checks.factor(mhat, res.factor.v)
            checks.require(res.factor.v.shape[1] == n + k, "continuation: column count changed")
            checks.require(res.factor.v[:, :n].min() > 0.0, "continuation: square part not positive")

        items.append(Item(f"continuation-{n}+{k}", "continuation",
                          lambda a=(vbar, vtilde, mhat): cc.factor_continuation(*a), cont_check))
    for n, p in ((3, 2), (4, 5), (5, 3), (6, 6)):
        v0 = rng.random((n, p)) + 0.01
        eps = float(rng.uniform(0.05, 0.5))

        def positify_check(out, v0=v0, eps=eps, p=p):
            m, f = out
            checks.factor(m, f.v)
            checks.require(f.v.shape[1] == p and f.v.min() > 0.0, "positify: factor not positive")
            w = np.linalg.eigvalsh(m - v0 @ v0.T)
            checks.require(abs(w[-1] - eps) <= 1e-9 and np.abs(w[:-1]).max(initial=0) <= 1e-9,
                            "positify: M - M0 is not eps times a unit rank-1 term")

        items.append(Item(f"positify-{n}x{p}", "positify",
                          lambda v0=v0, eps=eps: cc.perturb_positify(cc.NonnegFactor(v0), eps), positify_check))
    for n, p in ((4, 5), (5, 6), (5, 8), (6, 8)):
        v = rng.uniform(0.05, 1.0, (n, p))
        m = v @ v.T

        def heuristic_check(f, m=m, p=p):
            if f is None:
                raise Undecided("heuristic search found no factor")
            checks.factor(m, f.v, max_cols=p, rel=1e-7)

        items.append(Item(f"heuristic-{n}to{p}", "heuristic", lambda m=m, p=p: cc.heuristic_min_factor(m, p),
                          heuristic_check))
    return items


# ---------------------------------------------------------------------------
# cli: one `python -m copcone` call per item


def _write(path: str, data: np.ndarray, factor: np.ndarray | None = None) -> str:
    doc = {"n": int(data.shape[0]), "data": data.tolist()}
    if factor is not None:
        doc["factor"] = factor.tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def cli(rng, workdir: str, run_cli) -> list[Item]:
    """``run_cli(argv)`` returns (exit code, stdout bytes).  Each item also
    demands that every rerun prints the same bytes as its first run."""
    os.makedirs(workdir, exist_ok=True)
    w = lambda name: os.path.join(workdir, name)  # noqa: E731
    big, _ = horn_orbit(rng, 3)  # order 8: the kernel shows through start-up
    refute = horn_plus_identity(2)
    refute[0, 2] = refute[2, 0] = 1.0 - rng.uniform(2e-3, 1e-2)
    dd = dd_nonneg(rng, 5)
    posdd = dd_positive(rng, 4)
    v3 = rng.uniform(0.0, 1.0, (3, 3))
    cp3 = v3 @ v3.T
    hv = rng.uniform(0.05, 1.0, (5, 6))
    heur = hv @ hv.T
    v0, a6, f6, m6, block = orthogonal_pair(rng, 12, full6=True)
    horn = np.array(HORN)
    files = {
        "big": _write(w("big.json"), big),
        "refute": _write(w("refute.json"), refute),
        "dd": _write(w("dd.json"), dd),
        "posdd": _write(w("posdd.json"), posdd),
        "cp3": _write(w("cp3.json"), cp3),
        "heur": _write(w("heur.json"), heur),
        "w6": _write(w("w6.json"), v0 @ v0.T, v0),
        "m6": _write(w("m6.json"), m6),
        "a6": _write(w("a6.json"), a6),
        "f6": _write(w("f6.json"), f6),
    }

    def check_copositive(r, a, expected):
        checks.verdict(r["answer"], expected)
        cert = r["certificate"]
        if expected == "NOT_IN":
            checks.verdict(cert["kind"], "violation_vector")
            checks.violation(a, cert["x"], cert["value"])
        else:
            checks.verdict(cert["kind"], "boundary_zero")
            checks.boundary_zero(a, cert["x"], cert["value"])

    def check_factor(r, m, max_cols=None, rel=1e-9):
        v = np.asarray(r["factor"], dtype=float).reshape(m.shape[0], -1)
        checks.factor(m, v, max_cols, rel)
        checks.require(r["p"] == v.shape[1], "factorize: p differs from the factor's columns")

    def check_posdd(r):
        check_factor(r, posdd)
        c = r["certificate"]
        checks.interior_certificate(posdd, np.asarray(c["factor"]), c["positive_column_index"], c["rank"])

    def check_table(r):
        n = 7
        checks.require(r["interval"] == [n * n // 4, (n + 1) * n // 2 - 1 - 3], "bounds --n 7 interval")

    def check_interval(r):
        rules = [e["rule"] for e in r["uppers"]]
        checks.interval(m6, *r["best_interval"], rules, factor_cols=f6.shape[1], horn_witness=True)
        checks.require(r["lower"]["value"] == r["best_interval"][0], "lower entry")

    def check_orbit(r):
        checks.verdict(r["class"], "HORN_ORBIT")
        checks.orbit(block, HORN, r["witness"]["d"], r["witness"]["perm"])

    def check_orth(r):
        checks.orthogonal_pair(m6, a6, r["column_check"], r["anti_dd_rows"], r["column_defect"])
        checks.nullspace(m6, a6, f6, r["nullspace"])

    def check_psd(r):
        checks.verdict(r["answer"], "NOT_IN")
        checks.psd_violation(horn, r["certificate"]["x"], r["certificate"]["value"])

    def check_nonneg(r):
        checks.verdict(r["answer"], "NOT_IN")
        c = r["certificate"]
        checks.negative_entry(refute, c["i"], c["j"], c["value"])

    def check_dnn(r):
        checks.verdict(r["answer"], "IN")

    specs = [
        (["bounds", "--n", "7"], 0, check_table),
        (["check", "--cone", "copositive", files["big"]], 0,
         lambda r: check_copositive(r, big, "IN")),
        (["check", "--cone", "copositive", files["refute"]], 1,
         lambda r: check_copositive(r, refute, "NOT_IN")),
        (["check", "--cone", "psd", "fixtures/horn.json"], 1, check_psd),
        (["check", "--cone", "nonneg", files["refute"]], 1, check_nonneg),
        (["check", "--cone", "dnn", files["posdd"]], 0, check_dnn),
        (["factorize", "--method", "dd", files["dd"]], 0, lambda r: check_factor(r, dd, 15)),
        (["factorize", "--method", "posdd", files["posdd"]], 0, check_posdd),
        (["factorize", "--method", "cp3", files["cp3"]], 0, lambda r: check_factor(r, cp3, 3)),
        (["factorize", "--method", "horn6", files["w6"]], 0,
         lambda r: check_factor(r, v0 @ v0.T, 15)),
        (["factorize", "--method", "heuristic", "--target", "6", files["heur"]], 0,
         lambda r: check_factor(r, heur, 6, rel=1e-7)),
        (["bounds", files["m6"], "--witness", files["a6"], "--factor", files["f6"]], 0, check_interval),
        (["orbit", files["a6"]], 0, check_orbit),
        (["verify-orth", files["m6"], files["a6"], "--factor", files["f6"]], 0, check_orth),
    ]
    items = []
    for argv, code, validate in specs:
        first = []

        def check(out, code=code, validate=validate, first=first):
            got, report = out[0], json.loads(out[1])
            checks.require(got == code, f"exit code {got}, expected {code}")
            validate(report["result"])
            if not first:
                first.append(out[1])
            checks.require(out[1] == first[0], "report bytes differ from the first run")

        items.append(Item(" ".join(argv), "cli", lambda argv=argv: run_cli(argv), check))
    return items


def build(workload: str, seed: int, cc, workdir: str, run_cli=None) -> list[Item]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli":
        return cli(rng, workdir, run_cli)
    return {"cop-certify": cop_certify, "cop-refute": cop_refute, "cp-pairs": cp_pairs}[workload](rng, cc)
