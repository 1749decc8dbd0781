import contextlib
import importlib.util
import io
import itertools
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from copcone import NonnegFactor, cli, cones, horn_generators, horn_matrix, kernel

# Hypothesis's built-in "ci" profile: examples derived from each test, not
# drawn at random, and no example database.  Hypothesis loads it by itself
# where the CI variable is set; loading it here makes every run draw the
# examples a CI run draws.  Test modules are imported after this file, so
# their @settings inherit it.
settings.load_profile("ci")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPT = ROOT / "scripts" / "check_certificate.py"

# the checker is a script, not a module on the path: it is loaded once, as
# the module its main and its ``checks`` predicates live in
_spec = importlib.util.spec_from_file_location("check_certificate", SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run(main, *args, cwd=None) -> Run:
    """Call ``main(argv)`` in this process, from ``cwd`` when given, with
    stdout and stderr captured; the exit code of an argparse usage error
    (64 for copcone) or ``--help`` is that of its ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([str(a) for a in args])
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(previous)
    return Run(code, out.getvalue(), err.getvalue())


def run_cli(*args, cwd=None) -> Run:
    """``copcone ARGS``, run in process by :func:`run`."""
    return run(cli.main, *args, cwd=cwd)


def checkout_env(**extra) -> dict:
    """The environment for a fresh interpreter that imports this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""), **extra)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def spy(monkeypatch, owner, name, record):
    """Wrap ``owner.name`` for one test: each call runs the original, then
    ``record(result, *args)`` with its positional arguments.  A call that
    raises is recorded with the exception as its result, then raises it."""
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        try:
            result = inner(*args, **kwargs)
        except Exception as exc:
            record(exc, *args)
            raise
        record(result, *args)
        return result

    monkeypatch.setattr(owner, name, wrapper)


# The stages of ``is_copositive`` in the order it runs them (ROADMAP item 24).
# Vertex, edge and the order gate make no call, so no call records them.
STAGES = ("vertex", "edge", "Horn", "convex", "triple", "order gate", "walk")


class Route(list):
    """The calls of ``is_copositive`` in the order they return: ``cholesky k``
    or ``cholesky k rejects``, ``triple scan k``, ``solve k`` (a one-vector
    solve, a pivoting step), ``convex`` or ``convex gives None`` (the
    pivoting), ``enumeration k``, and ``Horn`` (the five cycle faces),
    ``triple`` (one face) or ``walk`` (every face) for the
    ``simplex_form_min`` call the enumeration ran in; k is the order.
    ``found`` holds each minimizing call's ``(value, lam)``, ``masks`` each
    Horn call's masks."""

    def __init__(self):
        super().__init__()
        self.found, self.masks = [], []


@pytest.fixture
def route(monkeypatch):
    """The :class:`Route` of every call in the test."""
    taken = Route()

    def convex(out, q):
        taken.found.append(out)
        taken.append("convex" if out is not None else "convex gives None")

    def form_min(out, q, supports=None):
        taken.found.append(out)
        if supports is None:
            taken.append("walk")
        elif supports == [0b111]:
            taken.append("triple")
        else:
            taken.append("Horn")
            taken.masks.append(sorted(supports))

    def cholesky(out, a):
        taken.append(f"cholesky {len(a)}" + " rejects" * isinstance(out, np.linalg.LinAlgError))

    spy(monkeypatch, np.linalg, "cholesky", cholesky)
    spy(monkeypatch, cones, "_worst_triple", lambda out, rows, *_: taken.append(f"triple scan {len(rows)}"))
    spy(monkeypatch, np.linalg, "solve", lambda out, a, b: taken.append(f"solve {len(b)}") if np.ndim(b) == 1 else None)
    spy(monkeypatch, kernel, "_convex_form_min", convex)
    spy(monkeypatch, kernel, "simplex_stationary_points", lambda out, q, *_: taken.append(f"enumeration {len(q)}"))
    spy(monkeypatch, kernel, "simplex_form_min", form_min)
    return taken


def random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def horn_plus(block):
    """Horn ⊕ ``block``."""
    n = 5 + len(block)
    a = np.zeros((n, n))
    a[:5, :5], a[5:, 5:] = horn_matrix(), block
    return a


def reference_horn_orbit(a, tol=kernel.DEFAULT_TOL):
    """Horn-orbit recognition as a loop over the 120 permutations of order
    5 in itertools order: the first p with |a_ij - d_i d_j H[p_i, p_j]| <=
    thr for every i and j, d_i = sqrt(a_ii), as ``(d, p)``; ``None`` when
    a diagonal entry is <= thr or no p matches."""
    a, scale = kernel.as_sym(a, tol)
    thr = tol.scaled(scale)
    diag = np.diag(a)
    if diag.min() <= thr:
        return None
    d = np.sqrt(diag)
    h = horn_matrix()
    gram = np.outer(d, d)
    for perm in itertools.permutations(range(5)):
        p = np.array(perm)
        if np.abs(a - gram * h[p[:, None], p]).max() <= thr:
            return d, p
    return None


def cycle_matrix(n, c):
    """Unit diagonal, ``c`` on the cyclic neighbours (i, i + 1 mod n) and
    0.2 elsewhere.  At c = -0.75 no vertex, edge or triple is negative but
    four consecutive indices are (minimum -1/2040); at c = -0.7 the
    matrix is copositive with minimum 0.022."""
    a = np.full((n, n), 0.2)
    np.fill_diagonal(a, 1.0)
    i = np.arange(n)
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = c
    return a


def random_dd_nonneg(rng, n):
    """Random entrywise-nonnegative diagonally dominant matrix."""
    a = rng.random((n, n))
    m = 0.5 * (a + a.T)
    np.fill_diagonal(m, 0.0)
    slack = rng.random(n)
    return m + np.diag(m.sum(axis=1) + slack)


def random_positive_dd(rng, n):
    """Random entrywise-positive strictly diagonally dominant matrix."""
    a = rng.random((n, n)) + 0.05
    m = 0.5 * (a + a.T)
    np.fill_diagonal(m, 0.0)
    slack = rng.random(n) + 0.05
    return m + np.diag(m.sum(axis=1) + slack)


def random_admissible_factor(rng, p, full6=False):
    """Order-6 factor W X with column supports inside {i, i+1, 6} (cyclic
    over the first five indices); full6 forces a positive last coordinate
    in every coefficient column."""
    w = horn_generators()
    x = np.zeros((6, p))
    for j in range(p):
        i = int(rng.integers(0, 5))
        x[i, j] = rng.random() + 0.1
        if rng.random() < 0.7:
            x[(i + 1) % 5, j] = rng.random()
        if full6 or rng.random() < 0.7:
            x[5, j] = rng.random() + (0.1 if full6 else 0.0)
    return NonnegFactor(w @ x)


def positive_horn_partner():
    """Entrywise positive nonsingular matrix orthogonal to the Horn block:
    every generator cone contributes, all coefficients positive."""
    w = horn_generators()
    rng = np.random.default_rng(3)
    x = np.zeros((6, 10))
    for j in range(10):
        i = j % 5
        x[i, j] = rng.random() + 0.2
        x[(i + 1) % 5, j] = rng.random() + 0.2
        x[5, j] = rng.random() + 0.2
    return (w @ x) @ (w @ x).T


def simplex_grid_min(a, starts=96, iters=250, seed=0):
    """Independent estimate of min x'Ax over the standard simplex: projected
    gradient descent from vertices, edge midpoints and random starts, run in
    parallel with a sort-based simplex projection."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    pts = [np.eye(n)]
    mids = []
    for i in range(n):
        for j in range(i + 1, n):
            x = np.zeros(n)
            x[i] = x[j] = 0.5
            mids.append(x)
    pts.append(np.array(mids))
    rng = np.random.default_rng(seed)
    pts.append(rng.dirichlet(np.ones(n), size=starts))
    x = np.vstack(pts)

    def project(y):
        u = np.sort(y, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - 1.0
        ind = np.arange(1, n + 1)
        cond = u - css / ind > 0
        rho = n - np.argmax(cond[:, ::-1], axis=1) - 1
        theta = css[np.arange(len(y)), rho] / (rho + 1)
        return np.maximum(y - theta[:, None], 0.0)

    lam = max(np.abs(np.linalg.eigvalsh(a)).max(), 1e-12)
    step = 1.0 / (2.0 * lam)
    for _ in range(iters):
        x = project(x - step * (x @ (2.0 * a)))
    vals = np.einsum("ki,ij,kj->k", x, a, x)
    return float(vals.min())
