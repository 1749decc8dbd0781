import contextlib
import importlib.util
import io
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from copcone import NonnegFactor, cli, horn_generators


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# scripts/check_certificate.py is a script, not a module on the path: load it
# once, as the module its ``main`` lives in.
_spec = importlib.util.spec_from_file_location("check_certificate", ROOT / "scripts" / "check_certificate.py")
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


def random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


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
