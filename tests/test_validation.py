"""Each public function validates each input at its own boundary and takes
its thresholds from that pass; the table pins how many validations and
eigendecompositions each call makes.

Three calls validate an input again, because they call public functions
that validate it at their own boundary: ``classify_rank12`` calls
``is_copositive`` and ``horn_orbit_recognize`` (3), ``cp_rank_interval``
calls ``is_dnn`` and ``witness_bound`` (6), and ``witness_bound`` calls
``is_copositive`` and ``horn_orbit_recognize`` (4).  The benchmark tracer
requires those call edges, so the extra validations stay until its
required edges change."""

import collections

import numpy as np
import pytest

from conftest import random_admissible_factor, random_positive_dd, spy
from copcone import (
    anti_dd_check,
    classify_rank12,
    cp_rank_interval,
    heuristic_min_factor,
    horn_block6,
    horn_orthogonal_factorize,
    kernel,
    orth_column_check,
    orth_nullspace_check,
    positive_dd_factorize,
    witness_bound,
)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of ``kernel.as_sym`` and ``kernel.eig_sym``, counted by name."""
    counts = collections.Counter()
    for name in ("as_sym", "eig_sym"):
        spy(monkeypatch, kernel, name, lambda out, *args, name=name: counts.update([name]))
    return counts


def _horn_pair():
    v = random_admissible_factor(np.random.default_rng(7), 15)
    return v, v.product(), horn_block6()


def _classify():
    classify_rank12(horn_block6())


def _interval():
    v, m, a = _horn_pair()
    cp_rank_interval(m, v=v, witnesses=[a])


def _posdd():
    positive_dd_factorize(random_positive_dd(np.random.default_rng(3), 5))


def _horn6():
    horn_orthogonal_factorize(_horn_pair()[0])


def _heuristic():
    v = np.random.default_rng(5).uniform(0.05, 1.0, (4, 5))
    heuristic_min_factor(v @ v.T, 5)


def _orth_column():
    _, m, a = _horn_pair()
    orth_column_check(m, a)


def _anti_dd():
    _, m, a = _horn_pair()
    anti_dd_check(m, a)


def _orth_nullspace():
    v, m, a = _horn_pair()
    orth_nullspace_check(m, a, v, 5)


def _witness():
    _, m, a = _horn_pair()
    witness_bound(m, a)


# (operation, validations, eigendecompositions)
EXPECTED = [
    (_classify, 3, 1),
    (_interval, 6, 2),
    (_posdd, 1, 1),
    (_horn6, 0, 0),
    (_heuristic, 2, 2),
    (_orth_column, 2, 0),
    (_anti_dd, 2, 0),
    (_orth_nullspace, 2, 0),
    (_witness, 4, 0),
]


@pytest.mark.parametrize("op, validations, eigs", EXPECTED, ids=lambda x: getattr(x, "__name__", None))
def test_each_input_is_validated_once_per_public_call(kernel_calls, op, validations, eigs):
    op()
    assert kernel_calls["as_sym"] == validations
    assert kernel_calls["eig_sym"] == eigs
