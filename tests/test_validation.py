"""Each public function validates each input once, at its own boundary, and
takes its thresholds from that pass; the functions it calls on the same
array neither validate it again nor repeat an eigendecomposition."""

import collections

import numpy as np
import pytest

from conftest import random_admissible_factor, random_positive_dd
from copcone import (
    classify_rank12,
    cp_rank_interval,
    heuristic_min_factor,
    horn_block6,
    horn_orthogonal_factorize,
    kernel,
    positive_dd_factorize,
)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of ``kernel.as_sym`` and ``kernel.eig_sym``, counted by name."""
    counts = collections.Counter()
    for name in ("as_sym", "eig_sym"):
        inner = getattr(kernel, name)

        def counting(*args, _inner=inner, _name=name, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(kernel, name, counting)
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


# (operation, validations, eigendecompositions)
EXPECTED = [
    (_classify, 3, 1),
    (_interval, 6, 2),
    (_posdd, 1, 1),
    (_horn6, 0, 0),
    (_heuristic, 2, 2),
]


@pytest.mark.parametrize("op, validations, eigs", EXPECTED, ids=lambda x: getattr(x, "__name__", None))
def test_each_input_is_validated_once_per_public_call(kernel_calls, op, validations, eigs):
    op()
    assert kernel_calls["as_sym"] == validations
    assert kernel_calls["eig_sym"] == eigs
