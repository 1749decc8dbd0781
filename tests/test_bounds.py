import numpy as np
import pytest

from conftest import random_admissible_factor
from copcone import (
    NonnegFactor,
    babe,
    cp_rank_interval,
    djl_lower,
    horn_block6,
    horn_matrix,
    known_pn_interval,
    witness_bound,
)
from copcone.errors import (
    NotCopositiveWitnessError,
    NotDnnError,
    NotOrthogonalError,
)


def test_babe_table():
    assert [babe(r) for r in range(1, 8)] == [1, 2, 5, 9, 14, 20, 27]


def test_djl_table():
    assert [djl_lower(n) for n in range(1, 8)] == [1, 2, 3, 4, 6, 9, 12]


def test_known_pn_table():
    assert known_pn_interval(3) == (3, 3)
    assert known_pn_interval(5) == (6, 6)
    assert known_pn_interval(6) == (9, 15)
    assert known_pn_interval(7) == (12, 24)


@pytest.mark.parametrize(
    "rule, message",
    [(djl_lower, "order must be >= 1"), (babe, "rank must be >= 1"), (known_pn_interval, "order must be >= 1")],
    ids=["djl_lower", "babe", "known_pn_interval"],
)
def test_rules_reject_an_argument_below_1(rule, message):
    with pytest.raises(ValueError, match=message):
        rule(0)


def test_interval_endpoints_ordered():
    for n in range(1, 12):
        lo, hi = known_pn_interval(n)
        assert lo <= hi


def test_witness_bound_horn_block(rng):
    v = random_admissible_factor(rng, 6, full6=True)
    m = v.product()
    entries = witness_bound(m, horn_block6())
    rules = {e.rule: e.value for e in entries}
    assert rules["HORN15"] == 15
    assert rules["BN_K1"] == 16  # five positive diagonal entries
    assert rules["BN_4"] == 16
    assert min(e.value for e in entries) == 15


def test_witness_bound_guards():
    with pytest.raises(NotOrthogonalError):
        witness_bound(np.eye(2), np.eye(2))
    m = np.zeros((2, 2))
    m[0, 1] = m[1, 0] = 0.0
    with pytest.raises(NotCopositiveWitnessError):
        # orthogonal but not copositive witness
        witness_bound(np.diag([1.0, 0.0]), np.diag([0.0, -1.0]))


def zero_entries(m):
    return [e for e in cp_rank_interval(m).uppers if e.rule == "ZERO_ENTRY"]


def test_zero_entry_bound():
    assert [e.value for e in zero_entries(np.eye(6))] == [12]
    assert zero_entries(np.ones((4, 4)) + np.eye(4)) == []


def test_cp_rank_interval_identity():
    rep = cp_rank_interval(np.eye(4))
    assert rep.lower.value == 4
    assert rep.best_interval == (4, 4)


def test_cp_rank_interval_with_factor_and_witness(rng):
    v = random_admissible_factor(rng, 4, full6=True)
    m = v.product()
    rep = cp_rank_interval(m, v=v, witnesses=[horn_block6()])
    rules = {e.rule for e in rep.uppers}
    assert {"KNOWN_PN", "BABE", "FACTOR", "HORN15"} <= rules
    assert rep.best_interval[0] <= rep.best_interval[1] <= v.p


def test_cp_rank_interval_rejects_non_dnn():
    with pytest.raises(NotDnnError):
        cp_rank_interval(horn_matrix())


@pytest.mark.parametrize("rows", [2, 4])
def test_factor_must_have_the_matrix_order(rows):
    with pytest.raises(ValueError, match=f"factor order {rows} differs from matrix order 3"):
        cp_rank_interval(np.eye(3), v=NonnegFactor(np.eye(rows)))


def test_factor_must_reproduce_matrix():
    from copcone.errors import InconsistentBoundsError

    with pytest.raises(InconsistentBoundsError):
        cp_rank_interval(np.eye(3), v=NonnegFactor(np.ones((3, 1))))
