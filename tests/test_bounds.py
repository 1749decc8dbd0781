import numpy as np

from conftest import random_admissible_factor
from copcone import (
    DEFAULT_TOL,
    babe,
    cp_rank_interval,
    djl_lower,
    horn_block6,
    horn_matrix,
    known_pn_interval,
    witness_bound,
)


def test_babe_table():
    assert [babe(r) for r in range(1, 8)] == [1, 2, 5, 9, 14, 20, 27]
    assert (babe(np.int32(3)), babe(True)) == (5, 1)  # numpy integers and bools are integers
    assert type(babe(np.int32(3))) is type(babe(True)) is int


def test_djl_table():
    assert [djl_lower(n) for n in range(1, 8)] == [1, 2, 3, 4, 6, 9, 12]
    assert djl_lower(np.int64(6)) == 9
    assert type(djl_lower(np.int64(6))) is type(djl_lower(True)) is int


def test_known_pn_table():
    assert known_pn_interval(3) == (3, 3)
    assert known_pn_interval(5) == (6, 6)
    assert known_pn_interval(6) == (9, 15)
    assert known_pn_interval(7) == (12, 24)
    assert known_pn_interval(np.int64(7)) == (12, 24)
    assert known_pn_interval(True) == (1, 1)
    assert {type(end) for n in (np.int64(7), True) for end in known_pn_interval(n)} == {int}


def test_interval_endpoints_ordered():
    for n in range(1, 12):
        lo, hi = known_pn_interval(n)
        assert lo <= hi


def test_witness_bound_horn_block(rng):
    # BN_K1 counts five positive diagonal entries; HORN15 is the least
    for draw in (rng, np.random.default_rng(5)):
        v = random_admissible_factor(draw, 6, full6=True)
        entries = witness_bound(v.product(), horn_block6())
        assert sorted((e.rule, e.value) for e in entries) == [("BN_4", 16), ("BN_K1", 16), ("HORN15", 15)]


def test_witness_bound_guards():
    # each rule at the edge of its condition
    # one positive diagonal entry: no BN_K1
    assert witness_bound(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])) == []
    # a negative entry at order 4 gives no BN_4; the same witness at order 5 does
    for n, rules in [(4, {"BN_K1": 8}), (5, {"BN_K1": 13, "BN_4": 10})]:
        m, a = np.zeros((n, n)), np.zeros((n, n))
        m[:2, :2] = 1.0
        a[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
        assert {e.rule: e.value for e in witness_bound(m, a)} == rules
    # a Horn witness of order 5, or a Horn block plus two zero rows of order
    # 7: no HORN15, which holds at order 6 only
    for zeros in (0, 2):
        horn = np.pad(horn_matrix(), (0, zeros))
        m = np.zeros((5 + zeros, 5 + zeros))
        m[:2, :2] = 1.0  # (e1 + e2)(e1 + e2)' is a zero of the Horn form
        assert "HORN15" not in {e.rule for e in witness_bound(m, horn)}


def zero_entries(m):
    return [e for e in cp_rank_interval(m).uppers if e.rule == "ZERO_ENTRY"]


def test_zero_entry_bound():
    assert [e.value for e in zero_entries(np.eye(6))] == [12]
    for n in (4, 6):
        assert zero_entries(np.ones((n, n)) + np.eye(n)) == []
    # order 1 has no order below it: no ZERO_ENTRY and no error
    assert zero_entries(np.zeros((1, 1))) == []
    # an entry equal to thr counts as zero, one at 2 thr does not
    thr = DEFAULT_TOL.scaled(1.0)
    assert [e.value for e in zero_entries(np.array([[1.0, thr], [thr, 1.0]]))] == [2]
    assert zero_entries(np.array([[1.0, 2 * thr], [2 * thr, 1.0]])) == []


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
