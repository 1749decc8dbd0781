"""Cp-rank bound calculus: closed-form constants and witness-driven upper
bounds, combined into a best-known interval.

The maximum cp-rank over completely positive matrices of a given order is
unknown for orders above six, so everything here returns tagged intervals,
never point values; each number names the rule that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .cones import Answer, _negative_entry, is_copositive, is_dnn
from .errors import (
    InconsistentBoundsError,
    NotCopositiveWitnessError,
    NotDnnError,
)
from .extremal import _horn_block_orbit, _require_orthogonal
from .kernel import DEFAULT_TOL, Tolerance

__all__ = [
    "BoundEntry",
    "BoundReport",
    "djl_lower",
    "babe",
    "known_pn_interval",
    "witness_bound",
    "zero_entry_bound",
    "cp_rank_interval",
]

# rule tags
RANK_LB = "RANK_LB"
BABE = "BABE"
BN_K1 = "BN_K1"
BN_4 = "BN_4"
ZERO_ENTRY = "ZERO_ENTRY"
HORN15 = "HORN15"
KNOWN_PN = "KNOWN_PN"
FACTOR = "FACTOR"


@dataclass(frozen=True)
class BoundEntry:
    value: int
    rule: str
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    n: int
    lower: BoundEntry
    uppers: tuple[BoundEntry, ...]
    best_interval: tuple[int, int] = field(init=False)

    def __post_init__(self):
        hi = min(e.value for e in self.uppers)
        object.__setattr__(self, "best_interval", (self.lower.value, hi))


def djl_lower(n: int) -> int:
    """Lower bound on the maximum cp-rank at order n: floor(n^2/4) for
    n >= 5, and n itself below (where the maximum is known exactly)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return n if n <= 4 else n * n // 4


def babe(r: int) -> int:
    """Rank-based bound: maximum cp-rank of completely positive matrices
    of rank r.  Equals r for r <= 2 and binom(r+1, 2) - 1 beyond."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if r <= 2:
        return r
    return (r + 1) * r // 2 - 1


def known_pn_interval(n: int) -> tuple[int, int]:
    """Best known bracket for the maximum cp-rank at order n: exact through
    order 5, [9, 15] at order 6, and [floor(n^2/4), b_n - 3] beyond."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n <= 4:
        return n, n
    if n == 5:
        return 6, 6
    if n == 6:
        return 9, 15
    return n * n // 4, babe(n) - 3


def witness_bound(m, a, tol: Tolerance = DEFAULT_TOL) -> list[BoundEntry]:
    """Upper bounds on cpr M from a copositive witness A orthogonal to M.

    Emits b_n - k + 1 for k >= 2 positive diagonal entries of A, b_n - 4
    when A has a negative entry (order >= 5), and 15 when the order-6
    witness reduces to a Horn-orbit block.  The bound is conditional on M
    being completely positive, which is the caller's assertion.
    """
    m, _ = kernel.as_sym(m, tol)
    a, scale = kernel.as_sym(a, tol)
    n = m.shape[0]
    _require_orthogonal(m, a, tol)
    if is_copositive(a, tol).answer is not Answer.IN:
        raise NotCopositiveWitnessError("witness is not certified copositive")
    thr = tol.scaled(scale)
    entries = []
    k = int(np.count_nonzero(np.diag(a) > thr))
    bn = babe(n)
    if k >= 2:
        entries.append(BoundEntry(bn - k + 1, BN_K1, f"witness has {k} positive diagonal entries"))
    if n >= 5 and _negative_entry(a, scale, tol) is not None:
        entries.append(BoundEntry(bn - 4, BN_4, "witness has a negative entry"))
    if n == 6 and _horn_block_orbit(a, thr, tol) is not None:
        entries.append(BoundEntry(15, HORN15, "witness is a Horn-orbit block plus zeros"))
    return entries


def zero_entry_bound(m, tol: Tolerance = DEFAULT_TOL) -> BoundEntry | None:
    """Upper bound 2 U(n-1) when M has a zero entry, U being the best known
    upper bound one order down.  Not emitted for entrywise positive M."""
    return _zero_entry(*kernel.as_sym(m, tol), tol)


def _zero_entry(m: np.ndarray, scale: float, tol: Tolerance) -> BoundEntry | None:
    """:func:`zero_entry_bound` of a validated ``m`` of scale ``scale``."""
    n = m.shape[0]
    if n < 2 or np.abs(m).min() > tol.scaled(scale):
        return None
    upper = 2 * known_pn_interval(n - 1)[1]
    return BoundEntry(upper, ZERO_ENTRY, "matrix has a zero entry")


def cp_rank_interval(
    m,
    v=None,
    witnesses=None,
    tol: Tolerance = DEFAULT_TOL,
) -> BoundReport:
    """Assemble the best-known cp-rank interval for a doubly nonnegative
    matrix from every applicable rule, each tagged with its provenance."""
    m, scale = kernel.as_sym(m, tol)
    if is_dnn(m, tol).answer is not Answer.IN:
        raise NotDnnError("matrix is not doubly nonnegative")
    n = m.shape[0]
    rank = kernel.num_rank(m, tol)
    lower = BoundEntry(rank, RANK_LB, "cp-rank is at least the rank")
    uppers = [BoundEntry(known_pn_interval(n)[1], KNOWN_PN, f"order-{n} bracket")]
    if rank >= 1:
        uppers.append(BoundEntry(babe(rank), BABE, f"rank {rank}"))
    ze = _zero_entry(m, scale, tol)
    if ze is not None:
        uppers.append(ze)
    if v is not None:
        resid = float(np.abs(v.product() - m).max())
        if resid > tol.scaled(scale):
            raise InconsistentBoundsError("supplied factor does not reproduce the matrix")
        uppers.append(BoundEntry(v.p, FACTOR, f"exhibited factor with {v.p} columns"))
    for a in witnesses or ():
        uppers.extend(witness_bound(m, a, tol))
    report = BoundReport(n, lower, tuple(uppers))
    if report.best_interval[1] < report.best_interval[0]:
        raise InconsistentBoundsError("minimal upper bound undercuts the rank lower bound")
    return report
