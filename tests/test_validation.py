"""Each public function validates each input at its own boundary.  Two
tables pin that boundary: ``EXPECTED`` gives how many validations and
eigendecompositions each call makes, and ``REFUSALS`` what each refusal
raises.

Three calls validate an input again, because they call public functions
that validate it at their own boundary: ``classify_rank12`` calls
``is_copositive`` and ``horn_orbit_recognize`` (3), ``cp_rank_interval``
calls ``is_dnn`` and ``witness_bound`` (6), and ``witness_bound`` calls
``is_copositive`` and ``horn_orbit_recognize`` (4).  The benchmark tracer
requires those call edges, so the extra validations stay until its
required edges change.

A row of ``REFUSALS`` holds an id, a call without arguments, the error
class the call must raise (exactly that class, not a subclass) and its
full message, as a regular expression.  Every ``raise`` of the library's
modules is reached by a row, or by an error input of ``test_cones.py``
(``MALFORMED``, ``TOO_LARGE`` and the error rows of ``ZEROS``), which stay
beside the tests there that compare them with ``reference_as_sym`` or with
``is_copositive``; a new refusal is a new row."""

import ast
import collections
import functools
import inspect
import re
import traceback

import numpy as np
import pytest

from conftest import random_admissible_factor, random_positive_dd, spy
from copcone import (
    DEFAULT_TOL,
    NonnegFactor,
    Tolerance,
    anti_dd_check,
    babe,
    bounds,
    classify_rank12,
    cones,
    copositive_boundary_zeros,
    cp3_factorize,
    cp_rank_interval,
    dd_factorize,
    djl_lower,
    e12,
    extremal,
    factor,
    factor_continuation,
    heuristic_min_factor,
    horn_block6,
    horn_matrix,
    horn_orbit_recognize,
    horn_orthogonal_factorize,
    kernel,
    known_pn_interval,
    orth_column_check,
    orth_nullspace_check,
    perturb_positify,
    positive_dd_factorize,
    special,
    witness_bound,
)
from copcone.errors import (
    ColumnOutsideConesError,
    InconsistentBoundsError,
    NewtonDivergedError,
    NotCopositiveError,
    NotCopositiveWitnessError,
    NotDiagonallyDominantError,
    NotDnnError,
    NotNonnegativeError,
    NotOrthogonalError,
    NotOrthogonalToHornError,
    NotPositiveError,
    PerronNotPositiveError,
    PositivityLostError,
    ZeroRowError,
)
from test_cones import MALFORMED, TOO_LARGE, ZEROS


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


def refusal(name, error, message, call, *args, **kwargs):
    """A row of ``REFUSALS``: ``call(*args, **kwargs)`` raises ``error``
    with a message that the regular expression ``message`` matches in full."""
    return pytest.param(functools.partial(call, *args, **kwargs), error, message, id=name)


BOUND = r"factor product entries must be at most 2\*\*500 in magnitude"
NOT_AN_INTEGER = "'float' object cannot be interpreted as an integer"
DEPENDENT = "constraint columns must be linearly independent"
NOT_DNN = "matrix is not doubly nonnegative"
NOT_HORN_ORTHOGONAL = "product is not orthogonal to the Horn block"
NOT_ORTHOGONAL = "matrices are not orthogonal within tolerance"
# a positive square factor, a nonnegative column and their product
VBAR = np.eye(3) + 0.2
VTILDE = np.full((3, 1), 0.5)
MHAT = VBAR @ VBAR.T + VTILDE @ VTILDE.T
VBAR_NAN = VBAR.copy()
VBAR_NAN[0, 1] = np.nan  # fails no positivity comparison
NO_COLUMNS = np.zeros((3, 0))
V2 = np.eye(2) + 1e-3 * e12()
# J + I / 2 has the singular value 1/2 on w = (1, -1, 1, -1) / 2
J_HALF = np.ones((4, 4)) + 0.5 * np.eye(4)
W = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
# Positive, and dominant with equality in rows 0 and 1: e_0 - e_1 has the
# eigenvalue mu = 2.5e-9, under the rank threshold 1e-9 (1 + 2 + mu), so the
# factor has numerical rank 2 and no interior certificate.
MU = 2.5e-9
RANK_SHORT = np.array([[1.0 + MU, 1.0, MU], [1.0, 1.0 + MU, MU], [MU, MU, 1.0]])
# V V' is exact in binary, and its pivoted root needs the rotation; the
# rotated root has an entry a roundoff below 0, which the default tolerance
# clips and the zero tolerance cannot (test_factor.py factors it)
CP3_ROOT = np.array([[1.0, 0.0], [0.0, 0.25], [0.25, 2.0]])
# e1 + e2 plus 1e-7 e3: orthogonal to the Horn block up to 1e-14, but 6e-8
# off every generator cone in the least-squares fit (test_factor.py fits it
# at a looser tolerance)
CONE_MISS = NonnegFactor([[1.0], [1.0], [1e-7], [0.0], [0.0], [0.0]])
# <M, H6> = (v1 - v2)**2 = 1.5e-9 * scale**2 against the threshold
# tol.scaled(max|M|): 1.0e-9 at scale 1, so neither scale passes
HORN_MARGIN = np.array([[1e-3 + np.sqrt(1.5e-9)], [1e-3], [0.0], [0.0], [0.0], [0.0]])
V15, M15, H6 = _horn_pair()
Q3 = horn_matrix()[:3, :3]

REFUSALS = [
    # a NaN threshold fails every comparison, so no test could refute
    *(refusal(f"Tolerance-{field}-{value}", ValueError, "tolerances must be finite and nonnegative", Tolerance,
              **{field: value}) for field in ("abs", "rel") for value in (np.nan, np.inf, -1e-9)),
    refusal("simplex_stationary_points-order-17", ValueError, "support enumeration is limited to order 16",
            lambda: next(kernel.simplex_stationary_points(np.eye(17)))),
    *(
        refusal(f"{name}-mask-{mask!r}", ValueError, message, call, mask)
        for masks, message in (((0, 1 << 3, -1), r"support masks must lie in \[1, 7\]"),
                               ((1.0, "7"), "support masks must be integers"))
        for mask in masks
        for name, call in (
            ("simplex_stationary_points", lambda mask: next(kernel.simplex_stationary_points(Q3, [0b111, mask]))),
            ("simplex_form_min", lambda mask: kernel.simplex_form_min(Q3, [mask])),
        )
    ),
    refusal("lp_feasible-shape", ValueError, "constraint matrix/rhs shape mismatch", kernel.lp_feasible,
            np.ones((2, 2)), np.ones(3)),
    refusal("lp_feasible-inf", ValueError, "constraint entries must be finite", kernel.lp_feasible,
            [[1.0, np.inf]], np.ones(1)),
    refusal("lp_feasible-nan", ValueError, "constraint entries must be finite", kernel.lp_feasible,
            np.ones((1, 2)), [np.nan]),
    # dependent columns: more columns than rows, equal columns, a zero column
    refusal("lp_feasible-wide", ValueError, DEPENDENT, kernel.lp_feasible, [[1.0, 1.0]], np.ones(1)),
    refusal("lp_feasible-equal-columns", ValueError, DEPENDENT, kernel.lp_feasible,
            [[9.0, 9.0], [6.0, 6.0], [9.0, 9.0]], np.ones(3)),
    refusal("lp_feasible-zero-column", ValueError, DEPENDENT, kernel.lp_feasible, [[1.0, 0.0], [2.0, 0.0]], np.ones(2)),
    # a stack of systems is refused as a whole, for any system's fault
    refusal("lp_feasible-stack-length", ValueError, "constraint matrix/rhs shape mismatch", kernel.lp_feasible,
            np.ones((2, 3, 1)), np.ones((3, 3))),
    refusal("lp_feasible-stack-of-stacks", ValueError, "constraint matrix/rhs shape mismatch", kernel.lp_feasible,
            np.ones((1, 2, 3, 1)), np.ones((1, 2, 3))),
    refusal("lp_feasible-stack-nan", ValueError, "constraint entries must be finite", kernel.lp_feasible,
            np.ones((2, 3, 1)), [[1.0] * 3, [1.0, np.nan, 1.0]]),
    refusal("lp_feasible-stack-one-dependent", ValueError, DEPENDENT, kernel.lp_feasible,
            [np.eye(3)[:, :2], np.ones((3, 2))], np.ones((2, 3))),
    refusal("e12-order-1", ValueError, "e12 requires order >= 2", e12, 1),
    refusal("NonnegFactor-negative", NotNonnegativeError, "factor has a negative entry beyond tolerance", NonnegFactor,
            [[-1.0]]),
    # a factor is an n x p array of columns, even when p is 1
    refusal("NonnegFactor-vector", ValueError, "factor must be a 2-d array of columns", NonnegFactor, np.ones(3)),
    *(refusal(f"NonnegFactor-{bad}", ValueError, "factor entries must be finite", NonnegFactor, [[1.0, bad]])
      for bad in (np.nan, np.inf, -np.inf)),
    # one entry above 2**250; five entries whose squares sum past 2**500
    refusal("NonnegFactor-entry-above-2**250", ValueError, BOUND, NonnegFactor, [[np.nextafter(2.0**250, np.inf)]]),
    refusal("NonnegFactor-row-above-2**500", ValueError, BOUND, NonnegFactor, [[2.0**249] * 5]),
    *(refusal(f"NonnegFactor-horn-factor-times-{scale:g}", ValueError, BOUND, NonnegFactor, V15.v * scale)
      for scale in (1e100, 1e130, 1e160)),
    refusal("dd_factorize-not-dd", NotDiagonallyDominantError, "diagonal dominance fails", dd_factorize,
            [[1.0, 2.0], [2.0, 1.0]]),
    refusal("dd_factorize-negative", NotNonnegativeError, "matrix has a negative entry", dd_factorize,
            [[2.0, -1.0], [-1.0, 2.0]]),
    # J2 is on the boundary of the cp cone: its one column sqrt(1) e has rank 1
    refusal("positive_dd_factorize-j2", NotPositiveError,
            "the factor's numerical rank is below the order 2: no interior certificate", positive_dd_factorize,
            np.ones((2, 2))),
    refusal("positive_dd_factorize-zero-entry", NotPositiveError, "matrix must be entrywise positive",
            positive_dd_factorize, np.ones((4, 4)) + 3.0 * np.eye(4) - e12(4)),
    # each row of J + 0.5 I has diagonal 1.5 against an off-diagonal sum of 2
    refusal("positive_dd_factorize-not-dd", NotDiagonallyDominantError, "diagonal dominance fails",
            positive_dd_factorize, np.ones((3, 3)) + 0.5 * np.eye(3)),
    refusal("positive_dd_factorize-rank-below-order", NotPositiveError,
            "the factor's numerical rank is below the order 3: no interior certificate", positive_dd_factorize,
            RANK_SHORT),
    # a disconnected support graph: eigh's leading eigenvector of I2 is e_1
    refusal("_perron_vector-disconnected", PerronNotPositiveError, "Perron vector has a vanishing coordinate",
            factor._perron_vector, np.eye(2), DEFAULT_TOL),
    refusal("perturb_positify-disconnected", PerronNotPositiveError, "Perron vector has a vanishing coordinate",
            perturb_positify, NonnegFactor(np.eye(2)), 0.5),
    # NaN and inf passed an eps < 0 test and failed later on the factor's entries
    *(refusal(f"perturb_positify-eps-{eps}", ValueError, "eps must be nonnegative and finite", perturb_positify,
              NonnegFactor(np.ones((2, 1))), eps) for eps in (-1.0, np.nan, np.inf)),
    # The path 0 - 1 - 2 has entries 1e-4 and 1e-8, both above the threshold
    # 2e-9, so it is connected and its Perron vector is positive; its last
    # coordinate is about 1e-4 * 1e-8 and reads as zero.
    refusal("perturb_positify-vanishing-perron-coordinate", PerronNotPositiveError,
            "Perron vector has a vanishing coordinate", perturb_positify,
            NonnegFactor([[1.0, 0.0], [1e-4, 1e-4], [0.0, 1e-4]]), 0.5),
    # the zero product of order 1 has the Perron vector (1), which meets no column
    refusal("perturb_positify-no-columns", PerronNotPositiveError, "factor columns do not all meet the Perron vector",
            perturb_positify, NonnegFactor(np.zeros((1, 0))), 0.5),
    refusal("cp3_factorize-not-dnn", NotDnnError, NOT_DNN, cp3_factorize, [[1.0, -0.5], [-0.5, 1.0]]),
    refusal("cp3_factorize-rotated-root-at-zero-tolerance", NotDnnError, "no nonnegative factor within tolerance",
            cp3_factorize, CP3_ROOT @ CP3_ROOT.T, Tolerance(0.0, 0.0)),
    refusal("cp3_factorize-order-4", ValueError, "cp3_factorize handles orders up to 3", cp3_factorize, np.eye(4)),
    refusal("horn6-not-orthogonal", NotOrthogonalToHornError, NOT_HORN_ORTHOGONAL, horn_orthogonal_factorize,
            NonnegFactor(np.ones((6, 1)))),
    *(refusal(f"horn6-orthogonality-margin-times-{scale:g}", NotOrthogonalToHornError, NOT_HORN_ORTHOGONAL,
              horn_orthogonal_factorize, NonnegFactor(scale * HORN_MARGIN)) for scale in (1.0, 1e3)),
    refusal("horn6-order-5", ValueError, "order-6 input required", horn_orthogonal_factorize,
            NonnegFactor(np.ones((5, 1)))),
    refusal("horn6-column-outside-the-cones", ColumnOutsideConesError, "column 0 lies outside the generator cones",
            horn_orthogonal_factorize, CONE_MISS),
    refusal("continuation-large-perturbation", NewtonDivergedError, "perturbation exceeds the continuation radius",
            factor_continuation, VBAR, VTILDE, MHAT + 100.0 * np.eye(3)),
    refusal("continuation-vbar-not-square", ValueError, "square positive factor required", factor_continuation,
            np.ones((3, 2)), NO_COLUMNS, np.eye(3)),
    # a 0-d factor has no shape[0]: it raised IndexError
    refusal("continuation-vbar-0-d", ValueError, "square positive factor required", factor_continuation,
            5.0, np.zeros((1, 0)), [[25.0]]),
    refusal("continuation-vbar-not-positive", NotPositiveError, "square factor must be entrywise positive",
            factor_continuation, np.eye(3), NO_COLUMNS, np.eye(3)),
    refusal("continuation-vbar-nan", ValueError, "factor entries must be finite", factor_continuation,
            VBAR_NAN, VTILDE, MHAT),
    refusal("continuation-vtilde-inf", ValueError, "factor entries must be finite", factor_continuation,
            VBAR, np.full((3, 1), np.inf), MHAT),
    refusal("continuation-vbar-beyond-bound", ValueError, BOUND, factor_continuation, 1e200 * VBAR, VTILDE, MHAT),
    refusal("continuation-vtilde-beyond-bound", ValueError, BOUND, factor_continuation, VBAR, 1e200 * VTILDE, MHAT),
    # M - Vtilde Vtilde' is far from Vbar Vbar': Newton would diverge, so only
    # a check made before it gives this error
    refusal("continuation-negative-vtilde", NotNonnegativeError, "factor has a negative entry beyond tolerance",
            factor_continuation, VBAR, np.full((3, 1), -10.0), VBAR @ VBAR.T),
    # a reshape made a (2, 3) vtilde a factor of 2 columns, and M - Vtilde
    # Vtilde' broadcast an order-1 target over the order-2 square factor
    refusal("continuation-vtilde-of-another-order", ValueError, "factor order 2 differs from matrix order 3",
            factor_continuation, VBAR, np.ones((2, 3)), VBAR @ VBAR.T + 2.0),
    refusal("continuation-mhat-of-another-order", ValueError, "factor order 2 differs from matrix order 1",
            factor_continuation, [[1.0, 0.2], [0.2, 1.0]], np.zeros((2, 0)), [[0.72]]),
    # the off-diagonal pair of vbar vbar' is 2e-3: lowered by 2e-3 it is 0,
    # which no entrywise positive factor gives
    refusal("continuation-target-with-a-zero-entry", PositivityLostError, "continuation pushed a factor entry to zero",
            factor_continuation, V2, np.zeros((2, 0)), V2 @ V2.T - 2e-3 * e12()),
    # The residual c w w', c = 0.95, has max entry c / 4, inside the radius
    # 1/4; the Newton step along w leaves -c^2 w w', c times the first
    # residual: above 0.9 times it.
    refusal("continuation-residual-falls-too-slowly", NewtonDivergedError, "Newton residual stopped decreasing",
            factor_continuation, J_HALF, np.zeros((4, 0)), J_HALF @ J_HALF + 0.95 * np.outer(W, W)),
    # v^2 = 0 from v = 1: each Newton step halves v exactly, so the residual
    # falls by 4 per step and stays above 1e-12 times the tiny scale of the
    # zero target after 30 steps
    refusal("continuation-target-reached-only-in-the-limit", NewtonDivergedError,
            "iteration cap reached without convergence", factor_continuation, [[1.0]], np.zeros((1, 0)), [[0.0]]),
    # a negative target fell under the rank test and read as a failed search
    refusal("heuristic-negative-target", ValueError, "p_target must be nonnegative", heuristic_min_factor,
            np.eye(3), -1),
    # 2.5 fell under the rank test and read as a failed search, and 4.0
    # failed inside numpy after the eigendecomposition
    *(refusal(f"heuristic-target-{p}", TypeError, NOT_AN_INTEGER, heuristic_min_factor, np.eye(3), p)
      for p in (2.5, 4.0)),
    refusal("heuristic-not-dnn", NotDnnError, NOT_DNN, heuristic_min_factor, horn_matrix(), 5),
    refusal("horn_orbit_recognize-order-4", ValueError, "Horn-orbit recognition is defined for order 5",
            horn_orbit_recognize, np.eye(4)),
    refusal("classify_rank12-not-copositive", NotCopositiveError, "matrix is not certified copositive",
            classify_rank12, -np.eye(2)),
    refusal("orth_column_check-orders-differ", ValueError, "matrix orders differ: 6 and 5", orth_column_check,
            np.eye(6), horn_matrix()),
    refusal("orth_column_check-not-orthogonal", NotOrthogonalError, NOT_ORTHOGONAL, orth_column_check,
            np.eye(2) + 1.0, np.eye(2)),
    # too few rows to index, or enough rows to pass on the wrong ones
    *(refusal(f"orth_nullspace_check-factor-order-{rows}", ValueError,
              f"factor order {rows} differs from matrix order 6", orth_nullspace_check, M15, H6,
              NonnegFactor(np.ones((rows, 2))), 0) for rows in (5, 7)),
    # a negative i would index from the end; 1.5 passed the range test and
    # failed on indexing
    *(refusal(f"orth_nullspace_check-index-{i}", ValueError, rf"index {i} is outside \[0, 6\)", orth_nullspace_check,
              M15, H6, V15, i) for i in (-1, 6)),
    *(refusal(f"orth_nullspace_check-index-{i}", TypeError, NOT_AN_INTEGER, orth_nullspace_check, M15, H6, V15, i)
      for i in (1.5, 5.0)),
    refusal("anti_dd_check-zero-row", ZeroRowError, "completely positive side has a vanishing diagonal entry",
            anti_dd_check, np.zeros((2, 2)), np.zeros((2, 2))),
    refusal("djl_lower-0", ValueError, "order must be >= 1", djl_lower, 0),
    refusal("babe-0", ValueError, "rank must be >= 1", babe, 0),
    refusal("known_pn_interval-0", ValueError, "order must be >= 1", known_pn_interval, 0),
    # no order or rank is fractional: djl_lower(7.5) was 14, babe(2.5) 3.0
    *(refusal(f"{rule.__name__}-{argument}", TypeError, NOT_AN_INTEGER, rule, argument)
      for rule, argument in ((djl_lower, 7.5), (babe, 2.5), (known_pn_interval, 2.5), (babe, 3.0))),
    refusal("witness_bound-not-orthogonal", NotOrthogonalError, NOT_ORTHOGONAL, witness_bound, np.eye(2), np.eye(2)),
    # orthogonal, but the witness is not copositive
    refusal("witness_bound-not-copositive", NotCopositiveWitnessError, "witness is not certified copositive",
            witness_bound, np.diag([1.0, 0.0]), np.diag([0.0, -1.0])),
    refusal("cp_rank_interval-not-dnn", NotDnnError, NOT_DNN, cp_rank_interval, horn_matrix()),
    *(refusal(f"cp_rank_interval-factor-order-{rows}", ValueError, f"factor order {rows} differs from matrix order 3",
              cp_rank_interval, np.eye(3), v=NonnegFactor(np.eye(rows))) for rows in (2, 4)),
    refusal("cp_rank_interval-factor-does-not-reproduce", InconsistentBoundsError,
            "supplied factor does not reproduce the matrix", cp_rank_interval, np.eye(3),
            v=NonnegFactor(np.ones((3, 1)))),
    # e1 e1' + 1.9e-9 J has numerical rank 2, and the one column e1
    # reproduces it within tolerance: the upper bound 1 undercuts the rank
    refusal("cp_rank_interval-upper-below-rank", InconsistentBoundsError,
            "minimal upper bound undercuts the rank lower bound", cp_rank_interval, np.diag([1.0, 0.0, 0.0]) + 1.9e-9,
            v=NonnegFactor([[1.0], [0.0], [0.0]])),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert re.fullmatch(message, str(info.value))


def test_the_refusal_table_covers_every_raise():
    # a raise that no input reaches is a refusal that nothing pins
    errors = [*MALFORMED, *TOO_LARGE, *(row.values[0] for row in ZEROS if isinstance(row.values[1], tuple))]
    reached = set()
    for call in [row.values[0] for row in REFUSALS] + [functools.partial(copositive_boundary_zeros, a) for a in errors]:
        with pytest.raises(Exception) as info:
            call()
        frame = traceback.extract_tb(info.tb)[-1]
        reached.add((frame.filename, frame.lineno))
    missed = [
        f"{module.__name__}:{node.lineno}"
        for module in (bounds, cones, extremal, factor, kernel, special)
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Raise) and node.exc is not None
        and not any(name == module.__file__ and node.lineno <= line <= node.end_lineno for name, line in reached)
    ]
    assert missed == []
