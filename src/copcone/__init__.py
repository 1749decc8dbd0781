"""Computations in the copositive and completely positive matrix cones:
certified membership tests, constructive cp factorizations, cp-rank bounds,
and extreme-ray orbit tooling.

``import copcone`` loads none of the layer modules.  A public name, or a
layer module such as ``copcone.cones``, is imported on first access
(PEP 562) and the name is then bound here, so a process that only tests
copositivity, ``copcone check`` included, never runs ``bounds``,
``extremal``, ``factor`` or ``special``.
"""

import sys

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "bounds": (
        "BoundEntry",
        "BoundReport",
        "babe",
        "cp_rank_interval",
        "djl_lower",
        "known_pn_interval",
        "witness_bound",
    ),
    "cones": (
        "Answer",
        "ConeVerdict",
        "InteriorCertificate",
        "copositive_boundary_zeros",
        "cp_interior_certificate",
        "is_copositive",
        "is_dnn",
        "is_nonneg",
        "is_psd",
    ),
    "extremal": (
        "ExtremeClass",
        "OrbitWitness",
        "anti_dd_check",
        "classify_rank12",
        "horn_orbit_recognize",
        "orth_column_check",
        "orth_nullspace_check",
        "rank3_witness_check",
    ),
    "factor": (
        "ContinuationResult",
        "NonnegFactor",
        "cp3_factorize",
        "dd_factorize",
        "factor_continuation",
        "heuristic_min_factor",
        "horn_orthogonal_factorize",
        "perturb_positify",
        "positive_dd_factorize",
    ),
    "kernel": ("DEFAULT_TOL", "Tolerance"),
    "special": ("e12", "horn_block6", "horn_generators", "horn_matrix"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules reachable as attributes without an explicit import.
_MODULES = frozenset(_EXPORTS) | {"errors"}

__all__ = sorted(_HOME)


def _load(module: str):
    # __import__, unlike importlib.import_module, shows up in -X importtime
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    if name in _MODULES:
        return _load(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
