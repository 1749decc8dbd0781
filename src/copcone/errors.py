"""Exception hierarchy.

Every error carries a short machine-readable ``tag`` that the CLI echoes in
its JSON reports.
"""


class CopconeError(Exception):
    """Base class for all library errors."""

    tag = "ERROR"


class NotNonnegativeError(CopconeError):
    tag = "NOT_NONNEG"


class NotDiagonallyDominantError(CopconeError):
    tag = "NOT_DD"


class NotPositiveError(CopconeError):
    tag = "NOT_POSITIVE"


class PerronNotPositiveError(CopconeError):
    tag = "PERRON_NOT_POSITIVE"


class NotOrthogonalToHornError(CopconeError):
    tag = "NOT_ORTHOGONAL_TO_HORN"


class ColumnOutsideConesError(CopconeError):
    tag = "COLUMN_OUTSIDE_CONES"


class NotDnnError(CopconeError):
    tag = "NOT_DNN"


class NewtonDivergedError(CopconeError):
    tag = "NEWTON_DIVERGED"


class PositivityLostError(CopconeError):
    tag = "POSITIVITY_LOST"


class NotCopositiveError(CopconeError):
    tag = "NOT_COPOSITIVE"


class NotOrthogonalError(CopconeError):
    tag = "NOT_ORTHOGONAL"


class NotCopositiveWitnessError(CopconeError):
    tag = "NOT_COPOSITIVE_WITNESS"


class InconsistentBoundsError(CopconeError):
    tag = "INCONSISTENT_BOUNDS"


class ZeroRowError(CopconeError):
    tag = "ZERO_ROW"


class DataError(CopconeError):
    tag = "DATA_ERROR"
