"""Named matrices used throughout: the Horn matrix, E12 and the order-6
generator family for matrices orthogonal to the Horn block."""

from __future__ import annotations

import numpy as np

__all__ = ["horn_matrix", "horn_block6", "e12", "horn_generators"]


def horn_matrix() -> np.ndarray:
    """The 5x5 Horn matrix: a +-1 circulant generating an extreme ray of the
    copositive cone of order five."""
    return np.array(
        [
            [1, -1, 1, 1, -1],
            [-1, 1, -1, 1, 1],
            [1, -1, 1, -1, 1],
            [1, 1, -1, 1, -1],
            [-1, 1, 1, -1, 1],
        ],
        dtype=float,
    )


def horn_block6() -> np.ndarray:
    """The Horn matrix padded with a zero sixth row and column."""
    h = np.zeros((6, 6))
    h[:5, :5] = horn_matrix()
    return h


def e12(n: int = 2) -> np.ndarray:
    """e1 e2^T + e2 e1^T padded to order n."""
    if n < 2:
        raise ValueError("e12 requires order >= 2")
    a = np.zeros((n, n))
    a[0, 1] = a[1, 0] = 1.0
    return a


def horn_generators() -> np.ndarray:
    """Columns [e1+e2 | e2+e3 | e3+e4 | e4+e5 | e5+e1 | e6] of order 6.

    Every nonnegative factor column of a completely positive matrix
    orthogonal to the Horn block lies in one of the five cones spanned by
    two cyclically adjacent columns and e6.
    """
    w = np.eye(6)
    w[[1, 2, 3, 4, 0], range(5)] = 1.0
    return w
