"""Dense 4th-order probability tensors, their three unfoldings, and spectral quantities.

All matrices are plain numpy arrays of float64.  Index conventions follow the
1-based state convention of the rest of the package: the unfolding that groups
variables (1,2) against (3,4) places entry (x1,x2,x3,x4) at row x1+n(x2-1),
column x3+n(x4-1), and analogously for the other two groupings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .exceptions import NumericalError


class QuartetRelation(IntEnum):
    """The three ways to pair four variables, in the fixed order used everywhere."""

    PAIR_12_34 = 1
    PAIR_13_24 = 2
    PAIR_14_23 = 3

    @property
    def groups(self):
        """The two index pairs (1-based variable positions) of this pairing: the one
        table of pairings, which unfoldings, scores and tests all read."""
        return (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))[self - 1]


@dataclass(frozen=True)
class JointTensor4:
    """Joint probability table of four discrete variables with n states each.

    ``values[x1-1, x2-1, x3-1, x4-1]`` is the probability (or relative
    frequency) of the outcome (x1, x2, x3, x4).
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or len(set(v.shape)) != 1:
            raise ValueError(f"expected an n x n x n x n array, got shape {v.shape}")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("tensor entries must be finite and nonnegative")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"tensor entries must sum to 1, got {v.sum()!r}")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def unfold(tensor: JointTensor4, grouping: QuartetRelation) -> np.ndarray:
    """Reshape the 4-way table into the n^2 x n^2 matrix of the given grouping.

    Rows enumerate the states of the grouping's first pair (first variable
    fastest), columns those of the second pair.
    """
    n = tensor.n
    axes = [v - 1 for pair in QuartetRelation(grouping).groups for v in pair]
    return tensor.values.transpose(axes).reshape(n * n, n * n, order="F")


def spectral(matrix: np.ndarray) -> np.ndarray:
    """Singular values of a dense matrix, in descending order."""
    m = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    try:
        sv = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed: {exc}") from exc
    return sv


def nuclear_norm(matrix: np.ndarray) -> float:
    """Sum of all singular values."""
    return float(spectral(matrix).sum())
