"""The three quartet-relation resolvers: nuclear norm, top-k singular value
products, and a true-topology oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .exceptions import ModelError
from .model import LatentTree
from .tensors import JointTensor4, QuartetRelation, spectral, unfold

# Relative score gap below which two pairings are declared tied.
TIE_RTOL = 1e-12

PAIR_KEYS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


@dataclass(frozen=True)
class QuartetVerdict:
    """Outcome of a quartet test: the chosen pairing plus its three statistics.

    ``margin`` is the smallest gap between the winning score and the others
    (in the winning direction), and is nonnegative.
    """

    relation: QuartetRelation
    scores: tuple[float, float, float]
    margin: float
    tie: bool


def _decide(scores, minimize: bool) -> QuartetVerdict:
    arr = np.asarray(scores, dtype=float)
    signed = arr if minimize else -arr
    best = int(np.argmin(signed))
    gaps = np.delete(signed - signed[best], best)
    scale = max(np.max(np.abs(arr)), 1e-300)
    tie = bool(np.min(gaps) < TIE_RTOL * scale)
    if tie:
        # Deterministic tie rule: lowest-index pairing among the tied ones.
        tied = np.flatnonzero(signed - signed[best] < TIE_RTOL * scale)
        best = int(tied.min())
        gaps = np.delete(signed - signed[best], best)
    return QuartetVerdict(relation=QuartetRelation(best + 1),
                          scores=tuple(float(x) for x in arr),
                          margin=float(max(np.min(gaps), 0.0)),
                          tie=tie)


def resolve_nuclear(tensor: JointTensor4) -> QuartetVerdict:
    """Pick the pairing whose unfolding has the smallest nuclear norm."""
    scores = [spectral(unfold(tensor, rel)).sum() for rel in QuartetRelation]
    return _decide(scores, minimize=True)


def _top_k_product(table: np.ndarray, k: int) -> float:
    sv = spectral(table)
    # Singular values at roundoff level are exact zeros of the population
    # table; keeping them would turn exact ties into noise-driven verdicts.
    if sv.size and sv[0] > 0:
        sv[sv < 1e-12 * sv[0]] = 0.0
    return float(np.prod(sv[:k]))


def resolve_spectral_k(pairs: Mapping[tuple[int, int], np.ndarray], k: int,
                       ) -> QuartetVerdict:
    """Pick the pairing maximizing the product of the top-k singular values of
    its two within-group pairwise tables.

    ``pairs`` maps (i, j) with 1 <= i < j <= 4 to the n x n table of
    variables i and j.
    """
    missing = [key for key in PAIR_KEYS if key not in pairs]
    if missing:
        raise ValueError(f"missing pairwise tables for {missing}")
    n = np.asarray(pairs[(1, 2)]).shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    scores = [
        _top_k_product(pairs[(1, 2)], k) * _top_k_product(pairs[(3, 4)], k),
        _top_k_product(pairs[(1, 3)], k) * _top_k_product(pairs[(2, 4)], k),
        _top_k_product(pairs[(1, 4)], k) * _top_k_product(pairs[(2, 3)], k),
    ]
    return _decide(scores, minimize=False)


def resolve_oracle(tree: LatentTree, leaves: Sequence[int]) -> QuartetRelation:
    """The pairing induced by the true topology: by the four-point condition,
    the grouping whose two within-pair paths are shortest in sum (strictly, in
    a tree whose hidden nodes have degree 3)."""
    a, b, c, d = leaves
    if len({a, b, c, d}) != 4:
        raise ModelError(f"need four distinct leaves, got {leaves}")
    return min(QuartetRelation, key=lambda rel: sum(
        len(tree.path(leaves[i - 1], leaves[j - 1])) for i, j in rel.groups))
