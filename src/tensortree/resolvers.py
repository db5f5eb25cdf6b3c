"""The three quartet-relation resolvers: nuclear norm, top-k singular value
products, and a true-topology oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    near = signed - signed.min() < TIE_RTOL * max(np.max(np.abs(arr)), 1e-300)
    best = int(np.argmax(near))  # deterministic tie rule: the lowest tied pairing
    gaps = np.delete(signed - signed[best], best)
    return QuartetVerdict(relation=QuartetRelation(best + 1),
                          scores=tuple(float(x) for x in arr),
                          margin=float(max(np.min(gaps), 0.0)),
                          tie=bool(near.sum() > 1))


def _gram_nuclear(a: np.ndarray, delta: float) -> float:
    """Nuclear norm from eigvalsh of the Gram matrix of the smaller side;
    eigenvalues at or below ``delta`` count as 0."""
    eig = np.linalg.eigvalsh(a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T)
    return float(np.sqrt(eig[eig > delta]).sum())


def gram_scores(tensor: JointTensor4) -> tuple[list[float], float, list[np.ndarray]]:
    """The three nuclear-norm scores by ``_gram_nuclear``, a bound on the distance
    of each from the exact norm, and the nonzero blocks scored: the unfoldings
    without their all-zero rows and columns, which add only zero singular values.

    With r = n^2 and ||T|| the Frobenius norm of every unfolding, fl(A.T @ A)
    is off by at most r * eps * ||T||^2 in norm, and eigvalsh's backward error
    is p(s) * eps * ||G|| with a modest p(s), taken <= r (LAPACK Users' Guide,
    sec. 4.7).  By Weyl's inequality each eigenvalue is within
    2 * r * eps * ||T||^2 of its sigma^2; delta doubles that (C = 4).  A kept
    eigenvalue gives sigma within sqrt(delta), as |sqrt(x) - sqrt(y)| <=
    sqrt(|x - y|), and a zeroed one has sigma^2 <= 2 * delta, so a sum of at
    most r values is within r * sqrt(2 * delta).  Without the zeroing, each
    roundoff eigenvalue of a rank-deficient unfolding adds about
    sqrt(eps) * ||T|| to its score."""
    r = tensor.n ** 2
    delta = 4 * r * np.finfo(float).eps * float(np.vdot(tensor.values, tensor.values))
    blocks = [a[a.any(axis=1)][:, a.any(axis=0)]
              for a in (unfold(tensor, rel) for rel in QuartetRelation)]
    return [_gram_nuclear(a, delta) for a in blocks], r * math.sqrt(2 * delta), blocks


def resolve_nuclear(tensor: JointTensor4) -> QuartetVerdict:
    """Pick the pairing whose unfolding has the smallest nuclear norm.

    When the best two Gram scores lie within 2 * bound, their exact order is
    uncertain, and all three nonzero blocks are re-scored by SVD.  Otherwise the
    exact best wins by at least the slack the safety factor leaves,
    0.19 * r * sqrt(delta) per score: over 1e3 times the SVD's own error
    (about r^2 * eps * ||T||) and TIE_RTOL times the scale (at most
    sqrt(r) * ||T||).  So every verdict and tie flag equals the SVD scores'."""
    scores, bound, blocks = gram_scores(tensor)
    best, second = sorted(scores)[:2]
    if second - best <= 2 * bound:
        scores = [spectral(a).sum() for a in blocks]
    return _decide(scores, minimize=True)


def _top_k_product(table: np.ndarray, k: int) -> float:
    sv = spectral(table)
    # Singular values at roundoff level are exact zeros of the population
    # table; keeping them would turn exact ties into noise-driven verdicts.
    if sv.size and sv[0] > 0:
        sv[sv < 1e-12 * sv[0]] = 0.0
    return float(np.prod(sv[:k]))


def resolve_spectral_k(tables, k: int) -> QuartetVerdict:
    """Pick the pairing maximizing the product of the top-k singular values of
    its two within-group tables.  ``tables`` is the (6, n, n) stack of pairwise
    tables in ``PAIR_KEYS`` order."""
    tables = np.asarray(tables)
    if tables.ndim != 3 or tables.shape[0] != 6 or tables.shape[1] != tables.shape[2]:
        raise ValueError(f"need a (6, n, n) stack of pairwise tables, got {tables.shape}")
    n = tables.shape[1]
    if k < 1 or k > n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    scores = [_top_k_product(tables[PAIR_KEYS.index(p)], k)
              * _top_k_product(tables[PAIR_KEYS.index(q)], k)
              for p, q in (rel.groups for rel in QuartetRelation)]
    return _decide(scores, minimize=False)


def four_point(dist) -> QuartetRelation:
    """The pairing whose two within-pair distances are smallest in sum, read
    above the diagonal of a 4 x 4 distance matrix (the four-point condition).
    Sums are rounded to 12 decimals; ties go to the lowest pairing."""
    scores = [dist[a - 1][b - 1] + dist[c - 1][e - 1]
              for (a, b), (c, e) in (rel.groups for rel in QuartetRelation)]
    return QuartetRelation(int(np.argmin(np.round(scores, 12))) + 1)


def resolve_oracle(tree: LatentTree, leaves: Sequence[int]) -> QuartetRelation:
    """The pairing induced by the true topology: the four-point rule on edge
    counts, whose minimum is strict in a tree whose hidden nodes have degree 3."""
    a, b, c, d = leaves
    if len({a, b, c, d}) != 4:
        raise ModelError(f"need four distinct leaves, got {leaves}")
    return four_point([[tree.distance(u, v) if i < j else 0 for j, v in enumerate(leaves)]
                       for i, u in enumerate(leaves)])
