"""Neighbor-joining baseline with the determinant-based additive distance.

The distance between two discrete variables is
``d_ij = 0.5*log det diag(P_i) - log|det P_ij| + 0.5*log det diag(P_j)``.
It is additive along the tree when hidden and observed cardinalities match;
a singular pairwise table makes it undefined, which is recorded as +inf and
replaced by a large finite sentinel inside the joining loop.
"""

from __future__ import annotations

import math

import numpy as np

from .model import LatentTree

# Stand-in for an infinite distance; far above any finite value at n <= 20.
INFINITE_SENTINEL = 1e12
# Pairs per batch of determinants in distance_matrix; bounds the stacked copy.
_CHUNK = 1024


def additive_distance(p_ij: np.ndarray, p_i: np.ndarray, p_j: np.ndarray) -> float:
    """Determinant-based distance of two variables; +inf if the joint table is
    singular."""
    return float(distance_matrix({(0, 1): p_ij}, [p_i, p_j])[0, 1])


def distance_matrix(pair_tables, marginals) -> np.ndarray:
    """Symmetric distance matrix from per-pair tables and per-variable marginals.

    ``pair_tables[(i, j)]`` with i < j holds P(X_i, X_j); singular tables give
    +inf entries.
    """
    try:
        margs = np.array(marginals, dtype=float)
    except ValueError:  # marginals of different lengths
        raise ValueError("table and marginal shapes are inconsistent") from None
    out = np.zeros((len(margs), len(margs)))
    keys = list(pair_tables)  # the dict's own key tuples: no per-pair copies
    # A zero marginal entry's -inf only meets singular tables, which are masked.
    with np.errstate(divide="ignore", invalid="ignore"):
        half_log = np.array([0.5 * np.sum(np.log(p)) for p in margs])
        for start in range(0, len(keys), _CHUNK):
            chunk = [pair_tables[key] for key in keys[start:start + _CHUNK]]
            if {np.shape(t) for t in chunk} != {margs.shape[1:] * 2}:
                raise ValueError("table and marginal shapes are inconsistent")
            tables = np.array(chunk, dtype=float)
            i, j = np.array(keys[start:start + _CHUNK]).T
            gaps = (tables.sum(axis=2) - margs[i], tables.sum(axis=1) - margs[j])
            if any(np.max(np.abs(g)) > 1e-9 for g in gaps):
                raise ValueError("pairwise table margins do not match the marginals")
            sign, logdet = np.linalg.slogdet(tables)
            out[i, j] = out[j, i] = np.where((sign != 0) & np.isfinite(logdet),
                                             half_log[i] + half_log[j] - logdet, math.inf)
    return out


def neighbor_join(dist: np.ndarray, names) -> LatentTree:
    """Standard neighbor joining on a symmetric distance matrix; returns the
    unrooted binary topology only (branch lengths are discarded).

    Ties in the joining criterion break toward the lowest index pair, making
    the output deterministic.  Non-finite entries are replaced by a large
    finite sentinel.
    """
    dist = np.array(dist, dtype=float)
    d = dist.shape[0]
    if dist.shape != (d, d) or d != len(names):
        raise ValueError("distance matrix and names are inconsistent")
    if np.any(np.isnan(dist)):
        raise ValueError("distance matrix contains NaN")
    dist = np.where(np.isinf(dist), INFINITE_SENTINEL, dist)
    if np.max(np.abs(dist - dist.T)) > 1e-9:
        raise ValueError("distance matrix is not symmetric")
    if np.any(np.diag(dist) != 0.0):
        raise ValueError("distance matrix diagonal must be zero")
    if d < 4:
        raise ValueError(f"need at least 4 variables, got {d}")

    # One row per node of the final tree: d leaves and d - 2 hidden nodes.
    full = np.zeros((2 * d - 2, 2 * d - 2))
    full[:d, :d] = dist
    active = list(range(d))  # node ids of current clusters
    adj: dict[int, list[int]] = {i: [] for i in range(d)}
    for h in range(d, 2 * d - 3):
        n_act = len(active)
        sub = full[np.ix_(active, active)]
        r = sub.sum(axis=1)
        q = np.round((n_act - 2) * sub - r[:, None] - r[None, :], 12)
        # Only pairs i < j compete; the row-major argmin is the lowest-index
        # pair among ties.
        q[np.tril_indices(n_act)] = np.inf
        a, b = divmod(int(np.argmin(q)), n_act)
        adj[h] = [active[a], active[b]]
        adj[active[a]].append(h)
        adj[active[b]].append(h)
        rest = [c for c in range(n_act) if c not in (a, b)]
        keep = [active[c] for c in rest]
        full[h, keep] = full[keep, h] = 0.5 * (sub[a, rest] + sub[b, rest] - sub[a, b])
        active = keep + [h]
    # Join the last three clusters through one final hidden node.
    h = 2 * d - 3
    adj[h] = list(active)
    for x in active:
        adj[x].append(h)
    leaf_names = {i: str(names[i]) for i in range(d)}
    return LatentTree(adj, leaf_names)
