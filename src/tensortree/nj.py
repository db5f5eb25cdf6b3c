"""Neighbor-joining baseline with the determinant-based additive distance.

The distance between two discrete variables is
``d_ij = 0.5*log det diag(P_i) - log|det P_ij| + 0.5*log det diag(P_j)``,
where ``P_i`` and ``P_j`` are the row and column sums of the joint table ``P_ij``.
It is additive along the tree when hidden and observed cardinalities match;
a singular pairwise table makes it undefined, which is recorded as +inf and
replaced by a large finite sentinel inside the joining loop.
"""

from __future__ import annotations

import math

import numpy as np

from .model import LatentTree

# Stand-in for an infinite distance, far above any finite one: a nonsingular table
# of m counts has |det| >= m^-n, so |distance| < 2 * n * ln m, which is under 1e5
# for n <= 1024 and m < 2^63.
INFINITE_SENTINEL = 1e12


def logdet_distances(tables) -> np.ndarray:
    """Determinant-based distances of a ``(k, n, n)`` stack of joint tables;
    +inf where a table is singular."""
    tables = np.asarray(tables, dtype=float)
    if tables.ndim != 3 or tables.shape[1] != tables.shape[2]:
        raise ValueError("pairwise table shapes are inconsistent")
    # A zero row or column sum only occurs in a singular table, which is masked.
    with np.errstate(divide="ignore", invalid="ignore"):
        half_log = (0.5 * np.log(tables.sum(axis=2)).sum(axis=1)
                    + 0.5 * np.log(tables.sum(axis=1)).sum(axis=1))
        sign, logdet = np.linalg.slogdet(tables)
        return np.where((sign != 0) & np.isfinite(logdet), half_log - logdet, math.inf)


def additive_distance(p_ij: np.ndarray) -> float:
    """Determinant-based distance of one joint table; +inf if it is singular."""
    return float(logdet_distances([p_ij])[0])


def distance_matrix(tables, d: int) -> np.ndarray:
    """Symmetric d x d distance matrix from the stack of pairwise tables
    P(X_i, X_j), whose row and column sums are P(X_i) and P(X_j), in
    ``np.triu_indices(d, 1)`` order.  Singular tables give +inf entries."""
    i, j = np.triu_indices(d, 1)
    if len(tables) != len(i):
        raise ValueError(f"need {len(i)} pairwise tables for d = {d}, got {len(tables)}")
    out = np.zeros((d, d))
    out[i, j] = out[j, i] = logdet_distances(tables)
    return out


def neighbor_join(dist: np.ndarray, names) -> LatentTree:
    """Standard neighbor joining on a symmetric distance matrix; returns the
    unrooted binary topology only (branch lengths are discarded).

    Ties in the joining criterion break toward the lowest index pair, making
    the output deterministic.  Non-finite entries are replaced by a large
    finite sentinel.
    """
    dist = np.array(dist, dtype=float, order="C")  # row sums add contiguous rows
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

    # ``dist`` stays compact: row and column c belong to node ``active[c]``.
    # Adding ``lower`` sets Q to +inf at i >= j, so only pairs i < j compete and
    # the row-major argmin is the lowest-index pair among ties.
    lower = np.tril(np.full((d, d), np.inf))
    scratch = np.empty(d * d)  # Q, computed in place
    active = list(range(d))  # node ids of current clusters
    adj: dict[int, list[int]] = {i: [] for i in range(d)}
    for h in range(d, 2 * d - 3):
        n_act = len(active)
        r = dist.sum(axis=1)
        q = scratch[:n_act * n_act].reshape(n_act, n_act)
        np.multiply(n_act - 2, dist, out=q)  # round((n_act-2)*dist - r[:,None] - r[None,:], 12)
        q -= r[:, None]
        q -= r[None, :]
        np.round(q, 12, out=q)
        q += lower[:n_act, :n_act]
        a, b = divmod(int(np.argmin(q)), n_act)
        adj[h] = [active[a], active[b]]
        adj[active[a]].append(h)
        adj[active[b]].append(h)
        rest = np.r_[0:a, a + 1:b, b + 1:n_act]  # kept rows in order; the new node goes last
        joined = np.zeros((n_act - 1, n_act - 1))
        joined[:-1, :-1] = dist[rest][:, rest]
        joined[-1, :-1] = joined[:-1, -1] = 0.5 * (dist[a, rest] + dist[b, rest] - dist[a, b])
        dist, active = joined, [active[c] for c in rest] + [h]
    # Join the last three clusters through one final hidden node.
    h = 2 * d - 3
    adj[h] = list(active)
    for x in active:
        adj[x].append(h)
    leaf_names = {i: str(names[i]) for i in range(d)}
    return LatentTree(adj, leaf_names)
