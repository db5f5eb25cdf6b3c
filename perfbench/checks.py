"""Correctness checks written apart from tensortree: a Newick reader, leaf
splits, 4-way counts, unfoldings and additive tree metrics.

Nothing here imports tensortree, so a fault in the program cannot hide by
being shared with the code that checks it.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def parse_newick(text: str):
    """Unrooted tree of a Newick string: (adjacency, leaf names by node id).

    Accepts labels on internal nodes and ignores them; a degree-2 root is
    contracted.  Raises CheckFailed on malformed text.
    """
    text = text.strip()
    if not text.endswith(";"):
        raise CheckFailed("Newick text does not end with ';'")
    adj: dict[int, list[int]] = {}
    names: dict[int, str] = {}
    stack: list[int] = []
    pos, end = 0, len(text) - 1
    expect_node = True
    root = None

    def new_node(parent):
        node = len(adj)
        adj[node] = []
        if parent is not None:
            adj[node].append(parent)
            adj[parent].append(node)
        return node

    while pos < end:
        ch = text[pos]
        if ch == "(":
            if not expect_node:
                raise CheckFailed(f"unexpected '(' at {pos}")
            node = new_node(stack[-1] if stack else None)
            root = node if root is None else root
            stack.append(node)
            pos += 1
        elif ch == ",":
            if expect_node or not stack:
                raise CheckFailed(f"unexpected ',' at {pos}")
            expect_node = True
            pos += 1
        elif ch == ")":
            if expect_node or not stack:
                raise CheckFailed(f"unexpected ')' at {pos}")
            stack.pop()
            pos += 1
            while pos < end and text[pos] not in "(),":
                pos += 1  # internal node label
        else:
            start = pos
            while pos < end and text[pos] not in "(),":
                pos += 1
            label = text[start:pos].strip()
            if not expect_node or not label or not stack:
                raise CheckFailed(f"unexpected label {label!r} at {start}")
            names[new_node(stack[-1])] = label
            expect_node = False
    if stack or root is None:
        raise CheckFailed("unbalanced parentheses")
    if len(adj[root]) == 2:
        a, b = adj.pop(root)
        adj[a] = [b if x == root else x for x in adj[a]]
        adj[b] = [a if x == root else x for x in adj[b]]
    return adj, names


def check_binary(adj, names, expected_names) -> None:
    """The tree is unrooted and binary, with exactly the expected leaves."""
    labels = list(names.values())
    if len(labels) != len(set(labels)):
        raise CheckFailed("duplicate leaf names")
    if set(labels) != set(expected_names):
        raise CheckFailed("leaf names differ from the CSV header")
    for node, nbrs in adj.items():
        want = 1 if node in names else 3
        if len(nbrs) != want:
            raise CheckFailed(f"node {node} has degree {len(nbrs)}, expected {want}")
    if sum(len(v) for v in adj.values()) // 2 != len(adj) - 1:
        raise CheckFailed("graph is not a tree")


def splits(adj, names) -> set[frozenset]:
    """Nontrivial leaf bipartitions, each stored as the side without the
    smallest leaf name."""
    anchor = min(names.values())
    everything = frozenset(names.values())
    start = next(n for n, s in names.items() if s == anchor)
    # Iterative post-order from the anchor leaf: below[v] = leaves under v.
    parent = {start: None}
    order = [start]
    for node in order:
        for nb in adj[node]:
            if nb not in parent:
                parent[nb] = node
                order.append(nb)
    below: dict[int, frozenset] = {}
    for node in reversed(order):
        if node in names and node != start:
            below[node] = frozenset((names[node],))
        else:
            below[node] = frozenset().union(
                *(below[nb] for nb in adj[node] if parent.get(nb) == node))
    out = set()
    for node, side in below.items():
        if node not in names and 2 <= len(side) <= len(everything) - 2:
            out.add(side)
    return out


def quartet_counts(rows: np.ndarray, idx, n: int) -> np.ndarray:
    """4-way table of raw counts of four 1-based columns."""
    counts = np.zeros((n, n, n, n), dtype=np.int64)
    cols = [rows[:, i] - 1 for i in idx]
    np.add.at(counts, tuple(cols), 1)
    return counts


def nuclear_argmin(table: np.ndarray):
    """(1-based pairing with the smallest nuclear norm, relative margin).

    Pairings are 1 = {12|34}, 2 = {13|24}, 3 = {14|23}.
    """
    n = table.shape[0]
    mats = (table.reshape(n * n, n * n),
            table.transpose(0, 2, 1, 3).reshape(n * n, n * n),
            table.transpose(0, 3, 1, 2).reshape(n * n, n * n))
    norms = np.array([np.linalg.svd(m, compute_uv=False).sum() for m in mats])
    order = np.argsort(norms)
    margin = (norms[order[1]] - norms[order[0]]) / max(norms.max(), 1e-300)
    return int(order[0]) + 1, float(margin)


def path_metric(adj, leaves, rng) -> np.ndarray:
    """Leaf-to-leaf path lengths under random positive edge weights."""
    weight = {}
    for u, nbrs in adj.items():
        for v in nbrs:
            if u < v:
                weight[(u, v)] = weight[(v, u)] = float(rng.uniform(0.1, 1.0))
    index = {leaf: i for i, leaf in enumerate(leaves)}
    dist = np.zeros((len(leaves), len(leaves)))
    for leaf in leaves:
        reach = {leaf: 0.0}
        frontier = [leaf]
        for node in frontier:
            for nb in adj[node]:
                if nb not in reach:
                    reach[nb] = reach[node] + weight[(node, nb)]
                    frontier.append(nb)
        for other, i in index.items():
            dist[index[leaf], i] = reach[other]
    return dist


def is_even_integer(value: float) -> bool:
    return math.isfinite(value) and value == int(value) and int(value) % 2 == 0
