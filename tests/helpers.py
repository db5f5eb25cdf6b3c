"""Reference code shared by the tests: plain graph searches written apart from
the one orientation ``LatentTree`` keeps, a caterpillar tree, bench means that
refuse NaN outcomes, and ancestral sampling that keeps every node's states."""

import math

import numpy as np

from tensortree.model import LatentTree, SampleSet
from tensortree.tensors import QuartetRelation


def caterpillar(d):
    """Leaves 0..d-1 strung along a path of hidden nodes d..2d-3."""
    adj = {0: [d], 1: [d], d - 1: [2 * d - 3]}
    for i in range(2, d - 1):
        adj[i] = [d + i - 1]
    for h in range(d, 2 * d - 2):
        if h == d:
            adj[h] = [0, 1, d + 1]
        elif h == 2 * d - 3:
            adj[h] = [h - 1, h - d + 1, d - 1]
        else:
            adj[h] = [h - 1, h + 1, h - d + 1]
    return LatentTree(adj, {i: f"X{i}" for i in range(d)})


def component(tree, start, blocked):
    """Nodes reachable from ``start`` without passing through ``blocked``."""
    seen = {start}
    stack = [start]
    while stack:
        for y in tree.neighbors(stack.pop()):
            if y != blocked and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def dfs_path(tree, u, v):
    """Node sequence from u to v inclusive, by depth-first search from u."""
    prev = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for y in tree.neighbors(x):
            if y not in prev:
                prev[y] = x
                stack.append(y)
    out = [v]
    while out[-1] != u:
        out.append(prev[out[-1]])
    return out[::-1]


def disjoint_path_oracle(tree, leaves):
    """The pairing of four leaves whose two within-pair paths share no node."""
    for rel in QuartetRelation:
        (p, q), (r, s) = ((leaves[i - 1], leaves[j - 1]) for i, j in rel.groups)
        if not set(dfs_path(tree, p, q)) & set(dfs_path(tree, r, s)):
            return rel
    raise AssertionError(f"no pairing of {leaves} has disjoint paths")


def mean_outcomes(table):
    """(method, m) -> mean outcome of a ``ResultTable``; a NaN outcome fails."""
    groups = {}
    for method, m, trial, outcome, _ms in table.rows:
        assert not math.isnan(outcome), f"{method} at m={m}, trial {trial}: NaN outcome"
        groups.setdefault((method, m), []).append(outcome)
    return {key: float(np.mean(vals)) for key, vals in groups.items()}


def recursive_random_topology(d, beta, seed):
    """The adjacency ``bench.random_topology`` builds, grown by a recursion over
    groups: the reference for its explicit stack (same draws, same hidden ids)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    adj = {i: [] for i in range(d)}
    next_hidden = [d]

    def grow(group):
        if len(group) == 1:
            return group[0]
        group = list(rng.permutation(group))
        g = len(group)
        s = 1 if g <= 3 else int(min(max(round(beta * g), 2), g - 2))
        left = grow(group[:s])
        right = grow(group[s:])
        h = next_hidden[0]
        next_hidden[0] += 1
        adj[h] = [left, right]
        adj[left].append(h)
        adj[right].append(h)
        return h

    root = grow(list(range(d)))
    a, b = adj.pop(root)
    adj[a] = [x if x != root else b for x in adj[a]]
    adj[b] = [x if x != root else a for x in adj[b]]
    return {int(u): tuple(sorted(int(v) for v in vs)) for u, vs in adj.items()}


def reference_sample(tree, m, seed):
    """``model.sample`` as it was before it wrote the column store directly: every
    node's states are kept, and the leaves are stacked into an m x d int64 array."""
    p = tree.params
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    states = {}
    root_pm = np.asarray(p.root_marginal, dtype=float)
    states[p.root] = rng.choice(p.k, size=m, p=root_pm / root_pm.sum())
    for parent, child in tree.parent_order():
        cum = np.cumsum(p.cpts[(parent, child)], axis=0)
        cum[-1, :] = 1.0
        u = rng.random(m)
        states[child] = (u[:, None] < cum.T[states[parent]]).argmax(axis=1)
    leaves = tree.leaves
    rows = np.stack([states[v] + 1 for v in leaves], axis=1)
    return SampleSet(rows=rows, variable_names=[tree.leaf_names[v] for v in leaves],
                     n_states=p.n)
