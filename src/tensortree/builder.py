"""Divide-and-conquer tree construction from a quartet resolver.

The builder starts from a single quartet and inserts the remaining leaves one
at a time into a mutable adjacency.  The candidate edges for a new leaf form a
connected region; one pass over it counts the region nodes below each node,
which gives every node's three direction counts.  The node splitting them most
evenly, by the centroid rule that also picks the Newick root, is tested for the
direction the new leaf belongs to, and the region shrinks to that direction.
Each test removes at least half of the candidates, so an insertion costs
O(log d) resolver calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import LatentTree, quartet_tree
from .tensors import QuartetRelation


@dataclass
class BuildTrace:
    """A build's only record: each ``(quartet, relation)`` verdict in order.  Every
    quartet an insertion asks starts with its new leaf, so its depth is that run."""

    verdicts: list = field(default_factory=list)

    @property
    def quartet_test_count(self) -> int:
        return len(self.verdicts)

    def ask(self, resolver, quartet) -> QuartetRelation:
        """The relation ``resolver(*quartet)`` gives, logged with its quartet."""
        out = resolver(*quartet)
        rel = QuartetRelation(getattr(out, "relation", out))
        self.verdicts.append((tuple(quartet), rel))
        return rel


def _centroid(order: list, parent: dict, below: dict) -> int:
    """The node whose heaviest branch weighs least, ties to the lowest id.

    ``order`` lists a rooted tree top-down (each node after its parent) and
    ``parent`` maps every other node to its parent.  ``below`` holds each node's
    own weight and is summed in place into subtree weights, so a node's branches
    are its children's subtrees and the rest of the tree.  Weighted by leaves, it
    is a hidden node: a leaf's other branch holds d - 1 leaves, and no hidden
    node's heaviest branch more than d - 2."""
    heavy = dict.fromkeys(order, 0)  # heaviest child subtree
    for u in reversed(order[1:]):
        below[parent[u]] += below[u]
        heavy[parent[u]] = max(heavy[parent[u]], below[u])
    total = below[order[0]]
    return min(order, key=lambda h: (max(heavy[h], total - below[h]), h))


def choose_balanced_root(tree: LatentTree) -> int:
    """Hidden node minimizing the largest leaf count among its three branches;
    ties broken by lowest node id."""
    if not tree.hidden:
        raise ValueError("tree has no hidden node")
    edges = tree.parent_order()  # any orientation: the centroid does not depend on it
    order = [edges[0][0]] + [child for _, child in edges]
    below = {u: int(tree.is_leaf(u)) for u in order}
    return _centroid(order, {child: p for p, child in edges}, below)


def _locate_edge(adj: dict, leaves: set, new_leaf: int, resolver, rng,
                 trace: BuildTrace) -> tuple[int, int]:
    """Find the attachment edge for a new leaf with O(log d) quartet tests."""
    # Orient the tree once; each direction of a node is then one slice of the
    # preorder, or two.
    order, parent, pos, stack = [], {}, {}, [(next(iter(adj)), None)]
    while stack:
        u, parent[u] = stack.pop()
        pos[u] = len(order)
        order.append(u)
        stack.extend((v, u) for v in adj[u] if v != parent[u])
    size = dict.fromkeys(order, 1)  # the first _centroid call sums it into subtree sizes
    # The candidate edges are those inside ``region``, a connected node set in
    # preorder: its first node is its top and holds every other node's parent.
    region, below = order, size
    while len(region) > 2:
        # A direction of a region node holds as many candidate edges as region
        # nodes, so counting nodes finds the most even split of the candidates.
        # A node with one region edge scores all of them; an inner node beats it.
        best = _centroid(region, parent, below)
        # Its directions in preorder: a child's subtree, or all but its own subtree.
        sides = [order[pos[v]:pos[v] + size[v]] if parent[v] == best
                 else order[:pos[best]] + order[pos[best] + size[best]:] for v in adj[best]]
        reps = []
        for side in sides:
            dir_leaves = sorted(leaves.intersection(side))
            reps.append(dir_leaves[rng.integers(len(dir_leaves))])
        rel = trace.ask(resolver, (new_leaf, *reps))
        # Region nodes keep three edges, or one at the boundary: no empty direction.
        keep = set(sides[int(rel) - 1])
        region = [u for u in region if u == best or u in keep]
        below = dict.fromkeys(region, 1)
    return tuple(sorted(region))


def build_tree(resolver: Callable, variables: Sequence[int], seed=0,
               names: dict | None = None) -> tuple[LatentTree, BuildTrace]:
    """Construct an unrooted latent tree over ``variables`` (leaf ids) using a
    quartet resolver.

    The resolver is called as ``resolver(a, b, c, d)`` with leaf ids and must
    return a :class:`QuartetRelation` (or a verdict carrying one).  Leaves are
    inserted in input order.  The seed drives the random representative-leaf
    choices.
    """
    order = [int(v) for v in variables]
    if len(set(order)) != len(order):
        raise ValueError("variable ids must be distinct")
    if len(order) < 4:
        raise ValueError(f"need at least 4 variables, got {len(order)}")
    rng = np.random.default_rng(seed)
    if names is None:
        names = {v: f"X{v}" for v in order}
    trace = BuildTrace()
    first = order[:4]
    rel = trace.ask(resolver, tuple(first))
    start = quartet_tree(first, rel, names=names, hidden_start=max(order) + 1)
    adj = {u: list(start.neighbors(u)) for u in start.nodes()}
    leaves = set(first)
    fresh = max(adj)  # hidden ids count up from the largest; every leaf id lies below it
    for x in order[4:]:
        u, v = _locate_edge(adj, leaves, x, resolver, rng, trace)
        # Put a fresh hidden node on edge (u, v) and hang x off it.
        fresh += 1
        for a, b in ((u, v), (v, u)):
            adj[a][adj[a].index(b)] = fresh
            adj[a].sort()
        adj[fresh] = sorted((u, v, x))
        adj[x] = [fresh]
        leaves.add(x)
    return LatentTree(adj, {v: names[v] for v in order}), trace
