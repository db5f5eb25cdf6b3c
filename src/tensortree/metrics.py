"""Robinson-Foulds distance, leaf bipartitions, and Newick serialization."""

from __future__ import annotations

from typing import FrozenSet

from .builder import choose_balanced_root
from .exceptions import ModelError, ParseError
from .model import LatentTree, bfs_edges

_FORBIDDEN = set("(),;: \t\n")


def bipartitions(tree: LatentTree) -> frozenset:
    """Canonical nontrivial leaf splits, one per internal (hidden-hidden) edge.

    Each split is stored as the frozenset of leaf names on the side *not*
    containing the anchor leaf (the lexicographically smallest name).
    """
    names = sorted(tree.leaf_names.values())
    if len(names) != len(set(names)):
        raise ModelError("leaf names must be unique")
    anchor = names[0]
    out = set()
    for u, v in tree.edges():
        if tree.is_leaf(u) or tree.is_leaf(v):
            continue
        side = frozenset(tree.leaf_names[x] for x in tree.leaves_in(tree.component(u, v)))
        if anchor in side:
            side = frozenset(set(names) - side)
        if len(side) >= 2 and len(side) <= len(names) - 2:
            out.add(side)
    return frozenset(out)


def robinson_foulds(t1: LatentTree, t2: LatentTree) -> int:
    """Number of leaf splits present in exactly one of the two trees."""
    if set(t1.leaf_names.values()) != set(t2.leaf_names.values()):
        raise ValueError("trees have different leaf label sets")
    s1, s2 = bipartitions(t1), bipartitions(t2)
    return len(s1 - s2) + len(s2 - s1)


# ---------------------------------------------------------------------------
# Newick
# ---------------------------------------------------------------------------


def to_newick(tree: LatentTree) -> str:
    """Serialize rooted at the most balanced hidden node; hidden nodes are
    labeled H1, H2, ... in emission order and children are ordered by the
    smallest leaf label beneath them."""
    for name in tree.leaf_names.values():
        if set(name) & _FORBIDDEN:
            raise ValueError(f"leaf name {name!r} contains reserved characters")
    root = choose_balanced_root(tree)
    kids: dict[int, list[int]] = {}  # hidden node -> children; keys in BFS order
    for parent, child in bfs_edges({u: tree.neighbors(u) for u in tree.nodes()}, root):
        kids.setdefault(parent, []).append(child)
    low = dict(tree.leaf_names)  # smallest leaf label beneath each node
    for node in reversed(kids):  # children before their parents
        low[node] = min(low[c] for c in kids[node])
        kids[node].sort(key=low.__getitem__)
    out = ["("]
    stack = [iter(kids[root])]  # children still to emit, one iterator per open node
    closed = 0
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            closed += 1
            out.append(f")H{closed}")
            continue
        if out[-1] != "(":  # not the first child
            out.append(",")
        if tree.is_leaf(node):
            out.append(tree.leaf_names[node])
        else:
            out.append("(")
            stack.append(iter(kids[node]))
    return "".join(out) + ";"


class _NewickParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, position=self.pos)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> list[tuple[int | None, str | None]]:
        """Nodes in pre-order as (parent index, leaf name); hidden nodes have
        no name, and their own labels are discarded."""
        nodes = []
        open_nodes = [None]  # the root's parent, then hidden nodes whose ')' is ahead
        while True:
            while self.peek() == "(":
                self.pos += 1
                nodes.append((open_nodes[-1], None))
                open_nodes.append(len(nodes) - 1)
            nodes.append((open_nodes[-1], self.label(optional=False)))
            while open_nodes[-1] is not None and self.peek() != ",":
                if self.peek() != ")":
                    self.error("expected ')' or ','")
                self.pos += 1
                self.label(optional=True)
                open_nodes.pop()
            if open_nodes[-1] is None:
                break
            self.pos += 1  # past the ','
        if self.peek() != ";":
            self.error("expected ';' at end of tree")
        self.pos += 1
        if self.text[self.pos:].strip():
            self.error("trailing text after ';'")
        return nodes

    def label(self, optional):
        start = self.pos
        while self.peek() and self.peek() not in "(),;:":
            self.pos += 1
        text = self.text[start:self.pos].strip()
        if self.peek() == ":":  # branch length: parse and discard
            self.pos += 1
            bstart = self.pos
            while self.peek() and self.peek() not in "(),;":
                self.pos += 1
            try:
                float(self.text[bstart:self.pos])
            except ValueError:
                self.error("malformed branch length")
        if not text and not optional:
            self.error("expected a leaf name")
        return text or None


def from_newick(text: str) -> LatentTree:
    """Parse a single Newick tree into an unrooted latent tree.

    A degree-2 root (rooted binary convention) is contracted away.  Hidden
    nodes of any other degree than 3 are rejected.
    """
    nodes = _NewickParser(text.strip()).parse()
    leaf_labels = [name for _, name in nodes if name is not None]
    if len(leaf_labels) != len(set(leaf_labels)):
        raise ParseError("duplicate leaf names")
    ids = {name: i for i, name in enumerate(sorted(leaf_labels))}
    hidden_ids = iter(range(len(ids), len(nodes)))  # numbered in pre-order
    node_ids = [next(hidden_ids) if name is None else ids[name] for _, name in nodes]
    adj: dict[int, list[int]] = {nid: [] for nid in node_ids}
    for (parent, _), nid in zip(nodes, node_ids):
        if parent is not None:
            adj[node_ids[parent]].append(nid)
            adj[nid].append(node_ids[parent])
    root_id = node_ids[0]
    if len(adj[root_id]) == 2:  # contract a rooted-style degree-2 root
        a, b = adj[root_id]
        adj[a] = [x if x != root_id else b for x in adj[a]]
        adj[b] = [x if x != root_id else a for x in adj[b]]
        del adj[root_id]
    leaf_names = {i: name for name, i in ids.items()}
    try:
        return LatentTree(adj, leaf_names)
    except ModelError as exc:
        raise ParseError(f"invalid tree structure: {exc}") from exc
