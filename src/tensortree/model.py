"""Latent trees over discrete variables: topology, parameters, exact marginals,
ancestral sampling, and empirical tables.

A tree is unrooted: observed variables are degree-1 leaves, hidden variables
have degree exactly 3.  Parameters, when present, orient every edge away from
a designated root hidden node and attach a column-stochastic conditional table
to each directed edge, plus a marginal for the root.  States are 1-based in
all user-facing data (samples, CSV); arrays are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import ModelError, ParseError
from .tensors import JointTensor4


@dataclass
class TreeParameters:
    """CPT parameterization of a latent tree.

    ``cpts[(parent, child)]`` has shape (child_states, parent_states) and
    column-stochastic columns.  Hidden nodes share the cardinality ``k``,
    observed leaves the cardinality ``n``.
    """

    n: int
    k: int
    root: int
    root_marginal: np.ndarray
    cpts: dict

    def validate(self, tree: "LatentTree") -> None:
        if self.root not in tree.hidden:
            raise ModelError(f"root {self.root} is not a hidden node")
        pm = np.asarray(self.root_marginal, dtype=float)
        # Here and below, NaN and -inf fail ``>= 0`` and +inf fails the sum test.
        if pm.shape != (self.k,) or not np.all(pm >= 0) or abs(pm.sum() - 1.0) > 1e-9:
            raise ModelError("root marginal must be a length-k probability vector")
        for (parent, child), cpt in self.cpts.items():
            rows = self.n if tree.is_leaf(child) else self.k
            cols = self.n if tree.is_leaf(parent) else self.k
            cpt = np.asarray(cpt, dtype=float)
            if cpt.shape != (rows, cols):
                raise ModelError(
                    f"CPT for edge {parent}->{child} has shape {cpt.shape}, "
                    f"expected {(rows, cols)}")
            if not np.all(cpt >= 0) or np.max(np.abs(cpt.sum(axis=0) - 1.0)) > 1e-12:
                raise ModelError(
                    f"CPT for edge {parent}->{child} is not column-stochastic")


def bfs_edges(adjacency: Mapping[int, Iterable[int]], root: int) -> list[tuple[int, int]]:
    """(parent, child) pairs of a tree oriented away from ``root``, in
    breadth-first order, children in adjacency order."""
    order = []
    seen = {root}
    frontier = [root]
    for u in frontier:  # the frontier grows while it is walked
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                order.append((u, v))
                frontier.append(v)
    return order


class LatentTree:
    """Unrooted tree with named observed leaves and degree-3 hidden nodes."""

    def __init__(self, adjacency: Mapping[int, Iterable[int]],
                 leaf_names: Mapping[int, str],
                 params: TreeParameters | None = None):
        adj = {int(u): tuple(sorted(int(v) for v in vs)) for u, vs in adjacency.items()}
        self._adj = adj
        self.leaf_names = {int(u): str(s) for u, s in leaf_names.items()}
        self.params = params
        self._marginals: dict[int, np.ndarray] = {}
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self) -> None:
        adj = self._adj
        nodes = set(adj)
        for u, vs in adj.items():
            for v in vs:
                if v not in nodes or u not in adj[v]:
                    raise ModelError(f"edge {u}-{v} is not symmetric")
        n_edges = sum(len(vs) for vs in adj.values()) // 2
        if n_edges != len(nodes) - 1:
            raise ModelError("graph is not a tree (wrong edge count)")
        # connectivity
        seen = set()
        stack = [next(iter(nodes))]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u])
        if seen != nodes:
            raise ModelError("graph is not connected")
        for u in nodes:
            deg = len(adj[u])
            if u in self.leaf_names:
                if deg != 1:
                    raise ModelError(f"leaf {u} has degree {deg}, expected 1")
            elif deg != 3:
                raise ModelError(f"hidden node {u} has degree {deg}, expected 3")
        if self.params is not None:
            self.params.validate(self)

    @property
    def leaves(self) -> list[int]:
        return sorted(self.leaf_names)

    @property
    def hidden(self) -> list[int]:
        return sorted(set(self._adj) - set(self.leaf_names))

    @property
    def d(self) -> int:
        return len(self.leaf_names)

    def nodes(self) -> list[int]:
        return sorted(self._adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def is_leaf(self, v: int) -> bool:
        return v in self.leaf_names

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u, vs in self._adj.items() for v in vs if u < v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def path(self, u: int, v: int) -> list[int]:
        """Node sequence from u to v inclusive."""
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y in self._adj[x]:
                if y not in prev:
                    prev[y] = x
                    stack.append(y)
        if v not in prev:
            raise ModelError(f"no path between {u} and {v}")
        out = [v]
        while out[-1] != u:
            out.append(prev[out[-1]])
        return out[::-1]

    def component(self, start: int, blocked: int) -> set[int]:
        """Nodes reachable from ``start`` without passing through ``blocked``."""
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y != blocked and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def leaves_in(self, nodes: set[int]) -> list[int]:
        return sorted(x for x in nodes if x in self.leaf_names)

    def median(self, a: int, b: int, c: int) -> int:
        """The unique node lying on all three pairwise paths."""
        pab = set(self.path(a, b))
        for x in self.path(a, c):
            if x in pab and x in set(self.path(b, c)):
                return x
        raise ModelError("no median found (not a tree?)")

    # -- parameterized queries ---------------------------------------------

    def _require_params(self) -> TreeParameters:
        if self.params is None:
            raise ModelError("tree is not parameterized")
        return self.params

    def parent_order(self) -> list[tuple[int, int]]:
        """(parent, child) pairs in BFS order from the root."""
        return bfs_edges(self._adj, self._require_params().root)

    def node_marginal(self, v: int) -> np.ndarray:
        p = self._require_params()
        if not self._marginals:
            self._marginals[p.root] = np.asarray(p.root_marginal, dtype=float)
            for parent, child in self.parent_order():
                self._marginals[child] = p.cpts[(parent, child)] @ self._marginals[parent]
        return self._marginals[v]

    def edge_conditional(self, src: int, dst: int) -> np.ndarray:
        """P(dst | src) for adjacent nodes, in either direction."""
        p = self._require_params()
        if (src, dst) in p.cpts:
            return np.asarray(p.cpts[(src, dst)], dtype=float)
        if (dst, src) not in p.cpts:
            raise ModelError(f"{src} and {dst} are not adjacent")
        # Reverse P(src|dst) through the marginals.
        forward = np.asarray(p.cpts[(dst, src)], dtype=float)  # (src_states, dst_states)
        p_dst = self.node_marginal(dst)
        p_src = self.node_marginal(src)
        joint = forward * p_dst[None, :]  # (src, dst)
        out = np.zeros((joint.shape[1], joint.shape[0]))
        np.divide(joint.T, p_src[None, :], out=out, where=p_src[None, :] > 0)
        return out

    def path_transition(self, src: int, dst: int) -> np.ndarray:
        """P(dst | src) composed along the tree path."""
        nodes = self.path(src, dst)
        t = None
        for a, b in zip(nodes, nodes[1:]):
            step = self.edge_conditional(a, b)
            t = step if t is None else step @ t
        if t is None:  # src == dst
            k = self.node_marginal(src).shape[0]
            return np.eye(k)
        return t

    def edge_joint(self, u: int, v: int) -> np.ndarray:
        """P(u, v) for adjacent nodes, indexed (u_state, v_state)."""
        cond = self.edge_conditional(u, v)  # (v, u)
        return (cond * self.node_marginal(u)[None, :]).T


def quartet_tree(leaf_ids: Sequence[int], relation, names: Mapping[int, str] | None = None,
                 hidden_start: int | None = None) -> LatentTree:
    """Four-leaf tree whose cherries follow the given pairing of positions 1..4."""
    from .tensors import QuartetRelation

    a, b, c, d = leaf_ids
    (g1, g2) = QuartetRelation(relation).groups
    pos = {1: a, 2: b, 3: c, 4: d}
    h = (max(leaf_ids) + 1) if hidden_start is None else int(hidden_start)
    g = h + 1
    adj = {pos[g1[0]]: [h], pos[g1[1]]: [h], pos[g2[0]]: [g], pos[g2[1]]: [g],
           h: [pos[g1[0]], pos[g1[1]], g], g: [pos[g2[0]], pos[g2[1]], h]}
    if names is None:
        names = {i: f"X{i}" for i in leaf_ids}
    return LatentTree(adj, {i: names[i] for i in leaf_ids})


# ---------------------------------------------------------------------------
# Exact marginals
# ---------------------------------------------------------------------------


def _branch_nodes(tree: LatentTree, leaves: Sequence[int]) -> tuple[int, int, tuple]:
    """The two degree-3 nodes of the Steiner subtree of four leaves, with the
    leaves regrouped so that the first two hang off the first node."""
    from .resolvers import resolve_oracle

    rel = resolve_oracle(tree, leaves)
    (g1, g2) = rel.groups
    p, q = leaves[g1[0] - 1], leaves[g1[1] - 1]
    r, s = leaves[g2[0] - 1], leaves[g2[1] - 1]
    h = tree.median(p, q, r)
    g = tree.median(r, s, p)
    return h, g, (p, q, r, s)


def exact_quartet_distribution(tree: LatentTree, leaves: Sequence[int]) -> JointTensor4:
    """Exact joint probability table of four distinct leaves, axes in the given
    leaf order."""
    if len(set(leaves)) != 4:
        raise ModelError(f"need four distinct leaves, got {leaves}")
    tree._require_params()
    h, g, (p, q, r, s) = _branch_nodes(tree, leaves)
    t_p = tree.path_transition(h, p)
    t_q = tree.path_transition(h, q)
    t_r = tree.path_transition(g, r)
    t_s = tree.path_transition(g, s)
    trans = tree.path_transition(h, g)  # P(g_state | h_state)
    p_hg = (trans * tree.node_marginal(h)[None, :]).T  # (h, g)
    values = np.einsum("ah,bh,hg,cg,dg->abcd", t_p, t_q, p_hg, t_r, t_s)
    # Reorder axes from (p, q, r, s) back to the caller's leaf order.
    grouped = (p, q, r, s)
    perm = [grouped.index(x) for x in leaves]
    values = values.transpose(perm) if perm != [0, 1, 2, 3] else values
    total = values.sum()
    if abs(total - 1.0) > 1e-10:
        raise ModelError(f"quartet marginal sums to {total!r}, parameters inconsistent")
    return JointTensor4(values / total, kind="exact")


def pairwise_distribution(tree: LatentTree, i: int, j: int) -> np.ndarray:
    """Exact joint table P(X_i, X_j) of two distinct leaves."""
    if i == j:
        raise ModelError("pairwise distribution needs two distinct leaves")
    tree._require_params()
    anchor = tree.neighbors(i)[0]  # the hidden node a leaf hangs from
    t_i = tree.path_transition(anchor, i)
    t_j = tree.path_transition(anchor, j)
    return t_i @ np.diag(tree.node_marginal(anchor)) @ t_j.T


def marginal(tree: LatentTree, i: int) -> np.ndarray:
    """Exact marginal P(X_i) of a single node."""
    return tree.node_marginal(i)


def reroot(tree: LatentTree, new_root: int) -> LatentTree:
    """Equivalent parameterization oriented away from a different hidden root."""
    p = tree._require_params()
    if new_root not in tree.hidden:
        raise ModelError(f"{new_root} is not a hidden node")
    cpts = {(u, v): tree.edge_conditional(u, v)
            for u, v in bfs_edges(tree._adj, new_root)}
    params = TreeParameters(n=p.n, k=p.k, root=new_root,
                            root_marginal=tree.node_marginal(new_root), cpts=cpts)
    return LatentTree(tree._adj, tree.leaf_names, params=params)


# ---------------------------------------------------------------------------
# Sampling and empirical tables
# ---------------------------------------------------------------------------

_CSV_CHUNK_LINES = 16_384  # data lines per np.loadtxt call in SampleSet.from_csv


@dataclass
class SampleSet:
    """m rows of d discrete observations with 1-based states."""

    rows: np.ndarray
    variable_names: list[str]
    n_states: int

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("rows must be a nonempty m x d integer array")
        if rows.shape[1] != len(self.variable_names):
            raise ValueError("column count does not match variable names")
        if rows.min() < 1 or rows.max() > self.n_states:
            raise ValueError(f"states must lie in 1..{self.n_states}")
        self.rows = rows
        # Tables are counted from ``columns``, 0-based; cast, then shift: no int64 copy.
        self.columns = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(self.n_states))
        self.columns -= 1

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(self.variable_names) + "\n")
            np.savetxt(fh, self.rows, fmt="%d", delimiter=",")

    @classmethod
    def from_csv(cls, path) -> "SampleSet":
        """numpy parses chunks of data lines; a line loop reads on from one it refuses."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise ParseError("empty sample file", line=1)
            names = [s.strip() for s in header.split(",")]
            blocks = []
            while lines := list(islice(fh, _CSV_CHUNK_LINES)):
                data = [line for line in lines if line != "\n"]  # numpy warns on blanks
                try:  # numpy is stricter than int(); max_rows sizes its array once
                    block = np.loadtxt(data, delimiter=",", dtype=np.int64, ndmin=2,
                                       comments=None, max_rows=len(data)) if data else None
                except ValueError:
                    block = None
                if block is None or block.shape[1] != len(names):  # the loop reads the rest
                    start = 2 + len(blocks) * _CSV_CHUNK_LINES  # earlier chunks were full
                    block = _parse_csv_lines(chain(lines, fh), start, len(names))
                blocks.append(block)
        if not any(len(b) for b in blocks):
            raise ParseError("sample file has no data rows", line=2)
        arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        if arr.min() < 1:
            raise ParseError("states must be 1-based positive integers")
        return cls(rows=arr, variable_names=names, n_states=int(arr.max()))


def _parse_csv_lines(lines: Iterable[str], lineno: int, width: int) -> np.ndarray:
    """Sample rows, one ``int()`` per field, from lines numbered from ``lineno``."""
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        if not (line := line.strip()):
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"expected {width} fields, got {len(parts)}", line=lineno)
        try:
            rows.append([int(p) for p in parts])
        except ValueError:
            raise ParseError("non-integer state value", line=lineno) from None
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        raise ParseError("state value does not fit in a 64-bit integer") from None


def sample(tree: LatentTree, m: int, seed) -> SampleSet:
    """m i.i.d. ancestral samples of the observed leaves; deterministic per seed."""
    p = tree._require_params()
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    states = {}
    root_pm = np.asarray(p.root_marginal, dtype=float)
    states[p.root] = rng.choice(p.k, size=m, p=root_pm / root_pm.sum())
    for parent, child in tree.parent_order():
        cum = np.cumsum(p.cpts[(parent, child)], axis=0)  # (child_states, parent_states)
        cum[-1, :] = 1.0
        u = rng.random(m)
        states[child] = (u[:, None] < cum.T[states[parent]]).argmax(axis=1)
    leaves = tree.leaves
    rows = np.stack([states[v] + 1 for v in leaves], axis=1)
    return SampleSet(rows=rows,
                     variable_names=[tree.leaf_names[v] for v in leaves],
                     n_states=p.n)


def _frequencies(samples: SampleSet, idx: tuple[int, ...], n: int | None) -> np.ndarray:
    """Relative-frequency table of columns ``idx``, one axis of length n each."""
    if min(idx) < 0 or max(idx) >= samples.d:
        raise ValueError(f"column index out of range 0..{samples.d - 1}")
    n = samples.n_states if n is None else int(n)
    cols = samples.columns[list(idx)]
    # Stored states are below n_states; only a smaller n needs a scan.
    if n < samples.n_states and cols.max() >= n:
        raise ValueError(f"state out of range 1..{n} in selected columns")
    flat = cols[0].astype(np.intp)  # the flat index overflows the store's dtype
    for c in cols[1:]:
        flat = flat * n + c
    return np.bincount(flat, minlength=n ** len(idx)).reshape((n,) * len(idx)) / samples.m


def empirical_quartet_tensor(samples: SampleSet, idx: Sequence[int],
                             n: int | None = None) -> JointTensor4:
    """Relative-frequency 4-way table of four sample columns; no smoothing."""
    idx = tuple(int(i) for i in idx)
    if len(idx) != 4 or len(set(idx)) != 4:
        raise ValueError(f"need four distinct column indices, got {idx}")
    return JointTensor4(_frequencies(samples, idx, n), kind="empirical")


def empirical_pairwise(samples: SampleSet, i: int, j: int,
                       n: int | None = None) -> np.ndarray:
    """Relative-frequency pairwise table of two sample columns."""
    if i == j:
        raise ValueError("need two distinct column indices")
    return _frequencies(samples, (int(i), int(j)), n)
