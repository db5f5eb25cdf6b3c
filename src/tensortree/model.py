"""Latent trees over discrete variables: topology, parameters, exact marginals,
ancestral sampling, and empirical tables.

A tree is unrooted: observed variables are degree-1 leaves, hidden variables
have degree exactly 3.  Parameters, when present, orient every edge away from
a designated root hidden node and attach a column-stochastic conditional table
to each directed edge, plus a marginal for the root.  States are 1-based in
all user-facing data (samples, CSV); arrays are 0-based internally.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import chain, groupby, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import ModelError, ParseError
from .tensors import JointTensor4, QuartetRelation


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
        # The one orientation every path query climbs: parents and depths from the lowest id.
        root = min(nodes)
        self._parent, self._depth = {}, {root: 0}
        for parent, child in bfs_edges(adj, root):
            self._parent[child] = parent
            self._depth[child] = self._depth[parent] + 1
        if len(self._depth) != len(nodes):
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

    def bfs_edges(self, root: int) -> list[tuple[int, int]]:
        """(parent, child) pairs of the tree oriented away from ``root``."""
        return bfs_edges(self._adj, root)

    def path(self, u: int, v: int) -> list[int]:
        """Node sequence from u to v inclusive."""
        parent, depth = self._parent, self._depth
        if u not in depth or v not in depth:
            raise ModelError(f"no path between {u} and {v}")
        up, down = [u], [v]  # climb whichever side is deeper until the two meet
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        return up + down[-2::-1]

    # -- parameterized queries ---------------------------------------------

    def _require_params(self) -> TreeParameters:
        if self.params is None:
            raise ModelError("tree is not parameterized")
        return self.params

    def parent_order(self) -> list[tuple[int, int]]:
        """(parent, child) pairs in BFS order from the root."""
        return self.bfs_edges(self._require_params().root)

    def node_marginal(self, v: int) -> np.ndarray:
        p = self._require_params()
        if not self._marginals:
            self._marginals[p.root] = np.asarray(p.root_marginal, dtype=float)
            for parent, child in self.parent_order():
                self._marginals[child] = p.cpts[(parent, child)] @ self._marginals[parent]
        return self._marginals[v]


def quartet_tree(leaf_ids: Sequence[int], relation, names: Mapping[int, str] | None = None,
                 hidden_start: int | None = None) -> LatentTree:
    """Four-leaf tree whose cherries follow the given pairing of positions 1..4."""
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


def _exact_joint(tree: LatentTree, leaves: Sequence[int]) -> np.ndarray:
    """Exact joint table of distinct leaves, axes in the given order, from one
    pass up the tree.  Each node's table holds P(chosen leaves below it | its
    state): axis 0 is the node's state, the other axis runs over the chosen
    leaves below it jointly.  A subtree without a chosen leaf is skipped."""
    p = tree._require_params()
    if not all(map(tree.is_leaf, leaves)):
        raise ModelError(f"not all of {tuple(leaves)} are leaves")
    tables = {v: np.eye(p.n) for v in leaves}
    below = {v: [v] for v in leaves}  # the chosen leaves behind each table's flat axis
    for parent, child in reversed(tree.parent_order()):
        if child not in tables:
            continue
        cpt = p.cpts[(parent, child)]
        up = cpt.T @ tables.pop(child)  # sums out the child's state
        if parent in tables:
            mine = tables[parent]
            up = (mine[:, :, None] * up[:, None, :]).reshape(len(mine), -1)
        tables[parent] = up
        below[parent] = below.get(parent, []) + below.pop(child)
    joint = (p.root_marginal @ tables[p.root]).reshape((p.n,) * len(leaves))
    order = below[p.root]
    return joint.transpose([order.index(v) for v in leaves])


def exact_quartet_distribution(tree: LatentTree, leaves: Sequence[int]) -> JointTensor4:
    """Exact joint probability table of four distinct leaves, axes in the given
    leaf order."""
    if len(set(leaves)) != 4:
        raise ModelError(f"need four distinct leaves, got {leaves}")
    values = _exact_joint(tree, leaves)
    total = values.sum()
    if abs(total - 1.0) > 1e-10:
        raise ModelError(f"quartet marginal sums to {total!r}, parameters inconsistent")
    return JointTensor4(values / total)


def pairwise_distribution(tree: LatentTree, i: int, j: int) -> np.ndarray:
    """Exact joint table P(X_i, X_j) of two distinct leaves."""
    if i == j:
        raise ModelError("pairwise distribution needs two distinct leaves")
    return _exact_joint(tree, (i, j))


# ---------------------------------------------------------------------------
# Sampling and empirical tables
# ---------------------------------------------------------------------------

_CSV_CHUNK_LINES = 16_384  # data lines per np.loadtxt call in SampleSet.from_csv
_ONE_HOT_ENTRIES = 2 ** 19  # float32 entries (2 MiB) per block of empirical_pairwise_stack
NEWICK_RESERVED = frozenset("(),;: \t\n")  # characters no leaf or variable name may hold


@dataclass(eq=False)
class SampleSet:
    """m samples of d discrete observations, kept only as 0-based ``columns``."""

    rows: InitVar[np.ndarray]
    variable_names: list[str]
    n_states: int

    def __post_init__(self, rows):
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("rows must be a nonempty m x d integer array")
        if rows.shape[1] != len(self.variable_names):
            raise ValueError("column count does not match variable names")
        if rows.min() < 1 or rows.max() > self.n_states:
            raise ValueError(f"states must lie in 1..{self.n_states}")
        self.columns = rows.T.astype(np.min_scalar_type(self.n_states), order="C")
        self.columns -= 1  # astype copied: the caller's rows are never shifted

    @property
    def m(self) -> int:
        return self.columns.shape[1]

    @property
    def d(self) -> int:
        return self.columns.shape[0]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(self.variable_names) + "\n")
            np.savetxt(fh, self.columns.T + 1, fmt="%d", delimiter=",")

    @classmethod
    def from_csv(cls, path) -> "SampleSet":
        """numpy parses chunks of data lines; a line loop reads on from one it refuses."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise ParseError("empty sample file", line=1)
            names = [s.strip() for s in header.split(",")]
            seen = set()
            for name in names:  # each name becomes a Newick leaf label
                problem = ("is empty" if not name else "is repeated" if name in seen else
                           "holds ( ) ; : or whitespace" if set(name) & NEWICK_RESERVED else "")
                if problem:
                    raise ParseError(f"variable name {name!r} {problem}", line=1)
                seen.add(name)
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
                if block.min(initial=1) >= 1:  # narrowed now, no int64 copy of the file is kept
                    block = block.astype(np.min_scalar_type(block.max(initial=1)))
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
    """m i.i.d. ancestral samples of the observed leaves; deterministic per seed.
    Leaf draws go straight into the column store; a hidden node's states are kept
    only until its children, which ``parent_order`` lists together, are drawn."""
    p = tree._require_params()
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    leaves = tree.leaves
    row = {v: i for i, v in enumerate(leaves)}
    store = np.empty((len(leaves), m), dtype=np.min_scalar_type(p.n))  # 0-based states
    root_pm = np.asarray(p.root_marginal, dtype=float)
    states = {p.root: rng.choice(p.k, size=m, p=root_pm / root_pm.sum())}
    for parent, edges in groupby(tree.parent_order(), key=lambda edge: edge[0]):
        above = states.pop(parent)
        for _, child in edges:
            cum = np.cumsum(p.cpts[(parent, child)], axis=0)  # (child_states, parent_states)
            cum[-1, :] = 1.0
            drawn = (rng.random(m)[:, None] < cum.T[above]).argmax(axis=1)
            if child in row:
                store[row[child]] = drawn
            else:
                states[child] = drawn
    return SampleSet(rows=store.T + 1, variable_names=[tree.leaf_names[v] for v in leaves],
                     n_states=p.n)


def _frequencies(samples: SampleSet, idx: tuple[int, ...]) -> np.ndarray:
    """Relative-frequency table of columns ``idx``, one axis of length n_states each."""
    if min(idx) < 0 or max(idx) >= samples.d:
        raise ValueError(f"column index out of range 0..{samples.d - 1}")
    n = samples.n_states
    cols = samples.columns[list(idx)]
    flat = cols[0].astype(np.intp)  # the flat index overflows the store's dtype
    for c in cols[1:]:
        flat = flat * n + c
    return np.bincount(flat, minlength=n ** len(idx)).reshape((n,) * len(idx)) / samples.m


def empirical_quartet_tensor(samples: SampleSet, idx: Sequence[int]) -> JointTensor4:
    """Relative-frequency 4-way table of four sample columns; no smoothing."""
    idx = tuple(int(i) for i in idx)
    if len(idx) != 4 or len(set(idx)) != 4:
        raise ValueError(f"need four distinct column indices, got {idx}")
    return JointTensor4(_frequencies(samples, idx))


def empirical_pairwise(samples: SampleSet, i: int, j: int) -> np.ndarray:
    """Relative-frequency pairwise table of two sample columns."""
    if i == j:
        raise ValueError("need two distinct column indices")
    return _frequencies(samples, (int(i), int(j)))


def empirical_pairwise_stack(samples: SampleSet, i, j) -> np.ndarray:
    """The tables ``empirical_pairwise(samples, i[t], j[t])`` as one (k, n, n) stack,
    all counted as ``x @ x.T`` of a float32 one-hot ``x``, one block of samples at
    a time.  float32 sums of ones are exact below 2^24 samples; float64 past that."""
    d, n, m = samples.d, samples.n_states, samples.m
    counts = np.zeros((d * n, d * n), dtype=np.float32 if m < 2 ** 24 else np.float64)
    step = max(1, _ONE_HOT_ENTRIES // (d * n))
    for start in range(0, m, step):
        x = samples.columns[:, None, start:start + step] == np.arange(n)[:, None]
        x = x.reshape(d * n, -1).astype(np.float32)
        counts += x @ x.T
    return np.divide(counts.reshape(d, n, d, n)[i, :, j, :], m, dtype=np.float64)
