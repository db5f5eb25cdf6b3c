"""Latent trees over discrete variables: topology, parameters, exact marginals,
ancestral sampling, and empirical tables.

A tree is unrooted: observed variables are degree-1 leaves, hidden variables
have degree exactly 3.  Parameters, when present, orient every edge away from
a designated root hidden node and attach a column-stochastic conditional table
to each directed edge, plus a marginal for the root.  States are 1-based in
all user-facing data (samples, CSV); arrays are 0-based internally.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import InitVar, dataclass
from itertools import groupby
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
        edges = set(tree.parent_order())
        missing, stray = sorted(edges - set(self.cpts)), sorted(set(self.cpts) - edges)
        if missing or stray:
            raise ModelError(f"CPT edges must point away from root {self.root}: "
                             f"missing cpt for {missing}, stray cpt for {stray}")
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
        # The one orientation, from the parameter root or else the lowest id: its edges
        # are parent_order(), and every path query climbs its parents and depths.
        root = self.params.root if self.params and self.params.root in adj else min(nodes)
        self._edges = tuple(bfs_edges(adj, root))
        self._parent, self._depth = {}, {root: 0}
        for parent, child in self._edges:
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

    def distance(self, u: int, v: int) -> int:
        """Number of edges on the path between u and v."""
        parent, depth = self._parent, self._depth
        if u not in depth or v not in depth:
            raise ModelError(f"no path between {u} and {v}")
        du, dv = depth[u], depth[v]
        while u != v:  # climb whichever side is deeper until the two meet
            if depth[u] >= depth[v]:
                u = parent[u]
            else:
                v = parent[v]
        return du + dv - 2 * depth[u]

    # -- parameterized queries ---------------------------------------------

    def _require_params(self) -> TreeParameters:
        if self.params is None:
            raise ModelError("tree is not parameterized")
        return self.params

    def parent_order(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) pairs in BFS order from the parameter root, else the lowest id."""
        return self._edges

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

_CSV_CHUNK_CHARS = 2 ** 16  # characters per block of lines in SampleSet.from_csv
_CSV_WRITE_ENTRIES = 2 ** 16  # states per block of rows in SampleSet.to_csv
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
        if rows.dtype.kind not in "iu" or rows.ndim != 2 or rows.shape[0] < 1:  # astype truncates
            raise ValueError(f"rows must be a nonempty m x d integer array, got shape "
                             f"{rows.shape} and dtype {rows.dtype}")
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
        row, step = ",".join(["%d"] * self.d) + "\n", max(1, _CSV_WRITE_ENTRIES // self.d)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(self.variable_names) + "\n")
            for block in np.split(self.columns.T, range(step, self.m, step)):
                fh.write(row * len(block) % tuple((block + 1).ravel().tolist()))  # = np.savetxt

    @classmethod
    def from_csv(cls, path) -> "SampleSet":
        """Blocks of whole lines, about ``_CSV_CHUNK_CHARS`` characters, go to ``_parse_digits``,
        else ``np.loadtxt``; one both refuse, or with a state below 1, goes to the line loop."""
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not a name
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
            blocks, lineno = [], 2
            while lines := fh.readlines(_CSV_CHUNK_CHARS):
                data = [line for line in lines if line != "\n"]  # numpy warns on blanks
                block = _parse_digits("".join(data), len(names))
                with suppress(ValueError):  # numpy is stricter than int()
                    if block is None and data:  # max_rows sizes numpy's array once
                        block = np.loadtxt(data, delimiter=",", dtype=np.int64, ndmin=2,
                                           comments=None, max_rows=len(data))
                if block is None or block.shape[1] != len(names) or block.min(initial=1) < 1:
                    block = _parse_csv_lines(lines, lineno, len(names))
                lineno += len(lines)  # each block is narrowed: no int64 copy of the file is kept
                blocks.append(block.astype(np.min_scalar_type(block.max(initial=1)), copy=False))
        if not any(len(b) for b in blocks):
            raise ParseError("sample file has no data rows", line=2)
        arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return cls(rows=arr, variable_names=names, n_states=int(arr.max()))


def _parse_digits(text: str, width: int) -> np.ndarray | None:
    """Rows of ``text`` if each line is ``width`` comma-separated runs of 1 or 2 ASCII digits,
    else None: the two bytes before each field's end are its tens and units, a separator as 0."""
    pad = 3  # newlines ahead of the first field keep every gather in range; "?" is no digit
    b = np.frombuffer(("\n" * pad + text.rstrip("\n") + "\n").encode("ascii", "replace"), "u1")
    rows = np.count_nonzero(b == 10) - pad  # byte counts refuse most other spellings cheaply
    if (b.max() > 57 or np.count_nonzero(b < 48) != pad + rows * width
            or np.count_nonzero(b == 44) != rows * (width - 1)):
        return None
    stops = np.flatnonzero(b[pad - 1:] < 48)  # the last pad newline, then each field's end
    ends, gaps = stops[1:], np.diff(stops)  # a gap is one more than its field's digits
    if not 2 <= gaps.min() <= gaps.max() <= 3 or (b[pad - 1:].take(stops[::width]) != 10).any():
        return None
    values = (np.maximum(b[pad - 3:].take(ends), 48) - 48) * 10 + b[pad - 2:].take(ends) - 48
    return values.reshape(rows, width)


def _parse_csv_lines(lines: Iterable[str], lineno: int, width: int) -> np.ndarray:
    """Rows of ``lines``, numbered from ``lineno``, one ``int()`` per field; the first line with
    the wrong field count, a field ``int()`` refuses or a state outside 1..2^63 - 1 is named."""
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        if not (line := line.strip()):
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"expected {width} fields, got {len(parts)}", line=lineno)
        try:
            rows.append(row := [int(p) for p in parts])
        except ValueError:
            raise ParseError("non-integer state value", line=lineno) from None
        if not 0 < min(row) <= max(row) < 2 ** 63:
            raise ParseError("states must be 1-based positive integers" if min(row) < 1 else
                             "state value does not fit in a 64-bit integer", line=lineno)
    return np.array(rows, dtype=np.int64).reshape(-1, width)


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
            drawn = _inverse_cdf(p.cpts[(parent, child)], above, rng.random(m))
            if child in row:
                store[row[child]] = drawn
            else:
                states[child] = drawn
    return SampleSet(rows=store.T + 1, variable_names=[tree.leaf_names[v] for v in leaves],
                     n_states=p.n)


def _inverse_cdf(cpt, parent_states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per sample, the first child state whose cumulative sum down column
    ``parent_states[i]`` of ``cpt`` exceeds u[i], the last state's sum counting as 1.0.
    The sums never decrease, so that is the count of the other states' sums at most
    u[i]: a binary search without branches, over each column padded with +inf to
    2^p - 1 entries, counts them for all samples at once."""
    cum = np.cumsum(cpt, axis=0)  # (child_states, parent_states)
    width = (1 << (len(cum) - 1).bit_length()) - 1
    table = np.full((cum.shape[1], width), np.inf)
    table[:, :len(cum) - 1] = cum[:-1].T
    start = parent_states * width - 1  # just before each sample's column
    pos = start.copy()
    step = (width + 1) // 2
    while step:
        pos += step * (u >= table.ravel().take(pos + step))
        step //= 2
    return pos - start


def _flat_code(codes: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """One code of ``codes``, each below its size, the first most significant, built in place
    on a copy of ``codes[0]`` in the smallest unsigned dtype holding prod(sizes) - 1
    (``intp`` past 4 bytes)."""
    dtype = np.min_scalar_type(math.prod(sizes) - 1)
    flat = codes[0].astype(dtype if dtype.itemsize <= 4 else np.intp)
    for code, size in zip(codes[1:], sizes[1:]):
        flat *= size
        flat += code
    return flat


def _counts(codes: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """Integer joint table of ``codes``, one axis per code, from one ``np.bincount``."""
    return np.bincount(_flat_code(codes, sizes), minlength=math.prod(sizes)).reshape(sizes)


def _frequencies(samples: SampleSet, idx: tuple[int, ...]) -> np.ndarray:
    """Relative-frequency table of columns ``idx``, one axis of length n_states each."""
    if min(idx) < 0 or max(idx) >= samples.d:
        raise ValueError(f"column index out of range 0..{samples.d - 1}")
    return _counts([samples.columns[i] for i in idx], (samples.n_states,) * len(idx)) / samples.m


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


def empirical_pairwise_stack(samples: SampleSet) -> np.ndarray:
    """``empirical_pairwise(samples, i, j)`` for every i < j, stacked in ``np.triu_indices``
    order, bit for bit: both kernels count exactly and divide each count by m in float64.

    The one-hot kernel costs (d·n)^2 multiply-adds per sample; the column-pair kernel
    makes d^2/8 ``np.bincount`` passes over the samples into tables of n^4 counts, which
    pays when states are many and m fills the tables.  The rule, from n and m only: column
    pairs when n >= 7 and m >= n^4, else one-hot.  Median stack times in two runs on a
    2-vCPU machine with 2 OpenBLAS threads, d = 32 and 64, n = 4..10, m = 2,000, 20,000 and
    50,000 (``BENCH_27.json``): where the rule picks column pairs (n >= 7, m >= 20,000)
    they were 1.2 to 3.7x faster.  One-hot was 1.7 to 5x faster at m = 2,000 and up to
    1.5x faster at d = 64 with n = 4, or n = 5 and m = 20,000; the two were within 1.15x
    at d = 64, n = 6, m = 20,000.  Column pairs also won at n = 5 and 6 with d = 32 and
    m >= 20,000 (1.2 to 2.0x) or d = 64 and m = 50,000 (1.1 to 1.6x): d is not in the rule."""
    n, m = samples.n_states, samples.m
    return (_column_pair_stack if n >= 7 and m >= n ** 4 else _one_hot_stack)(samples)


def triu_row(d: int, i: int, j: int) -> int:
    """The row of pair i < j of d variables in ``np.triu_indices(d, 1)`` order."""
    return i * (2 * d - i - 3) // 2 + j - 1


def _one_hot_stack(samples: SampleSet) -> np.ndarray:
    """The stack counted as ``x @ x.T`` of a float32 one-hot ``x``, one block of samples
    at a time.  float32 sums of ones are exact below 2^24 samples; float64 past that."""
    d, n, m = samples.d, samples.n_states, samples.m
    counts = np.zeros((d * n, d * n), dtype=np.float32 if m < 2 ** 24 else np.float64)
    step = max(1, _ONE_HOT_ENTRIES // (d * n))
    for start in range(0, m, step):
        x = samples.columns[:, None, start:start + step] == np.arange(n)[:, None]
        x = x.reshape(d * n, -1).astype(np.float32)
        counts += x @ x.T
    i, j = np.triu_indices(d, 1)
    counts = counts.reshape(d, n, d, n)[i, :, j, :]  # frees the (d*n)^2 matrix first
    return np.divide(counts, m, dtype=np.float64)


def _column_pair_stack(samples: SampleSet) -> np.ndarray:
    """The stack from the columns in groups (0, 1), (2, 3), ..., an odd last column alone:
    one integer joint table per two groups, summed into its cross pairs, and one table of
    each pair group's own code.  Counts go straight into the float64 stack; besides it, it holds
    the groups' codes (one byte per group and sample for n <= 16) and one joint table with
    its flat code at a time."""
    d, n, m = samples.d, samples.n_states, samples.m
    pairs = [(c, c + 1) for c in range(0, d - 1, 2)]
    groups = pairs + [(d - 1,)] * (d % 2)
    columns = samples.columns
    codes = [*_flat_code((columns[0:d - 1:2], columns[1:d:2]), (n, n))] + [columns[-1]] * (d % 2)
    out = np.empty((d * (d - 1) // 2, n, n))
    for g, (a, b) in enumerate(pairs):
        out[triu_row(d, a, b)] = _counts([codes[g]], (n * n,)).reshape(n, n)
        for other, theirs in zip(codes[g + 1:], groups[g + 1:]):
            table = _counts([codes[g], other], (n * n, n ** len(theirs)))
            table = table.reshape((n,) * (2 + len(theirs)))
            for i, part in ((a, table.sum(axis=1)), (b, table.sum(axis=0))):
                for q, j in enumerate(theirs):  # part's axes: i, then theirs
                    out[triu_row(d, i, j)] = part.sum(axis=2 - q) if len(theirs) == 2 else part
    out /= m  # exact counts, each divided once as in empirical_pairwise
    return out
