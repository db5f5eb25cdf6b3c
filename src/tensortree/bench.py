"""Synthetic model generation, recovery diagnostics, and benchmark harnesses.

Models follow the protocol used throughout the experiments: observation
tables start from (rectangular) identity matrices, hidden-to-hidden tables
start from independence, and every column is perturbed by adding iid
Uniform[0, mu] noise and renormalizing.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .builder import build_tree
from .exceptions import ModelError, TensorTreeError
from .metrics import robinson_foulds
from .model import (LatentTree, SampleSet, TreeParameters, empirical_pairwise,
                    empirical_pairwise_stack, empirical_quartet_tensor,
                    exact_quartet_distribution, sample, triu_row)
from .nj import INFINITE_SENTINEL, distance_matrix, neighbor_join
from .resolvers import (PAIR_KEYS, four_point, resolve_nuclear, resolve_oracle,
                        resolve_spectral_k)
# Unused here, but perfbench/tracing.py patches this name on this module.
from .nj import additive_distance  # noqa: F401
from .tensors import JointTensor4, QuartetRelation, nuclear_norm, unfold

# ---------------------------------------------------------------------------
# CPT generation
# ---------------------------------------------------------------------------


def perturb_stochastic(base: np.ndarray, mu: float, seed) -> np.ndarray:
    """Add iid Uniform[0, mu] noise to every entry and renormalize columns."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    base = np.asarray(base, dtype=float)
    if mu == 0:
        return base.copy()
    rng = np.random.default_rng(seed)
    noisy = base + rng.uniform(0.0, mu, size=base.shape)
    return noisy / noisy.sum(axis=0, keepdims=True)


def perturbed_cpt(rows: int, cols: int, mu: float, seed) -> np.ndarray:
    """Rectangular identity base, rows >= cols, with Uniform[0, mu] perturbation."""
    if cols > rows:
        raise ValueError(f"identity base needs rows >= cols, got {rows} x {cols}")
    return perturb_stochastic(np.eye(rows)[:, :cols], mu, seed)


# ---------------------------------------------------------------------------
# Single-edge quartet models (hidden cardinalities may differ)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuartetModel:
    """Four observed variables hanging pairwise off two adjacent hidden nodes.

    The true pairing is always {{1,2},{3,4}} (``QuartetRelation.PAIR_12_34``):
    variables 1 and 2 attach to the first hidden node, 3 and 4 to the second.
    """

    joint_hidden: np.ndarray  # (k_h, k_g), sums to 1
    obs_cpts: tuple  # four tables: two n x k_h, two n x k_g

    @property
    def k_h(self) -> int:
        return self.joint_hidden.shape[0]

    @property
    def k_g(self) -> int:
        return self.joint_hidden.shape[1]

    @property
    def n(self) -> int:
        return self.obs_cpts[0].shape[0]

    def hidden_marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.joint_hidden.sum(axis=1), self.joint_hidden.sum(axis=0)

    def exact_tensor(self) -> JointTensor4:
        p1, p2, p3, p4 = self.obs_cpts
        values = np.einsum("ah,bh,hg,cg,dg->abcd", p1, p2, self.joint_hidden, p3, p4)
        return JointTensor4(values / values.sum())


def pairwise_tables(tensor: JointTensor4) -> np.ndarray:
    """The six pairwise marginals of a 4-way table as a (6, n, n) stack in
    ``PAIR_KEYS`` order."""
    drops = [tuple(a for a in range(4) if a not in (i - 1, j - 1)) for i, j in PAIR_KEYS]
    return np.stack([tensor.values.sum(axis=drop) for drop in drops])


def random_quartet_model(k_h: int, k_g: int, n: int, mu: float, seed) -> QuartetModel:
    """Perturbed-identity observations over a perturbed-independent hidden edge."""
    rng = np.random.default_rng(seed)
    p_h = perturb_stochastic(np.full((k_h, 1), 1.0 / k_h), mu, rng)[:, 0]
    g_given_h = perturb_stochastic(np.full((k_g, k_h), 1.0 / k_g), mu, rng)
    joint = (g_given_h * p_h[None, :]).T
    obs = (perturbed_cpt(n, k_h, mu, rng), perturbed_cpt(n, k_h, mu, rng),
           perturbed_cpt(n, k_g, mu, rng), perturbed_cpt(n, k_g, mu, rng))
    return QuartetModel(joint_hidden=joint, obs_cpts=obs)


# ---------------------------------------------------------------------------
# Tree-structured models
# ---------------------------------------------------------------------------


def random_topology(d: int, beta: float, seed) -> LatentTree:
    """Binary latent tree over d leaves grown by recursive group splitting.

    Each group of size g >= 4 is permuted and splits into sizes
    clamp(round(beta*g), 2, g-2) and the rest; groups of 2 or 3 split off one
    leaf.  A hidden node joins the two parts of every split.  The recursion
    runs on an explicit stack: permutations are drawn in left-first pre-order
    and hidden ids given in post-order.
    """
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    rng = np.random.default_rng(seed)
    adj: dict[int, list[int]] = {i: [] for i in range(d)}
    parts = []  # roots of the finished subtrees
    stack = [list(range(d))]  # groups to grow; None joins the last two parts
    while stack:
        group = stack.pop()
        if group is None:
            right, left = parts.pop(), parts.pop()
            h = len(adj)  # hidden ids run from d upward
            adj[h] = [left, right]
            adj[left].append(h)
            adj[right].append(h)
            parts.append(h)
        elif len(group) == 1:
            parts.append(group[0])
        else:
            group = list(rng.permutation(group))
            g = len(group)
            s = 1 if g <= 3 else int(min(max(round(beta * g), 2), g - 2))
            stack += [None, group[s:], group[:s]]
    root = parts.pop()
    a, b = adj.pop(root)
    adj[a] = [x if x != root else b for x in adj[a]]
    adj[b] = [x if x != root else a for x in adj[b]]
    return LatentTree(adj, {i: f"X{i}" for i in range(d)})


def parameterize(tree: LatentTree, n: int, k: int, mu: float, seed,
                 hidden_base: str = "independent") -> LatentTree:
    """Attach CPTs: perturbed identity for leaf edges, perturbed hidden edges,
    rooted at the lowest-id hidden node.

    ``hidden_base`` selects the base table for hidden-to-hidden edges:
    ``"independent"`` (uniform columns; dependence scales with mu and vanishes
    at mu=0) or ``"identity"`` (strongly dependent chains, useful when samples
    must carry enough signal to recover deep trees).
    """
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    if hidden_base not in ("independent", "identity"):
        raise ValueError(f"unknown hidden_base {hidden_base!r}")
    rng = np.random.default_rng(seed)
    adj = {u: tree.neighbors(u) for u in tree.nodes()}
    root = min(tree.hidden)
    cpts = {}
    for u, v in tree.bfs_edges(root):
        if tree.is_leaf(v):
            cpts[(u, v)] = perturbed_cpt(n, k, mu, rng)
        elif hidden_base == "identity":
            cpts[(u, v)] = perturbed_cpt(k, k, mu, rng)
        else:
            cpts[(u, v)] = perturb_stochastic(np.full((k, k), 1.0 / k), mu, rng)
    marginal = perturb_stochastic(np.full((k, 1), 1.0 / k), mu, rng)[:, 0]
    params = TreeParameters(n=n, k=k, root=root, root_marginal=marginal, cpts=cpts)
    return LatentTree(adj, tree.leaf_names, params=params)


def random_tree_model(d: int, beta: float, n: int, k: int, mu: float, seed,
                      hidden_base: str = "independent") -> LatentTree:
    rng = np.random.default_rng(seed)
    return parameterize(random_topology(d, beta, rng), n, k, mu, rng,
                        hidden_base=hidden_base)


# ---------------------------------------------------------------------------
# Recovery diagnostics
# ---------------------------------------------------------------------------


# Quartet tests per build, in units of d log2(d), that the tree bound assumes.
BUILDER_CALL_CONSTANT = 4.0


@dataclass(frozen=True)
class RecoveryDiagnostics:
    """Population quantities governing when the nuclear quartet test succeeds.

    ``theta_min``: smallest excess of the wrong-grouping nuclear norms over the
    correct one in the independent-hidden surrogate.  ``gamma_min``: smallest
    entry of any hidden-node marginal.  ``alpha_min``: smallest nuclear-norm
    score gap of the actual population unfoldings.  ``delta``: largest
    Frobenius deviation of a hidden-edge joint from independence.
    """

    theta_min: float
    gamma_min: float
    alpha_min: float
    delta: float
    k: int
    d: int
    margins_preserved_ok: bool  # per-edge deviations have zero row/column sums
    edge_bound_ok: bool         # delta <= theta_min / (k^2 + k)
    combined_bound_ok: bool     # delta <= min(theta_min / (k^2 + k), gamma_min)

    def _success_bound(self, m: int, tests: float) -> float:
        """1 - 8 tests exp(-m alpha_min^2 / 32), capped at 0 (no guarantee) if alpha_min <= 0."""
        bound = 1.0 - 8.0 * tests * math.exp(-m * self.alpha_min ** 2 / 32.0)
        return bound if self.alpha_min > 0 else min(bound, 0.0)

    def quartet_success_bound(self, m: int) -> float:
        """Lower bound on the single-test success probability at m samples."""
        return self._success_bound(m, 1.0)

    def tree_success_bound(self, m: int) -> float:
        """Lower bound on whole-tree recovery probability at m samples."""
        return self._success_bound(m, BUILDER_CALL_CONSTANT * self.d * math.log2(self.d))


def _quartet_gaps(tensor: JointTensor4) -> tuple[float, float]:
    """(theta, alpha) of a tensor whose true pairing is 12|34.  theta is the
    surrogate gap from its pairwise tables P12 and P34 alone: the surrogate's wrong
    unfoldings are Kronecker products of the two, whose singular values multiply.
    alpha, the score gap of the unfoldings, reads SVD scores: resolve_nuclear's
    Gram scores may differ in the last digits that diagnose prints."""
    p12, p34 = pairwise_tables(tensor)[[0, 5]]
    theta = nuclear_norm(p12) * nuclear_norm(p34) - np.linalg.norm(p12) * np.linalg.norm(p34)
    right, *wrong = (nuclear_norm(unfold(tensor, rel)) for rel in QuartetRelation)
    return theta, min(wrong) - right


def diagnostics(model, max_quartets: int | None = None, seed=0) -> RecoveryDiagnostics:
    """Recovery diagnostics of a single-edge quartet model or a parameterized
    latent tree.  ``max_quartets`` subsamples the quartet set for large trees."""
    if isinstance(model, QuartetModel):
        return _diagnostics_quartet(model)
    if isinstance(model, LatentTree):
        return _diagnostics_tree(model, max_quartets, seed)
    raise TypeError(f"unsupported model type {type(model)!r}")


def _assemble(theta_min, gamma_min, alpha_min, deltas, k, d) -> RecoveryDiagnostics:
    delta = max(float(np.linalg.norm(dl)) for dl in deltas)
    edge_ok = delta <= theta_min / (k ** 2 + k)
    return RecoveryDiagnostics(
        theta_min=float(theta_min), gamma_min=float(gamma_min),
        alpha_min=float(alpha_min), delta=delta, k=int(k), d=int(d),
        margins_preserved_ok=all(max(np.max(np.abs(dl.sum(axis=0))),
                                     np.max(np.abs(dl.sum(axis=1)))) <= 1e-10 for dl in deltas),
        edge_bound_ok=edge_ok,
        combined_bound_ok=edge_ok and delta <= gamma_min)


def _diagnostics_quartet(model: QuartetModel) -> RecoveryDiagnostics:
    p_h, p_g = model.hidden_marginals()
    delta = model.joint_hidden - np.outer(p_h, p_g)
    theta, alpha = _quartet_gaps(model.exact_tensor())
    k = max(model.k_h, model.k_g)
    return _assemble(theta, min(p_h.min(), p_g.min()), alpha, [delta], k, 4)


def _quartets(leaves, max_quartets, seed):
    """4-subsets of ``leaves`` in lexicographic order: all of them, or
    ``max_quartets`` drawn by rank, so the C(d, 4) subsets are never listed."""
    total = math.comb(len(leaves), 4)
    if max_quartets is None or total <= max_quartets:
        yield from itertools.combinations(leaves, 4)
        return
    ranks = np.random.default_rng(seed).choice(total, size=max_quartets, replace=False)
    for rank in sorted(ranks.tolist()):
        quartet, i = [], 0
        while len(quartet) < 4:  # C(d - i - 1, 3 - len) subsets take leaves[i] next
            block = math.comb(len(leaves) - i - 1, 3 - len(quartet))
            if rank < block:
                quartet.append(leaves[i])
            else:
                rank -= block
            i += 1
        yield tuple(quartet)


def _diagnostics_tree(tree: LatentTree, max_quartets, seed) -> RecoveryDiagnostics:
    params = tree._require_params()
    if tree.d < 4:
        raise ModelError(f"need at least 4 leaves, got {tree.d}")
    deltas = []
    for u, v in tree.parent_order():
        if not tree.is_leaf(v):
            p_u = tree.node_marginal(u)
            joint = (params.cpts[(u, v)] * p_u).T  # P(u, v)
            deltas.append(joint - np.outer(p_u, tree.node_marginal(v)))
    gamma_min = min(float(tree.node_marginal(h).min()) for h in tree.hidden)
    theta_min = math.inf
    alpha_min = math.inf
    for q in _quartets(tree.leaves, max_quartets, seed):
        (g1, g2) = resolve_oracle(tree, q).groups
        ordered = (q[g1[0] - 1], q[g1[1] - 1], q[g2[0] - 1], q[g2[1] - 1])
        theta, alpha = _quartet_gaps(exact_quartet_distribution(tree, ordered))
        theta_min = min(theta_min, theta)
        alpha_min = min(alpha_min, alpha)
    return _assemble(theta_min, gamma_min, alpha_min, deltas, params.k, tree.d)


# ---------------------------------------------------------------------------
# Experiment configuration and result rows
# ---------------------------------------------------------------------------


def parse_method(name: str) -> tuple[str, int | None]:
    """Parse a method name: tensor | spectral@K | nj | oracle."""
    name = name.strip()
    if name in ("tensor", "nj", "oracle"):
        return (name, None)
    if name.startswith("spectral@"):
        try:
            k = int(name.split("@", 1)[1])
        except ValueError:
            raise ValueError(f"malformed method {name!r}") from None
        if k < 1:
            raise ValueError(f"spectral rank must be >= 1, got {k}")
        return ("spectral", k)
    raise ValueError(f"unknown method {name!r}")


MAX_TABLE_BINS = 2 ** 20  # 8 MiB of float64: tensor allows n <= 32, the others n <= 1024
MAX_STACK_BINS = 2 ** 26  # 512 MiB of float64: all d(d-1)/2 pairwise tables at once


def check_method(method: str, d: int, n: int) -> tuple[str, int | None]:
    """``parse_method(method)``, or a ValueError if the method cannot run on d
    variables of n states.  Every method needs d >= 4, and ``spectral@K`` needs
    K <= n.  Its largest table, n^4 bins for ``tensor`` and n^2 for the others
    (``oracle`` holds none), must fit in MAX_TABLE_BINS; ``nj``, which stacks every
    pair's table, and ``spectral@K``, which caches them, must also fit all
    d(d-1)/2 of them in MAX_STACK_BINS."""
    family, k = parse_method(method)
    if d < 4:
        raise ValueError(f"need at least 4 variables, got {d}")
    if family == "spectral" and k > n:
        raise ValueError(f"spectral rank {k} exceeds state count {n}")
    if family == "oracle":
        return family, k
    tensor = family == "tensor"
    bins = n ** 4 if tensor else n ** 2
    if bins > MAX_TABLE_BINS:
        raise ValueError(f"{n} states make {'quartet tensors' if tensor else 'pairwise tables'} "
                         f"of {bins} bins, over the limit of {MAX_TABLE_BINS}")
    stack = 0 if tensor else d * (d - 1) // 2 * bins
    if stack > MAX_STACK_BINS:
        raise ValueError(f"{d} variables of {n} states make pairwise tables of {stack} bins, "
                         f"over the limit of {MAX_STACK_BINS}")
    return family, k


def _validate_shared(cfg, d: int) -> None:
    """Checks of the fields both configs share, each method run on d variables."""
    if not cfg.methods:
        raise ValueError("need at least one method")
    parsed = {}
    for name in cfg.methods:
        method = check_method(name, d, cfg.n)
        if method in parsed:  # the same rows under two labels
            raise ValueError(f"methods {parsed[method]!r} and {name!r} are the same method")
        parsed[method] = name
    # n * (1 + mu) bounds every perturbed column sum, so no sum can overflow.
    if cfg.mu < 0 or not math.isfinite(cfg.n * (1 + cfg.mu)):
        raise ValueError(f"mu must be >= 0 with n * (1 + mu) finite, got {cfg.mu}")
    if not cfg.sample_grid or any(m < 1 for m in cfg.sample_grid):
        raise ValueError("sample grid must be nonempty positive counts")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")


def recover(samples: SampleSet, method: str, seed, truth: LatentTree | None = None,
            stack=None) -> LatentTree:
    """Tree over the sample columns, named by ``samples.variable_names``, built
    with one method (see :func:`parse_method`).

    ``seed`` drives the builder's random choices.  ``oracle`` needs the true
    tree ``truth``, whose leaves in ascending id order are the sample columns.
    ``stack``, if given, returns ``empirical_pairwise_stack(samples)``, which ``nj`` and
    ``spectral@K`` read instead of counting.  ``tree-bench`` shares one cached stack among
    a trial's methods when they include ``nj``; the first method to read it pays for it.
    """
    family, spectral_k = parse_method(method)
    d = samples.d
    if family == "nj":
        tables = stack() if stack else empirical_pairwise_stack(samples)
        return neighbor_join(distance_matrix(tables, d), samples.variable_names)
    if family == "oracle":
        if truth is None:
            raise ValueError("method 'oracle' needs the true tree")
        leaves = truth.leaves

        def resolver(a, b, c, dd):
            return resolve_oracle(truth, (leaves[a], leaves[b], leaves[c], leaves[dd]))
    elif family == "tensor":
        def resolver(a, b, c, dd):
            return resolve_nuclear(empirical_quartet_tensor(samples, (a, b, c, dd)))
    else:
        counted = (lambda i, j: stack()[triu_row(d, i, j)]) if stack else functools.cache(
            lambda i, j: empirical_pairwise(samples, i, j))

        def table(i, j):  # one count per unordered pair; its transpose is bitwise equal
            return counted(i, j) if i < j else counted(j, i).T

        def resolver(a, b, c, dd):
            ids = (a, b, c, dd)
            return resolve_spectral_k(
                np.stack([table(ids[i - 1], ids[j - 1]) for i, j in PAIR_KEYS]), spectral_k)
    tree, _ = build_tree(resolver, range(d), seed=seed,
                         names=dict(enumerate(samples.variable_names)))
    return tree


@dataclass(frozen=True)
class QuartetExperimentConfig:
    k_h: int
    k_g: int
    n: int
    mu: float
    sample_grid: tuple
    trials: int
    methods: tuple
    seed: int = 0

    def __post_init__(self):
        if not (2 <= self.k_h <= self.n and 2 <= self.k_g <= self.n):
            raise ValueError("hidden cardinalities must lie in 2..n")
        _validate_shared(self, 4)
        check_method("tensor", 4, self.n)  # every method reads the exact n^4 tensor


@dataclass(frozen=True)
class TreeExperimentConfig:
    d: int
    beta: float
    k_range: tuple
    n: int
    mu: float
    sample_grid: tuple
    trials: int
    methods: tuple
    seed: int = 0
    hidden_base: str = "independent"

    def __post_init__(self):
        if self.hidden_base not in ("independent", "identity"):
            raise ValueError(f"unknown hidden_base {self.hidden_base!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        lo, hi = self.k_range
        if not (2 <= lo <= hi <= self.n):
            raise ValueError("k range must satisfy 2 <= lo <= hi <= n")
        _validate_shared(self, self.d)


RESULT_COLUMNS = ("method", "m", "trial", "outcome", "elapsed_ms")


def result_csv(rows) -> str:
    """CSV text of result rows, one (method, m, trial, outcome, elapsed_ms) each."""
    return ",".join(RESULT_COLUMNS) + "\n" + "".join(
        f"{method},{m},{trial},{outcome:.10g},{ms:.3f}\n"
        for method, m, trial, outcome, ms in rows)


# ---------------------------------------------------------------------------
# Benchmark runners
# ---------------------------------------------------------------------------


def _timed_row(name, m, trial, outcome) -> tuple:
    """The result row of one method: ``float(outcome())`` and the milliseconds it
    took; NaN if it raised a TensorTreeError, and any other exception propagates."""
    t0 = time.perf_counter()
    try:
        value = float(outcome())
    except TensorTreeError:
        value = math.nan
    return (name, m, trial, value, (time.perf_counter() - t0) * 1000.0)


def _quartet_relation(name, emp, tables) -> QuartetRelation:
    """The pairing one method reads from the empirical tensor ``emp``; ``tables()``
    gives its six pairwise tables, counted by the first method that needs them."""
    family, k = parse_method(name)
    if family == "tensor":
        return resolve_nuclear(emp).relation
    if family == "oracle":
        return QuartetRelation.PAIR_12_34
    if family == "spectral":
        return resolve_spectral_k(tables(), k).relation
    dist = distance_matrix(tables(), 4)
    dist[np.isinf(dist)] = INFINITE_SENTINEL
    return four_point(dist)


def _quartet_trial(cfg: QuartetExperimentConfig, trial: int) -> list:
    model = random_quartet_model(cfg.k_h, cfg.k_g, cfg.n, cfg.mu,
                                 np.random.default_rng([cfg.seed, 1, trial]))
    p_flat = model.exact_tensor().values.ravel()
    p_flat = p_flat / p_flat.sum()
    n = cfg.n
    rows = []
    for mi, m in enumerate(cfg.sample_grid):
        rng = np.random.default_rng([cfg.seed, 2, trial, mi])
        counts = rng.multinomial(m, p_flat).reshape(n, n, n, n)
        emp = JointTensor4(counts / m)
        tables = functools.cache(lambda: pairwise_tables(emp))
        for name in cfg.methods:
            rows.append(_timed_row(name, m, trial, lambda: _quartet_relation(
                name, emp, tables) == QuartetRelation.PAIR_12_34))
    return rows


def _tree_trial(cfg: TreeExperimentConfig, trial: int) -> list:
    rng = np.random.default_rng([cfg.seed, 1, trial])
    k = int(rng.integers(cfg.k_range[0], cfg.k_range[1] + 1))
    truth = random_tree_model(cfg.d, cfg.beta, cfg.n, k, cfg.mu, rng,
                              hidden_base=cfg.hidden_base)
    shares = any(parse_method(name)[0] == "nj" for name in cfg.methods)
    rows = []
    for mi, m in enumerate(cfg.sample_grid):
        samples = sample(truth, m, np.random.default_rng([cfg.seed, 2, trial, mi]))
        stack = functools.cache(lambda: empirical_pairwise_stack(samples)) if shares else None
        for name in cfg.methods:
            rows.append(_timed_row(name, m, trial, lambda: robinson_foulds(recover(
                samples, name, [cfg.seed, 3, trial, mi], truth=truth, stack=stack), truth)))
    return rows


def _run(cfg, trial_fn, jobs: int) -> list:
    workers = min(jobs, cfg.trials)  # no idle worker, and no pool for one
    if workers <= 1:
        chunks = [trial_fn(cfg, t) for t in range(cfg.trials)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(trial_fn, [cfg] * cfg.trials, range(cfg.trials)))
    return [row for chunk in chunks for row in chunk]  # in trial order: deterministic


def run_quartet_experiment(cfg: QuartetExperimentConfig, jobs: int = 1) -> list:
    """Result rows: success (1) or failure (0) of each method at the true pairing."""
    return _run(cfg, _quartet_trial, jobs)


def run_tree_experiment(cfg: TreeExperimentConfig, jobs: int = 1) -> list:
    """Result rows: Robinson-Foulds error of each method on random latent trees."""
    return _run(cfg, _tree_trial, jobs)
