"""Unit tests for the neighbor-joining baseline and its additive distance."""

import itertools
import math

import numpy as np
import pytest

from tensortree import (SampleSet, additive_distance, distance_matrix,
                        empirical_pairwise, neighbor_join, pairwise_distribution,
                        robinson_foulds)
from tensortree.bench import parameterize, random_topology
from tensortree.nj import INFINITE_SENTINEL


def path_additive_matrix(tree, seed):
    """Distances that sum positive random branch lengths along tree paths."""
    rng = np.random.default_rng(seed)
    lengths = {frozenset(e): rng.uniform(0.5, 2.0) for e in tree.edges()}
    leaves = tree.leaves
    d = len(leaves)
    out = np.zeros((d, d))
    for a, b in itertools.combinations(range(d), 2):
        path = tree.path(leaves[a], leaves[b])
        dist = sum(lengths[frozenset(e)] for e in zip(path, path[1:]))
        out[a, b] = out[b, a] = dist
    return out


def reference_nj_edges(dist):
    """Edges of neighbor joining with a per-pair scan and a matrix regrown on
    every join; the vectorized version must give the same node ids."""
    dist = np.where(np.isinf(dist), INFINITE_SENTINEL, np.array(dist, dtype=float))
    d = dist.shape[0]
    active = list(range(d))
    edges = []
    h = d
    while len(active) > 3:
        n_act = len(active)
        sub = dist[np.ix_(active, active)]
        r = sub.sum(axis=1)
        q = np.round((n_act - 2) * sub - r[:, None] - r[None, :], 12)
        best = (0, 1)
        for a, b in itertools.combinations(range(n_act), 2):
            if q[a, b] < q[best]:
                best = (a, b)
        a, b = best
        edges += [(active[a], h), (active[b], h)]
        grown = np.pad(dist, ((0, 1), (0, 1)))
        for c in range(n_act):
            if c not in (a, b):
                grown[h, active[c]] = grown[active[c], h] = \
                    0.5 * (sub[a, c] + sub[b, c] - sub[a, b])
        dist = grown
        active = [x for i, x in enumerate(active) if i not in (a, b)] + [h]
        h += 1
    return sorted(edges + [(x, h) for x in active])


def reference_additive_distance(p_ij, p_i, p_j):
    """The distance of one pair with its own ``slogdet``: the per-pair formula
    that ``distance_matrix`` batches."""
    sign, logdet = np.linalg.slogdet(p_ij)
    if sign == 0 or not np.isfinite(logdet):
        return math.inf
    return float(0.5 * np.sum(np.log(p_i)) + 0.5 * np.sum(np.log(p_j)) - logdet)


class TestAdditiveDistance:
    def test_deterministic_copy_zero(self):
        n = 4
        p = np.eye(n) / n
        u = np.full(n, 1 / n)
        assert additive_distance(p, u, u) == pytest.approx(0.0, abs=1e-12)

    def test_independent_infinite(self):
        u = np.full(3, 1 / 3)
        p = np.outer(u, u)
        assert math.isinf(additive_distance(p, u, u))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = rng.random((3, 3))
        p /= p.sum()
        d1 = additive_distance(p, p.sum(axis=1), p.sum(axis=0))
        d2 = additive_distance(p.T, p.sum(axis=0), p.sum(axis=1))
        assert d1 == pytest.approx(d2, abs=1e-10)

    def test_inconsistent_marginals_rejected(self):
        p = np.full((2, 2), 0.25)
        with pytest.raises(ValueError):
            additive_distance(p, np.array([0.9, 0.1]), np.array([0.5, 0.5]))

    def test_marginals_of_different_lengths_rejected(self):
        p = np.full((3, 2), 1 / 6)
        with pytest.raises(ValueError, match="table and marginal shapes are inconsistent"):
            additive_distance(p, p.sum(axis=1), p.sum(axis=0))

    def test_matches_reference(self):
        # Each table both ways round, the transposed one as a strided view.
        tables, marginals = sample_tables(30, 200, 4)
        for (i, j), table in tables.items():
            for t, a, b in ((table, i, j), (table.T, j, i)):
                assert additive_distance(t, marginals[a], marginals[b]) == \
                    reference_additive_distance(t, marginals[a], marginals[b])

    def test_four_point_condition_on_population_tables(self):
        # Distances from exact k = n tables satisfy the four-point condition.
        topo = random_topology(6, 0.5, 1)
        tree = parameterize(topo, 4, 4, 0.8, 1, hidden_base="identity")
        leaves = tree.leaves
        dist = {}
        for a, b in itertools.combinations(leaves, 2):
            p = pairwise_distribution(tree, a, b)
            dist[(a, b)] = dist[(b, a)] = additive_distance(
                p, tree.node_marginal(a), tree.node_marginal(b))
        for q in itertools.combinations(leaves, 4):
            sums = sorted([dist[(q[0], q[1])] + dist[(q[2], q[3])],
                           dist[(q[0], q[2])] + dist[(q[1], q[3])],
                           dist[(q[0], q[3])] + dist[(q[1], q[2])]])
            assert sums[2] - sums[1] <= 1e-6


def sample_tables(d, m, seed):
    """Pairwise tables and marginals of d correlated 3-state columns; column 7
    is constant and column 20 uses two states, so their tables are singular."""
    rng = np.random.default_rng(seed)
    base = rng.integers(1, 4, m)
    rows = np.where(rng.random((m, d)) < 0.6, base[:, None], rng.integers(1, 4, (m, d)))
    rows[:, 7] = 1
    rows[:, 20] = np.minimum(rows[:, 20], 2)
    s = SampleSet(rows=rows, variable_names=[f"X{i}" for i in range(d)], n_states=3)
    tables = {(i, j): empirical_pairwise(s, i, j)
              for i, j in itertools.combinations(range(d), 2)}
    marginals = [np.bincount(rows[:, i] - 1, minlength=3) / m for i in range(d)]
    return tables, marginals


class TestDistanceMatrix:
    def test_matches_additive_distance_loop(self):
        # 1,225 pairs: more than one batch of determinants.
        tables, marginals = sample_tables(50, 400, 0)
        ref = np.zeros((50, 50))
        for (i, j), table in tables.items():
            ref[i, j] = ref[j, i] = reference_additive_distance(
                table, marginals[i], marginals[j])
        got = distance_matrix(tables, marginals)
        assert np.array_equal(got, ref)
        assert np.isinf(got[7, 8]) and np.isinf(got[3, 20])
        assert np.isfinite(got[0, 1])

    def test_margin_mismatch_raises(self):
        tables, marginals = sample_tables(50, 400, 1)
        tables[(48, 49)] = tables[(48, 49)][::-1]  # in the second batch
        with pytest.raises(ValueError, match="margins do not match the marginals"):
            distance_matrix(tables, marginals)

    def test_shape_mismatch_raises(self):
        tables, marginals = sample_tables(30, 100, 2)
        tables[(0, 1)] = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match="shapes are inconsistent"):
            distance_matrix(tables, marginals)


class TestNeighborJoin:
    def test_recovers_path_additive_tree(self):
        truth = random_topology(6, 0.5, 2)
        dist = path_additive_matrix(truth, 3)
        built = neighbor_join(dist, [truth.leaf_names[i] for i in truth.leaves])
        assert robinson_foulds(built, truth) == 0

    def test_population_tables_k_equals_n(self):
        for seed in range(3):
            topo = random_topology(7, 0.5, [50, seed])
            tree = parameterize(topo, 3, 3, 0.9, [51, seed],
                                hidden_base="identity")
            tables = {(i, j): pairwise_distribution(tree, i, j)
                      for i, j in itertools.combinations(tree.leaves, 2)}
            marg = [tree.node_marginal(i) for i in tree.leaves]
            built = neighbor_join(distance_matrix(tables, marg),
                                  [tree.leaf_names[i] for i in tree.leaves])
            assert robinson_foulds(built, tree) == 0

    def test_all_equal_distances_deterministic(self):
        d = 6
        dist = np.ones((d, d)) - np.eye(d)
        names = [f"X{i}" for i in range(d)]
        t1 = neighbor_join(dist, names)
        t2 = neighbor_join(dist, names)
        assert robinson_foulds(t1, t2) == 0

    def test_infinite_entries_use_sentinel(self):
        d = 5
        dist = np.ones((d, d)) - np.eye(d)
        dist[0, 1] = dist[1, 0] = np.inf
        tree = neighbor_join(dist, [f"X{i}" for i in range(d)])
        assert tree.d == d  # no crash, valid topology

    def test_structure(self):
        truth = random_topology(8, 0.5, 4)
        built = neighbor_join(path_additive_matrix(truth, 5),
                              [truth.leaf_names[i] for i in truth.leaves])
        assert len(built.hidden) == 6
        assert all(len(built.neighbors(h)) == 3 for h in built.hidden)

    def test_validation(self):
        with pytest.raises(ValueError):
            neighbor_join(np.zeros((3, 3)), ["a", "b", "c"])  # too few
        bad = np.ones((4, 4)) - np.eye(4)
        bad[0, 1] = 2.0  # asymmetric
        with pytest.raises(ValueError):
            neighbor_join(bad, list("abcd"))

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        for d in range(4, 13):
            # Small integers give many ties in the joining criterion.
            for upper in (rng.integers(1, 4, (d, d)), rng.uniform(0, 5, (d, d))):
                dist = np.triu(upper.astype(float), 1)
                dist = dist + dist.T
                dist[0, d - 1] = dist[d - 1, 0] = np.inf
                built = neighbor_join(dist, [f"X{i}" for i in range(d)])
                assert built.edges() == reference_nj_edges(dist)

    def test_sentinel_magnitude(self):
        assert INFINITE_SENTINEL > 1e9
