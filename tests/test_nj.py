"""Unit tests for the neighbor-joining baseline and its additive distance."""

import itertools
import math

import numpy as np
import pytest

from tensortree import (SampleSet, additive_distance, distance_matrix,
                        empirical_pairwise, neighbor_join, pairwise_distribution,
                        robinson_foulds, sample, to_newick)
from tensortree.bench import (parameterize, random_topology, random_tree_model,
                              recover)
from tensortree import nj
from tensortree.nj import INFINITE_SENTINEL, TIE_ABS, TIE_REL, first_rounded_min

from helpers import dfs_path


def path_additive_matrix(tree, seed):
    """Distances that sum positive random branch lengths along tree paths."""
    rng = np.random.default_rng(seed)
    lengths = {frozenset(e): rng.uniform(0.5, 2.0) for e in tree.edges()}
    leaves = tree.leaves
    d = len(leaves)
    out = np.zeros((d, d))
    for a, b in itertools.combinations(range(d), 2):
        path = dfs_path(tree, leaves[a], leaves[b])
        dist = sum(lengths[frozenset(e)] for e in zip(path, path[1:]))
        out[a, b] = out[b, a] = dist
    return out


def reference_nj_edges(dist, unrounded_q=None):
    """Edges of neighbor joining with a per-pair scan and a matrix regrown on
    every join; the vectorized version must give the same node ids.  Each
    join's Q before rounding is appended to ``unrounded_q`` when it is given."""
    dist = np.where(np.isinf(dist), INFINITE_SENTINEL, np.array(dist, dtype=float))
    d = dist.shape[0]
    active = list(range(d))
    edges = []
    h = d
    while len(active) > 3:
        n_act = len(active)
        sub = dist[np.ix_(active, active)]
        r = sub.sum(axis=1)
        q = (n_act - 2) * sub - r[:, None] - r[None, :]
        if unrounded_q is not None:
            unrounded_q.append(q)
        q = np.round(q, 12)
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


def assert_joins_like_reference(dist):
    """``neighbor_join`` gives the reference's edges from a Q whose entries i < j
    have the reference's bits at every join, so a new node's row with other bits
    fails here even where it joins the same pairs."""
    got, want = [], []

    def recording(q):
        got.append(q.copy())
        return first_rounded_min(q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nj, "first_rounded_min", recording)
        built = neighbor_join(dist, [f"X{i}" for i in range(len(dist))])
    assert built.edges() == reference_nj_edges(dist, want)
    assert len(got) == len(want)
    for q, ref in zip(got, want):
        upper = np.triu_indices(len(ref), 1)
        assert q[upper].tobytes() == ref[upper].tobytes()


def reference_additive_distance(p_ij):
    """The distance of one pair with its own ``slogdet`` and its own row and
    column sums: the per-pair formula that ``logdet_distances`` stacks."""
    sign, logdet = np.linalg.slogdet(p_ij)
    if sign == 0 or not np.isfinite(logdet):
        return math.inf
    return float(0.5 * np.sum(np.log(p_ij.sum(axis=1)))
                 + 0.5 * np.sum(np.log(p_ij.sum(axis=0))) - logdet)


class TestAdditiveDistance:
    def test_deterministic_copy_zero(self):
        n = 4
        p = np.eye(n) / n
        assert additive_distance(p) == pytest.approx(0.0, abs=1e-12)

    def test_independent_infinite(self):
        u = np.full(3, 1 / 3)
        p = np.outer(u, u)
        assert math.isinf(additive_distance(p))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = rng.random((3, 3))
        p /= p.sum()
        assert additive_distance(p) == pytest.approx(additive_distance(p.T), abs=1e-10)

    def test_marginals_of_different_lengths_rejected(self):
        # A 3x2 table's row and column sums have different lengths.
        with pytest.raises(ValueError, match="pairwise table shapes are inconsistent"):
            additive_distance(np.full((3, 2), 1 / 6))

    def test_matches_reference(self):
        # Each table both ways round, the transposed one as a strided view.
        for table in sample_tables(30, 200, 4):
            for t in (table, table.T):
                assert additive_distance(t) == reference_additive_distance(t)

    def test_four_point_condition_on_population_tables(self):
        # Distances from exact k = n tables satisfy the four-point condition.
        topo = random_topology(6, 0.5, 1)
        tree = parameterize(topo, 4, 4, 0.8, 1, hidden_base="identity")
        leaves = tree.leaves
        dist = {}
        for a, b in itertools.combinations(leaves, 2):
            p = pairwise_distribution(tree, a, b)
            dist[(a, b)] = dist[(b, a)] = additive_distance(p)
        for q in itertools.combinations(leaves, 4):
            sums = sorted([dist[(q[0], q[1])] + dist[(q[2], q[3])],
                           dist[(q[0], q[2])] + dist[(q[1], q[3])],
                           dist[(q[0], q[3])] + dist[(q[1], q[2])]])
            assert sums[2] - sums[1] <= 1e-6


def correlated_samples(d, m, seed):
    """d correlated 3-state columns; column 7 is constant and column 20 uses
    two states, so their pairwise tables are singular."""
    rng = np.random.default_rng(seed)
    base = rng.integers(1, 4, m)
    rows = np.where(rng.random((m, d)) < 0.6, base[:, None], rng.integers(1, 4, (m, d)))
    rows[:, 7] = 1
    rows[:, 20] = np.minimum(rows[:, 20], 2)
    return SampleSet(rows=rows, variable_names=[f"X{i}" for i in range(d)], n_states=3)


def sample_tables(d, m, seed):
    """Stack of the pairwise tables of ``correlated_samples``, in
    ``np.triu_indices(d, 1)`` order."""
    s = correlated_samples(d, m, seed)
    return np.array([empirical_pairwise(s, i, j)
                     for i, j in itertools.combinations(range(d), 2)])


class TestDistanceMatrix:
    def test_matches_additive_distance_loop(self):
        # 1,225 pairs, some of them singular.
        tables = sample_tables(50, 400, 0)
        ref = np.zeros((50, 50))
        for (i, j), table in zip(itertools.combinations(range(50), 2), tables):
            ref[i, j] = ref[j, i] = reference_additive_distance(table)
        got = distance_matrix(tables, 50)
        assert np.array_equal(got, ref)
        assert np.isinf(got[7, 8]) and np.isinf(got[3, 20])
        assert np.isfinite(got[0, 1])

    def test_shape_mismatch_raises(self):
        tables = sample_tables(30, 100, 2)
        with pytest.raises(ValueError, match="shapes are inconsistent"):
            distance_matrix(tables[:, :, :2], 30)  # non-square tables
        # One table too few, and one table, which would broadcast to every pair.
        for short in (tables[1:], tables[:1]):
            with pytest.raises(ValueError, match="need 435 pairwise tables for d = 30"):
                distance_matrix(short, 30)


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
            tables = [pairwise_distribution(tree, i, j)
                      for i, j in itertools.combinations(tree.leaves, 2)]
            built = neighbor_join(distance_matrix(tables, len(tree.leaves)),
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
                assert_joins_like_reference(dist)

    def test_sentinel_magnitude(self):
        assert INFINITE_SENTINEL > 1e9


def symmetric(upper):
    """The symmetric matrix with a zero diagonal whose upper triangle is ``upper``'s."""
    dist = np.triu(np.asarray(upper, dtype=float), 1)
    return dist + dist.T


class TestNeighborJoinBeyondSmallD:
    """The compact joining loop against ``reference_nj_edges`` where many joins
    move rows, on inputs where the joining criterion ties often.  The cost of
    copying the kept block changes above n = 150 or so, so d = 160 and 200 are covered."""

    @pytest.mark.parametrize("d", [4, 5, 16, 40, 64, 160, 200])
    def test_small_integers(self, d):
        rng = np.random.default_rng([4, d])
        assert_joins_like_reference(symmetric(rng.integers(1, 4, (d, d))))

    @pytest.mark.parametrize("d", [4, 5, 16, 40, 64, 160, 200])
    def test_all_distances_equal(self, d):
        assert_joins_like_reference(np.ones((d, d)) - np.eye(d))

    @pytest.mark.parametrize("d", [4, 5, 16, 40, 64])
    def test_infinite_entries_in_first_and_last_rows(self, d):
        rng = np.random.default_rng([5, d])
        dist = symmetric(rng.integers(1, 4, (d, d)))
        dist[0, 1::2] = dist[1::2, 0] = np.inf
        dist[-1, :-1:3] = dist[:-1:3, -1] = np.inf
        assert_joins_like_reference(dist)

    def test_three_decimals_near_1e4(self):
        # |Q| reaches 1e6 here, where rounding to 12 decimals merges neighbouring doubles.
        rng = np.random.default_rng(7)
        assert_joins_like_reference(symmetric(rng.integers(9_990_000, 10_000_000,
                                                           (160, 160)) / 1000))

    def test_infinite_first_rows(self):
        # |Q| reaches 1e14, where only the tie tolerance's relative term covers
        # entries a few ulps apart that round alike.
        rng = np.random.default_rng(8)
        dist = symmetric(rng.integers(1001, 1004, (160, 160)) / 1000)
        dist[:3, 3:] = dist[3:, :3] = np.inf
        assert_joins_like_reference(dist)

    def test_column_major_input(self):
        # The loop sums rows of a C-ordered copy, as the reference sums its gathered rows.
        dist = symmetric(np.random.default_rng(6).uniform(0, 5, (40, 40)))
        assert_joins_like_reference(np.asfortranarray(dist))


class TestFirstRoundedMin:
    """Only the entries within the tie tolerance of Q's minimum are rounded."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_entry_that_rounds_to_the_minimum_is_a_candidate(self, sign):
        rng = np.random.default_rng(9)
        for exponent in np.arange(-6.0, 15.5, 0.25):
            lo = sign * min(rng.uniform(1, 10 ** 0.25) * 10 ** exponent, 2e15)
            tol = TIE_ABS + TIE_REL * abs(lo)
            target = np.round(lo, 12)
            # Bisect for the largest x that rounds to the minimum's rounded value.
            good, bad = lo, lo + 10 * tol
            assert np.round(bad, 12) != target
            while (mid := good + (bad - good) / 2) not in (good, bad):
                good, bad = (mid, bad) if np.round(mid, 12) == target else (good, mid)
            assert good - lo <= tol, lo

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4, 1e12])
    def test_same_index_as_rounding_everything(self, scale):
        rng = np.random.default_rng(10)
        for n in (4, 7, 30):
            for _ in range(50):
                # Few distinct values, each off by a few ulps: ties that only rounding finds.
                q = rng.integers(-3, 3, (n, n)) * scale
                q = q * (1 + rng.integers(-4, 5, (n, n)) * 2.0 ** -52)
                q += np.tril(np.full((n, n), np.inf))
                assert first_rounded_min(q) == np.argmin(np.round(q, 12))


def reference_nj_build(samples):
    """The nj build one pair at a time: a count and a distance per pair."""
    d = samples.d
    dist = np.zeros((d, d))
    for i, j in itertools.combinations(range(d), 2):
        table = empirical_pairwise(samples, i, j)
        dist[i, j] = dist[j, i] = reference_additive_distance(table)
    return neighbor_join(dist, samples.variable_names)


class TestRecoverMatchesPerPairPath:
    @pytest.mark.parametrize("d, n, m, seed", [(12, 3, 2000, 0), (30, 4, 300, 1),
                                               (20, 6, 50, 2)])
    def test_same_newick(self, d, n, m, seed):
        truth = random_tree_model(d, 0.5, n, min(n, 3), 0.5, seed, hidden_base="identity")
        samples = sample(truth, m, seed)
        want = to_newick(reference_nj_build(samples))
        assert to_newick(recover(samples, "nj", 0)) == want

    def test_same_newick_with_singular_tables(self):
        samples = correlated_samples(30, 400, 5)
        want = to_newick(reference_nj_build(samples))
        assert to_newick(recover(samples, "nj", 0)) == want
