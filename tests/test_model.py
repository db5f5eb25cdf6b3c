"""Unit tests for latent tree models, exact marginals, and sampling."""

import io
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortree import model
from tensortree import (LatentTree, QuartetRelation, SampleSet, TreeParameters,
                        choose_balanced_root, empirical_pairwise, empirical_pairwise_stack,
                        empirical_quartet_tensor, exact_quartet_distribution,
                        pairwise_distribution, quartet_tree, sample)
from tensortree.bench import random_topology, random_tree_model
from tensortree.exceptions import ModelError, ParseError
from tensortree.resolvers import resolve_oracle

from helpers import caterpillar, dfs_path, disjoint_path_oracle, reference_sample


def brute_force_joint(tree, leaves):
    """Exhaustive joint over all node states, marginalized to the given leaves."""
    p = tree.params
    order = [p.root] + [child for _, child in tree.parent_order()]
    parents = {child: parent for parent, child in tree.parent_order()}
    sizes = [p.n if tree.is_leaf(v) else p.k for v in order]
    out = np.zeros((p.n,) * len(leaves))
    for states in itertools.product(*(range(s) for s in sizes)):
        assign = dict(zip(order, states))
        prob = p.root_marginal[assign[p.root]]
        for child, parent in parents.items():
            prob *= p.cpts[(parent, child)][assign[child], assign[parent]]
        out[tuple(assign[x] for x in leaves)] += prob
    return out


def from_root(tree, root):
    """The same distribution parameterized away from another hidden root:
    each edge turned against its CPT is reversed by Bayes' rule."""
    p = tree.params
    cpts = {}
    for u, v in tree.bfs_edges(root):
        if (u, v) in p.cpts:
            cpts[(u, v)] = p.cpts[(u, v)]
        else:  # P(v | u) = P(u | v) P(v) / P(u), as (v_state, u_state)
            joint = p.cpts[(v, u)] * tree.node_marginal(v)  # P(u, v)
            cpts[(u, v)] = joint.T / tree.node_marginal(u)
    params = TreeParameters(n=p.n, k=p.k, root=root,
                            root_marginal=tree.node_marginal(root), cpts=cpts)
    return LatentTree({u: tree.neighbors(u) for u in tree.nodes()}, tree.leaf_names,
                      params=params)


def stochastic(rng, rows, cols):
    table = rng.random((rows, cols))
    return table / table.sum(axis=0)


@pytest.fixture(scope="module")
def small_tree():
    return random_tree_model(5, 0.5, 3, 2, 1.0, 42)


# Small enough for brute force: n^leaves * k^hidden joint states at most 6,561.
BRUTE_FORCE_TREES = [(5, 0.5, 3, 2, 1.0, 42), (6, 0.3, 2, 2, 0.8, 7),
                     (5, 0.5, 3, 3, 0.5, 3), (6, 0.5, 2, 2, 0.3, [6, 1])]


class TestExactJointMatchesBruteForce:
    """The one upward pass against the exhaustive sum over all node states."""

    def check(self, tree, leaves):
        want = brute_force_joint(tree, leaves)
        assert np.allclose(model._exact_joint(tree, leaves), want, rtol=0, atol=1e-12)
        return want

    @pytest.mark.parametrize("args", BRUTE_FORCE_TREES, ids=str)
    def test_pairs_and_quartets_in_any_order(self, args):
        tree = random_tree_model(*args)
        for i, j in itertools.permutations(tree.leaves, 2):
            want = self.check(tree, (i, j))
            assert np.allclose(pairwise_distribution(tree, i, j), want, rtol=0, atol=1e-12)
        rng = np.random.default_rng(tree.d)
        for q in itertools.combinations(tree.leaves, 4):
            leaves = tuple(rng.permutation(q).tolist())
            want = self.check(tree, leaves)
            assert np.allclose(exact_quartet_distribution(tree, leaves).values, want,
                               rtol=0, atol=1e-12)

    def test_all_leaves_and_single_leaf(self, small_tree):
        self.check(small_tree, (4, 1, 3, 0, 2))
        self.check(small_tree, (2,))

    def test_root_not_lowest_hidden_id(self):
        tree = random_topology(6, 0.5, 11)
        root = max(tree.hidden)
        rng = np.random.default_rng(5)
        cpts = {(u, v): stochastic(rng, 3 if tree.is_leaf(v) else 2, 2)
                for u, v in tree.bfs_edges(root)}
        params = TreeParameters(n=3, k=2, root=root, root_marginal=np.array([0.4, 0.6]),
                                cpts=cpts)
        tree = LatentTree({u: tree.neighbors(u) for u in tree.nodes()}, tree.leaf_names,
                          params=params)
        for leaves in [(0, 1), (5, 2), (0, 1, 2, 3), (3, 5, 1, 4)]:
            self.check(tree, leaves)

    def test_zero_in_root_marginal(self):
        tree = random_tree_model(5, 0.5, 3, 3, 0.7, 8)
        p = tree.params
        params = TreeParameters(n=p.n, k=p.k, root=p.root,
                                root_marginal=np.array([0.0, 0.25, 0.75]), cpts=p.cpts)
        tree = LatentTree({u: tree.neighbors(u) for u in tree.nodes()}, tree.leaf_names,
                          params=params)
        for leaves in [(0, 4), (4, 0), (0, 1, 2, 3), (2, 4, 0, 1)]:
            self.check(tree, leaves)


class TestExactQuartet:
    def test_matches_brute_force(self, small_tree):
        leaves = (0, 1, 2, 3)
        exact = exact_quartet_distribution(small_tree, leaves)
        assert np.allclose(exact.values, brute_force_joint(small_tree, leaves),
                           atol=1e-12)

    def test_matches_brute_force_shuffled_leaf_order(self, small_tree):
        for leaves in [(3, 0, 4, 1), (2, 4, 1, 0), (4, 2, 3, 1)]:
            exact = exact_quartet_distribution(small_tree, leaves)
            assert np.allclose(exact.values,
                               brute_force_joint(small_tree, leaves),
                               atol=1e-12)

    def test_marginalization_consistency(self, small_tree):
        t = exact_quartet_distribution(small_tree, (0, 1, 2, 3))
        p01 = pairwise_distribution(small_tree, 0, 1)
        assert np.allclose(t.values.sum(axis=(2, 3)), p01, atol=1e-12)

    def test_sums_to_one(self, small_tree):
        t = exact_quartet_distribution(small_tree, (0, 2, 3, 4))
        assert t.values.sum() == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_leaves_rejected(self, small_tree):
        with pytest.raises(ModelError):
            exact_quartet_distribution(small_tree, (0, 0, 1, 2))

    def test_hidden_node_rejected(self, small_tree):
        with pytest.raises(ModelError, match="leaves"):
            exact_quartet_distribution(small_tree, (0, 1, 2, small_tree.hidden[0]))

    def test_unparameterized_rejected(self):
        bare = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        with pytest.raises(ModelError):
            exact_quartet_distribution(bare, (0, 1, 2, 3))

    def test_root_invariance(self, small_tree):
        other = from_root(small_tree, max(small_tree.hidden))
        assert other.params.root != small_tree.params.root
        for leaves in [(0, 1, 2, 3), (1, 2, 3, 4)]:
            a = exact_quartet_distribution(small_tree, leaves)
            b = exact_quartet_distribution(other, leaves)
            assert np.allclose(a.values, b.values, atol=1e-12)
            assert np.allclose(b.values, brute_force_joint(other, leaves), atol=1e-12)


class TestPairwise:
    def test_margins(self, small_tree):
        p = pairwise_distribution(small_tree, 0, 3)
        assert np.allclose(p.sum(axis=1), small_tree.node_marginal(0), atol=1e-12)
        assert np.allclose(p.sum(axis=0), small_tree.node_marginal(3), atol=1e-12)

    def test_same_leaf_rejected(self, small_tree):
        with pytest.raises(ModelError):
            pairwise_distribution(small_tree, 1, 1)

    def test_two_state_chain_oracle(self):
        # Two leaves off a single hidden pair: expand P_ij = T_i diag(P_H) T_j^T
        # by hand for k = n = 2.
        tree = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        h, g = tree.neighbors(0)[0], tree.neighbors(2)[0]
        rng = np.random.default_rng(0)

        def cpt():
            c = rng.random((2, 2))
            return c / c.sum(axis=0)

        cpts = {(h, 0): cpt(), (h, 1): cpt(), (h, g): cpt(),
                (g, 2): cpt(), (g, 3): cpt()}
        ph = np.array([0.3, 0.7])
        params = TreeParameters(n=2, k=2, root=h, root_marginal=ph, cpts=cpts)
        tree = LatentTree({u: tree.neighbors(u) for u in tree.nodes()},
                          tree.leaf_names, params=params)
        got = pairwise_distribution(tree, 0, 1)
        expected = np.zeros((2, 2))
        for x0, x1 in itertools.product(range(2), range(2)):
            expected[x0, x1] = sum(cpts[(h, 0)][x0, s] * cpts[(h, 1)][x1, s] * ph[s]
                                   for s in range(2))
        assert np.allclose(got, expected, atol=1e-12)


class TestSampling:
    def test_zero_samples_rejected(self, small_tree):
        with pytest.raises(ValueError):
            sample(small_tree, 0, 0)

    def test_determinism(self, small_tree):
        a = sample(small_tree, 100, 11)
        b = sample(small_tree, 100, 11)
        assert np.array_equal(a.columns, b.columns)

    def test_deterministic_cpts_follow_root(self):
        # Permutation CPTs make each leaf a deterministic image of the root.
        tree = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        h, g = tree.neighbors(0)[0], tree.neighbors(2)[0]
        eye, swap = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        cpts = {(h, 0): eye, (h, 1): swap, (h, g): eye, (g, 2): eye, (g, 3): swap}
        params = TreeParameters(n=2, k=2, root=h,
                                root_marginal=np.array([0.25, 0.75]), cpts=cpts)
        tree = LatentTree({u: tree.neighbors(u) for u in tree.nodes()},
                          tree.leaf_names, params=params)
        s = sample(tree, 10000, 3)
        assert np.array_equal(s.columns[1], 1 - s.columns[0])  # swapped copy
        assert np.array_equal(s.columns[0], s.columns[2])
        # Empirical root marginal within 3 sigma of the multinomial truth.
        freq = np.mean(s.columns[0] == 1)
        sigma = np.sqrt(0.75 * 0.25 / 10000)
        assert abs(freq - 0.75) <= 3 * sigma

    def test_marginal_concentration(self, small_tree):
        exact = exact_quartet_distribution(small_tree, (0, 1, 2, 3))
        s = sample(small_tree, 100000, 5)
        emp = empirical_quartet_tensor(s, (0, 1, 2, 3))
        assert np.linalg.norm(emp.values - exact.values) < 0.02

    @pytest.mark.parametrize("d, beta, n, k, base, seed", [
        (4, 0.5, 3, 2, "independent", 0), (9, 0.3, 5, 3, "identity", 1),
        (33, 0.5, 10, 4, "independent", 2), (40, 0.1, 6, 6, "identity", 3),
        (6, 0.5, 256, 3, "independent", 4), (5, 0.5, 255, 2, "identity", 5)])
    def test_bitwise_equal_to_reference(self, d, beta, n, k, base, seed):
        tree = random_tree_model(d, beta, n, k, 0.5, seed, hidden_base=base)
        s, ref = sample(tree, 3000, [seed, 7]), reference_sample(tree, 3000, [seed, 7])
        assert s.columns.dtype == ref.columns.dtype == np.min_scalar_type(n)
        assert np.array_equal(s.columns, ref.columns)
        assert s.variable_names == ref.variable_names and s.n_states == ref.n_states

    @staticmethod
    def assert_equal_to_reference(tree, m, seed):
        s, ref = sample(tree, m, seed), reference_sample(tree, m, seed)
        assert np.array_equal(s.columns, ref.columns)
        assert s.columns.dtype == ref.columns.dtype

    @pytest.mark.parametrize("marginal", [[0.6, 0.0, 0.4], [0.5, 0.5, 0.0]])
    def test_parent_state_no_sample_takes(self, marginal):
        # Hidden state 1, or the last hidden state, is never drawn anywhere.
        absent = marginal.index(0.0)
        tree = random_tree_model(9, 0.5, 4, 3, 0.5, 8)
        p = tree.params
        cpts = {}
        for (parent, child), cpt in p.cpts.items():
            cpt = np.array(cpt)
            if not tree.is_leaf(child):
                cpt[absent] = 0.0
                cpt /= cpt.sum(axis=0)
            cpts[(parent, child)] = cpt
        params = TreeParameters(n=p.n, k=p.k, root=p.root,
                                root_marginal=np.array(marginal), cpts=cpts)
        tree = LatentTree({u: tree.neighbors(u) for u in tree.nodes()}, tree.leaf_names,
                          params=params)
        self.assert_equal_to_reference(tree, 2000, 9)

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (8, 3), (9, 4), (16, 2), (17, 5)])
    def test_state_counts_around_powers_of_two(self, n, k):
        # Each column's n - 1 cumulative sums are searched padded to 2^p - 1 entries.
        self.assert_equal_to_reference(random_tree_model(7, 0.5, n, k, 0.5, n), 500, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_sample(self, seed):
        self.assert_equal_to_reference(random_tree_model(12, 0.5, 5, 3, 0.5, seed), 1, seed)

    def test_cumulative_sum_passing_one_before_the_last_row(self):
        # P(state 2) = 0 and cumsum [0.7, 1.0000000000000009, 1.0]: the reference's
        # forced last sum of 1.0 is below the one before it; a u past 0.7 draws state 1.
        col = [0.7, 0.3 + 1e-15, 0.0]
        assert np.cumsum(col)[1] > 1.0
        tree = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        h, g = tree.neighbors(0)[0], tree.neighbors(2)[0]
        leaf_cpt = np.array([col, [0.2, 0.8, 0.0]]).T
        cpts = {(h, 0): leaf_cpt, (h, 1): leaf_cpt, (g, 2): leaf_cpt, (g, 3): leaf_cpt,
                (h, g): np.array([[0.6, 0.3], [0.4, 0.7]])}
        params = TreeParameters(n=3, k=2, root=h, root_marginal=np.array([0.5, 0.5]),
                                cpts=cpts)
        tree = LatentTree({u: tree.neighbors(u) for u in tree.nodes()}, tree.leaf_names,
                          params=params)
        self.assert_equal_to_reference(tree, 5000, 10)
        assert set(np.unique(sample(tree, 5000, 10).columns)) == {0, 1}

    def test_peak_memory_keeps_no_int64_stack(self):
        # Keeping all 126 nodes' int64 states and an m x d int64 stack, as
        # ``reference_sample`` does, peaks near 39 MiB; the store is 1.3 MB.
        tree = random_tree_model(64, 0.5, 10, 4, 0.5, 1)
        tracemalloc.start()
        try:
            s = sample(tree, 20_000, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.columns.shape == (64, 20_000)
        assert peak < 12 * 2 ** 20


class TestEmpirical:
    def test_single_sample(self):
        s = SampleSet(rows=np.array([[1, 2, 1, 2]]),
                      variable_names=list("abcd"), n_states=2)
        t = empirical_quartet_tensor(s, (0, 1, 2, 3))
        assert t.values[0, 1, 0, 1] == 1.0
        assert t.values.sum() == 1.0

    def test_sums_to_one(self, small_tree):
        s = sample(small_tree, 137, 6)
        t = empirical_quartet_tensor(s, (0, 1, 2, 3))
        assert t.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_indices_rejected(self, small_tree):
        s = sample(small_tree, 10, 7)
        with pytest.raises(ValueError):
            empirical_quartet_tensor(s, (0, 1, 1, 2))

    def test_pairwise_matches_tensor_margin(self, small_tree):
        s = sample(small_tree, 500, 8)
        t = empirical_quartet_tensor(s, (0, 1, 2, 3))
        p = empirical_pairwise(s, 0, 2)
        assert np.allclose(t.values.sum(axis=(1, 3)), p, atol=1e-12)


def reference_counts(rows, idx, n):
    """Counts of the joint states of columns ``idx`` by ``np.add.at``."""
    counts = np.zeros((n,) * len(idx), dtype=np.int64)
    np.add.at(counts, tuple(rows[:, i] - 1 for i in idx), 1)
    return counts


class TestCountsMatchReference:
    # n = 17: n^2 > 255 and n^4 > 65,535, so a flat index in the store's
    # uint8 (or a uint16) would wrap; n = 16 is the last n whose quartet code
    # fits a uint16.  The kernel writes only its own copy of a column.
    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_bitwise_equal(self, n):
        rng = np.random.default_rng(n)
        m = 3000
        rows = rng.integers(1, n + 1, size=(m, 6))
        s = SampleSet(rows=rows, variable_names=list("abcdef"), n_states=n)
        before = s.columns.copy()
        for _ in range(10):
            idx = tuple(int(i) for i in rng.choice(6, size=4, replace=False))
            want = reference_counts(rows, idx, n) / m
            assert np.array_equal(empirical_quartet_tensor(s, idx).values, want)
            assert np.array_equal(empirical_pairwise(s, *idx[:2]),
                                  reference_counts(rows, idx[:2], n) / m)
        assert np.array_equal(s.columns, before)

    # The flat code's dtype edges: n^2 - 1 passes 255 from n = 16 to 17 and 65,535
    # from 256 to 257, and n = 256 also stores the columns as uint16.  Two rows of
    # state n put the largest code in every table, so a wrapped code would show.
    @pytest.mark.parametrize("n", [1, 16, 17, 256, 257])
    def test_pairs_at_dtype_edges(self, n):
        rows = np.random.default_rng(n).integers(1, n + 1, size=(2000, 4))
        rows[:2] = n
        s = SampleSet(rows=rows, variable_names=list("abcd"), n_states=n)
        before = s.columns.copy()
        for i, j in itertools.permutations(range(4), 2):
            assert np.array_equal(empirical_pairwise(s, i, j),
                                  reference_counts(rows, (i, j), n) / len(rows))
        assert np.array_equal(s.columns, before)

    def test_column_store_dtype(self):
        s = SampleSet(rows=np.array([[1, 300, 1, 2]]), variable_names=list("abcd"),
                      n_states=300)
        assert s.columns.dtype == np.uint16 and s.columns.flags.c_contiguous
        assert s.columns[:, 0].tolist() == [0, 299, 0, 1]


class TestColumnStore:
    """``columns`` is the only copy of the samples a SampleSet keeps."""

    def test_only_store_and_caller_rows_unchanged(self):
        rows = np.asfortranarray(np.array([[1, 2, 3, 1], [2, 1, 1, 3]], dtype=np.uint8))
        s = SampleSet(rows=rows, variable_names=list("abcd"), n_states=3)
        assert rows.tolist() == [[1, 2, 3, 1], [2, 1, 1, 3]]
        assert not np.shares_memory(s.columns, rows) and s.columns.flags.c_contiguous
        assert [k for k, v in vars(s).items() if isinstance(v, np.ndarray)] == ["columns"]
        assert not hasattr(s, "rows")
        assert s != SampleSet(rows=rows[::-1], variable_names=list("abcd"), n_states=3)

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_dtype_and_csv_round_trip(self, tmp_path, n, dtype):
        s = SampleSet(rows=np.array([[1, n, 2, 1], [n, 1, 1, n]]),
                      variable_names=list("abcd"), n_states=n)
        assert s.columns.dtype == dtype
        s.to_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text() == f"a,b,c,d\n1,{n},2,1\n{n},1,1,{n}\n"
        back = SampleSet.from_csv(tmp_path / "s.csv")
        assert back.columns.dtype == dtype and back.n_states == n
        assert np.array_equal(back.columns, s.columns)

    def test_chunks_of_different_dtypes(self, tmp_path):
        # Blocks of 8 characters narrow to uint8, uint16 and uint32;
        # np.loadtxt reads the blocks with 300, 70000 and "+3".
        lines = ["1,2", "3,1", "2,300", "1,1", "70000,1", "+3,1"]
        path = tmp_path / "s.csv"
        path.write_text("a,b\n" + "\n".join(lines) + "\n")
        with mock.patch.object(model, "_CSV_CHUNK_CHARS", 8):
            s = SampleSet.from_csv(path)
        assert s.columns.dtype == np.uint32 and s.n_states == 70000
        assert (s.columns.T + 1).tolist() == [[1, 2], [3, 1], [2, 300], [1, 1],
                                              [70000, 1], [3, 1]]

    def test_reading_holds_no_int64_copy(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "s.csv"
        SampleSet(rows=rng.integers(1, 11, size=(50_000, 32)),
                  variable_names=[f"X{i}" for i in range(32)], n_states=10).to_csv(path)
        tracemalloc.start()
        try:
            s = SampleSet.from_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.columns.nbytes == 1_600_000
        assert held <= s.columns.nbytes + 2 ** 20
        assert peak < 16 * 2 ** 20


def test_non_integer_states_refused():
    for rows in ([[1.5, 2.9, 1.0, 2.0]], [[True, False, True, True]], [["1", "2", "1", "2"]]):
        rows = np.array(rows)
        with pytest.raises(ValueError, match=f"and dtype {rows.dtype}$"):
            SampleSet(rows=rows, variable_names=list("abcd"), n_states=3)


class TestPairwiseValidation:
    def samples(self):
        return SampleSet(rows=np.array([[1, 2, 3, 1], [2, 1, 1, 3]]),
                         variable_names=list("abcd"), n_states=3)

    @pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (0, 4), (4, 1)])
    def test_index_out_of_range(self, i, j):
        with pytest.raises(ValueError, match="column index out of range 0..3"):
            empirical_pairwise(self.samples(), i, j)

    def test_same_column(self):
        with pytest.raises(ValueError, match="two distinct"):
            empirical_pairwise(self.samples(), 1, 1)


STACK_KERNELS = (model._one_hot_stack, model._column_pair_stack)


def assert_stack_matches(samples, kernel=empirical_pairwise_stack):
    """A pairwise stack kernel against its reference, one count per pair i < j in
    ``np.triu_indices`` order."""
    got = kernel(samples)
    want = np.array([empirical_pairwise(samples, a, b)
                     for a, b in zip(*np.triu_indices(samples.d, 1))])
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)


class TestPairwiseStack:
    """``empirical_pairwise_stack`` and both of its kernels equal ``empirical_pairwise`` bit
    for bit."""

    def samples(self, m, d=4, n=3, n_states=None, seed=0):
        rows = np.random.default_rng(seed).integers(1, n + 1, size=(m, d))
        return SampleSet(rows=rows, variable_names=[f"X{c}" for c in range(d)],
                         n_states=n_states or n)

    @pytest.mark.parametrize("m", [1, 4, 5, 6, 10, 11])
    def test_around_a_block(self, m):
        # d * n = 12 and 60 one-hot entries: blocks of 5 samples.
        s = self.samples(m)
        with mock.patch.object(model, "_ONE_HOT_ENTRIES", 60):
            assert_stack_matches(s)

    def test_constant_column_and_unused_states(self):
        rows = np.random.default_rng(1).integers(1, 4, size=(300, 5))
        rows[:, 2] = 4
        s = SampleSet(rows=rows, variable_names=list("abcde"), n_states=7)
        assert_stack_matches(s)

    def test_two_columns(self):
        s = self.samples(50, d=2, n=2, seed=2)
        assert_stack_matches(s)

    def test_triu_row_indexes_triu_order(self):
        for d in range(2, 41):
            rows = [model.triu_row(d, i, j) for i, j in zip(*np.triu_indices(d, 1))]
            assert rows == list(range(d * (d - 1) // 2))

    def test_counts_past_float32_exactness(self):
        # 2^24 + 1 equal rows: a float32 sum of ones stops at 2^24.
        m = 2 ** 24 + 1
        s = SampleSet(rows=np.ones((m, 2), dtype=np.uint8), variable_names=["a", "b"],
                      n_states=1)
        assert empirical_pairwise_stack(s).tolist() == [[[1.0]]]

    @pytest.mark.parametrize("kernel", STACK_KERNELS)
    @pytest.mark.parametrize("d", [2, 3, 5, 12, 33])
    def test_kernels_at_the_rule_boundary(self, kernel, d):
        # n = 7 and m = 7^4: the smallest m at which the rule counts column pairs.
        assert_stack_matches(self.samples(7 ** 4, d=d, n=7, seed=d), kernel)

    @pytest.mark.parametrize("kernel", STACK_KERNELS)
    def test_kernels_on_a_constant_column_and_unused_states(self, kernel):
        rows = np.random.default_rng(3).integers(1, 8, size=(10 ** 4, 7))
        rows[:, 4] = 5
        s = SampleSet(rows=rows, variable_names=list("abcdefg"), n_states=10)
        assert_stack_matches(s, kernel)

    @pytest.mark.parametrize("d, n, m, column_pairs", [
        (32, 10, 50_000, True), (33, 7, 2401, True), (33, 7, 2400, False),
        (250, 4, 2_000, False), (64, 6, 20_000, False)])
    def test_rule_picks_the_kernel(self, d, n, m, column_pairs):
        s = SampleSet(rows=np.ones((m, d), dtype=np.uint8),
                      variable_names=[f"X{c}" for c in range(d)], n_states=n)
        with mock.patch.object(model, "_one_hot_stack") as one_hot, \
                mock.patch.object(model, "_column_pair_stack") as pairs:
            empirical_pairwise_stack(s)
        assert (pairs.called, one_hot.called) == (column_pairs, not column_pairs)

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 7), n=st.integers(1, 8), extra=st.integers(0, 2),
           m=st.integers(1, 40) | st.integers(2401, 4500), block=st.integers(1, 30),
           seed=st.integers(0, 2 ** 16))
    def test_matches_per_pair_counts(self, d, n, extra, m, block, seed):
        # m from 2401 with 7 or 8 states reaches the column-pair kernel; the rest do not.
        s = self.samples(m, d=d, n=n, n_states=n + extra, seed=seed)
        with mock.patch.object(model, "_ONE_HOT_ENTRIES", block * d * (n + extra)):
            for kernel in (empirical_pairwise_stack, *STACK_KERNELS):
                assert_stack_matches(s, kernel)


class TestSampleCsv:
    def test_round_trip(self, small_tree, tmp_path):
        s = sample(small_tree, 50, 9)
        path = tmp_path / "s.csv"
        s.to_csv(path)
        back = SampleSet.from_csv(path)
        assert np.array_equal(back.columns, s.columns)
        assert back.variable_names == s.variable_names

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,1,1,1\n1,oops,1,1\n")
        with pytest.raises(ParseError) as err:
            SampleSet.from_csv(path)
        assert "line 3" in str(err.value)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,1,1\n")
        with pytest.raises(ParseError) as err:
            SampleSet.from_csv(path)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("m", [1, 700])  # 700 rows are 34 blocks of 21
    @pytest.mark.parametrize("n", [2, 10, 99, 100, 256, 2 ** 63 - 1])
    def test_writes_the_bytes_of_savetxt(self, tmp_path, n, m):
        rows = np.random.default_rng(m).integers(1, n, size=(m, 3), endpoint=True)
        rows[0, 0] = n
        s = SampleSet(rows=rows, variable_names=list("abc"), n_states=n)
        with mock.patch.object(model, "_CSV_WRITE_ENTRIES", 64):
            s.to_csv(tmp_path / "s.csv")
        expected = io.StringIO()
        np.savetxt(expected, s.columns.T + 1, fmt="%d", delimiter=",")
        assert (tmp_path / "s.csv").read_bytes() == b"a,b,c\n" + expected.getvalue().encode()


def reference_from_csv(path) -> SampleSet:
    """The reader as one ``int()`` loop over all lines, before chunked parsing: the first
    faulty line, in file order, is reported with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ParseError("empty sample file", line=1)
        names = [s.strip() for s in header.split(",")]
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise ParseError(
                    f"expected {len(names)} fields, got {len(parts)}", line=lineno)
            try:
                row = [int(p) for p in parts]
            except ValueError:
                raise ParseError("non-integer state value", line=lineno) from None
            if min(row) < 1:
                raise ParseError("states must be 1-based positive integers", line=lineno)
            if max(row) >= 2 ** 63:
                raise ParseError("state value does not fit in a 64-bit integer", line=lineno)
            rows.append(row)
    if not rows:
        raise ParseError("sample file has no data rows", line=2)
    arr = np.asarray(rows, dtype=np.int64)
    return SampleSet(rows=arr, variable_names=names, n_states=int(arr.max()))


def read_outcome(reader, path):
    try:
        s = reader(path)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    assert s.columns.dtype == np.min_scalar_type(s.n_states)
    return ("ok", (s.columns.T + 1).tolist(), s.n_states, s.variable_names)


# Cells int() accepts and numpy's reader rejects, cells both reject, and edge values.
ODD_CELLS = ["+1", " 1 ", "1_0", "#", "-1", "0", str(2 ** 63), str(2 ** 63 - 1),
             "", " ", "x", "1.0", "\uff11", "\u0663", "\t3", "\x0c2", "\xa02"]


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 3))
    good = st.lists(st.sampled_from(["1", "2", "3", "12", "007", "300", str(10 ** 18 - 1),
                                     str(2 ** 63 - 1)]),
                    min_size=width, max_size=width).map(",".join)
    odd = st.lists(st.sampled_from(ODD_CELLS + ["1", "2"]),
                   min_size=1, max_size=4).map(",".join)  # often ragged
    blank = st.sampled_from(["", "  ", "\t"])
    line = st.sampled_from([good, good, good, good, odd, blank])
    lines = draw(st.lists(line.flatmap(lambda s: s), max_size=16))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    header = ",".join(f"v{i}" for i in range(width))
    return eol.join([header, *lines]) + draw(st.sampled_from(["", eol]))


class TestCsvReader:
    """The chunked reader against the one-loop reference: equal rows and
    n_states, or the same ParseError message and line."""

    def check(self, path, text, chunk=16):
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(model, "_CSV_CHUNK_CHARS", chunk):
            got = read_outcome(SampleSet.from_csv, path)
        assert got == read_outcome(reference_from_csv, path)
        return got

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), chunk=st.integers(1, 20))
    def test_matches_reference(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        self.check(path, text, chunk)

    @pytest.mark.parametrize("fault", ["1,x", "1", "1,2,3", f"1,{2 ** 63}", "0,1",
                                       "1_0,1", "  "])
    @pytest.mark.parametrize("at", [3, 4, 5])  # the chunk boundary is before line 4
    def test_fault_around_chunk_boundary(self, tmp_path, fault, at):
        lines = ["1,2"] * 10
        lines[at] = fault
        self.check(tmp_path / "s.csv", "a,b\n" + "\n".join(lines) + "\n")

    def test_first_of_two_faults_is_reported(self, tmp_path):
        lines = ["1,2"] * 12
        lines[1], lines[9] = "1,x", "1"
        got = self.check(tmp_path / "s.csv", "a,b\n" + "\n".join(lines) + "\n")
        assert got == ("error", "non-integer state value (line 3)", 3)
        # A state out of range is a fault of its own line, found as the line is
        # read, so it wins over a later field-count fault like any other.
        lines[1] = f"1,{2 ** 63}"
        got = self.check(tmp_path / "s.csv", "a,b\n" + "\n".join(lines) + "\n")
        assert got == ("error", "state value does not fit in a 64-bit integer (line 3)", 3)

    def test_rows_from_many_chunks(self, small_tree, tmp_path):
        s = sample(small_tree, 50, 3)
        path = tmp_path / "s.csv"
        s.to_csv(path)
        with mock.patch.object(model, "_CSV_CHUNK_CHARS", 64):
            back = SampleSet.from_csv(path)
        assert np.array_equal(back.columns, s.columns) and back.n_states == s.n_states

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["a,b\n1,2\n2,1\n\n\n1,1\n",  # a chunk of blank lines
                                      "a,b\n1,2\n\n2,1\n\n1,1\n"])  # blank lines among rows
    def test_blank_lines_warn_nothing(self, tmp_path, text):
        got = self.check(tmp_path / "s.csv", text, chunk=2)
        assert got == ("ok", [[1, 2], [2, 1], [1, 1]], 2, ["a", "b"])

    @pytest.mark.parametrize("text, error", [
        ("a,b\n1,2\n1,2,3\n4\n", "expected 2 fields, got 3 (line 3)"),
        ("a,b\n1,2\n1 2\n", "expected 2 fields, got 1 (line 3)")])
    def test_separators_that_add_up_but_misplaced(self, tmp_path, text, error):
        # Each block holds as many commas and newlines (the first) or separators
        # (the second) as two good rows, but not where they belong.
        got = self.check(tmp_path / "s.csv", text)
        assert got[:2] == ("error", error)


class TestCsvTiers:
    """Which reader reads a block: plain digit fields take the byte parser, other
    spellings numpy accepts take np.loadtxt, and only the rest the line loop."""

    @pytest.mark.parametrize("chunk", [64, 2 ** 16])
    @pytest.mark.parametrize("n", [9, 10, 99])
    def test_written_files_take_the_digit_parser(self, tmp_path, n, chunk):
        rows = np.random.default_rng(n).integers(1, n + 1, size=(400, 5))
        rows[0, 0], rows[1, 1] = 1, n
        path = tmp_path / "s.csv"
        SampleSet(rows=rows, variable_names=list("abcde"), n_states=n).to_csv(path)
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("np.loadtxt")), \
                mock.patch.object(model, "_parse_csv_lines", side_effect=AssertionError("loop")), \
                mock.patch.object(model, "_CSV_CHUNK_CHARS", chunk):
            back = SampleSet.from_csv(path)
        assert np.array_equal(back.columns.T + 1, rows) and back.n_states == n

    @pytest.mark.parametrize("text, rows", [
        ("a,b\n1, 2\n2, 1\n", [[1, 2], [2, 1]]),
        ("a,b\n1,2\n+3,1\n", [[1, 2], [3, 1]]),
        ("a,b\n1,300\n2,1\n", [[1, 300], [2, 1]]),
        (f"a,b\n1,{10 ** 18 - 1}\n007,2\n", [[1, 10 ** 18 - 1], [7, 2]]),
        (f"a,b\n1,2\n{2 ** 63 - 1},1\n", [[1, 2], [2 ** 63 - 1, 1]])])
    def test_other_spellings_reach_numpy_not_the_loop(self, tmp_path, text, rows):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
                mock.patch.object(model, "_parse_csv_lines", side_effect=AssertionError("loop")):
            back = SampleSet.from_csv(path)
        assert loadtxt.call_count == 1
        assert (back.columns.T.astype(object) + 1).tolist() == rows

    def test_odd_cell_sends_only_its_block_to_the_loop(self, tmp_path):
        rows = np.random.default_rng(0).integers(1, 11, size=(50_000, 32))
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        SampleSet(rows=rows, variable_names=[f"X{i}" for i in range(32)],
                  n_states=10).to_csv(plain)
        lines = plain.read_text().split("\n")
        lines[2] = "1_0" + lines[2][lines[2].index(","):]  # row 2's first state is 10
        odd.write_text("\n".join(lines))
        with open(odd) as fh:
            fh.readline()
            first_block = fh.readlines(model._CSV_CHUNK_CHARS)
        assert len(first_block) < 50_000 // 3
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
                mock.patch.object(model, "_parse_csv_lines", wraps=model._parse_csv_lines) as loop:
            got = SampleSet.from_csv(odd)
        # Only the first block reached numpy and the loop; _parse_digits read the rest.
        assert loadtxt.call_count == 1 and loop.call_count == 1
        assert loop.call_args.args == (first_block, 2, 32)
        want = reference_from_csv(odd)
        assert np.array_equal(got.columns, want.columns) and got.n_states == want.n_states
        peaks = []
        for path in (plain, odd):
            tracemalloc.start()
            try:
                SampleSet.from_csv(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.parametrize("bad, numpy_reads", [("0", False), ("-1", True)])
    def test_state_below_one_names_its_line(self, tmp_path, bad, numpy_reads):
        # Blocks of 8 characters: lines 2-3, then 4-5, whose line 5 has one field.
        path = tmp_path / "s.csv"
        path.write_text(f"a,b\n1,2\n{bad},1\n2,2\n1\n")
        with mock.patch.object(model, "_CSV_CHUNK_CHARS", 8), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            got = read_outcome(SampleSet.from_csv, path)
        assert got == ("error", "states must be 1-based positive integers (line 3)", 3)
        assert got == read_outcome(reference_from_csv, path)
        assert loadtxt.call_count == numpy_reads

    def test_leading_zero_takes_the_digit_parser(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1,99\n07,2\n")
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("np.loadtxt")):
            back = SampleSet.from_csv(path)
        assert (back.columns.T + 1).tolist() == [[1, 99], [7, 2]]


class TestTreeStructure:
    def test_quartet_tree_shape(self):
        t = quartet_tree([5, 6, 7, 8], QuartetRelation.PAIR_13_24)
        assert t.d == 4 and len(t.hidden) == 2
        # Positions 1 and 3 (ids 5, 7) share a hidden neighbor.
        assert t.neighbors(5)[0] == t.neighbors(7)[0]

    def test_hidden_degree_enforced(self):
        with pytest.raises(ModelError):
            LatentTree({0: [2], 1: [2], 2: [0, 1]}, {0: "a", 1: "b"})

    def test_cycle_rejected(self):
        adj = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
        with pytest.raises(ModelError):
            LatentTree(adj, {0: "a", 1: "b", 2: "c"})

    def test_binary_tree_hidden_count(self):
        for d in (4, 8, 16):
            t = random_topology(d, 0.5, d)
            assert len(t.hidden) == d - 2
            assert all(len(t.neighbors(h)) == 3 for h in t.hidden)


class TestParameterEdges:
    """``TreeParameters.validate`` wants one CPT per edge, oriented away from the root."""

    def rebuilt(self, tree, cpts):
        p = tree.params
        params = TreeParameters(n=p.n, k=p.k, root=p.root, root_marginal=p.root_marginal,
                                cpts=cpts)
        return LatentTree({u: tree.neighbors(u) for u in tree.nodes()}, tree.leaf_names,
                          params=params)

    def test_missing_cpt(self):
        tree = random_tree_model(6, 0.5, 3, 2, 0.5, 1)
        cpts = dict(tree.params.cpts)
        del cpts[(6, 0)]
        with pytest.raises(ModelError, match=r"missing cpt for \[\(6, 0\)\], stray cpt for \[\]"):
            self.rebuilt(tree, cpts)

    def test_cpt_on_a_non_edge(self):
        tree = random_tree_model(6, 0.5, 3, 2, 0.5, 1)
        cpts = {**tree.params.cpts, (0, 1): np.full((3, 3), 1 / 3)}
        with pytest.raises(ModelError, match=r"missing cpt for \[\], stray cpt for \[\(0, 1\)\]"):
            self.rebuilt(tree, cpts)

    def test_cpt_toward_the_root(self):
        tree = random_tree_model(6, 0.5, 3, 2, 0.5, 1)
        cpts = dict(tree.params.cpts)
        table = cpts.pop((6, 0)).T  # right shape and column-stochastic, wrong way round
        cpts[(0, 6)] = table / table.sum(axis=0)
        with pytest.raises(ModelError, match=r"missing cpt for \[\(6, 0\)\], "
                                             r"stray cpt for \[\(0, 6\)\]"):
            self.rebuilt(tree, cpts)


ORIENTATION_TREES = [("random", d, beta, seed) for d in (4, 5, 9, 33, 200)
                     for beta in (0.1, 0.5) for seed in range(3)]
ORIENTATION_TREES += [("caterpillar", d, None, None) for d in (4, 5, 60, 300)]
# Oriented from a parameter root that is neither the lowest id nor the lowest hidden id.
ORIENTATION_TREES += [("parameterized", d, beta, seed) for d in (4, 9, 60)
                      for beta in (0.1, 0.5) for seed in range(2)]


def orientation_tree(shape, d, beta, seed):
    if shape == "parameterized":
        tree = random_tree_model(d, beta, 3, 2, 0.5, [d, seed])
        return from_root(tree, max(tree.hidden))
    return caterpillar(d) if shape == "caterpillar" else random_topology(d, beta, [d, seed])


@pytest.mark.parametrize("case", ORIENTATION_TREES, ids=str)
class TestOrientationMatchesReferences:
    """The parent-and-depth climbs against plain depth-first searches."""

    def test_path(self, case):
        t = orientation_tree(*case)
        rng = np.random.default_rng(t.d)
        for u, v in rng.choice(t.nodes(), size=(100, 2)).tolist():  # may repeat
            assert t.distance(u, v) == len(dfs_path(t, u, v)) - 1

    def test_oracle(self, case):
        t = orientation_tree(*case)
        rng = np.random.default_rng(t.d)
        for _ in range(100):
            q = rng.choice(t.leaves, size=4, replace=False).tolist()
            assert resolve_oracle(t, q) == disjoint_path_oracle(t, q)


class TestOneOrientation:
    """A tree is walked once, when it is built; every later query reads that walk."""

    def test_one_walk_per_parameterized_tree(self):
        tree = from_root(random_tree_model(12, 0.5, 3, 2, 0.5, 4), 19)
        assert tree.params.root == 19 != min(tree.hidden)
        with mock.patch.object(model, "bfs_edges", wraps=model.bfs_edges) as walk:
            tree = LatentTree({u: tree.neighbors(u) for u in tree.nodes()}, tree.leaf_names,
                              params=tree.params)
            assert walk.call_count == 1
            edges = tree.parent_order()
            sample(tree, 100, 0)
            exact_quartet_distribution(tree, (3, 0, 7, 11))
            tree.node_marginal(5)
            choose_balanced_root(tree)
            assert walk.call_count == 1
        assert edges == tuple(tree.bfs_edges(19))

    def test_unparameterized_tree_orients_from_lowest_id(self):
        tree = random_topology(9, 0.5, 2)
        assert tree.parent_order() == tuple(tree.bfs_edges(0))


class TestOrientationErrors:
    def test_unknown_node_is_model_error(self):
        t = random_topology(6, 0.5, 0)
        for u, v in ((0, 999), (999, 0), (999, 999)):
            with pytest.raises(ModelError):
                t.distance(u, v)
        with pytest.raises(ModelError):
            resolve_oracle(t, (0, 1, 2, 999))

    def test_disconnected_rejected(self):
        # A triangle beside an isolated node: right edge count, two components.
        adj = {0: [1, 2], 1: [0, 2], 2: [0, 1], 3: []}
        with pytest.raises(ModelError, match="not connected"):
            LatentTree(adj, {3: "a"})
