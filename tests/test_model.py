"""Unit tests for latent tree models, exact marginals, and sampling."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortree import model
from tensortree import (LatentTree, QuartetRelation, SampleSet, TreeParameters,
                        empirical_pairwise, empirical_pairwise_stack,
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
    # uint8 (or a uint16) would wrap.
    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_bitwise_equal(self, n):
        rng = np.random.default_rng(n)
        m = 3000
        rows = rng.integers(1, n + 1, size=(m, 6))
        s = SampleSet(rows=rows, variable_names=list("abcdef"), n_states=n)
        for _ in range(10):
            idx = tuple(int(i) for i in rng.choice(6, size=4, replace=False))
            want = reference_counts(rows, idx, n) / m
            assert np.array_equal(empirical_quartet_tensor(s, idx).values, want)
            assert np.array_equal(empirical_pairwise(s, *idx[:2]),
                                  reference_counts(rows, idx[:2], n) / m)

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
        # Chunks of two lines narrow to uint8, uint16 and uint32; the line
        # loop reads the last chunk ("+3").
        lines = ["1,2", "3,1", "2,300", "1,1", "70000,1", "+3,1"]
        path = tmp_path / "s.csv"
        path.write_text("a,b\n" + "\n".join(lines) + "\n")
        with mock.patch.object(model, "_CSV_CHUNK_LINES", 2):
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


def assert_stack_matches(samples, i, j):
    """``empirical_pairwise_stack`` against its reference, one count per pair."""
    got = empirical_pairwise_stack(samples, i, j)
    want = np.array([empirical_pairwise(samples, a, b) for a, b in zip(i, j)])
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)


class TestPairwiseStack:
    """``empirical_pairwise_stack`` equals ``empirical_pairwise`` bit for bit."""

    def samples(self, m, d=4, n=3, n_states=None, seed=0):
        rows = np.random.default_rng(seed).integers(1, n + 1, size=(m, d))
        return SampleSet(rows=rows, variable_names=[f"X{c}" for c in range(d)],
                         n_states=n_states or n)

    @pytest.mark.parametrize("m", [1, 4, 5, 6, 10, 11])
    def test_around_a_block(self, m):
        # d * n = 12 and 60 one-hot entries: blocks of 5 samples.
        s = self.samples(m)
        i, j = np.nonzero(~np.eye(4, dtype=bool))  # both orders of every pair
        with mock.patch.object(model, "_ONE_HOT_ENTRIES", 60):
            assert_stack_matches(s, i, j)

    def test_constant_column_and_unused_states(self):
        rows = np.random.default_rng(1).integers(1, 4, size=(300, 5))
        rows[:, 2] = 4
        s = SampleSet(rows=rows, variable_names=list("abcde"), n_states=7)
        assert_stack_matches(s, *np.triu_indices(5, 1))
        assert_stack_matches(s, [2, 4, 2], [0, 2, 1])

    def test_two_columns(self):
        s = self.samples(50, d=2, n=2, seed=2)
        assert_stack_matches(s, [0], [1])
        assert_stack_matches(s, [1, 0], [0, 1])

    def test_counts_past_float32_exactness(self):
        # 2^24 + 1 equal rows: a float32 sum of ones stops at 2^24.
        m = 2 ** 24 + 1
        s = SampleSet(rows=np.ones((m, 2), dtype=np.uint8), variable_names=["a", "b"],
                      n_states=1)
        assert empirical_pairwise_stack(s, [0], [1]).tolist() == [[[1.0]]]

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 6), n=st.integers(1, 4), extra=st.integers(0, 2),
           m=st.integers(1, 40), block=st.integers(1, 30), seed=st.integers(0, 2 ** 16))
    def test_matches_per_pair_counts(self, d, n, extra, m, block, seed):
        s = self.samples(m, d=d, n=n, n_states=n + extra, seed=seed)
        i, j = np.nonzero(~np.eye(d, dtype=bool))
        with mock.patch.object(model, "_ONE_HOT_ENTRIES", block * d * (n + extra)):
            assert_stack_matches(s, i, j)


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


def reference_from_csv(path) -> SampleSet:
    """The reader as one ``int()`` loop over all lines, before chunked parsing."""
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
                rows.append([int(p) for p in parts])
            except ValueError:
                raise ParseError("non-integer state value", line=lineno) from None
    if not rows:
        raise ParseError("sample file has no data rows", line=2)
    try:
        arr = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        raise ParseError("state value does not fit in a 64-bit integer") from None
    if arr.min() < 1:
        raise ParseError("states must be 1-based positive integers")
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
    good = st.lists(st.sampled_from(["1", "2", "3", "12"]),
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

    def check(self, path, text, chunk=4):
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(model, "_CSV_CHUNK_LINES", chunk):
            got = read_outcome(SampleSet.from_csv, path)
        assert got == read_outcome(reference_from_csv, path)
        return got

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), chunk=st.integers(1, 5))
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
        # An overflow is found after the whole file is read, so a later
        # field-count fault wins, as it did with one loop.
        lines[1] = f"1,{2 ** 63}"
        got = self.check(tmp_path / "s.csv", "a,b\n" + "\n".join(lines) + "\n")
        assert got == ("error", "expected 2 fields, got 1 (line 11)", 11)

    def test_rows_from_many_chunks(self, small_tree, tmp_path):
        s = sample(small_tree, 50, 3)
        path = tmp_path / "s.csv"
        s.to_csv(path)
        with mock.patch.object(model, "_CSV_CHUNK_LINES", 7):
            back = SampleSet.from_csv(path)
        assert np.array_equal(back.columns, s.columns) and back.n_states == s.n_states

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["a,b\n1,2\n2,1\n\n\n1,1\n",  # a chunk of blank lines
                                      "a,b\n1,2\n\n2,1\n\n1,1\n"])  # blank lines among rows
    def test_blank_lines_warn_nothing(self, tmp_path, text):
        got = self.check(tmp_path / "s.csv", text, chunk=2)
        assert got == ("ok", [[1, 2], [2, 1], [1, 1]], 2, ["a", "b"])


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


ORIENTATION_TREES = [("random", d, beta, seed) for d in (4, 5, 9, 33, 200)
                     for beta in (0.1, 0.5) for seed in range(3)]
ORIENTATION_TREES += [("caterpillar", d, None, None) for d in (4, 5, 60, 300)]


def orientation_tree(shape, d, beta, seed):
    return caterpillar(d) if shape == "caterpillar" else random_topology(d, beta, [d, seed])


@pytest.mark.parametrize("case", ORIENTATION_TREES, ids=str)
class TestOrientationMatchesReferences:
    """The parent-and-depth climbs against plain depth-first searches."""

    def test_path(self, case):
        t = orientation_tree(*case)
        rng = np.random.default_rng(t.d)
        for u, v in rng.choice(t.nodes(), size=(100, 2)).tolist():  # may repeat
            assert t.path(u, v) == dfs_path(t, u, v)

    def test_oracle(self, case):
        t = orientation_tree(*case)
        rng = np.random.default_rng(t.d)
        for _ in range(100):
            q = rng.choice(t.leaves, size=4, replace=False).tolist()
            assert resolve_oracle(t, q) == disjoint_path_oracle(t, q)


class TestOrientationErrors:
    def test_unknown_node_is_model_error(self):
        t = random_topology(6, 0.5, 0)
        for u, v in ((0, 999), (999, 0), (999, 999)):
            with pytest.raises(ModelError):
                t.path(u, v)
        with pytest.raises(ModelError):
            resolve_oracle(t, (0, 1, 2, 999))

    def test_disconnected_rejected(self):
        # A triangle beside an isolated node: right edge count, two components.
        adj = {0: [1, 2], 1: [0, 2], 2: [0, 1], 3: []}
        with pytest.raises(ModelError, match="not connected"):
            LatentTree(adj, {3: "a"})
