"""Unit tests for latent tree models, exact marginals, and sampling."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortree import model
from tensortree import (LatentTree, QuartetRelation, SampleSet, TreeParameters,
                        empirical_pairwise, empirical_quartet_tensor,
                        exact_quartet_distribution, marginal,
                        pairwise_distribution, quartet_tree, reroot, sample)
from tensortree.bench import parameterize, random_topology, random_tree_model
from tensortree.exceptions import ModelError, ParseError


def brute_force_quartet(tree, leaves):
    """Exhaustive joint over all node states, marginalized to four leaves."""
    p = tree.params
    order = [p.root] + [child for _, child in tree.parent_order()]
    parents = {child: parent for parent, child in tree.parent_order()}
    sizes = [p.n if tree.is_leaf(v) else p.k for v in order]
    out = np.zeros((p.n,) * 4)
    for states in itertools.product(*(range(s) for s in sizes)):
        assign = dict(zip(order, states))
        prob = p.root_marginal[assign[p.root]]
        for child, parent in parents.items():
            prob *= p.cpts[(parent, child)][assign[child], assign[parent]]
        out[tuple(assign[x] for x in leaves)] += prob
    return out


@pytest.fixture(scope="module")
def small_tree():
    return random_tree_model(5, 0.5, 3, 2, 1.0, 42)


class TestExactQuartet:
    def test_matches_brute_force(self, small_tree):
        leaves = (0, 1, 2, 3)
        exact = exact_quartet_distribution(small_tree, leaves)
        assert np.allclose(exact.values, brute_force_quartet(small_tree, leaves),
                           atol=1e-12)

    def test_matches_brute_force_shuffled_leaf_order(self, small_tree):
        for leaves in [(3, 0, 4, 1), (2, 4, 1, 0), (4, 2, 3, 1)]:
            exact = exact_quartet_distribution(small_tree, leaves)
            assert np.allclose(exact.values,
                               brute_force_quartet(small_tree, leaves),
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

    def test_unparameterized_rejected(self):
        bare = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        with pytest.raises(ModelError):
            exact_quartet_distribution(bare, (0, 1, 2, 3))

    def test_root_invariance(self, small_tree):
        other = reroot(small_tree, max(small_tree.hidden))
        for leaves in [(0, 1, 2, 3), (1, 2, 3, 4)]:
            a = exact_quartet_distribution(small_tree, leaves)
            b = exact_quartet_distribution(other, leaves)
            assert np.allclose(a.values, b.values, atol=1e-10)


class TestPairwise:
    def test_margins(self, small_tree):
        p = pairwise_distribution(small_tree, 0, 3)
        assert np.allclose(p.sum(axis=1), marginal(small_tree, 0), atol=1e-12)
        assert np.allclose(p.sum(axis=0), marginal(small_tree, 3), atol=1e-12)

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
        assert np.array_equal(a.rows, b.rows)

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
        assert np.array_equal(s.rows[:, 1], 3 - s.rows[:, 0])  # swapped copy
        assert np.array_equal(s.rows[:, 0], s.rows[:, 2])
        # Empirical root marginal within 3 sigma of the multinomial truth.
        freq = np.mean(s.rows[:, 0] == 2)
        sigma = np.sqrt(0.75 * 0.25 / 10000)
        assert abs(freq - 0.75) <= 3 * sigma

    def test_marginal_concentration(self, small_tree):
        exact = exact_quartet_distribution(small_tree, (0, 1, 2, 3))
        s = sample(small_tree, 100000, 5)
        emp = empirical_quartet_tensor(s, (0, 1, 2, 3))
        assert np.linalg.norm(emp.values - exact.values) < 0.02


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

    def test_larger_explicit_n_pads(self):
        rows = np.array([[1, 2, 1, 2], [2, 2, 1, 1]])
        s = SampleSet(rows=rows, variable_names=list("abcd"), n_states=2)
        assert np.array_equal(empirical_pairwise(s, 0, 1, n=3),
                              reference_counts(rows, (0, 1), 3) / 2)
        assert np.array_equal(empirical_quartet_tensor(s, (0, 1, 2, 3), n=3).values,
                              reference_counts(rows, (0, 1, 2, 3), 3) / 2)

    def test_column_store_dtype(self):
        s = SampleSet(rows=np.array([[1, 300, 1, 2]]), variable_names=list("abcd"),
                      n_states=300)
        assert s.columns.dtype == np.uint16 and s.columns.flags.c_contiguous
        assert s.columns[:, 0].tolist() == [0, 299, 0, 1]


class TestPairwiseValidation:
    def samples(self):
        return SampleSet(rows=np.array([[1, 2, 3, 1], [2, 1, 1, 3]]),
                         variable_names=list("abcd"), n_states=3)

    @pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (0, 4), (4, 1)])
    def test_index_out_of_range(self, i, j):
        with pytest.raises(ValueError, match="column index out of range 0..3"):
            empirical_pairwise(self.samples(), i, j)

    def test_state_above_explicit_n(self):
        with pytest.raises(ValueError, match="state out of range 1..2"):
            empirical_pairwise(self.samples(), 0, 2, n=2)
        # Columns whose states all lie in 1..n are counted.
        assert empirical_pairwise(self.samples(), 0, 1, n=2).tolist() == [
            [0.0, 0.5], [0.5, 0.0]]

    def test_same_column(self):
        with pytest.raises(ValueError, match="two distinct"):
            empirical_pairwise(self.samples(), 1, 1)


class TestSampleCsv:
    def test_round_trip(self, small_tree, tmp_path):
        s = sample(small_tree, 50, 9)
        path = tmp_path / "s.csv"
        s.to_csv(path)
        back = SampleSet.from_csv(path)
        assert np.array_equal(back.rows, s.rows)
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
    assert s.rows.dtype == np.int64
    return ("ok", s.rows.tolist(), s.n_states, s.variable_names)


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
    kind = st.sampled_from([good, good, good, good, odd, blank])
    lines = draw(st.lists(kind.flatmap(lambda s: s), max_size=16))
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
        assert np.array_equal(back.rows, s.rows) and back.n_states == s.n_states

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

    def test_median(self):
        t = random_topology(8, 0.5, 1)
        m = t.median(0, 1, 2)
        assert m in t.hidden
        assert m in t.path(0, 1) and m in t.path(0, 2) and m in t.path(1, 2)
