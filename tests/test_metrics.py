"""Unit tests for bipartitions, Robinson-Foulds, and Newick IO."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortree import (QuartetRelation, bipartitions, from_newick,
                        quartet_tree, robinson_foulds, to_newick)
from tensortree.bench import random_topology
from tensortree.exceptions import ParseError
from tensortree.model import LatentTree

from helpers import caterpillar, component


def brute_force_bipartitions(tree):
    """Oracle: remove each internal edge and collect both leaf sides."""
    names = sorted(tree.leaf_names.values())
    anchor = names[0]
    out = set()
    for u, v in tree.edges():
        if tree.is_leaf(u) or tree.is_leaf(v):
            continue
        side = frozenset(tree.leaf_names[x]
                         for x in component(tree, u, v) if tree.is_leaf(x))
        if anchor in side:
            side = frozenset(set(names) - side)
        out.add(side)
    return frozenset(out)


class TestBipartitions:
    def test_four_leaf_single_split(self):
        t = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        bp = bipartitions(t)
        assert len(bp) == 1
        (split,) = bp
        assert split in (frozenset({"X0", "X1"}), frozenset({"X2", "X3"}))

    def test_count_is_d_minus_3(self):
        for t in (random_topology(8, 0.5, 8), random_topology(16, 0.5, 16), caterpillar(1100)):
            assert len(bipartitions(t)) == t.d - 3

    def test_matches_brute_force(self):
        for d in (4, 5, 6, 9, 33, 200):
            trees = [random_topology(d, beta, seed) for beta in (0.1, 0.4) for seed in range(10)]
            for t in [*trees, caterpillar(d)]:
                assert bipartitions(t) == brute_force_bipartitions(t)

    def test_invariant_under_internal_relabeling(self):
        t = random_topology(8, 0.5, 3)
        shift = {u: (u + 100 if not t.is_leaf(u) else u) for u in t.nodes()}
        adj = {shift[u]: [shift[v] for v in t.neighbors(u)] for u in t.nodes()}
        relabeled = LatentTree(adj, t.leaf_names)
        assert bipartitions(relabeled) == bipartitions(t)


class TestRobinsonFoulds:
    def test_self_distance_zero(self):
        for t in (random_topology(10, 0.5, 1), caterpillar(1100)):
            assert robinson_foulds(t, t) == 0

    def test_two_quartet_pairings(self):
        t1 = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        t2 = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_13_24)
        assert robinson_foulds(t1, t2) == 2

    def test_maximum_value_achievable(self):
        # A caterpillar and a balanced tree over relabeled leaves can disagree
        # on every internal edge: RF = 2(d-3).
        d = 16
        best = 0
        for seed in range(40):
            a = random_topology(d, 0.1, [1, seed])
            b = random_topology(d, 0.5, [2, seed])
            best = max(best, robinson_foulds(a, b))
        assert best == 2 * (d - 3)

    def test_leaf_set_mismatch(self):
        t1 = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        t2 = quartet_tree([0, 1, 2, 4], QuartetRelation.PAIR_12_34)
        with pytest.raises(ValueError):
            robinson_foulds(t1, t2)

    def test_metric_axioms_small(self):
        trees = [random_topology(8, 0.5, s) for s in range(6)]
        for a, b in itertools.combinations(trees, 2):
            assert robinson_foulds(a, b) == robinson_foulds(b, a)
            if robinson_foulds(a, b) == 0:
                assert bipartitions(a) == bipartitions(b)
        for a, b, c in itertools.combinations(trees, 3):
            assert (robinson_foulds(a, c)
                    <= robinson_foulds(a, b) + robinson_foulds(b, c))


class TestNewick:
    def test_four_leaf_form(self):
        t = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34,
                         names={0: "X1", 1: "X2", 2: "X3", 3: "X4"})
        text = to_newick(t)
        assert text.endswith(";")
        assert text.count("(") == 2
        back = from_newick(text)
        assert robinson_foulds(back, t) == 0

    def test_round_trip_random(self):
        for seed in range(10):
            t = random_topology(9, 0.4, seed)
            assert robinson_foulds(from_newick(to_newick(t)), t) == 0

    def test_deterministic_output(self):
        t = random_topology(8, 0.5, 7)
        assert to_newick(t) == to_newick(t)

    def test_branch_lengths_parsed_and_discarded(self):
        text = "((a:0.1,b:0.2)H1:0.3,(c:1,d:2)H2);"
        t = from_newick(text)
        assert t.d == 4

    def test_malformed_reports_offset(self):
        with pytest.raises(ParseError) as err:
            from_newick("(a,(b;")
        assert err.value.position is not None

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            from_newick("((a,a),(b,c));")

    def test_bad_degree_rejected(self):
        # A hidden node with four children is not a valid latent tree.
        with pytest.raises(ParseError):
            from_newick("(a,b,c,d,e);")

    def test_deep_caterpillar_round_trip(self):
        t = caterpillar(1100)
        text = to_newick(t)
        back = from_newick(text)
        assert robinson_foulds(back, t) == 0
        assert to_newick(back) == text

    @pytest.mark.parametrize("text", ["(" * 1500 + "a" + ")" * 1500 + ";",
                                      "(" * 1500 + "a,b;"], ids=["closed", "unclosed"])
    def test_deep_nesting_is_parse_error(self, text):
        with pytest.raises(ParseError):
            from_newick(text)

    def test_forbidden_leaf_characters(self):
        t = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34,
                         names={0: "a b", 1: "c", 2: "d", 3: "e"})
        with pytest.raises(ValueError):
            to_newick(t)


TOPOLOGIES = st.builds(random_topology, st.integers(4, 64), st.floats(0.05, 0.95),
                       st.integers(0, 2 ** 32 - 1))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(t=TOPOLOGIES)
    def test_zero_from_itself_and_newick_round_trip(self, t):
        assert robinson_foulds(t, t) == 0
        assert robinson_foulds(from_newick(to_newick(t)), t) == 0

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(4, 64), beta=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
           seed=st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)))
    def test_symmetric(self, d, beta, seed):
        a, b = (random_topology(d, beta[i], seed[i]) for i in range(2))
        assert robinson_foulds(a, b) == robinson_foulds(b, a)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="(),;: \n.-+eab019", max_size=40))
    def test_random_newick_raises_only_parse_error(self, text):
        try:
            from_newick(text)
        except ParseError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(t=TOPOLOGIES, edits=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                                  st.sampled_from(list("(),;: x") + [""])),
                                        min_size=1, max_size=4))
    def test_edited_newick_raises_only_parse_error(self, t, edits):
        # Each edit replaces one character of a valid tree, or deletes it.
        text = to_newick(t)
        for at, char in edits:
            i = at % len(text)
            text = text[:i] + char + text[i + 1:]
        try:
            from_newick(text)
        except ParseError:
            pass
