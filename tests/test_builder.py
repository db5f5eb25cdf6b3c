"""Unit tests for the divide-and-conquer tree builder."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortree import (QuartetRelation, build_tree, choose_balanced_root,
                        quartet_tree, resolve_oracle, robinson_foulds)
from tensortree.bench import random_topology
from tensortree.model import LatentTree

from helpers import caterpillar, component


def oracle_resolver(tree):
    return lambda a, b, c, d: resolve_oracle(tree, (a, b, c, d))


def random_resolver(seed):
    """Adversarial resolver: a seeded random relation for every quartet."""
    rng = np.random.default_rng(seed)
    return lambda *quartet: QuartetRelation(int(rng.integers(1, 4)))


def insertion_depths(trace):
    """Each insertion's search depth, read from the verdict log: every quartet an
    insertion asks starts with its new leaf, and the first quartet is a run of one."""
    return [len(list(run)) for _, run in itertools.groupby(trace.verdicts, lambda v: v[0][0])]


def _direction_edges(tree, center, neighbor):
    comp = component(tree, neighbor, center)
    edges = {frozenset((center, neighbor))}
    for x in comp:
        for y in tree.neighbors(x):
            if y in comp:
                edges.add(frozenset((x, y)))
    return frozenset(edges)


def _reference_insert(tree, u, v, leaf):
    fresh = max(max(tree.nodes()), leaf) + 1
    adj = {x: list(tree.neighbors(x)) for x in tree.nodes()}
    adj[u].remove(v)
    adj[v].remove(u)
    adj[u].append(fresh)
    adj[v].append(fresh)
    adj[fresh] = [u, v, leaf]
    adj[leaf] = [fresh]
    return LatentTree(adj, {**tree.leaf_names, leaf: f"X{leaf}"})


def reference_build(resolver, variables, seed=0):
    """The per-step search written plainly: the candidates as a set of edges,
    graph walks for every hidden node and direction at every step, and a
    ``LatentTree`` rebuilt on every insertion.  Returns the tree, the verdicts
    and the insertion depths."""
    order = [int(v) for v in variables]
    rng = np.random.default_rng(seed)
    verdicts, depths = [], [1]

    def ask(quartet):
        rel = QuartetRelation(resolver(*quartet))
        verdicts.append((tuple(quartet), rel))
        return rel

    tree = quartet_tree(order[:4], ask(order[:4]), hidden_start=max(order) + 1)
    for x in order[4:]:
        candidates = {frozenset(e) for e in tree.edges()}
        depth = 0
        while len(candidates) > 1:
            best, best_score = None, None
            for h in tree.hidden:
                score = max(len(candidates & _direction_edges(tree, h, nb))
                            for nb in tree.neighbors(h))
                if best_score is None or score < best_score:
                    best, best_score = h, score
            reps = []
            for nb in tree.neighbors(best):
                leaves = sorted(x for x in component(tree, nb, best) if tree.is_leaf(x))
                reps.append(leaves[rng.integers(len(leaves))])
            rel = ask((x, *reps))
            depth += 1
            chosen = tree.neighbors(best)[int(rel) - 1]
            candidates &= _direction_edges(tree, best, chosen)
        depths.append(depth)
        (edge,) = candidates  # an empty set here would mean a dead end
        tree = _reference_insert(tree, *sorted(edge), x)
    return tree, verdicts, depths


class TestBuildTree:
    def test_four_leaves(self):
        truth = random_topology(4, 0.5, 0)
        built, trace = build_tree(oracle_resolver(truth), truth.leaves)
        assert robinson_foulds(built, truth) == 0
        assert trace.quartet_test_count == 1

    def test_oracle_exact_recovery(self):
        for seed in range(5):
            truth = random_topology(12, 0.3, seed)
            built, _ = build_tree(oracle_resolver(truth), truth.leaves, seed=seed)
            assert robinson_foulds(built, truth) == 0

    def test_structure_invariants(self):
        truth = random_topology(16, 0.5, 3)
        built, _ = build_tree(oracle_resolver(truth), truth.leaves, seed=1)
        assert built.d == 16 and len(built.hidden) == 14
        assert all(len(built.neighbors(h)) == 3 for h in built.hidden)

    def test_determinism(self):
        truth = random_topology(10, 0.5, 4)
        r = oracle_resolver(truth)
        t1, tr1 = build_tree(r, truth.leaves, seed=9)
        t2, tr2 = build_tree(r, truth.leaves, seed=9)
        assert robinson_foulds(t1, t2) == 0
        assert tr1.verdicts == tr2.verdicts

    def test_too_few_variables(self):
        with pytest.raises(ValueError):
            build_tree(lambda *a: QuartetRelation.PAIR_12_34, [0, 1, 2])

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            build_tree(lambda *a: QuartetRelation.PAIR_12_34, [0, 1, 2, 2])

    def test_accepts_plain_relation_resolver(self):
        truth = random_topology(6, 0.5, 5)
        built, _ = build_tree(oracle_resolver(truth), truth.leaves)
        assert robinson_foulds(built, truth) == 0


def largest_branch(tree, h):
    """Most leaves in one of the three branches at hidden node h."""
    return max(sum(map(tree.is_leaf, component(tree, nb, h))) for nb in tree.neighbors(h))


def reference_balanced_root(tree):
    """Three component walks per hidden node: the definition, kept as the
    reference for the one-pass version."""
    return min(tree.hidden, key=lambda h: (largest_branch(tree, h), h))


class TestChooseBalancedRoot:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed):
        for d in [*range(5, 257, 7), 256]:
            t = random_topology(d, 0.5, seed)
            assert choose_balanced_root(t) == reference_balanced_root(t), d

    def test_four_leaf_lowest_id(self):
        t = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        assert choose_balanced_root(t) == min(t.hidden)

    def test_caterpillar_middle(self):
        t = caterpillar(6)
        root = choose_balanced_root(t)
        best = min(largest_branch(t, h) for h in t.hidden)
        got = largest_branch(t, root)
        assert got == best == 3

    def test_star_of_cherries(self):
        # Four cherries hanging off two central hidden nodes.
        t = random_topology(8, 0.5, 17)
        root = choose_balanced_root(t)
        assert largest_branch(t, root) == min(largest_branch(t, h) for h in t.hidden)


class TestTrace:
    def test_counts_and_depths(self):
        truth = random_topology(16, 0.5, 6)
        _, trace = build_tree(oracle_resolver(truth), truth.leaves, seed=2)
        _, _, depths = reference_build(oracle_resolver(truth), truth.leaves, seed=2)
        assert len(depths) == 16 - 3 and depths[0] == 1
        assert insertion_depths(trace) == depths
        assert trace.quartet_test_count == len(trace.verdicts) == sum(depths)


class TestMatchesReference:
    @pytest.mark.parametrize("d", [5, 8, 13, 32])
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("source", ["oracle", "random"])
    def test_same_verdicts_depths_and_edges(self, d, shuffle, source):
        for seed in range(3):
            truth = random_topology(d, 0.5, seed)
            order = truth.leaves
            if shuffle:
                order = np.random.default_rng([seed, 1]).permutation(order).tolist()

            def resolver():
                if source == "oracle":
                    return oracle_resolver(truth)
                return random_resolver(seed + 100)

            built, trace = build_tree(resolver(), order, seed=seed)
            ref, verdicts, depths = reference_build(resolver(), order, seed=seed)
            assert trace.verdicts == verdicts
            assert insertion_depths(trace) == depths
            assert built.edges() == ref.edges()

    @pytest.mark.parametrize("d", [5, 8, 13, 32, 64])
    def test_adversarial_verdicts_give_binary_tree(self, d):
        for seed in range(5):
            order = np.random.default_rng([seed, 1]).permutation(d).tolist()
            built, _ = build_tree(random_resolver(seed), order, seed=seed)
            assert built.leaves == list(range(d))
            assert len(built.hidden) == d - 2
            assert all(len(built.neighbors(h)) == 3 for h in built.hidden)


class TestInsertionOrder:
    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(4, 40).flatmap(lambda d: st.permutations(range(d))),
           beta=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1))
    def test_oracle_build_exact_under_any_leaf_order(self, order, beta, seed):
        truth = random_topology(len(order), beta, seed)
        built, _ = build_tree(oracle_resolver(truth), order, seed=seed)
        assert robinson_foulds(built, truth) == 0
