"""Unit tests for the three quartet resolvers."""

import numpy as np
import pytest

from tensortree import (JointTensor4, QuartetRelation, quartet_tree,
                        resolve_nuclear, resolve_oracle, resolve_spectral_k)
from tensortree.bench import (dependence_limited_model, diagnostics,
                              pairwise_tables, random_quartet_model,
                              random_topology)
from tensortree.exceptions import ModelError
from tensortree.resolvers import four_point
from tensortree.tensors import kronecker

from helpers import dfs_path

# How the three pairings map onto each other when two variables are swapped.
_SWAP_23 = {QuartetRelation.PAIR_12_34: QuartetRelation.PAIR_13_24,
            QuartetRelation.PAIR_13_24: QuartetRelation.PAIR_12_34,
            QuartetRelation.PAIR_14_23: QuartetRelation.PAIR_14_23}


def independent_tensor(n, seed):
    rng = np.random.default_rng(seed)
    ps = [rng.dirichlet(np.ones(n)) for _ in range(4)]
    vals = np.einsum("a,b,c,d->abcd", *ps)
    return JointTensor4(vals)


class TestNuclear:
    def test_population_correctness(self):
        for seed in range(20):
            model = dependence_limited_model(2, 3, 5, 0.7, seed)
            v = resolve_nuclear(model.exact_tensor())
            assert v.relation == QuartetRelation.PAIR_12_34

    def test_fully_independent_tie(self):
        v = resolve_nuclear(independent_tensor(3, 0))
        assert v.tie
        assert v.relation == QuartetRelation.PAIR_12_34  # lowest-index rule

    def test_independent_hidden_winner_score(self):
        # With an independent hidden edge the winning score collapses to the
        # Frobenius norm of P34 kron P12.
        model = random_quartet_model(2, 4, 6, 0.8, 1)
        ph, pg = model.hidden_marginals()
        from dataclasses import replace
        indep = replace(model, joint_hidden=np.outer(ph, pg))
        v = resolve_nuclear(indep.exact_tensor())
        tables = pairwise_tables(indep.exact_tensor())
        expected = np.linalg.norm(kronecker(tables[5], tables[0]))
        assert v.scores[v.relation - 1] == pytest.approx(expected, abs=1e-9)

    def test_label_equivariance(self):
        model = dependence_limited_model(2, 2, 4, 0.9, 5)
        t = model.exact_tensor()
        v = resolve_nuclear(t)
        swapped = JointTensor4(t.values.transpose(0, 2, 1, 3))
        v2 = resolve_nuclear(swapped)
        assert v2.relation == _SWAP_23[v.relation]

    def test_margin_equals_population_score_gap(self):
        model = dependence_limited_model(2, 3, 5, 0.6, 7)
        v = resolve_nuclear(model.exact_tensor())
        diag = diagnostics(model)
        assert v.margin == pytest.approx(diag.alpha_min, abs=1e-10)


class TestSpectralK:
    def test_cross_check_population(self):
        agree = 0
        for seed in range(30):
            model = dependence_limited_model(3, 3, 6, 0.8, [100, seed])
            vs = resolve_spectral_k(pairwise_tables(model.exact_tensor()), 3)
            vn = resolve_nuclear(model.exact_tensor())
            if vn.relation == QuartetRelation.PAIR_12_34:
                agree += vs.relation == vn.relation
        assert agree >= 28  # population tables, both near-exact

    def test_independent_tie(self):
        v = resolve_spectral_k(pairwise_tables(independent_tensor(3, 2)), 3)
        assert v.tie

    def test_rank_one_tables_k1(self):
        rng = np.random.default_rng(3)
        tables = np.array([np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
                           for _ in range(6)])
        v = resolve_spectral_k(tables, 1)
        # Rank-1 spectrum: sigma_1 equals the Frobenius norm, so each score is
        # the product of the two within-group Frobenius norms; rows 0..5 hold
        # the pairs 12, 13, 14, 23, 24, 34.
        norm = [np.linalg.norm(t) for t in tables]
        expected = [norm[0] * norm[5], norm[1] * norm[4], norm[2] * norm[3]]
        assert v.scores == pytest.approx(expected, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must lie in 1..2"):
            resolve_spectral_k(np.full((6, 2, 2), 0.25), 3)

    @pytest.mark.parametrize("tables", [
        np.full((5, 2, 2), 0.25), np.full((7, 2, 2), 0.25), np.full((6, 2, 3), 0.25),
        np.full((6, 4), 0.25), np.full((2, 2), 0.25),
        dict(enumerate(np.full((6, 2, 2), 0.25)))],
        ids=["missing-table", "extra-table", "rectangular", "2-d", "one-table", "dict"])
    def test_stack_shape_rejected(self, tables):
        with pytest.raises(ValueError, match=r"need a \(6, n, n\) stack"):
            resolve_spectral_k(tables, 1)


class TestOracle:
    def test_four_leaf_by_construction(self):
        t = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        assert resolve_oracle(t, (0, 1, 2, 3)) == QuartetRelation.PAIR_12_34

    def test_relabeling_flips(self):
        t = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        assert resolve_oracle(t, (2, 1, 0, 3)) == QuartetRelation.PAIR_14_23

    def test_duplicate_rejected(self):
        t = quartet_tree([0, 1, 2, 3], QuartetRelation.PAIR_12_34)
        with pytest.raises(ModelError):
            resolve_oracle(t, (0, 0, 1, 2))

    def test_quartet_compatibility_with_generating_tree(self):
        # Every quartet's oracle verdict must name two leaf pairs whose
        # connecting paths are disjoint in the generating tree.
        import itertools
        tree = random_topology(10, 0.5, 9)
        for q in itertools.combinations(tree.leaves, 4):
            rel = resolve_oracle(tree, q)
            (g1, g2) = rel.groups
            p1 = set(dfs_path(tree, q[g1[0] - 1], q[g1[1] - 1]))
            p2 = set(dfs_path(tree, q[g2[0] - 1], q[g2[1] - 1]))
            assert not (p1 & p2)


class TestFourPoint:
    def test_smallest_sum_wins(self):
        dist = np.array([[0, 3, 2, 5], [3, 0, 5, 2], [2, 5, 0, 3], [5, 2, 3, 0]])
        assert four_point(dist) == QuartetRelation.PAIR_13_24  # 2 + 2 against 6 and 10

    @pytest.mark.parametrize("sums, winner", [
        ((1.0, 1.0, 1.0), QuartetRelation.PAIR_12_34),
        ((2.0, 1.0, 1.0), QuartetRelation.PAIR_13_24),
        ((2.0, 3.0, 2.0), QuartetRelation.PAIR_12_34),
        # Sums equal to 12 decimals tie as well.
        ((1.0, 1.0 - 1e-14, 2.0), QuartetRelation.PAIR_12_34),
        ((3e12, 2e12, 2e12), QuartetRelation.PAIR_13_24)])
    def test_tied_sums_go_to_the_lowest_pairing(self, sums, winner):
        # Each pairing's sum sits on its first pair; its second pair is 0.
        dist = np.zeros((4, 4))
        dist[0, 1], dist[0, 2], dist[0, 3] = sums
        assert four_point(dist + dist.T) == winner

    def test_reads_only_entries_above_the_diagonal(self):
        upper = np.triu(np.arange(16.0).reshape(4, 4), 1)
        assert four_point(upper) == four_point(upper + upper.T)
