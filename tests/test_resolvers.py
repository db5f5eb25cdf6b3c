"""Unit tests for the three quartet resolvers."""

import numpy as np
import pytest

from tensortree import (JointTensor4, QuartetRelation, quartet_tree,
                        resolve_nuclear, resolve_oracle, resolve_spectral_k)
from tensortree.bench import (dependence_limited_model, diagnostics,
                              pairwise_tables, random_quartet_model,
                              random_topology)
from tensortree.exceptions import ModelError
from tensortree.resolvers import PAIR_KEYS
from tensortree.tensors import kronecker

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
        pairs = pairwise_tables(indep.exact_tensor())
        expected = np.linalg.norm(kronecker(pairs[(3, 4)], pairs[(1, 2)]))
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
            pairs = pairwise_tables(model.exact_tensor())
            vs = resolve_spectral_k(pairs, 3)
            vn = resolve_nuclear(model.exact_tensor())
            if vn.relation == QuartetRelation.PAIR_12_34:
                agree += vs.relation == vn.relation
        assert agree >= 28  # population tables, both near-exact

    def test_independent_tie(self):
        t = independent_tensor(3, 2)
        pairs = {}
        for i, j in PAIR_KEYS:
            drop = tuple(a for a in range(4) if a not in (i - 1, j - 1))
            pairs[(i, j)] = t.values.sum(axis=drop)
        v = resolve_spectral_k(pairs, 3)
        assert v.tie

    def test_rank_one_tables_k1(self):
        rng = np.random.default_rng(3)
        pairs = {}
        for i, j in PAIR_KEYS:
            u, w = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            pairs[(i, j)] = np.outer(u, w)
        v = resolve_spectral_k(pairs, 1)
        # Rank-1 spectrum: sigma_1 equals the Frobenius norm, so each score is
        # the product of the two within-group Frobenius norms.
        expected = [
            np.linalg.norm(pairs[(1, 2)]) * np.linalg.norm(pairs[(3, 4)]),
            np.linalg.norm(pairs[(1, 3)]) * np.linalg.norm(pairs[(2, 4)]),
            np.linalg.norm(pairs[(1, 4)]) * np.linalg.norm(pairs[(2, 3)]),
        ]
        assert v.scores == pytest.approx(expected, abs=1e-12)

    def test_k_out_of_range(self):
        pairs = {key: np.full((2, 2), 0.25) for key in PAIR_KEYS}
        with pytest.raises(ValueError):
            resolve_spectral_k(pairs, 3)

    def test_missing_pair_rejected(self):
        pairs = {key: np.full((2, 2), 0.25) for key in PAIR_KEYS[:-1]}
        with pytest.raises(ValueError):
            resolve_spectral_k(pairs, 2)


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
            p1 = set(tree.path(q[g1[0] - 1], q[g1[1] - 1]))
            p2 = set(tree.path(q[g2[0] - 1], q[g2[1] - 1]))
            assert not (p1 & p2)
