"""Unit tests for the three quartet resolvers."""

import itertools

import numpy as np
import pytest

from tensortree import (JointTensor4, QuartetRelation, quartet_tree,
                        resolve_nuclear, resolve_oracle, resolve_spectral_k,
                        resolvers)
from tensortree.bench import (diagnostics,
                              pairwise_tables, random_quartet_model,
                              random_topology)
from tensortree.exceptions import ModelError
from tensortree.resolvers import (TIE_RTOL, QuartetVerdict, _decide, four_point,
                                  gram_scores)
from tensortree.tensors import nuclear_norm, spectral, unfold

from helpers import dependence_limited_model, dfs_path

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
        expected = np.linalg.norm(np.kron(tables[5], tables[0]))
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


def svd_verdict(tensor):
    """The nuclear test scored by SVD alone."""
    return _decide([nuclear_norm(unfold(tensor, rel)) for rel in QuartetRelation],
                   minimize=True)


def count_svd_calls(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return spectral(matrix)
    monkeypatch.setattr(resolvers, "spectral", counted)
    return calls


class TestGramScores:
    def test_verdicts_and_scores_match_the_svd(self):
        # 1,000 empirical tensors: every verdict and tie flag equals the SVD
        # path's, and every Gram score lies within the bound of its SVD score.
        fallbacks = 0
        for n in (2, 3, 6, 10):
            for m in (5, 50, 200, 2000, 50000):
                for seed in range(50):
                    rng = np.random.default_rng([n, m, seed])
                    k = int(rng.integers(2, min(n, 4) + 1))
                    model = random_quartet_model(k, k, n, rng.uniform(0.2, 1.0), rng)
                    p = model.exact_tensor().values.ravel()
                    t = JointTensor4(rng.multinomial(m, p / p.sum()).reshape((n,) * 4) / m)
                    gram, bound, _ = gram_scores(t)
                    ref = svd_verdict(t)
                    assert np.all(np.abs(np.subtract(gram, ref.scores)) <= bound)
                    v = resolve_nuclear(t)
                    assert (v.relation, v.tie) == (ref.relation, ref.tie), (n, m, seed)
                    best, second = sorted(gram)[:2]
                    fallbacks += second - best <= 2 * bound
        assert 0 < fallbacks < 100  # the ties at m=5 fall back, little else

    def test_zeroed_singular_values_stay_within_the_bound(self):
        # The 12|34 unfolding is a positive rank-1 matrix plus eight singular
        # values of 0.7 * sqrt(delta), whose eigenvalues fall under delta and
        # are zeroed: the Gram score misses them, by a sizable share of the bound.
        n, r = 3, 9
        rng = np.random.default_rng(5)
        u, v = rng.dirichlet(np.ones(r)), rng.dirichlet(np.ones(r))
        delta = 4 * r * np.finfo(float).eps * np.sum(np.outer(u, v) ** 2)
        q1 = np.linalg.qr(np.column_stack([u, rng.normal(size=(r, r - 1))]))[0][:, 1:]
        q2 = np.linalg.qr(np.column_stack([v, rng.normal(size=(r, r - 1))]))[0][:, 1:]
        a = np.outer(u, v) + 0.7 * np.sqrt(delta) * q1 @ q2.T
        t = JointTensor4((a / a.sum()).reshape((n,) * 4, order="F"))
        (gram, *_), bound, _ = gram_scores(t)
        missed = nuclear_norm(unfold(t, QuartetRelation.PAIR_12_34)) - gram
        assert 0.25 * bound < missed <= bound

    def test_independent_tie_falls_back(self, monkeypatch):
        calls = count_svd_calls(monkeypatch)
        v = resolve_nuclear(independent_tensor(3, 0))
        assert v.tie and v.relation == QuartetRelation.PAIR_12_34
        assert calls == [(9, 9)] * 3

    def test_swap_symmetric_tie_falls_back(self, monkeypatch):
        # Symmetric under swapping variables 3 and 4, so the 13|24 and 14|23
        # unfoldings are the same matrix, and they score below 12|34.
        v = random_quartet_model(2, 2, 3, 0.8, 0).exact_tensor().values.transpose(0, 2, 1, 3)
        t = JointTensor4((v + v.transpose(0, 1, 3, 2)) / 2)
        calls = count_svd_calls(monkeypatch)
        verdict = resolve_nuclear(t)
        assert verdict.tie and verdict.relation == QuartetRelation.PAIR_13_24
        assert len(calls) == 3
        assert verdict == svd_verdict(t)

    def test_clear_verdict_runs_no_svd(self, monkeypatch):
        t = dependence_limited_model(2, 3, 5, 0.7, 0).exact_tensor()
        calls = count_svd_calls(monkeypatch)
        assert resolve_nuclear(t).relation == QuartetRelation.PAIR_12_34
        assert calls == []

    def test_unobserved_states_score_as_the_full_unfolding(self):
        # State 4 of variable 1 and state 3 of variable 3 never occur.  Variable
        # 1 indexes the rows of every unfolding, so each has all-zero rows, and
        # 12|34 all-zero columns too; dropping them changes no score.
        rng = np.random.default_rng(11)
        vals = np.zeros((4, 4, 4, 4))
        vals[:3, :, [0, 1, 3], :] = rng.dirichlet(np.ones(3 * 4 * 3 * 4)).reshape(3, 4, 3, 4)
        t = JointTensor4(vals)
        assert not any(unfold(t, rel).any(axis=1).all() for rel in QuartetRelation)
        gram, bound, _ = gram_scores(t)
        full = [nuclear_norm(unfold(t, rel)) for rel in QuartetRelation]
        assert gram == pytest.approx(full, abs=1e-12)
        assert np.all(np.abs(np.subtract(gram, full)) <= bound)

    def test_sparse_fallback_scores_the_nonzero_blocks(self, monkeypatch):
        # Few samples over many states leave at most m nonzero rows and columns
        # in each n^2 x n^2 unfolding.  A near-tie's SVDs read no more than the
        # nonzero block of each, and decide as SVDs of the full unfoldings do.
        calls = count_svd_calls(monkeypatch)
        fallbacks = 0
        for n in (6, 10):
            for m in (5, 10, 20):
                for seed in range(20):
                    rng = np.random.default_rng([n, m, seed])
                    model = random_quartet_model(2, 2, n, 0.5, rng)
                    p = model.exact_tensor().values.ravel()
                    t = JointTensor4(rng.multinomial(m, p / p.sum()).reshape((n,) * 4) / m)
                    blocks = [(a.any(axis=1).sum(), a.any(axis=0).sum())
                              for a in (unfold(t, rel) for rel in QuartetRelation)]
                    calls.clear()
                    v = resolve_nuclear(t)
                    ref = svd_verdict(t)
                    assert (v.relation, v.tie) == (ref.relation, ref.tie), (n, m, seed)
                    assert len(calls) in (0, 3)
                    assert all(rows <= r and cols <= c
                               for (rows, cols), (r, c) in zip(calls, blocks))
                    fallbacks += bool(calls)
        assert fallbacks >= 10

    def test_alpha_min_is_the_svd_score_gap(self):
        # diagnose prints alpha_min to 12 digits, so it reads SVD scores.
        for seed in range(5):
            model = dependence_limited_model(2, 3, 5, 0.6, [7, seed])
            right, *wrong = svd_verdict(model.exact_tensor()).scores
            assert diagnostics(model).alpha_min == pytest.approx(min(wrong) - right,
                                                                 abs=1e-12)


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


def reference_spectral_k(tables, k):
    """resolve_spectral_k as written before it read QuartetRelation.groups:
    pairing r joins stack rows r and 5 - r."""
    top = resolvers._top_k_product
    return _decide([top(tables[r], k) * top(tables[5 - r], k) for r in range(3)],
                   minimize=False)


def reference_four_point(dist):
    """four_point as written before it read QuartetRelation.groups."""
    scores = [dist[0][1] + dist[2][3], dist[0][2] + dist[1][3], dist[0][3] + dist[1][2]]
    return QuartetRelation(int(np.argmin(np.round(scores, 12))) + 1)


def reference_decide(scores, minimize):
    """_decide as written before it decided in one pass: the argmin, then the tied
    set and the gaps again from the lowest tied pairing when there is a tie."""
    arr = np.asarray(scores, dtype=float)
    signed = arr if minimize else -arr
    best = int(np.argmin(signed))
    gaps = np.delete(signed - signed[best], best)
    scale = max(np.max(np.abs(arr)), 1e-300)
    tie = bool(np.min(gaps) < TIE_RTOL * scale)
    if tie:
        tied = np.flatnonzero(signed - signed[best] < TIE_RTOL * scale)
        best = int(tied.min())
        gaps = np.delete(signed - signed[best], best)
    return QuartetVerdict(relation=QuartetRelation(best + 1),
                          scores=tuple(float(x) for x in arr),
                          margin=float(max(np.min(gaps), 0.0)),
                          tie=tie)


class TestDecide:
    # Exact ties, gaps just under and over TIE_RTOL, signs, and extreme scales.
    GRID = (0.0, 1.0, -1.0, 1 + 1e-13, 1 - 1e-13, 1 + 1e-11, 2.0, 1e300, -1e300,
            5e-324, 1e-300, 3e-310)

    @pytest.mark.parametrize("minimize", [True, False])
    def test_matches_reference_on_tie_grid(self, minimize):
        for scores in itertools.product(self.GRID, repeat=3):
            assert _decide(scores, minimize) == reference_decide(scores, minimize)

    @pytest.mark.parametrize("minimize", [True, False])
    def test_matches_reference_on_near_ties(self, minimize):
        rng = np.random.default_rng(11)
        steps = (0.0, 1e-14, -1e-14, 5e-13, -5e-13, 2e-12, 1e-9)
        ties = 0
        for _ in range(3000):
            scores = rng.random(3) * 10.0 ** rng.integers(-300, 300)
            for i in rng.choice(3, size=int(rng.integers(1, 3)), replace=False):
                scores[i] = scores[i - 1] * (1 + rng.choice(steps))
            verdict = _decide(scores, minimize)
            assert verdict == reference_decide(scores, minimize)
            ties += verdict.tie
        assert 0 < ties < 3000


class TestMatchesReferencePairings:
    @pytest.mark.parametrize("seed", range(6))
    def test_spectral_k(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        random = rng.dirichlet(np.ones(n * n), size=6).reshape(6, n, n)
        # Two distinct tables, so that products tie exactly, and one rank-one table
        # repeated, so that every pairing ties.
        two = random[rng.integers(0, 2, size=6)]
        one = np.repeat(np.outer(*rng.dirichlet(np.ones(n), size=2))[None], 6, axis=0)
        for tables in (random, two, one):
            for k in range(1, n + 1):
                assert resolve_spectral_k(tables, k) == reference_spectral_k(tables, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_four_point(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            # Small integers tie often; floats rarely.
            dist = rng.integers(0, 3, (4, 4)) if rng.random() < 0.5 else rng.random((4, 4))
            assert four_point(dist) == reference_four_point(dist)
            assert four_point(dist.tolist()) == reference_four_point(dist.tolist())


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
