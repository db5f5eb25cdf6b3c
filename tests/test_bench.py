"""Unit tests for synthetic model generation, diagnostics, and the harness."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tensortree import QuartetRelation, bench, resolve_nuclear, to_newick
from tensortree.bench import (QuartetExperimentConfig, QuartetModel,
                              ResultTable, TreeExperimentConfig,
                              dependence_limited_model, diagnostics,
                              identity_base, parameterize, parse_method,
                              perturb_stochastic, perturbed_cpt,
                              random_quartet_model, random_topology,
                              random_tree_model, recover,
                              run_quartet_experiment, run_tree_experiment,
                              with_dependence_scaled)
from tensortree.exceptions import ModelError
from tensortree.model import LatentTree, TreeParameters, sample
from tensortree.tensors import nuclear_norm, unfold

from helpers import mean_outcomes, recursive_random_topology


class TestPerturbedCpt:
    def test_mu_zero_returns_base(self):
        assert np.array_equal(perturbed_cpt(4, 2, 0.0, 0), identity_base(4, 2))

    def test_columns_sum_to_one(self):
        c = perturbed_cpt(5, 3, 0.7, 1)
        assert np.allclose(c.sum(axis=0), 1.0, atol=1e-12)

    def test_matches_straight_line_formula(self):
        # Independent one-liner oracle for the perturbation rule.
        rng = np.random.default_rng(42)
        got = perturb_stochastic(identity_base(3, 2), 1.0, np.random.default_rng(42))
        base = identity_base(3, 2)
        u = rng.uniform(0.0, 1.0, size=(3, 2))
        expected = (base + u) / (base + u).sum(axis=0, keepdims=True)
        assert np.allclose(got, expected, atol=1e-15)

    def test_identity_base_rectangular(self):
        b = identity_base(5, 3)
        assert b.shape == (5, 3)
        assert np.array_equal(b[:3], np.eye(3))
        assert np.all(b[3:] == 0)

    def test_identity_base_too_narrow(self):
        with pytest.raises(ValueError):
            identity_base(2, 3)


class TestRandomTopology:
    def test_d4_unique_shape(self):
        t = random_topology(4, 0.3, 0)
        assert t.d == 4 and len(t.hidden) == 2

    def test_degree_invariant(self):
        for seed in range(10):
            t = random_topology(16, 0.5, seed)
            assert all(len(t.neighbors(h)) == 3 for h in t.hidden)
            assert all(len(t.neighbors(x)) == 1 for x in t.leaves)

    def test_balanced_beta_shallower_than_skewed(self):
        def ecc(t):
            leaves = t.leaves
            return max(len(t.path(leaves[0], x)) for x in leaves[1:])

        wins = sum(ecc(random_topology(16, 0.5, [1, s]))
                   <= ecc(random_topology(16, 0.1, [1, s]))
                   for s in range(30))
        assert wins >= 25

    @pytest.mark.parametrize("beta", [0.01, 0.1, 0.5, 0.9])
    def test_matches_recursive_reference(self, beta):
        for d in range(4, 201):
            for seed in range(3):
                got = random_topology(d, beta, [d, seed])
                assert ({u: got.neighbors(u) for u in got.nodes()}
                        == recursive_random_topology(d, beta, [d, seed])), (d, seed)

    def test_deep_split_needs_no_recursion(self):
        # round(beta * g) < 2 peels two leaves per split: about d/2 levels deep.
        t = random_topology(2500, 1e-4, 0)
        assert t.d == 2500 and len(t.hidden) == 2498

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            random_topology(3, 0.5, 0)
        with pytest.raises(ValueError):
            random_topology(8, 1.5, 0)


def reference_quartets(leaves, max_quartets, seed):
    """The quartets diagnostics scored when it listed all C(d, 4) of them."""
    quartets = list(itertools.combinations(leaves, 4))
    if max_quartets is not None and len(quartets) > max_quartets:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(quartets), size=max_quartets, replace=False)
        quartets = [quartets[i] for i in sorted(idx)]
    return quartets


QUARTET_DRAWS = [(d, mq) for d in (4, 5, 9, 17)
                 for mq in (None, 1, 5, 60, math.comb(d, 4) - 1, math.comb(d, 4)) if mq != 0]
QUARTET_DRAWS += [(40, mq) for mq in (1, 7, 300, 2000)]


class TestDiagnostics:
    @pytest.mark.parametrize("d, max_quartets", QUARTET_DRAWS, ids=str)
    def test_quartets_match_listing_reference(self, d, max_quartets):
        leaves = list(range(3, 3 + 2 * d, 2))  # ids neither from 0 nor dense
        for seed in (0, 1, 7):
            assert list(bench._quartets(leaves, max_quartets, seed)) == \
                reference_quartets(leaves, max_quartets, seed)

    def test_subsample_lists_no_quartets(self):
        # Listing all 635,376 quartets of 64 leaves traced about 49 MiB.
        tree = random_tree_model(64, 0.5, 3, 2, 0.5, 1)
        tracemalloc.start()
        try:
            diagnostics(tree, max_quartets=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_independent_edge(self):
        model = random_quartet_model(2, 3, 5, 0.6, 0)
        indep = with_dependence_scaled(model, 0.0)
        d = diagnostics(indep)
        assert d.delta == pytest.approx(0.0, abs=1e-14)
        assert d.margins_preserved_ok and d.edge_bound_ok and d.combined_bound_ok

    def test_deterministic_joint_fails_bound(self):
        # A permutation-supported hidden joint is the indistinguishable case.
        joint = np.eye(3) / 3.0
        obs = tuple(perturbed_cpt(4, 3, 0.5, s) for s in range(4))
        model = QuartetModel(joint_hidden=joint, obs_cpts=obs)
        d = diagnostics(model)
        assert not d.combined_bound_ok

    def test_theta_two_ways(self):
        # theta from pairwise tables equals the score gap of the population
        # unfoldings of the independence surrogate.
        model = random_quartet_model(2, 4, 6, 0.8, 3)
        d = diagnostics(model)
        surrogate = with_dependence_scaled(model, 0.0)
        t = surrogate.exact_tensor()
        norms = [nuclear_norm(unfold(t, rel)) for rel in QuartetRelation]
        assert d.theta_min == pytest.approx(
            min(norms[1] - norms[0], norms[2] - norms[0]), abs=1e-9)

    def test_bound_functions(self):
        model = random_quartet_model(2, 2, 4, 0.9, 4)
        d = diagnostics(model)
        m = 1234
        assert d.quartet_success_bound(m) == pytest.approx(
            1 - 8 * math.exp(-m * d.alpha_min ** 2 / 32))
        assert d.tree_success_bound(m) <= d.quartet_success_bound(m)

    def test_tree_model_diagnostics(self):
        tree = random_tree_model(6, 0.5, 4, 2, 0.8, 5, hidden_base="identity")
        d = diagnostics(tree)
        assert d.d == 6 and d.k == 2
        assert d.theta_min > 0 and d.alpha_min > 0 and d.gamma_min > 0

    def test_mu_zero_tree_has_zero_delta(self):
        tree = random_tree_model(6, 0.5, 4, 2, 0.0, 6)
        d = diagnostics(tree, max_quartets=5)
        assert d.delta == pytest.approx(0.0, abs=1e-14)

    def test_unparameterized_rejected(self):
        with pytest.raises(ModelError):
            diagnostics(random_topology(6, 0.5, 0))

    def test_fewer_than_four_leaves_rejected(self):
        cpts = {(3, i): perturbed_cpt(2, 2, 0.5, i) for i in range(3)}
        params = TreeParameters(n=2, k=2, root=3, root_marginal=np.array([0.5, 0.5]),
                                cpts=cpts)
        tree = LatentTree({0: [3], 1: [3], 2: [3], 3: [0, 1, 2]},
                          {i: f"X{i}" for i in range(3)}, params=params)
        with pytest.raises(ModelError, match="need at least 4 leaves, got 3"):
            diagnostics(tree)


class TestDependenceLimitedModels:
    def test_bound_holds_and_nuclear_correct(self):
        for seed in range(10):
            model = dependence_limited_model(2, 3, 5, 0.8, [7, seed])
            d = diagnostics(model)
            assert d.edge_bound_ok
            v = resolve_nuclear(model.exact_tensor())
            assert v.relation == QuartetRelation.PAIR_12_34

    def test_scaling_preserves_marginals(self):
        model = random_quartet_model(3, 3, 5, 0.9, 8)
        scaled = with_dependence_scaled(model, 0.4)
        for a, b in zip(model.hidden_marginals(), scaled.hidden_marginals()):
            assert np.allclose(a, b, atol=1e-14)


class TestHarness:
    def test_parse_method(self):
        assert parse_method("tensor") == ("tensor", None)
        assert parse_method("spectral@3") == ("spectral", 3)
        with pytest.raises(ValueError):
            parse_method("spectral@zero")
        with pytest.raises(ValueError):
            parse_method("mystery")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuartetExperimentConfig(k_h=1, k_g=2, n=4, mu=0.5,
                                    sample_grid=(10,), trials=1,
                                    methods=("tensor",))
        with pytest.raises(ValueError):
            QuartetExperimentConfig(k_h=2, k_g=2, n=4, mu=0.5,
                                    sample_grid=(10,), trials=1,
                                    methods=("spectral@9",))
        with pytest.raises(ValueError):
            TreeExperimentConfig(d=3, beta=0.5, k_range=(2, 2), n=4, mu=0.5,
                                 sample_grid=(10,), trials=1,
                                 methods=("tensor",))

    def test_single_trial_rows(self):
        cfg = QuartetExperimentConfig(k_h=2, k_g=2, n=4, mu=0.5,
                                      sample_grid=(100,), trials=1,
                                      methods=("tensor", "oracle"), seed=0)
        table = run_quartet_experiment(cfg)
        assert len(table.rows) == 2
        assert {r[0] for r in table.rows} == {"tensor", "oracle"}

    def test_oracle_always_succeeds(self):
        cfg = QuartetExperimentConfig(k_h=2, k_g=3, n=5, mu=0.5,
                                      sample_grid=(50, 200), trials=5,
                                      methods=("oracle",), seed=1)
        summary = mean_outcomes(run_quartet_experiment(cfg))
        assert all(mean == 1.0 for mean in summary.values())

    def test_rerun_identical_outcomes(self):
        cfg = QuartetExperimentConfig(k_h=2, k_g=2, n=4, mu=0.8,
                                      sample_grid=(100,), trials=5,
                                      methods=("tensor", "nj"), seed=3)
        a = run_quartet_experiment(cfg)
        b = run_quartet_experiment(cfg)
        strip = lambda rows: [r[:4] for r in rows]  # drop elapsed_ms
        assert strip(a.rows) == strip(b.rows)

    def test_parallel_matches_serial(self):
        cfg = QuartetExperimentConfig(k_h=2, k_g=2, n=4, mu=0.8,
                                      sample_grid=(100,), trials=4,
                                      methods=("tensor",), seed=4)
        a = run_quartet_experiment(cfg, jobs=1)
        b = run_quartet_experiment(cfg, jobs=2)
        assert [r[:4] for r in a.rows] == [r[:4] for r in b.rows]

    def test_tree_experiment_oracle_rf_zero(self):
        cfg = TreeExperimentConfig(d=6, beta=0.5, k_range=(2, 3), n=5, mu=0.5,
                                   sample_grid=(100,), trials=3,
                                   methods=("oracle",), seed=5)
        summary = mean_outcomes(run_tree_experiment(cfg))
        assert all(mean == 0.0 for mean in summary.values())

    def test_result_table_csv(self, tmp_path):
        table = ResultTable()
        table.add("tensor", 100, 0, 1.0, 2.5)
        table.add("tensor", 100, 1, 0.0, 2.5)
        path = tmp_path / "out.csv"
        path.write_text(table.csv_text())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,m,trial,outcome,elapsed_ms"
        assert len(lines) == 3
        assert mean_outcomes(table) == {("tensor", 100): 0.5}

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(tensor):
            raise RuntimeError("bug in a resolver")
        monkeypatch.setattr(bench, "resolve_nuclear", broken)
        with pytest.raises(RuntimeError):
            run_quartet_experiment(QuartetExperimentConfig(
                2, 2, 3, 0.5, (50,), 1, ("tensor",)))
        with pytest.raises(RuntimeError):
            run_tree_experiment(TreeExperimentConfig(
                4, 0.5, (2, 2), 3, 0.5, (50,), 1, ("tensor",)))


class TestRecover:
    # Trees built from one seeded sample set, recorded before the build paths
    # of the CLI and the harness were merged: the same seeds must keep giving
    # the same trees.
    GOLDEN = {
        "tensor": "((((X0,X5)H1,X8)H2,X11)H3,((X1,X2)H4,((X3,X9)H5,X4)H6)H7,"
                  "((X10,X7)H8,X6)H9)H10;",
        "spectral@2": "((((X0,X5)H1,X8)H2,X6)H3,((X1,X2)H4,(X10,X7)H5)H6,"
                      "(X11,((X3,X9)H7,X4)H8)H9)H10;",
        "nj": "(((X0,X5)H1,(((X10,X7)H2,X6)H3,X8)H4)H5,(((X1,X2)H6,X11)H7,X4)H8,"
              "(X3,X9)H9)H10;",
        "oracle": "((((X0,X5)H1,X8)H2,((X10,X7)H3,X6)H4)H5,((X1,X2)H6,X11)H7,"
                  "((X3,X9)H8,X4)H9)H10;",
    }

    def test_golden_newick(self):
        truth = random_tree_model(12, 0.5, 4, 3, 0.5, 5, hidden_base="identity")
        samples = sample(truth, 2000, 6)
        for method, newick in self.GOLDEN.items():
            assert to_newick(recover(samples, method, 7, truth=truth)) == newick
        assert self.GOLDEN["oracle"] == to_newick(truth)

    def test_oracle_needs_truth(self):
        samples = sample(random_tree_model(4, 0.5, 3, 2, 0.5, 1), 10, 2)
        with pytest.raises(ValueError):
            recover(samples, "oracle", 0)


class TestParameterize:
    def test_hidden_base_options(self):
        topo = random_topology(6, 0.5, 0)
        for base in ("independent", "identity"):
            tree = parameterize(topo, 4, 3, 0.5, 0, hidden_base=base)
            tree.params.validate(tree)
        with pytest.raises(ValueError):
            parameterize(topo, 4, 3, 0.5, 0, hidden_base="other")

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            parameterize(random_topology(6, 0.5, 0), 2, 3, 0.5, 0)
