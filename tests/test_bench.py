"""Unit tests for synthetic model generation, diagnostics, and the harness."""

import functools
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tensortree import QuartetRelation, bench, resolve_nuclear, to_newick
from tensortree.bench import (QuartetExperimentConfig, QuartetModel,
                              TreeExperimentConfig, check_method,
                              diagnostics, pairwise_tables, parameterize, parse_method,
                              perturbed_cpt,
                              random_quartet_model, random_topology,
                              random_tree_model, recover, result_csv,
                              run_quartet_experiment, run_tree_experiment)
from tensortree.exceptions import ModelError
from tensortree.model import (LatentTree, TreeParameters, empirical_pairwise_stack,
                              exact_quartet_distribution, sample)
from tensortree.nj import INFINITE_SENTINEL, additive_distance
from tensortree.resolvers import PAIR_KEYS, resolve_oracle
from tensortree.tensors import nuclear_norm, unfold

from helpers import (dependence_limited_model, mean_outcomes, recursive_random_topology,
                     with_dependence_scaled)


class TestPerturbedCpt:
    def test_mu_zero_returns_base(self):
        assert np.array_equal(perturbed_cpt(5, 3, 0.0, 0), np.eye(5)[:, :3])

    def test_columns_sum_to_one(self):
        c = perturbed_cpt(5, 3, 0.7, 1)
        assert np.allclose(c.sum(axis=0), 1.0, atol=1e-12)

    def test_matches_straight_line_formula(self):
        # Independent one-liner oracle for the perturbation rule.
        rng = np.random.default_rng(42)
        got = perturbed_cpt(3, 2, 1.0, np.random.default_rng(42))
        base = np.eye(3)[:, :2]
        u = rng.uniform(0.0, 1.0, size=(3, 2))
        expected = (base + u) / (base + u).sum(axis=0, keepdims=True)
        assert np.allclose(got, expected, atol=1e-15)

    def test_too_narrow_base_is_refused(self):
        with pytest.raises(ValueError, match="rows >= cols, got 2 x 3"):
            perturbed_cpt(2, 3, 0.5, 0)


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
            return max(t.distance(leaves[0], x) for x in leaves[1:])

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


def reference_quartet_gaps(tensor):
    """``bench._quartet_gaps`` as it was when it formed the surrogate's unfoldings:
    the two wrong ones as Kronecker products of P12 and P34, scored by SVD."""
    tables = pairwise_tables(tensor)
    p12, p34 = tables[0], tables[5]
    correct = float(np.linalg.norm(np.kron(p34, p12)))
    theta = min(nuclear_norm(np.kron(p34, p12)), nuclear_norm(np.kron(p34.T, p12))) - correct
    right, *wrong = (nuclear_norm(unfold(tensor, rel)) for rel in QuartetRelation)
    return theta, min(wrong) - right


def oracle_ordered_quartets(tree):
    """Exact tables of every quartet of ``tree``, leaves ordered true pairing first."""
    for q in itertools.combinations(tree.leaves, 4):
        (g1, g2) = resolve_oracle(tree, q).groups
        yield exact_quartet_distribution(
            tree, (q[g1[0] - 1], q[g1[1] - 1], q[g2[0] - 1], q[g2[1] - 1]))


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
        assert d.alpha_min > 0  # so both bounds are the closed forms, bit for bit
        factor = bench.BUILDER_CALL_CONSTANT * d.d * math.log2(d.d)
        for m in (100, 1234, 10 ** 9):
            tail = math.exp(-m * d.alpha_min ** 2 / 32)
            assert d.quartet_success_bound(m) == 1 - 8 * tail
            assert d.tree_success_bound(m) == 1 - 8 * factor * tail
            assert d.tree_success_bound(m) <= d.quartet_success_bound(m)

    def test_nonpositive_alpha_guarantees_nothing(self):
        # The d=12 model of the CI diagnose step: the nuclear test errs on some
        # quartet even from exact marginals, so no sample size makes a bound positive.
        d = diagnostics(random_tree_model(12, 0.5, 4, 2, 0.6, 12, hidden_base="identity"))
        assert d.alpha_min < 0  # about -5.8e-4
        for m in (10 ** 9, 10 ** 10):
            assert d.quartet_success_bound(m) <= 0
            assert d.tree_success_bound(m) <= 0
        # A bound already at or below 0 keeps its closed-form value.
        assert d.quartet_success_bound(100) == 1.0 - 8.0 * math.exp(
            -100 * d.alpha_min ** 2 / 32.0)

    @pytest.mark.parametrize("k_h, k_g, n", [(2, 3, 4), (3, 2, 5), (2, 4, 6), (4, 3, 5)])
    def test_gaps_match_kronecker_reference_on_quartet_models(self, k_h, k_g, n):
        for seed in range(5):
            model = random_quartet_model(k_h, k_g, n, 0.8, [k_h, k_g, seed])
            tensor = model.exact_tensor()
            (theta, alpha), (ref_theta, ref_alpha) = (bench._quartet_gaps(tensor),
                                                      reference_quartet_gaps(tensor))
            assert abs(theta - ref_theta) <= 1e-15 and alpha == ref_alpha

    @pytest.mark.parametrize("hidden_base", ["independent", "identity"])
    @pytest.mark.parametrize("n, k", [(4, 2), (5, 3), (6, 4)])
    def test_gaps_match_kronecker_reference_on_tree_quartets(self, hidden_base, n, k):
        tree = random_tree_model(6, 0.5, n, k, 0.6, [n, k], hidden_base=hidden_base)
        for tensor in oracle_ordered_quartets(tree):
            (theta, alpha), (ref_theta, ref_alpha) = (bench._quartet_gaps(tensor),
                                                      reference_quartet_gaps(tensor))
            assert abs(theta - ref_theta) <= 1e-15 and alpha == ref_alpha

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

    @pytest.mark.parametrize("method, d, n, message", [
        # A method that breaks several rules is refused by the first of them.
        ("tensor", 3, 33, "need at least 4 variables, got 3"),
        ("spectral@9", 4, 4, "spectral rank 9 exceeds state count 4"),
        ("spectral@1100", 4, 1050, "spectral rank 1100 exceeds state count 1050"),
        ("tensor", 4, 33, "33 states make quartet tensors of 1185921 bins, "
                          "over the limit of 1048576"),
        ("nj", 2000, 1025, "1025 states make pairwise tables of 1050625 bins, "
                           "over the limit of 1048576"),
        ("nj", 1000, 12, "1000 variables of 12 states make pairwise tables of 71928000 "
                         "bins, over the limit of 67108864"),
        ("spectral@2", 1000, 12, "1000 variables of 12 states make pairwise tables of "
                                 "71928000 bins, over the limit of 67108864"),
    ])
    def test_check_method_refusals(self, method, d, n, message):
        with pytest.raises(ValueError) as err:
            check_method(method, d, n)
        assert str(err.value) == message

    @pytest.mark.parametrize("method, d, n, parsed", [
        ("oracle", 6, 1100, ("oracle", None)),  # the oracle counts no table
        ("tensor", 10 ** 6, 32, ("tensor", None)),  # one quartet tensor at a time
        ("nj", 1000, 11, ("nj", None)),
        ("spectral@02", 4, 2, ("spectral", 2)),
    ])
    def test_check_method_admits(self, method, d, n, parsed):
        assert check_method(method, d, n) == parsed

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
        rows = run_quartet_experiment(cfg)
        assert len(rows) == 2
        assert {r[0] for r in rows} == {"tensor", "oracle"}

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
        assert strip(a) == strip(b)

    def test_parallel_matches_serial(self):
        for run, cfg in [
                (run_quartet_experiment,
                 QuartetExperimentConfig(k_h=2, k_g=2, n=4, mu=0.8, sample_grid=(100,),
                                         trials=4, methods=("tensor",), seed=4)),
                (run_tree_experiment,
                 TreeExperimentConfig(d=6, beta=0.5, k_range=(2, 3), n=4, mu=0.5,
                                      sample_grid=(100,), trials=4,
                                      methods=("tensor", "nj"), seed=4))]:
            a = run(cfg, jobs=1)
            b = run(cfg, jobs=2)
            assert [r[:4] for r in a] == [r[:4] for r in b]

    def test_no_more_workers_than_trials(self, monkeypatch):
        started = []

        class SerialPool:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
        cfg = TreeExperimentConfig(d=5, beta=0.5, k_range=(2, 2), n=3, mu=0.5,
                                   sample_grid=(50,), trials=2, methods=("oracle",), seed=6)
        serial = run_tree_experiment(cfg)
        assert started == []
        assert [r[:4] for r in run_tree_experiment(cfg, jobs=64)] == [r[:4] for r in serial]
        assert started == [2]
        run_tree_experiment(replace(cfg, trials=1), jobs=8)
        assert started == [2]  # one trial: no pool

    def test_tree_experiment_oracle_rf_zero(self):
        cfg = TreeExperimentConfig(d=6, beta=0.5, k_range=(2, 3), n=5, mu=0.5,
                                   sample_grid=(100,), trials=3,
                                   methods=("oracle",), seed=5)
        summary = mean_outcomes(run_tree_experiment(cfg))
        assert all(mean == 0.0 for mean in summary.values())

    def test_result_table_csv(self, tmp_path):
        rows = [("tensor", 100, 0, 1.0, 2.5), ("tensor", 100, 1, 0.0, 2.5)]
        path = tmp_path / "out.csv"
        path.write_text(result_csv(rows))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,m,trial,outcome,elapsed_ms"
        assert len(lines) == 3
        assert mean_outcomes(rows) == {("tensor", 100): 0.5}

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


def reference_nj_quartet_relation(tables):
    """The NJ quartet verdict one table at a time: six ``additive_distance``
    calls, infinities replaced by the sentinel, and the pairing with the
    smallest within-pair sum, rounded to 12 decimals (lowest pairing on ties)."""
    pairs = dict(zip(PAIR_KEYS, tables))

    def dist(i, j):
        val = additive_distance(pairs[(i, j)])
        return INFINITE_SENTINEL if math.isinf(val) else val

    scores = [dist(1, 2) + dist(3, 4), dist(1, 3) + dist(2, 4),
              dist(1, 4) + dist(2, 3)]
    return QuartetRelation(int(np.argmin(np.round(scores, 12))) + 1)


class TestNjQuartet:
    """The harness's NJ quartet verdict (one ``distance_matrix`` call and
    ``four_point``) against the per-table reference, on the tables it draws."""

    @pytest.mark.parametrize("k_h, k_g, n, mu, grid, singular", [
        (2, 3, 10, 0.5, (50, 300, 5000), 0.5),  # at m=50 the sentinel decides most sums
        (2, 2, 3, 2.0, (30, 100, 1000), 0.0)])
    def test_harness_matches_reference(self, monkeypatch, k_h, k_g, n, mu, grid, singular):
        calls = {"pairwise_tables": [], "four_point": []}
        for name, seen in calls.items():
            def spy(arg, real=getattr(bench, name), seen=seen):
                seen.append(real(arg))
                return seen[-1]
            monkeypatch.setattr(bench, name, spy)
        cfg = QuartetExperimentConfig(k_h, k_g, n, mu, grid, 20, ("nj",), seed=7)
        run_quartet_experiment(cfg)
        tables, verdicts = calls["pairwise_tables"], calls["four_point"]
        assert len(tables) == len(verdicts) == 20 * len(grid)
        assert [reference_nj_quartet_relation(t) for t in tables] == verdicts
        assert set(verdicts) == set(QuartetRelation)
        smallest_m = [additive_distance(t) for stack in tables[::len(grid)] for t in stack]
        assert np.mean(np.isinf(smallest_m)) > singular


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
        stack = functools.cache(lambda: empirical_pairwise_stack(samples))
        for method, newick in self.GOLDEN.items():
            assert to_newick(recover(samples, method, 7, truth=truth)) == newick
            assert to_newick(recover(samples, method, 7, truth=truth, stack=stack)) == newick
        assert self.GOLDEN["oracle"] == to_newick(truth)

    def spectral_pair_counts(self, monkeypatch, shared):
        """The pairs ``empirical_pairwise`` counts in one spectral@2 recovery, with or without
        a shared stack, after checking that every resolver call sees the tables counted in
        the quartet's own order."""
        samples = sample(random_tree_model(12, 0.5, 4, 3, 0.5, 5, hidden_base="identity"),
                         2000, 6)
        count, resolve = bench.empirical_pairwise, bench.resolve_spectral_k
        build = bench.build_tree
        calls, stacks, quartets = [], [], []

        def counting(s, i, j):
            calls.append((i, j))
            return count(s, i, j)

        def resolving(tables, k):
            stacks.append(tables)
            return resolve(tables, k)

        def building(resolver, *args, **kwargs):
            def recording(*ids):
                quartets.append(ids)
                return resolver(*ids)
            return build(recording, *args, **kwargs)

        monkeypatch.setattr(bench, "empirical_pairwise", counting)
        monkeypatch.setattr(bench, "resolve_spectral_k", resolving)
        monkeypatch.setattr(bench, "build_tree", building)
        whole = functools.cache(lambda: empirical_pairwise_stack(samples))
        recover(samples, "spectral@2", 7, stack=whole if shared else None)
        assert stacks and len(stacks) == len(quartets)
        for ids, stack in zip(quartets, stacks):
            want = np.stack([count(samples, ids[i - 1], ids[j - 1]) for i, j in PAIR_KEYS])
            assert stack.shape == want.shape and stack.tobytes() == want.tobytes()
        return calls

    def test_spectral_counts_each_pair_once(self, monkeypatch):
        # Each unordered pair is counted once, as (i, j) with i < j.
        calls = self.spectral_pair_counts(monkeypatch, shared=False)
        assert calls and all(i < j for i, j in calls)
        assert len(set(calls)) == len(calls)

    def test_spectral_reads_a_shared_stack(self, monkeypatch):
        assert self.spectral_pair_counts(monkeypatch, shared=True) == []

    def test_oracle_needs_truth(self):
        samples = sample(random_tree_model(4, 0.5, 3, 2, 0.5, 1), 10, 2)
        with pytest.raises(ValueError):
            recover(samples, "oracle", 0)


class TestSharedStack:
    """A tree-bench trial whose methods include nj counts the pairwise stack once per
    sample size, and spectral@K reads its tables from it."""

    CFG = TreeExperimentConfig(d=8, beta=0.5, k_range=(2, 3), n=4, mu=0.5,
                               sample_grid=(300, 1000), trials=2, methods=("nj",), seed=2)

    def counted(self, monkeypatch):
        calls = {"stack": 0, "pair": 0}
        stack, pair = bench.empirical_pairwise_stack, bench.empirical_pairwise

        def counting_stack(samples):
            calls["stack"] += 1
            return stack(samples)

        def counting_pair(samples, i, j):
            calls["pair"] += 1
            return pair(samples, i, j)

        monkeypatch.setattr(bench, "empirical_pairwise_stack", counting_stack)
        monkeypatch.setattr(bench, "empirical_pairwise", counting_pair)
        return calls

    @pytest.mark.parametrize("methods", [("spectral@2", "nj"), ("nj", "spectral@2")])
    def test_one_stack_per_trial_and_sample_size(self, monkeypatch, methods):
        calls = self.counted(monkeypatch)
        run_tree_experiment(replace(self.CFG, methods=methods))
        assert calls == {"stack": self.CFG.trials * len(self.CFG.sample_grid), "pair": 0}

    def test_spectral_alone_counts_no_stack(self, monkeypatch):
        calls = self.counted(monkeypatch)
        run_tree_experiment(replace(self.CFG, methods=("spectral@2",)))
        assert calls["stack"] == 0 and calls["pair"] > 0

    @pytest.mark.parametrize("methods", [("tensor", "spectral@2", "nj", "oracle"),
                                         ("nj", "spectral@3")])
    def test_rows_match_each_method_alone(self, methods):
        rows = run_tree_experiment(replace(self.CFG, methods=methods))
        for name in methods:
            alone = run_tree_experiment(replace(self.CFG, methods=(name,)))
            assert [r[:4] for r in rows if r[0] == name] == [r[:4] for r in alone]


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
