"""Acceptance suite: one test per acceptance criterion, each printing a single
PASS/FAIL line with its headline numbers."""

import itertools
import math
import time

import numpy as np

from tensortree import (JointTensor4, QuartetRelation, build_tree,
                        distance_matrix, from_newick, neighbor_join,
                        pairwise_distribution, resolve_nuclear, resolve_oracle,
                        robinson_foulds, to_newick)
from tensortree.bench import (QuartetExperimentConfig, QuartetModel,
                              diagnostics,
                              pairwise_tables, parameterize, perturbed_cpt,
                              random_quartet_model, random_topology,
                              random_tree_model, run_quartet_experiment)
from tensortree.cli import main as cli_main
from tensortree.metrics import bipartitions
from tensortree.model import sample
from tensortree.tensors import nuclear_norm, unfold

from helpers import (dependence_limited_model, khatri_rao, mean_outcomes, numerical_rank,
                     with_dependence_scaled)


def report(label, ok, detail):
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


def seeded_model(seed, mu=1.0):
    rng = np.random.default_rng(seed)
    k_h = int(rng.integers(2, 5))
    k_g = int(rng.integers(2, 5))
    n = int(rng.integers(max(4, k_h, k_g), 11))
    return random_quartet_model(k_h, k_g, n, mu, rng)


def test_unfolding_factorizations_exact():
    # 200 single-edge models: each unfolding equals its structured
    # factorization (Khatri-Rao sandwich for the correct grouping,
    # Kronecker-diagonal forms for the other two) within 1e-10.
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        m = seeded_model([1, seed])
        t = m.exact_tensor()
        p1, p2, p3, p4 = m.obs_cpts
        diag_j = np.diag(m.joint_hidden.ravel(order="F"))
        targets = [
            (unfold(t, QuartetRelation.PAIR_12_34),
             khatri_rao(p2, p1) @ m.joint_hidden @ khatri_rao(p4, p3).T),
            (unfold(t, QuartetRelation.PAIR_13_24),
             np.kron(p3, p1) @ diag_j @ np.kron(p4, p2).T),
            (unfold(t, QuartetRelation.PAIR_14_23),
             np.kron(p4, p1) @ diag_j @ np.kron(p3, p2).T),
        ]
        worst = max(worst, *(np.linalg.norm(a - b) for a, b in targets))
    elapsed = time.perf_counter() - t0
    report("factorization-equality",
           worst <= 1e-10 and elapsed < 10,
           f"200 models, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_rank_gap():
    # 100 models with dense generic hidden joints: rank(A) = k and
    # rank(B) = rank(C) = k^2; joints with z zero entries drop rank(B) to
    # k^2 - z.
    t0 = time.perf_counter()
    ok = True
    for seed in range(100):
        rng = np.random.default_rng([2, seed])
        k = int(rng.integers(2, 4))
        n = int(rng.integers(max(4, k), 8))
        joint = rng.uniform(0.2, 1.0, size=(k, k))
        joint /= joint.sum()
        obs = tuple(perturbed_cpt(n, k, 1.0, rng) for _ in range(4))
        t = QuartetModel(joint_hidden=joint, obs_cpts=obs).exact_tensor()
        ranks = [numerical_rank(unfold(t, rel), tol=1e-8)
                 for rel in QuartetRelation]
        ok = ok and ranks == [k, k * k, k * k]
    zeros_ok = True
    for seed in range(30):
        rng = np.random.default_rng([3, seed])
        k, n = 3, 4
        joint = rng.uniform(0.2, 1.0, size=(k, k))
        z = int(rng.integers(1, 4))
        joint.flat[rng.choice(k * k, size=z, replace=False)] = 0.0
        joint /= joint.sum()
        obs = tuple(perturbed_cpt(n, k, 1.0, rng) for _ in range(4))
        t = QuartetModel(joint_hidden=joint, obs_cpts=obs).exact_tensor()
        zeros_ok = zeros_ok and (
            numerical_rank(unfold(t, QuartetRelation.PAIR_13_24)) == k * k - z)
    elapsed = time.perf_counter() - t0
    report("rank-gap", ok and zeros_ok and elapsed < 30,
           f"100 dense + 30 zero-pattern models, {elapsed:.1f}s")


def test_independence_identities():
    # 100 independent-hidden-edge models: the correct unfolding's nuclear norm
    # equals the Frobenius norm of the wrong ones, and never exceeds their
    # nuclear norms.
    worst_eq, order_ok = 0.0, True
    for seed in range(100):
        m = with_dependence_scaled(seeded_model([4, seed]), 0.0)
        t = m.exact_tensor()
        na = nuclear_norm(unfold(t, QuartetRelation.PAIR_12_34))
        b = unfold(t, QuartetRelation.PAIR_13_24)
        c = unfold(t, QuartetRelation.PAIR_14_23)
        worst_eq = max(worst_eq, abs(na - np.linalg.norm(b)))
        order_ok = order_ok and na <= min(nuclear_norm(b), nuclear_norm(c)) + 1e-12
        # The wrong unfoldings factor as Kronecker products of pairwise tables.
        pairs = pairwise_tables(t)
        worst_eq = max(worst_eq, float(np.abs(
            b - np.kron(pairs[5], pairs[0])).max()))
    report("independence-identities", worst_eq <= 1e-9 and order_ok,
           f"100 models, max identity deviation {worst_eq:.2e}")


def test_population_quartet_correctness():
    # 100 models whose hidden-edge deviation is within the population
    # correctness threshold: the nuclear test must get all of them right.
    correct = 0
    for seed in range(100):
        rng = np.random.default_rng([5, seed])
        k_h = int(rng.integers(2, 4))
        k_g = int(rng.integers(2, 4))
        n = int(rng.integers(max(4, k_h, k_g), 9))
        model = dependence_limited_model(k_h, k_g, n, 0.8, rng)
        d = diagnostics(model)
        assert d.edge_bound_ok  # generator guarantee, verified
        v = resolve_nuclear(model.exact_tensor())
        correct += v.relation == QuartetRelation.PAIR_12_34
    report("population-correctness", correct == 100, f"{correct}/100 correct")


def test_empirical_failure_rate_bound():
    # One fixed model: empirical failure rate at each m stays below the
    # closed-form bound plus 3 Monte-Carlo standard errors (one-sided).
    model = random_quartet_model(2, 2, 4, 1.0, [7, 16])
    d = diagnostics(model)
    p = model.exact_tensor().values.ravel()
    p = p / p.sum()
    n = model.n
    ok, details = True, []
    for m in (500, 2000, 8000):
        rng = np.random.default_rng([8, m])
        counts = rng.multinomial(m, p, size=2000)
        fails = sum(
            resolve_nuclear(JointTensor4(c.reshape(n, n, n, n) / m)).relation
            != QuartetRelation.PAIR_12_34 for c in counts)
        rate = fails / 2000
        bound = min(1.0, 8 * math.exp(-m * d.alpha_min ** 2 / 32))
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / 2000)
        ok = ok and rate <= bound + 3 * se
        details.append(f"m={m}: rate={rate:.4f} bound={bound:.3f}")
    report("failure-rate-bound", ok, "; ".join(details))


def test_sample_size_trend_and_spectral_parity():
    # Success climbs with m and the nuclear test tracks the best spectral
    # variant at m=2000.
    t0 = time.perf_counter()
    cfg = QuartetExperimentConfig(
        k_h=2, k_g=4, n=10, mu=0.5, sample_grid=(50, 2000), trials=500,
        methods=("tensor", "spectral@2", "spectral@3", "spectral@4"), seed=60)
    summary = mean_outcomes(run_quartet_experiment(cfg))
    low = summary[("tensor", 50)]
    high = summary[("tensor", 2000)]
    best_spectral = max(summary[(f"spectral@{k}", 2000)] for k in (2, 3, 4))
    elapsed = time.perf_counter() - t0
    ok = (high - low >= 0.2 and high - 1 / 3 >= 0.2
          and abs(high - best_spectral) <= 0.05 and elapsed < 300)
    report("trend-and-parity", ok,
           f"rate(50)={low:.3f} rate(2000)={high:.3f} "
           f"best-spectral={best_spectral:.3f}, {elapsed:.0f}s")


def test_oracle_builder_exact_recovery():
    # Error-free quartet answers must always reproduce the generating
    # topology: 50 seeds for each (d, beta) pair.
    t0 = time.perf_counter()
    failures = 0
    for d in (8, 16, 32):
        for beta in (0.2, 0.5):
            for s in range(50):
                truth = random_topology(d, beta, [d, int(beta * 10), s])
                built, _ = build_tree(
                    lambda a, b, c, dd: resolve_oracle(truth, (a, b, c, dd)),
                    truth.leaves, seed=s)
                failures += robinson_foulds(built, truth) != 0
    elapsed = time.perf_counter() - t0
    report("oracle-build-recovery", failures == 0 and elapsed < 60,
           f"300 builds, {failures} failures, {elapsed:.1f}s")


def test_builder_call_count_scaling():
    # Resolver-call counts grow like c * d * log2(d) with small c.
    xs, ys = [], []
    for d in (8, 16, 32, 64):
        for s in range(20):
            truth = random_topology(d, 0.5, [3, d, s])
            _, trace = build_tree(
                lambda a, b, c, dd: resolve_oracle(truth, (a, b, c, dd)),
                truth.leaves, seed=s)
            xs.append(d * math.log2(d))
            ys.append(trace.quartet_test_count)
    xs = np.asarray(xs)
    ys = np.asarray(ys, dtype=float)
    c = float((xs * ys).sum() / (xs * xs).sum())
    r2 = 1.0 - float(((ys - c * xs) ** 2).sum() / ((ys - ys.mean()) ** 2).sum())
    report("call-count-scaling", r2 >= 0.95 and c <= 4.0,
           f"c={c:.3f}, R^2={r2:.4f}")


def test_nj_population_consistency():
    # Population distances with matching hidden/observed cardinalities are
    # additive, so NJ recovers the exact topology; rank-deficient tables at
    # k < n fall back to the infinite-distance sentinel without crashing.
    failures = 0
    for seed in range(20):
        topo = random_topology(7, 0.5, [9, seed])
        tree = parameterize(topo, 3, 3, 0.9, [10, seed], hidden_base="identity")
        tables = [pairwise_distribution(tree, i, j)
                  for i, j in itertools.combinations(tree.leaves, 2)]
        built = neighbor_join(distance_matrix(tables, len(tree.leaves)),
                              [tree.leaf_names[i] for i in tree.leaves])
        failures += robinson_foulds(built, tree) != 0
    # Degenerate k < n case: determinants vanish, distances become infinite.
    tree = random_tree_model(6, 0.5, 4, 2, 0.8, 11, hidden_base="identity")
    tables = [pairwise_distribution(tree, i, j)
              for i, j in itertools.combinations(tree.leaves, 2)]
    dist = distance_matrix(tables, len(tree.leaves))
    sentinel_used = bool(np.isinf(dist).any())
    built = neighbor_join(dist, [tree.leaf_names[i] for i in tree.leaves])
    report("nj-consistency",
           failures == 0 and sentinel_used and built.d == 6,
           f"20 exact recoveries, {failures} failures; sentinel exercised")


def test_metric_and_io_suite():
    # Metric axioms on 200 random tree triples, Newick round-trips on 100
    # trees, and the bit-exact unfolding index fixture.
    trees = [random_topology(8, beta, [12, i])
             for i, beta in enumerate([0.2, 0.5] * 15)]
    axioms_ok = True
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b, c = (trees[i] for i in rng.choice(len(trees), size=3, replace=False))
        axioms_ok = axioms_ok and robinson_foulds(a, b) == robinson_foulds(b, a)
        if robinson_foulds(a, b) == 0:
            axioms_ok = axioms_ok and bipartitions(a) == bipartitions(b)
        axioms_ok = axioms_ok and (
            robinson_foulds(a, c)
            <= robinson_foulds(a, b) + robinson_foulds(b, c))
        axioms_ok = axioms_ok and robinson_foulds(a, a) == 0
    round_trip_ok = all(
        robinson_foulds(from_newick(to_newick(t)), t) == 0
        for t in (random_topology(int(d), 0.4, [14, i])
                  for i, d in enumerate(np.linspace(4, 20, 100))))
    vals = np.zeros((2, 2, 2, 2))
    vals[1, 0, 0, 0] = 1.0
    m = unfold(JointTensor4(vals), QuartetRelation.PAIR_12_34)
    expected = np.zeros((4, 4))
    expected[1, 0] = 1.0
    fixture_ok = np.array_equal(m, expected)
    report("metric-io-suite", axioms_ok and round_trip_ok and fixture_ok,
           f"axioms={axioms_ok}, round-trip={round_trip_ok}, "
           f"index fixture={fixture_ok}")


def test_end_to_end_build(tmp_path):
    # Five seeded 8-leaf models, 50000 samples each, built through the CLI:
    # at least 4 of 5 must come back topologically exact.
    t0 = time.perf_counter()
    exact = 0
    for trial in range(5):
        truth = random_tree_model(8, 0.5, 6, 3, 0.5, [21, trial],
                                  hidden_base="identity")
        csv = tmp_path / f"samples{trial}.csv"
        sample(truth, 50000, [22, trial]).to_csv(csv)
        out = tmp_path / f"tree{trial}.nwk"
        code = cli_main(["build", "--input", str(csv), "--method", "tensor",
                         "--seed", str(trial), "--out", str(out)])
        assert code == 0
        built = from_newick(out.read_text())
        exact += robinson_foulds(built, truth) == 0
    elapsed = time.perf_counter() - t0
    report("end-to-end-build", exact >= 4 and elapsed < 120,
           f"{exact}/5 exact, {elapsed:.1f}s")
