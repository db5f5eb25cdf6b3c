"""The six workloads: their inputs, one round of commands, and the checks of
every output.

A round is the same set of operations on every call, so a run of whole rounds
fails the same share of its operations whatever its length.  An operation is
one ``build`` command, one quartet test (trial x sample size x method) of
``quartet-bench``, or one tree recovery (trial x method) of ``tree-bench``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent

# build-m50k-* share one CSV per seed and build it with one method each, so
# each method's build time is bounded on its own.  The ROADMAP baseline
# config has m=200,000; at m=50,000 a build takes about a second, so a run
# times ten or more, and their fastest spreads less over seeds than the
# fastest of the two or three builds of 3-5 s that fit at m=200,000.
M50K = dict(d=32, beta=0.5, n=10, k=4, mu=0.5, hidden_base="identity", m=50_000)
BUILD_CONFIGS = {
    "build-m50k-tensor": dict(M50K, method="tensor"),
    "build-m50k-spectral": dict(M50K, method="spectral@4"),
    "build-m50k-nj": dict(M50K, method="nj"),
    "build-nj-d250": dict(d=250, beta=0.5, n=4, k=4, mu=0.5, hidden_base="identity",
                          m=2_000, method="nj"),
}
# 4-way counts and nuclear verdicts compared with the program on build-m50k-tensor.
COUNT_CHECK_QUARTETS = 6

QUARTET_TRIALS = 100
QUARTET_SAMPLES = (50, 200, 2000)
QUARTET_METHODS = ("tensor", "spectral@4", "nj", "oracle")
QUARTET_ARGS = ["quartet-bench", "--kh", "2", "--kg", "4", "--n", "10", "--mu", "0.5",
                "--samples", ",".join(map(str, QUARTET_SAMPLES)),
                "--methods", ",".join(QUARTET_METHODS)]

TREE_D = 64
# One trial (about 4.5 s) per round, so a run times three rounds; three trials
# made one 12-15 s round, and a single round spread 0.2 over seeds.
TREE_TRIALS = 1
TREE_METHODS = ("tensor", "spectral@2", "nj", "oracle")
TREE_ARGS = ["tree-bench", "--d", str(TREE_D), "--beta", "0.5", "--n", "6",
             "--k-range", "2,4", "--mu", "0.5", "--hidden-base", "identity",
             "--samples", "20000", "--methods", ",".join(TREE_METHODS)]

# Workload-specific metrics, printed on the detail line: name -> unit.
DETAIL_UNITS = {
    "build_s.tensor": "s", "build_s.spectral": "s", "build_s.nj": "s",
    "quartet_tests_per_s": "1/s", "trials_per_s": "1/s",
    "splits_found.tensor": "count", "splits_found.spectral": "count",
    "splits_found.nj": "count",
    "quartets_correct.tensor": "count", "quartets_correct.spectral": "count",
    "quartets_correct.nj": "count",
}


def method_kind(method: str) -> str:
    return method.split("@")[0]


@dataclass
class Round:
    """What one round did: operations, failures, command wall time, and the
    accuracy counts it measured."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    values: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # output name -> text


@dataclass
class Context:
    tt: object  # the tensortree package
    seed: int
    work: Path
    setup_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def timed(cli_main, argv):
    """Run one command; returns (exit code or None on an exception, seconds)."""
    t0 = time.perf_counter()
    try:
        code = cli_main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        print(f"{argv[0]} raised {exc!r}", file=sys.stderr)
        code = None
    return code, time.perf_counter() - t0


def set_up(ctx: Context, name: str, src: Path) -> None:
    """Generate the inputs once in a fresh interpreter, timed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "make_inputs.py"), "--workload", name,
                    "--seed", str(ctx.seed), "--out", str(ctx.work)],
                   env=env, check=True)  # a timeout would poll in 50 ms steps
    ctx.setup_s.append(time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Build workloads
# ---------------------------------------------------------------------------


class BuildWorkload:
    def __init__(self, name: str):
        self.name = name
        self.cfg = BUILD_CONFIGS[name]

    def prepare(self, ctx: Context) -> None:
        with open(ctx.work / "truth.json", encoding="utf-8") as fh:
            raw = json.load(fh)
        adj = {int(u): [int(v) for v in vs] for u, vs in raw["adjacency"].items()}
        names = {int(u): s for u, s in raw["leaf_names"].items()}
        self.truth_adj, self.truth_names = adj, names
        self.true_splits = checks.splits(adj, names)
        with open(ctx.work / "samples.csv", encoding="utf-8") as fh:
            self.header = fh.readline().strip().split(",")

    def command(self, ctx: Context, nwk: Path) -> list:
        return ["build", "--input", str(ctx.work / "samples.csv"),
                "--method", self.cfg["method"], "--seed", str(ctx.seed), "--out", str(nwk)]

    def warm_up(self, ctx: Context, cli_main) -> None:
        """The build once, untimed and unchecked."""
        timed(cli_main, self.command(ctx, ctx.work / "warm-up.nwk"))

    def timings(self, wall_s: float) -> dict:
        return {f"build_s.{method_kind(self.cfg['method'])}": wall_s}

    def round(self, ctx: Context, cli_main) -> Round:
        method = self.cfg["method"]
        kind = method_kind(method)
        nwk = ctx.work / f"{kind}.nwk"
        text = ""
        code, wall = timed(cli_main, self.command(ctx, nwk))
        out = Round(ops=1, wall_s=wall)
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}")
            text = nwk.read_text(encoding="utf-8")
            found = self.check_tree(ctx, text)
        except (checks.CheckFailed, OSError, ValueError, ctx.tt.TensorTreeError) as exc:
            print(f"{self.name}: {method} build failed: {exc}", file=sys.stderr)
            out.failed = 1
            found = 0
        out.values[f"splits_found.{kind}"] = found
        out.outputs[f"{kind}.nwk"] = text
        return out

    def check_tree(self, ctx: Context, text: str) -> int:
        """True splits found in one Newick output, after checking its shape
        and cross-checking robinson_foulds."""
        d = self.cfg["d"]
        adj, names = checks.parse_newick(text)
        checks.check_binary(adj, names, self.header)
        found = len(checks.splits(adj, names) & self.true_splits)
        tt = ctx.tt
        truth = tt.model.LatentTree(self.truth_adj, self.truth_names)
        rf = tt.metrics.robinson_foulds(tt.metrics.from_newick(text), truth)
        if rf != 2 * (d - 3) - 2 * found:
            raise checks.CheckFailed(f"robinson_foulds {rf} != 2(d-3) - 2*{found}")
        return found

    def final_checks(self, ctx: Context) -> None:
        if self.cfg["method"] == "tensor":
            self.check_counts(ctx)
        elif self.cfg["method"] == "nj":
            self.check_nj_consistency(ctx)

    def check_counts(self, ctx: Context) -> None:
        """Own 4-way counts equal empirical_quartet_tensor, and own nuclear
        argmin equals resolve_nuclear where the margin is clear."""
        tt = ctx.tt
        rows = np.loadtxt(ctx.work / "samples.csv", delimiter=",", skiprows=1,
                          dtype=np.int64)
        n = int(rows.max())  # the state count the build reads from the CSV
        samples = tt.model.SampleSet(rows=rows, variable_names=self.header, n_states=n)
        rng = np.random.default_rng([ctx.seed, 3])
        for _ in range(COUNT_CHECK_QUARTETS):
            idx = tuple(int(i) for i in rng.choice(self.cfg["d"], size=4, replace=False))
            counts = checks.quartet_counts(rows, idx, n)
            program = tt.model.empirical_quartet_tensor(samples, idx)
            if not np.array_equal(counts / len(rows), program.values):
                ctx.problems.append(f"4-way counts of columns {idx} differ")
                continue
            pairing, margin = checks.nuclear_argmin(counts / len(rows))
            verdict = tt.resolvers.resolve_nuclear(program)
            if margin > 1e-9 and int(verdict.relation) != pairing:
                ctx.problems.append(f"nuclear verdict of {idx}: program "
                                    f"{int(verdict.relation)}, own {pairing}")

    def check_nj_consistency(self, ctx: Context) -> None:
        """neighbor_join recovers the true topology from an exact additive
        metric with random positive edge weights."""
        leaves = sorted(self.truth_names)
        dist = checks.path_metric(self.truth_adj, leaves,
                                  np.random.default_rng([ctx.seed, 4]))
        tree = ctx.tt.nj.neighbor_join(dist, [self.truth_names[v] for v in leaves])
        adj = {u: list(tree.neighbors(u)) for u in tree.nodes()}
        got = checks.splits(adj, dict(tree.leaf_names))
        if got != self.true_splits:
            ctx.problems.append(f"neighbor_join on an additive metric misses "
                                f"{len(self.true_splits - got)} true splits")


# ---------------------------------------------------------------------------
# Bench workloads
# ---------------------------------------------------------------------------


def read_outcomes(path: Path):
    """Rows (method, m, trial, outcome) of a bench CSV, read apart from
    ResultTable, plus the outcome columns as text for digests."""
    rows, lines = [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "method,m,trial,outcome,elapsed_ms":
            raise checks.CheckFailed(f"unexpected header {header!r}")
        for line in fh:
            method, m, trial, outcome, _ms = line.strip().split(",")
            rows.append((method, int(m), int(trial), float(outcome)))
            lines.append(",".join((method, m, trial, outcome)))
    return rows, "\n".join(lines) + "\n"


class BenchWorkload:
    """One bench command per round; an operation is one row of its CSV."""

    def __init__(self, name: str, args: list, trials: int, ops: int):
        self.name, self.args, self.trials, self.ops = name, args, trials, ops

    def prepare(self, ctx: Context) -> None:
        pass

    def final_checks(self, ctx: Context) -> None:
        pass

    def command(self, ctx: Context, trials: int, csv: Path) -> list:
        return self.args + ["--trials", str(trials), "--seed", str(ctx.seed),
                            "--out", str(csv)]

    def warm_up(self, ctx: Context, cli_main) -> None:
        """The command once with a single trial, untimed and unchecked."""
        timed(cli_main, self.command(ctx, 1, ctx.work / "warm-up.csv"))

    def round(self, ctx: Context, cli_main) -> Round:
        out = Round(ops=self.ops)
        csv = ctx.work / "bench.csv"
        code, out.wall_s = timed(cli_main, self.command(ctx, self.trials, csv))
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}")
            rows, out.outputs["outcomes"] = read_outcomes(csv)
            if len(rows) != self.ops:
                raise checks.CheckFailed(f"{len(rows)} rows, expected {self.ops}")
        except (checks.CheckFailed, OSError, ValueError) as exc:
            ctx.problems.append(f"{self.name}: {exc}")
            out.failed = self.ops
            return out
        out.failed = sum(math.isnan(r[3]) for r in rows)
        self.check(ctx, [r for r in rows if not math.isnan(r[3])], out)
        return out


class QuartetBench(BenchWorkload):
    def __init__(self):
        super().__init__("quartet-bench-n10", QUARTET_ARGS, QUARTET_TRIALS,
                         QUARTET_TRIALS * len(QUARTET_SAMPLES) * len(QUARTET_METHODS))

    def timings(self, wall_s: float) -> dict:
        return {"quartet_tests_per_s": self.ops / wall_s}

    def check(self, ctx: Context, rows: list, out: Round) -> None:
        if any(r[3] not in (0.0, 1.0) for r in rows):
            ctx.problems.append("quartet outcome not 0 or 1")
        # The oracle's verdict is the model's true relation, so this guards
        # only the CSV's rows and columns, not a resolver.
        if any(r[3] != 1.0 for r in rows if r[0] == "oracle"):
            ctx.problems.append("oracle missed a quartet")
        for method in QUARTET_METHODS:
            if method == "oracle":
                continue
            kind = method_kind(method)
            out.values[f"quartets_correct.{kind}"] = int(
                sum(r[3] for r in rows if r[0] == method))
            # Every method is consistent: more samples never lose verdicts.
            at = {m: sum(r[3] for r in rows if r[0] == method and r[1] == m)
                  for m in (min(QUARTET_SAMPLES), max(QUARTET_SAMPLES))}
            if at[max(QUARTET_SAMPLES)] < at[min(QUARTET_SAMPLES)]:
                ctx.problems.append(f"{method} successes fall as m grows: {at}")


class TreeBench(BenchWorkload):
    def __init__(self):
        super().__init__("tree-bench-d64", TREE_ARGS, TREE_TRIALS,
                         TREE_TRIALS * len(TREE_METHODS))

    def timings(self, wall_s: float) -> dict:
        return {"trials_per_s": TREE_TRIALS / wall_s}

    def check(self, ctx: Context, rows: list, out: Round) -> None:
        most = 2 * (TREE_D - 3)
        if not all(checks.is_even_integer(r[3]) and 0 <= r[3] <= most for r in rows):
            ctx.problems.append(f"RF outside the even integers 0..{most}")
        if any(r[3] != 0 for r in rows if r[0] == "oracle"):
            ctx.problems.append("oracle build with nonzero RF")
        for method in TREE_METHODS:
            if method != "oracle":
                out.values[f"splits_found.{method_kind(method)}"] = int(
                    sum((most - r[3]) // 2 for r in rows if r[0] == method))


WORKLOADS = {
    **{name: (lambda name=name: BuildWorkload(name)) for name in BUILD_CONFIGS},
    "quartet-bench-n10": QuartetBench,
    "tree-bench-d64": TreeBench,
}
