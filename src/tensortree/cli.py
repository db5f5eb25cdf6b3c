"""Command-line interface: benchmarks, tree building, and model diagnostics.

Exit codes: 0 success, 2 usage error, 3 data error (an input that cannot be
read or parsed, or an --out path that cannot be written), 4 numerical failure.
No command counts a table of more than bench.MAX_TABLE_BINS bins (n^4 for
``tensor`` and for every ``quartet-bench`` method, n^2 for the others): ``build``
exits 3 on such a sample file, the bench commands exit 2 on such a config.
The default seed can be overridden with the TENSORTREE_SEED environment
variable (an integer; anything else is a usage error); an explicit --seed flag
always wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .bench import (MAX_TABLE_BINS, QuartetExperimentConfig, TreeExperimentConfig,
                    diagnostics, parse_method, recover, run_quartet_experiment,
                    run_tree_experiment, table_bins)
from .exceptions import ModelError, NumericalError, ParseError
from .metrics import to_newick
from .model import SampleSet
from .modelfile import read_model
# Unused here (bench.recover builds every tree), but perfbench/tracing.py
# patches these names on this module and fails if they are missing.
from .builder import build_tree  # noqa: F401
from .model import empirical_pairwise, empirical_quartet_tensor  # noqa: F401
from .nj import distance_matrix, neighbor_join  # noqa: F401
from .resolvers import resolve_nuclear, resolve_spectral_k  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    return [_positive_int(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _text_writer(text: str):
    def write(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return write


def _write_outputs(args, write, t0: float) -> int:
    """Write the output file with ``write(path)``, then its manifest sidecar."""
    try:
        write(args.out)
        manifest = {
            "subcommand": args.command,
            "config": vars(args),
            "seed": args.seed,
            "version": __version__,
            "elapsed_seconds": round(time.perf_counter() - t0, 3),
        }
        with open(str(args.out) + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _add_common(sub, with_jobs=True):
    sub.add_argument("--seed", type=int, default=None,
                     help="random seed (default: $TENSORTREE_SEED or 0)")
    sub.add_argument("--out", required=True, help="output file path")
    if with_jobs:
        sub.add_argument("--jobs", type=_positive_int, default=1,
                         help="parallel worker processes, >= 1 (default 1)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensortree",
        description="Latent tree recovery via nuclear-norm quartet tests.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    qb = subs.add_parser("quartet-bench",
                         help="quartet-recovery benchmark on synthetic models")
    qb.add_argument("--kh", type=int, required=True, help="first hidden cardinality")
    qb.add_argument("--kg", type=int, required=True, help="second hidden cardinality")
    qb.add_argument("--n", type=int, required=True, help="observed state count")
    qb.add_argument("--mu", type=float, required=True, help="perturbation level")
    qb.add_argument("--samples", type=_int_list, required=True,
                    help="comma-separated sample sizes, e.g. 50,200,2000")
    qb.add_argument("--trials", type=int, required=True)
    qb.add_argument("--methods", type=_str_list, required=True,
                    help="comma-separated: tensor, spectral@K, nj, oracle")
    _add_common(qb)

    tb = subs.add_parser("tree-bench",
                         help="tree-recovery benchmark on synthetic models")
    tb.add_argument("--d", type=int, required=True, help="leaf count")
    tb.add_argument("--beta", type=float, required=True, help="split parameter")
    tb.add_argument("--k-range", type=_int_list, default=[2, 8],
                    help="hidden cardinality range lo,hi (default 2,8)")
    tb.add_argument("--n", type=int, default=10, help="observed state count")
    tb.add_argument("--mu", type=float, required=True, help="perturbation level")
    tb.add_argument("--samples", type=_int_list, required=True)
    tb.add_argument("--trials", type=int, required=True)
    tb.add_argument("--methods", type=_str_list, required=True)
    tb.add_argument("--hidden-base", choices=("independent", "identity"),
                    default="independent",
                    help="base table for hidden-to-hidden edges")
    _add_common(tb)

    bd = subs.add_parser("build", help="build a latent tree from a sample CSV")
    bd.add_argument("--input", required=True, help="sample CSV (header + 1-based states)")
    bd.add_argument("--method", default="tensor",
                    help="tensor, spectral@K, or nj (default tensor)")
    _add_common(bd, with_jobs=False)

    dg = subs.add_parser("diagnose", help="recovery diagnostics of a model file")
    dg.add_argument("--model", required=True, help="parameterized model file")
    dg.add_argument("--samples", type=_int_list, default=[],
                    help="sample sizes (>= 1) at which to evaluate the success bounds")
    dg.add_argument("--max-quartets", type=_positive_int, default=None,
                    help="subsample this many quartets (>= 1) on large trees")
    _add_common(dg, with_jobs=False)
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _run_bench(args, config, run, **fields) -> int:
    """Config from the shared options and ``fields``: exit 2 if invalid, else run, write."""
    try:
        cfg = config(n=args.n, mu=args.mu, sample_grid=tuple(args.samples),
                     trials=args.trials, methods=tuple(args.methods), seed=args.seed,
                     **fields)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    return _write_outputs(args, run(cfg, jobs=args.jobs).write_csv, t0)


def cmd_quartet_bench(args) -> int:
    return _run_bench(args, QuartetExperimentConfig, run_quartet_experiment,
                      k_h=args.kh, k_g=args.kg)


def cmd_tree_bench(args) -> int:
    if len(args.k_range) != 2:
        print("error: --k-range needs exactly two integers lo,hi", file=sys.stderr)
        return EXIT_USAGE
    return _run_bench(args, TreeExperimentConfig, run_tree_experiment, d=args.d,
                      beta=args.beta, k_range=tuple(args.k_range),
                      hidden_base=args.hidden_base)


def cmd_build(args) -> int:
    try:
        family, spectral_k = parse_method(args.method)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if family == "oracle":
        print("error: method 'oracle' needs a known model and is only available "
              "in the benchmark commands", file=sys.stderr)
        return EXIT_USAGE
    try:
        samples = SampleSet.from_csv(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if samples.d < 4:
        print(f"error: need at least 4 variables, got {samples.d}", file=sys.stderr)
        return EXIT_DATA
    if family == "spectral" and spectral_k > samples.n_states:
        print(f"error: spectral rank {spectral_k} exceeds state count "
              f"{samples.n_states}", file=sys.stderr)
        return EXIT_USAGE
    bins = table_bins(family, samples.n_states)
    if bins > MAX_TABLE_BINS:
        print(f"error: {samples.n_states} states make tables of {bins} bins for "
              f"method {args.method}, over the limit of {MAX_TABLE_BINS}", file=sys.stderr)
        return EXIT_DATA
    t0 = time.perf_counter()
    try:
        tree = recover(samples, args.method, args.seed)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return _write_outputs(args, _text_writer(to_newick(tree) + "\n"), t0)


def cmd_diagnose(args) -> int:
    try:
        model = read_model(args.model)
    except OSError as exc:
        print(f"error: cannot read {args.model}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if model.params is None:
        print("error: model file has no parameters to diagnose", file=sys.stderr)
        return EXIT_DATA
    t0 = time.perf_counter()
    try:
        diag = diagnostics(model, max_quartets=args.max_quartets, seed=args.seed)
    except ModelError as exc:  # e.g. fewer than 4 leaves
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = [
        f"theta_min            {diag.theta_min:.12g}",
        f"gamma_min            {diag.gamma_min:.12g}",
        f"alpha_min            {diag.alpha_min:.12g}",
        f"delta                {diag.delta:.12g}",
        f"margins_preserved_ok {diag.margins_preserved_ok}",
        f"edge_bound_ok        {diag.edge_bound_ok}",
        f"combined_bound_ok    {diag.combined_bound_ok}",
    ]
    rows = [("theta_min", diag.theta_min), ("gamma_min", diag.gamma_min),
            ("alpha_min", diag.alpha_min), ("delta", diag.delta),
            ("margins_preserved_ok", int(diag.margins_preserved_ok)),
            ("edge_bound_ok", int(diag.edge_bound_ok)),
            ("combined_bound_ok", int(diag.combined_bound_ok))]
    for m in args.samples:
        qb = diag.quartet_success_bound(m)
        tb = diag.tree_success_bound(m)
        report.append(f"quartet_success_bound(m={m}) {qb:.12g}")
        report.append(f"tree_success_bound(m={m})    {tb:.12g}")
        rows.append((f"quartet_success_bound_m{m}", qb))
        rows.append((f"tree_success_bound_m{m}", tb))
    print("\n".join(report))
    text = "quantity,value\n" + "".join(
        f"{key},{val:.12g}\n" if isinstance(val, float) else f"{key},{val}\n"
        for key, val in rows)
    return _write_outputs(args, _text_writer(text), t0)


_COMMANDS = {
    "quartet-bench": cmd_quartet_bench,
    "tree-bench": cmd_tree_bench,
    "build": cmd_build,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        raw = os.environ.get("TENSORTREE_SEED", "").strip()
        try:
            args.seed = int(raw) if raw else 0
        except ValueError:
            print(f"error: TENSORTREE_SEED must be an integer, got {raw!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
