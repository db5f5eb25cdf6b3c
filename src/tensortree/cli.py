"""Command-line interface: benchmarks, tree building, and model diagnostics.

Exit codes: 0 success, 2 usage error, 3 data error (a ParseError or ModelError,
a file that cannot be read or decoded, or an --out path that cannot be written;
its directory is checked before any work), 4 NumericalError. Every error ends in
``main``, which prints ``error: <message>`` on stderr.
No command counts a table of more than bench.MAX_TABLE_BINS bins (n^4 for
``tensor`` and for every ``quartet-bench`` method, n^2 for the others): ``build``
exits 3 on such a sample file, the bench commands exit 2 on such a config.
Seeds are non-negative integers; TENSORTREE_SEED overrides the default of 0
(anything else is a usage error), and an explicit --seed flag always wins.
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
from .exceptions import NumericalError, TensorTreeError
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


class Refusal(Exception):
    """A command declines its input; ``main`` prints the message and exits ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_seed = _int_at_least(0, "non-negative")


def _int_list(text: str) -> list[int]:
    return [_positive_int(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _read(load, path):
    """``load(path)``; a file that cannot be opened or decoded is a data error."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise Refusal(EXIT_DATA, f"cannot read {path}: {exc}") from None


def _write_outputs(args, text: str, t0: float) -> int:
    """Write ``text`` to --out, then its manifest sidecar."""
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
        raise Refusal(EXIT_DATA, f"cannot write {args.out}: {exc}") from None
    return EXIT_OK


def _add_common(sub, with_jobs=True):
    sub.add_argument("--seed", type=_seed, default=None,
                     help="random seed, >= 0 (default: $TENSORTREE_SEED or 0)")
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
        raise Refusal(EXIT_USAGE, str(exc)) from None
    t0 = time.perf_counter()
    return _write_outputs(args, run(cfg, jobs=args.jobs).csv_text(), t0)


def cmd_quartet_bench(args) -> int:
    return _run_bench(args, QuartetExperimentConfig, run_quartet_experiment,
                      k_h=args.kh, k_g=args.kg)


def cmd_tree_bench(args) -> int:
    if len(args.k_range) != 2:
        raise Refusal(EXIT_USAGE, "--k-range needs exactly two integers lo,hi")
    return _run_bench(args, TreeExperimentConfig, run_tree_experiment, d=args.d,
                      beta=args.beta, k_range=tuple(args.k_range),
                      hidden_base=args.hidden_base)


def cmd_build(args) -> int:
    try:
        family, spectral_k = parse_method(args.method)
    except ValueError as exc:
        raise Refusal(EXIT_USAGE, str(exc)) from None
    if family == "oracle":
        raise Refusal(EXIT_USAGE, "method 'oracle' needs a known model and is only "
                      "available in the benchmark commands")
    samples = _read(SampleSet.from_csv, args.input)
    if samples.d < 4:
        raise Refusal(EXIT_DATA, f"need at least 4 variables, got {samples.d}")
    if family == "spectral" and spectral_k > samples.n_states:
        raise Refusal(EXIT_USAGE, f"spectral rank {spectral_k} exceeds state count "
                      f"{samples.n_states}")
    bins = table_bins(family, samples.n_states)
    if bins > MAX_TABLE_BINS:
        raise Refusal(EXIT_DATA, f"{samples.n_states} states make tables of {bins} bins "
                      f"for method {args.method}, over the limit of {MAX_TABLE_BINS}")
    t0 = time.perf_counter()
    tree = recover(samples, args.method, args.seed)
    return _write_outputs(args, to_newick(tree) + "\n", t0)


def cmd_diagnose(args) -> int:
    model = _read(read_model, args.model)
    if model.params is None:
        raise Refusal(EXIT_DATA, "model file has no parameters to diagnose")
    t0 = time.perf_counter()
    diag = diagnostics(model, max_quartets=args.max_quartets, seed=args.seed)
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
    return _write_outputs(args, text, t0)


_COMMANDS = {
    "quartet-bench": cmd_quartet_bench,
    "tree-bench": cmd_tree_bench,
    "build": cmd_build,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.seed is None:
            raw = os.environ.get("TENSORTREE_SEED", "").strip()
            try:
                args.seed = _seed(raw) if raw else 0
            except argparse.ArgumentTypeError as exc:
                raise Refusal(EXIT_USAGE, f"TENSORTREE_SEED: {exc}") from None
        folder = os.path.dirname(os.path.abspath(args.out))  # before the work; opens nothing
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise Refusal(EXIT_DATA, f"cannot write {args.out}: no writable directory {folder}")
        return _COMMANDS[args.command](args)
    except (Refusal, TensorTreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, Refusal):
            return exc.code
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
