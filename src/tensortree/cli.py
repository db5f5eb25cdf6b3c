"""Command-line interface: benchmarks, tree building, and model diagnostics.

Exit codes: 0 success, 2 usage error, 3 data error (a ParseError or ModelError,
a file that cannot be read or decoded, or an --out path that cannot be written;
its directory is checked before any work), 4 NumericalError. A value refused while
the options are parsed (a type check, a missing required option, a bad choice)
prints argparse's usage lines and ``tensortree <command>: error: ...`` and exits
2; every other error ends in ``main``, which prints ``error: <message>`` on stderr.
Every method's input limits are bench.check_method's: ``build`` and ``diagnose``
exit 3 on an input file that breaks one, the bench commands exit 2. A command that
runs out of memory, or whose worker process dies (say, ended by the OOM killer), exits 3.
Seeds are non-negative integers; TENSORTREE_SEED overrides the default of 0
(anything else is a usage error), and an explicit --seed flag always wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from itertools import groupby

from . import __version__
from .bench import (QuartetExperimentConfig, TreeExperimentConfig, check_method, diagnostics,
                    parse_method, recover, result_csv, run_quartet_experiment,
                    run_tree_experiment)
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


def _list(item):
    """A comma list of ``item(entry)`` over its non-blank entries."""
    return lambda text: [item(x) for x in text.split(",") if x.strip()]


def _distinct(item):
    """``_list(item)``, refusing a repeated entry, which would write the same rows twice."""
    def parse(text: str) -> list:
        values = _list(item)(text)
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise argparse.ArgumentTypeError(f"repeated entry {repeated[0]} in {text!r}")
        return values
    return parse


def _read(load, path):
    """``load(path)``; a file that cannot be opened or decoded is a data error."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise Refusal(EXIT_DATA, f"cannot read {path}: {exc}") from None


def _write_outputs(args, text: str, t0: float, **extra) -> int:
    """Write ``text`` to --out, then its manifest sidecar with ``extra`` fields."""
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        manifest = {
            "subcommand": args.command,
            "config": vars(args),
            "seed": args.seed,
            "version": __version__,
            "elapsed_seconds": round(time.perf_counter() - t0, 3),
            **extra,
        }
        with open(str(args.out) + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise Refusal(EXIT_DATA, f"cannot write {args.out}: {exc}") from None
    return EXIT_OK


def _add_common(sub, bench=True):
    """--seed and --out; for a bench command also its sample grid, trials, methods, jobs."""
    sub.add_argument("--seed", type=_seed, default=None,
                     help="random seed, >= 0 (default: $TENSORTREE_SEED or 0)")
    sub.add_argument("--out", required=True, help="output file path")
    if bench:
        sub.add_argument("--samples", type=_distinct(_positive_int), required=True,
                         help="comma-separated sample sizes, e.g. 50,200,2000")
        sub.add_argument("--trials", type=int, required=True,
                         help="random models, each sampled at every size")
        sub.add_argument("--methods", type=_list(str.strip), required=True,
                         help="comma-separated: tensor, spectral@K, nj, oracle")
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
    _add_common(qb)

    tb = subs.add_parser("tree-bench",
                         help="tree-recovery benchmark on synthetic models")
    tb.add_argument("--d", type=int, required=True, help="leaf count")
    tb.add_argument("--beta", type=float, required=True, help="split parameter")
    tb.add_argument("--k-range", type=_list(_positive_int), default=[2, 8],
                    help="hidden cardinality range lo,hi (default 2,8)")
    tb.add_argument("--n", type=int, default=10, help="observed state count")
    tb.add_argument("--mu", type=float, required=True, help="perturbation level")
    tb.add_argument("--hidden-base", choices=("independent", "identity"),
                    default="independent",
                    help="base table for hidden-to-hidden edges")
    _add_common(tb)

    bd = subs.add_parser("build", help="build a latent tree from a sample CSV")
    bd.add_argument("--input", required=True, help="sample CSV (header + 1-based states)")
    bd.add_argument("--method", default="tensor",
                    help="tensor, spectral@K, or nj (default tensor)")
    _add_common(bd, bench=False)

    dg = subs.add_parser("diagnose", help="recovery diagnostics of a model file")
    dg.add_argument("--model", required=True, help="parameterized model file")
    dg.add_argument("--samples", type=_distinct(_positive_int), default=[],
                    help="sample sizes (>= 1) at which to evaluate the success bounds")
    dg.add_argument("--max-quartets", type=_positive_int, default=None,
                    help="subsample this many quartets (>= 1) on large trees")
    _add_common(dg, bench=False)
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
    rows = run(cfg, jobs=args.jobs)  # a trial that raised a TensorTreeError reads NaN
    errors = {name: sum(math.isnan(row[3]) for row in rows if row[0] == name)
              for name in cfg.methods}
    if failed := [f"{name} {count}" for name, count in errors.items() if count]:
        print("warning: failed trials, written with outcome nan:", ", ".join(failed),
              file=sys.stderr)  # still exit 0: the CSV and manifest hold every row
    return _write_outputs(args, result_csv(rows), t0, errors=errors)


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
        family, _ = parse_method(args.method)
    except ValueError as exc:
        raise Refusal(EXIT_USAGE, str(exc)) from None
    if family == "oracle":
        raise Refusal(EXIT_USAGE, "method 'oracle' needs a known model and is only "
                      "available in the benchmark commands")
    t0 = time.perf_counter()
    samples = _read(SampleSet.from_csv, args.input)
    read = {"read_seconds": round(time.perf_counter() - t0, 3),
            "samples": {"rows": samples.m, "columns": samples.d, "states": samples.n_states}}
    try:
        check_method(args.method, samples.d, samples.n_states)
    except ValueError as exc:
        raise Refusal(EXIT_DATA, str(exc)) from None
    t0 = time.perf_counter()
    tree = recover(samples, args.method, args.seed)
    return _write_outputs(args, to_newick(tree) + "\n", t0, **read)


def cmd_diagnose(args) -> int:
    model = _read(read_model, args.model)
    if model.params is None:
        raise Refusal(EXIT_DATA, "model file has no parameters to diagnose")
    try:
        check_method("tensor", 4, model.params.n)  # diagnose builds exact quartet tensors
    except ValueError as exc:
        raise Refusal(EXIT_DATA, str(exc)) from None
    t0 = time.perf_counter()
    diag = diagnostics(model, max_quartets=args.max_quartets, seed=args.seed)
    fields = [(f.name, getattr(diag, f.name)) for f in dataclasses.fields(diag)
              if f.name not in ("k", "d")]
    for m in args.samples:
        fields += [(f"quartet_success_bound(m={m})", diag.quartet_success_bound(m)),
                   (f"tree_success_bound(m={m})", diag.tree_success_bound(m))]
    report, rows = [], ["quantity,value"]
    # The report lines up the values of each run of fields with one "(m=...)" suffix.
    for _, run in groupby(fields, key=lambda field: field[0].partition("(")[2]):
        run = list(run)
        width = max(len(name) for name, _ in run)
        for name, value in run:
            shown = f"{value:.12g}" if isinstance(value, float) else value
            report.append(f"{name:{width}} {shown}")
            rows.append(f"{name.replace('(m=', '_m').rstrip(')')},"
                        f"{shown if isinstance(value, float) else int(value)}")
    print("\n".join(report))
    text = "\n".join(rows) + "\n"
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
    except (MemoryError, BrokenProcessPool) as exc:
        what = "out of memory" if isinstance(exc, MemoryError) else "a worker process died"
        print(f"error: {what}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (Refusal, TensorTreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, Refusal):
            return exc.code
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
