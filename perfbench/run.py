"""Seeded end-to-end and per-layer benchmark of tensortree.

    python3 perfbench/run.py --workload build-m50k-tensor --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The run sets its inputs up in a fresh interpreter, warms up, then
repeats timed rounds of the workload's command through ``tensortree.cli.main``
until the next round would overrun ``--seconds`` (always at least one), and
checks every output.  The warm-up runs the command once (bench commands with
one trial), untimed and uncounted: a command's first call in a process pays
for growing the heap, which later calls reuse.  Set-up is repeated, at least
three times and for at least 3 s in all, between the timed rounds, so that
they span a longer stretch of the machine's varying load; ``setup_s`` is the
median.  Times come from the fastest timed round, the one least slowed by
other load on the machine.  With ``--trace 1`` it alternates untraced and
traced rounds, reports per-layer metrics from the traced ones and writes their
spans to ``.perfbench-out/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the environment, the timed rounds and the workload-specific
metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3
SETUP_SECONDS = 3.0


def load_program():
    """Import tensortree from this checkout's ``src``, or exit with code 1."""
    if not (SRC / "tensortree" / "__init__.py").is_file():
        sys.exit(f"error: no tensortree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tensortree
    import tensortree.cli  # noqa: F401
    if Path(tensortree.__file__).resolve().parent != SRC / "tensortree":
        sys.exit(f"error: imported tensortree from {tensortree.__file__}, not {SRC}")
    return tensortree


def blas_threads():
    """OpenBLAS's thread count, asked from the loaded library, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def more_setups(ctx) -> bool:
    return len(ctx.setup_s) < SETUPS or sum(ctx.setup_s) < SETUP_SECONDS


def median_values(dicts: list[dict]) -> dict:
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def main() -> int:
    import workloads
    from tracing import PER_LAYER, Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tt = load_program()
    workload = workloads.WORKLOADS[args.workload]()

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        ctx = workloads.Context(tt=tt, seed=args.seed, work=work)
        workloads.set_up(ctx, args.workload, SRC)
        workload.prepare(ctx)
        tracer = Tracer(tt)
        traced_cli = tracer.wrap("cli.main", tt.cli.main)
        workload.warm_up(ctx, tt.cli.main)
        plain, traced, layer = [], [], []
        elapsed = 0.0
        while True:
            start = time.perf_counter()
            plain.append(workload.round(ctx, tt.cli.main))
            if args.trace:
                first, before = len(tracer.spans), tracer.counts.copy()
                with tracer.installed():
                    traced.append(workload.round(ctx, traced_cli))
                layer.append(tracer.round_metrics(first, before))
            elapsed += time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
            if more_setups(ctx):  # spreads the timed rounds over a longer span
                workloads.set_up(ctx, args.workload, SRC)
        while more_setups(ctx):
            workloads.set_up(ctx, args.workload, SRC)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.final_checks(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = plain + traced
    fastest = min(plain, key=lambda r: r.wall_s)
    detail = median_values([r.values for r in plain])
    detail.update(workload.timings(fastest.wall_s), setup_s=statistics.median(ctx.setup_s),
                  peak_rss_mb=peak_rss_mb)
    units = dict(workloads.DETAIL_UNITS, setup_s="s", peak_rss_mb="MB")
    print("env", json.dumps(environment(), sort_keys=True))
    print("rounds_s", json.dumps([r.wall_s for r in plain]))
    print("detail", json.dumps({k: {"value": v, "unit": units[k]}
                                for k, v in detail.items()}))
    for problem in dict.fromkeys(ctx.problems):
        print("problem", problem)
    if args.trace:
        values = median_values(layer)
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - statistics.median(r.wall_s for r in plain))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": detail["setup_s"], "unit": "s"},
            "ops_per_s": {"value": fastest.ops / fastest.wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not ctx.problems,
                      "attempted": sum(r.ops for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
