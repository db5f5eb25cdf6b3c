"""Regenerate every workload's outputs from a seed and print a digest of each.

    python3 perfbench/digest.py --seed 1

For the build workloads the outputs are the Newick files of each method; for
the bench commands they are the ``method,m,trial,outcome`` columns (without
``elapsed_ms``).  Run it in two checkouts with the same seed and compare the
lines: equal digests mean byte-identical verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from make_inputs import make_build_inputs
from run import ROOT, load_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    tt = load_program()
    for name in workloads.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
        try:
            ctx = workloads.Context(tt=tt, seed=args.seed, work=work)
            if name in workloads.BUILD_CONFIGS:
                make_build_inputs(tt, workloads.BUILD_CONFIGS[name], args.seed, ctx.work)
            workload = workloads.WORKLOADS[name]()
            workload.prepare(ctx)
            result = workload.round(ctx, tt.cli.main)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for output, text in sorted(result.outputs.items()):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            print(f"{name} seed={args.seed} {output} {digest}")
        if result.failed or ctx.problems:
            print(f"{name}: {result.failed} failed operations, problems: {ctx.problems}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
