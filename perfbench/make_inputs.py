"""Generate one workload's inputs in a fresh interpreter; the benchmark times
this process as its set-up.

    python3 perfbench/make_inputs.py --workload build-m50k-tensor --seed 1 --out DIR

Build workloads get ``DIR/samples.csv`` and ``DIR/truth.json`` (the
generator's topology).  The bench workloads generate their own inputs inside
the command, so for them this process only imports ``tensortree.cli``: the
cold start every command pays.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from workloads import BUILD_CONFIGS


def make_build_inputs(tensortree, cfg: dict, seed: int, out_dir: Path) -> None:
    truth = tensortree.bench.random_tree_model(
        cfg["d"], cfg["beta"], cfg["n"], cfg["k"], cfg["mu"],
        np.random.default_rng([seed, 1]), hidden_base=cfg["hidden_base"])
    samples = tensortree.model.sample(truth, cfg["m"], np.random.default_rng([seed, 2]))
    samples.to_csv(out_dir / "samples.csv")
    with open(out_dir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump({"adjacency": {u: list(truth.neighbors(u)) for u in truth.nodes()},
                   "leaf_names": truth.leaf_names}, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    import tensortree.cli  # noqa: F401  (the cold start is part of set-up)
    import tensortree
    if args.workload in BUILD_CONFIGS:
        make_build_inputs(tensortree, BUILD_CONFIGS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
