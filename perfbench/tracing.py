"""Spans and counters recorded around calls into tensortree's public functions.

The tracer wraps functions at the module attributes through which
``tensortree.cli`` and ``tensortree.bench`` reach them, so the program itself
is not edited.  A span is ``[name, start, end, parent]``; spans are kept in
memory while the run lasts and written out when it ends.  A span's self time
is its duration minus the time covered by its children (calls run on one
thread, so children never overlap).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import math
import time


def _count4(counts, args, out):
    counts["model.count4_calls"] += 1
    counts["model.count_bytes"] += args[0].m * 4 * 8


def _count2(counts, args, out):
    counts["model.count2_calls"] += 1
    counts["model.count_bytes"] += args[0].m * 2 * 8


def _svd(counts, args, out):
    rows, cols = args[0].shape
    big, small = max(rows, cols), min(rows, cols)
    counts["tensors.svd_calls"] += 1
    # Golub & Van Loan operation count for singular values only.
    counts["tensors.svd_flops"] += 4 * big * small ** 2 - 4 * small ** 3 / 3


def _nuclear(counts, args, out):
    counts["resolvers.nuclear_calls"] += 1
    counts["resolvers.ties"] += int(out.tie)


def _spectral_k(counts, args, out):
    counts["resolvers.ties"] += int(out.tie)


def _build_tree(counts, args, out):
    d = len(args[1])
    counts["builder.quartet_calls"] += out[1].quartet_test_count
    counts["builder.dlog2d"] += d * math.log2(d)


def _distance(counts, args, out):
    counts["nj.pairs"] += len(args[0])


# (module, attribute, span name, counter); the module is named relative to
# the tensortree package.  SampleSet.from_csv is patched on the class.
TARGETS = (
    ("model.SampleSet", "from_csv", "model.read_csv", None),
    ("cli", "empirical_quartet_tensor", "model.count4", _count4),
    ("bench", "empirical_quartet_tensor", "model.count4", _count4),
    ("cli", "empirical_pairwise", "model.count2", _count2),
    ("bench", "empirical_pairwise", "model.count2", _count2),
    ("bench", "sample", "model.sample", None),
    ("resolvers", "spectral", "tensors.svd", _svd),
    ("resolvers", "unfold", "tensors.unfold", None),
    ("cli", "resolve_nuclear", "resolvers.nuclear", _nuclear),
    ("bench", "resolve_nuclear", "resolvers.nuclear", _nuclear),
    ("cli", "resolve_spectral_k", "resolvers.spectral_k", _spectral_k),
    ("bench", "resolve_spectral_k", "resolvers.spectral_k", _spectral_k),
    ("bench", "resolve_oracle", "resolvers.oracle", None),
    ("cli", "build_tree", "builder.build_tree", _build_tree),
    ("bench", "build_tree", "builder.build_tree", _build_tree),
    ("cli", "distance_matrix", "nj.distance", _distance),
    ("bench", "distance_matrix", "nj.distance", _distance),
    ("cli", "neighbor_join", "nj.join", None),
    ("bench", "neighbor_join", "nj.join", None),
    ("bench", "additive_distance", "nj.additive", None),
    ("bench", "robinson_foulds", "metrics.rf", None),
    ("cli", "to_newick", "metrics.newick", None),
    ("cli", "run_quartet_experiment", "bench.run", None),
    ("cli", "run_tree_experiment", "bench.run", None),
    ("bench", "random_quartet_model", "bench.generate", None),
    ("bench", "random_tree_model", "bench.generate", None),
)

LAYERS = ("cli", "bench", "model", "tensors", "resolvers", "builder", "nj",
          "metrics")

# Per-layer metrics: name -> unit.  Times and counts are per traced round.
PER_LAYER = {
    "model.read_csv_s": "s",
    "model.count4_calls": "count",
    "model.count4_s": "s",
    "model.count2_calls": "count",
    "model.count2_s": "s",
    "model.count_bytes": "B",
    "model.sample_s": "s",
    "tensors.svd_calls": "count",
    "tensors.svd_s": "s",
    "tensors.svd_flops": "flop",
    "resolvers.nuclear_calls": "count",
    "resolvers.nuclear_self_s": "s",
    "resolvers.spectral_k_s": "s",
    "resolvers.oracle_s": "s",
    "resolvers.ties": "count",
    "builder.quartet_calls": "count",
    "builder.calls_per_dlog2d": "calls/dlog2d",
    "builder.self_s": "s",
    "nj.pairs": "count",
    "nj.distance_s": "s",
    "nj.join_s": "s",
    "metrics.rf_s": "s",
    "metrics.newick_s": "s",
    "bench.generate_s": "s",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS
       if layer not in ("cli", "builder")},
    "trace.overhead_s": "s",
}

# Span totals reported under a metric name: metric -> (span name, self only).
_SPAN_METRICS = {
    "model.read_csv_s": ("model.read_csv", False),
    "model.count4_s": ("model.count4", False),
    "model.count2_s": ("model.count2", False),
    "model.sample_s": ("model.sample", False),
    "tensors.svd_s": ("tensors.svd", False),
    "resolvers.nuclear_self_s": ("resolvers.nuclear", True),
    "resolvers.spectral_k_s": ("resolvers.spectral_k", False),
    "resolvers.oracle_s": ("resolvers.oracle", False),
    "nj.distance_s": ("nj.distance", False),
    "nj.join_s": ("nj.join", False),
    "metrics.rf_s": ("metrics.rf", False),
    "metrics.newick_s": ("metrics.newick", False),
    "bench.generate_s": ("bench.generate", False),
}


def _resolve(package, dotted):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans while :meth:`installed`; one per traced run."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0,
                      tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counts, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of a ``with`` block."""
        saved = []
        try:
            for owner_name, attr, name, counter in TARGETS:
                owner = _resolve(self.package, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__, counter))
                else:
                    patched = self.wrap(name, original, counter)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def round_metrics(self, first_span: int, counts_before) -> dict:
        """Per-layer metrics of the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= first_span:
                child[rec[3] - first_span] += rec[2] - rec[1]
        total = collections.Counter()
        own = collections.Counter()
        for i, (name, start, end, _parent) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        counts = self.counts - counts_before
        out = {}
        for metric, (span, self_only) in _SPAN_METRICS.items():
            out[metric] = (own if self_only else total)[span]
        for metric in ("model.count4_calls", "model.count2_calls",
                       "model.count_bytes", "tensors.svd_calls",
                       "tensors.svd_flops", "resolvers.nuclear_calls",
                       "resolvers.ties", "builder.quartet_calls", "nj.pairs"):
            out[metric] = counts[metric]
        dlog2d = counts["builder.dlog2d"]
        out["builder.calls_per_dlog2d"] = (
            counts["builder.quartet_calls"] / dlog2d if dlog2d else 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                         if k.split(".")[0] == layer)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

