"""Run each case of a table of commands and print a digest of its outputs.

    PYTHONPATH=src python3 tests/case_digest.py

``perfbench/digest.py`` digests the benchmark workloads; the cases here cover
what those do not reach: the nuclear test's SVD fallback on sparse tables,
``diagnose``, the flat code's dtype edges, five spellings of one sample CSV,
the pairwise-stack kernels under many NJ joins, and ``tree-bench`` trials whose
``spectral@2`` reads the stack that ``nj`` counts.  tensortree is imported
from the ``src`` directory that PYTHONPATH names first.  Each case's inputs
are written by that tensortree, with fixed seeds, into a temporary directory,
and its command runs in process through ``tensortree.cli.main``.  One line
``name sha256`` is printed per case, over the bytes its verdict rests on: the
Newick file of a build, the standard output and CSV of a diagnose, and the
``method,m,trial,outcome`` columns of a bench CSV (without ``elapsed_ms``).

Run it with PYTHONPATH naming a base commit's ``src`` and then this
checkout's, and diff the lines: equal lines mean byte-identical outputs.  It
exits 1 where one side alone is wrong: a command that does not exit 0, a
sample CSV whose largest state is not its n, or a spelling of a CSV whose tree
differs from the plain file's.  A new case is one row of ``CASES``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path


def load_program():
    """Import tensortree from the first directory on PYTHONPATH, or exit with code 1.

    An installed tensortree would otherwise be found on a mistyped path, and the
    two sides of a comparison would both run it."""
    src = next((p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p), None)
    if src is None:
        sys.exit("error: PYTHONPATH must name the src directory to digest")
    import tensortree
    import tensortree.cli  # noqa: F401
    if Path(tensortree.__file__).resolve().parent != Path(src).resolve() / "tensortree":
        sys.exit(f"error: imported tensortree from {tensortree.__file__}, not {src}")
    return tensortree


def diagnose_model(d):
    """The d-leaf, 4-state model of rank 2 that the diagnose cases read."""
    def write(tt, path):
        tt.write_model(tt.random_tree_model(d, 0.5, 4, 2, 0.6, d, hidden_base="identity"),
                       path)
    return write


def sample_csv(d, n, m, model_seed):
    """m samples, drawn with seed n, of a d-leaf, n-state model of rank 4 drawn with
    ``model_seed``; the file must use state n, so that the case reaches n states."""
    def write(tt, path):
        tt.sample(tt.random_tree_model(d, 0.5, n, 4, 0.5, model_seed), m, n).to_csv(path)
        rows = path.read_text(encoding="utf-8").split("\n")[1:]
        largest = max(int(x) for row in rows if row for x in row.split(","))
        if largest != n:
            sys.exit(f"error: the largest state of {path.name} is {largest}, not {n}")
    return write


def per_line(edit):
    """A transform applying ``edit(number, line)`` to each line, numbered from 1, of a
    file whose lines all end in a newline, as ``sed`` and ``awk`` do."""
    return lambda data: b"".join(edit(number, line) + b"\n" for number, line
                                 in enumerate(data.removesuffix(b"\n").split(b"\n"), 1))


# The five spellings of one CSV that must read as the plain file, each beside the
# shell line it stands for.  The underscore spelling sends the first block of lines
# to the parser's line loop and the rest to its digit parser.
SPELLINGS = {
    "crlf": per_line(lambda _, line: line + b"\r"),  # sed 's/$/\r/'
    "bom": lambda data: b"\xef\xbb\xbf" + data,  # { printf '\357\273\277'; cat; }
    "spaced": lambda data: data.replace(b",", b", "),  # sed 's/,/, /g'
    # awk '{ print } NR % 100 == 0 { print "" }'
    "blank": per_line(lambda number, line: line + b"\n" * (number % 100 == 0)),
    # sed '2,50s/\([0-9]\)\([0-9]\)/\1_\2/'
    "underscore": per_line(lambda number, line: re.sub(rb"([0-9])([0-9])", rb"\1_\2", line,
                                                       count=1) if 2 <= number <= 50 else line),
}


def spelled(plain, spelling):
    """The input ``plain``, already written, rewritten by ``SPELLINGS[spelling]``."""
    def write(tt, path):
        path.write_bytes(SPELLINGS[spelling]((path.parent / plain).read_bytes()))
    return write


# Written in this order; a case's argument that names one is given its path.
INPUTS = {
    "model6.txt": diagnose_model(6),
    "model8.txt": diagnose_model(8),
    "model12.txt": diagnose_model(12),
    # At n = 16 a pairwise flat code fits in uint8 and a quartet code in uint16; at
    # n = 17 neither does.
    "edge16.csv": sample_csv(12, 16, 3000, 16),
    "edge17.csv": sample_csv(12, 17, 3000, 17),
    **{f"edge16-{s}.csv": spelled("edge16.csv", s) for s in SPELLINGS},
    # The pairwise stack's column-pair kernel with an odd last column; its rule's
    # boundary m = n^4; the one-hot kernel, and joins from 400 clusters down.
    "pairs33.csv": sample_csv(33, 8, 5000, 33),
    "pairs12.csv": sample_csv(12, 7, 2401, 12),
    "pairs400.csv": sample_csv(400, 4, 500, 400),
}


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    same_as: str | None = None  # a case whose digest this one's must equal


def diagnose(model, *extra):
    return ("diagnose", "--model", model, "--samples", "100,5000", *extra)


def build(csv, method):
    return ("build", "--input", csv, "--method", method, "--seed", "1")


def sampled(quartets):
    """Flags drawing ``quartets`` of a model's quartets; below its C(d, 4), they take
    the sampled path of bench._quartets."""
    return ("--max-quartets", str(quartets), "--seed", "3")


def shared_stack(n, samples):
    """A tree-bench whose spectral@2 reads the pairwise stack that its nj counts."""
    return ("tree-bench", "--d", "16", "--beta", "0.5", "--n", str(n), "--k-range", "2,4",
            "--mu", "0.5", "--samples", samples, "--trials", "2", "--methods", "spectral@2,nj",
            "--seed", "1")


CASES = [
    # At n = 32 and m <= 20 each 1024 x 1024 unfolding has at most 20 nonzero rows,
    # and many quartets are near-ties that the nuclear test re-scores by SVD.
    Case("tree-bench-sparse-n32", ("tree-bench", "--d", "8", "--beta", "0.5", "--n", "32",
                                   "--k-range", "2,2", "--mu", "0.5", "--samples", "5,20",
                                   "--trials", "2", "--methods", "tensor", "--seed", "1")),
    Case("diagnose-d6-all", diagnose("model6.txt")),
    Case("diagnose-d6-sampled", diagnose("model6.txt", *sampled(10))),
    Case("diagnose-d8-all", diagnose("model8.txt")),
    Case("diagnose-d8-sampled", diagnose("model8.txt", *sampled(40))),
    Case("diagnose-d12-all", diagnose("model12.txt")),
    Case("diagnose-d12-sampled", diagnose("model12.txt", *sampled(40))),
    Case("build-n16-tensor", build("edge16.csv", "tensor")),
    Case("build-n16-spectral@2", build("edge16.csv", "spectral@2")),
    Case("build-n17-tensor", build("edge17.csv", "tensor")),
    Case("build-n17-spectral@2", build("edge17.csv", "spectral@2")),
    Case("build-n16-crlf-tensor", build("edge16-crlf.csv", "tensor"), "build-n16-tensor"),
    Case("build-n16-bom-tensor", build("edge16-bom.csv", "tensor"), "build-n16-tensor"),
    Case("build-n16-spaced-tensor", build("edge16-spaced.csv", "tensor"), "build-n16-tensor"),
    Case("build-n16-blank-tensor", build("edge16-blank.csv", "tensor"), "build-n16-tensor"),
    Case("build-n16-underscore-tensor", build("edge16-underscore.csv", "tensor"),
         "build-n16-tensor"),
    Case("build-d33-n8-m5000-nj", build("pairs33.csv", "nj")),
    Case("build-d12-n7-m2401-nj", build("pairs12.csv", "nj")),
    Case("build-d400-n4-m500-nj", build("pairs400.csv", "nj")),
    # The stack's one-hot kernel at n = 6; at n = 7, one-hot at m = 2,400 and column
    # pairs from the rule's boundary m = n^4 = 2,401.
    Case("tree-bench-n6-shared-stack", shared_stack(6, "500,2000")),
    Case("tree-bench-n7-shared-stack", shared_stack(7, "2400,2401")),
]


def verdict_bytes(command, out: Path, stdout: str) -> bytes:
    """The bytes of a command's outputs that both sides must share."""
    data = out.read_bytes()
    if command == "build":
        return data
    if command == "diagnose":
        return stdout.encode("utf-8") + data
    return b"".join(b",".join(line.split(b",")[:4]) + b"\n" for line in data.splitlines())


def run(tt, case, work: Path) -> str:
    """Run one case in ``work`` and return the sha256 of its verdict bytes."""
    out = work / f"{case.name}.out"
    argv = [str(work / a) if a in INPUTS else a for a in case.argv] + ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = tt.cli.main(argv)
    if code != 0:
        sys.exit(f"error: {case.name} exited {code}")
    return hashlib.sha256(verdict_bytes(case.argv[0], out, stdout.getvalue())).hexdigest()


def main() -> int:
    tt = load_program()
    digests = {}
    with tempfile.TemporaryDirectory(prefix="case-digest-") as tmp:
        work = Path(tmp)
        for name, write in INPUTS.items():
            write(tt, work / name)
        for case in CASES:
            digests[case.name] = run(tt, case, work)
            print(f"{case.name} {digests[case.name]}", flush=True)
            if case.same_as and digests[case.name] != digests[case.same_as]:
                print(f"error: {case.name} built another tree than {case.same_as}",
                      file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
