"""Plain-text model files for parameterized latent trees.

Format (one directive per line, ``#`` starts a comment):

    states <n> <k>            observed and hidden cardinalities
    leaf <id> <name>          one per observed variable
    hidden <id>               one per hidden variable
    edge <u> <v>              undirected tree edge
    root <hidden-id>          orientation root (required with parameters)
    marginal <p1> ... <pk>    root marginal
    cpt <parent> <child>      followed by one line per child state, each with
                              one probability per parent state (columns are
                              conditioned on the parent state)

Directives may come in any order, but states, root, marginal, a leaf id and a
cpt edge only once; a cpt block ends at the first line that does not start
with a number.  Topology-only files omit root/marginal/cpt.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ModelError, ParseError
from .model import LatentTree, TreeParameters


def _tokens(path):
    """Yield (lineno, fields) for nonempty, non-comment lines."""
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not a directive
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def read_model(path) -> LatentTree:
    """Load a latent tree (optionally parameterized) from a model file."""
    n = k = None
    leaf_names: dict[int, str] = {}
    hidden: set[int] = set()
    edges: list[tuple[int, int]] = []
    root = None
    root_marginal = None
    cpts: dict[tuple[int, int], list] = {}
    cpt_rows = None  # rows of the cpt block being read, if any
    seen: dict[str, int] = {}  # line of each single directive read so far

    def fail(msg, lineno):
        raise ParseError(msg, line=lineno)

    def numbers(fields, lineno):
        try:
            return [float(x) for x in fields]
        except ValueError:
            fail(f"expected numbers, got {' '.join(fields)!r}", lineno)

    def integer(text, lineno):
        try:
            return int(text)
        except ValueError:
            fail(f"expected an integer, got {text!r}", lineno)

    for lineno, fields in _tokens(path):
        if cpt_rows is not None and _is_number(fields[0]):
            cpt_rows.append(numbers(fields, lineno))
            continue
        cpt_rows = None
        keyword, args = fields[0], fields[1:]
        if keyword in ("states", "root", "marginal"):
            if keyword in seen:
                fail(f"{keyword} is declared twice, first on line {seen[keyword]}", lineno)
            seen[keyword] = lineno
        if keyword == "states":
            if len(args) != 2:
                fail("states needs two integers: <n> <k>", lineno)
            n, k = (integer(a, lineno) for a in args)
        elif keyword == "leaf":
            if len(args) != 2:
                fail("leaf needs <id> <name>", lineno)
            leaf = integer(args[0], lineno)
            if leaf in leaf_names:
                fail(f"leaf {leaf} is declared twice", lineno)
            leaf_names[leaf] = args[1]
        elif keyword == "hidden":
            if len(args) != 1:
                fail("hidden needs <id>", lineno)
            hidden.add(integer(args[0], lineno))
        elif keyword == "edge":
            if len(args) != 2:
                fail("edge needs <u> <v>", lineno)
            edges.append((integer(args[0], lineno), integer(args[1], lineno)))
        elif keyword == "root":
            if len(args) != 1:
                fail("root needs <hidden-id>", lineno)
            root = integer(args[0], lineno)
        elif keyword == "marginal":
            root_marginal = np.asarray(numbers(args, lineno), dtype=float)
        elif keyword == "cpt":
            if len(args) != 2:
                fail("cpt needs <parent> <child>", lineno)
            edge = (integer(args[0], lineno), integer(args[1], lineno))
            if edge in cpts:
                fail(f"cpt {edge[0]} {edge[1]} is declared twice", lineno)
            cpt_rows = cpts[edge] = []
        else:
            fail(f"unknown directive {keyword!r}", lineno)

    for (parent, child), rows in cpts.items():
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ParseError(f"cpt {parent} {child} needs one or more rows "
                             f"of equal length")
        cpts[(parent, child)] = np.asarray(rows, dtype=float)
    if not leaf_names or not edges:
        raise ParseError("model file must declare leaves and edges")
    adj: dict[int, list[int]] = {x: [] for x in set(leaf_names) | hidden}
    for u, v in edges:
        if u not in adj or v not in adj:
            raise ParseError(f"edge {u}-{v} references an undeclared node")
        adj[u].append(v)
        adj[v].append(u)

    params = None
    if root is not None or root_marginal is not None or cpts:
        if n is None:
            raise ParseError("parameterized model needs a states directive")
        if root is None or root_marginal is None:
            raise ParseError("parameterized model needs root and marginal")
        if root not in hidden:
            raise ParseError(f"root {root} is not a declared hidden node")
        params = TreeParameters(n=n, k=k, root=root,
                                root_marginal=root_marginal, cpts=cpts)
    try:
        return LatentTree(adj, leaf_names, params=params)
    except ModelError as exc:
        raise ParseError(f"invalid model: {exc}") from exc


def _is_number(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def write_model(tree: LatentTree, path) -> None:
    """Write a latent tree (with parameters, if present) to a model file."""
    lines = []
    p = tree.params
    if p is not None:
        lines.append(f"states {p.n} {p.k}")
    for i in tree.leaves:
        lines.append(f"leaf {i} {tree.leaf_names[i]}")
    for h in tree.hidden:
        lines.append(f"hidden {h}")
    for u, v in tree.edges():
        lines.append(f"edge {u} {v}")
    if p is not None:
        lines.append(f"root {p.root}")
        lines.append("marginal " + " ".join(f"{x:.17g}" for x in p.root_marginal))
        for parent, child in tree.parent_order():
            lines.append(f"cpt {parent} {child}")
            for row in np.asarray(p.cpts[(parent, child)], dtype=float):
                lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
