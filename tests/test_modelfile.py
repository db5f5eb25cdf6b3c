"""Unit tests for the plain-text model file format."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortree import read_model, write_model
from tensortree.bench import diagnostics, random_tree_model
from tensortree.exceptions import ParseError


class TestRoundTrip:
    def test_parameterized(self, tmp_path):
        tree = random_tree_model(6, 0.5, 4, 2, 0.7, 1)
        path = tmp_path / "m.txt"
        write_model(tree, path)
        back = read_model(path)
        assert back.edges() == tree.edges()
        assert back.leaf_names == tree.leaf_names
        d1, d2 = diagnostics(tree), diagnostics(back)
        assert d1.alpha_min == pytest.approx(d2.alpha_min, abs=1e-12)
        assert d1.delta == pytest.approx(d2.delta, abs=1e-12)

    def test_directives_in_any_order(self, tmp_path):
        tree = random_tree_model(6, 0.5, 4, 2, 0.7, 1)
        path = tmp_path / "m.txt"
        write_model(tree, path)
        lines = path.read_text().splitlines()
        # cpt blocks first, then the other directives in reverse order.
        first_cpt = next(i for i, line in enumerate(lines) if line.startswith("cpt"))
        path.write_text("\n".join(lines[first_cpt:] + lines[:first_cpt][::-1]) + "\n")
        back = read_model(path)
        assert back.edges() == tree.edges()
        assert back.leaf_names == tree.leaf_names
        assert back.params.root == tree.params.root
        assert np.array_equal(back.params.root_marginal, tree.params.root_marginal)
        assert back.params.cpts.keys() == tree.params.cpts.keys()
        for edge, cpt in tree.params.cpts.items():
            assert np.array_equal(back.params.cpts[edge], cpt)

    def test_topology_only(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "leaf 0 a\nleaf 1 b\nleaf 2 c\nleaf 3 d\n"
            "hidden 4\nhidden 5\n"
            "edge 4 0\nedge 4 1\nedge 4 5\nedge 5 2\nedge 5 3\n")
        tree = read_model(path)
        assert tree.d == 4 and tree.params is None


class TestErrors:
    def test_unknown_directive_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("leaf 0 a\nwhatever 1 2\n")
        with pytest.raises(ParseError) as err:
            read_model(path)
        assert "line 2" in str(err.value)

    def test_truncated_cpt(self, tmp_path):
        tree = random_tree_model(4, 0.5, 3, 2, 0.5, 2)
        path = tmp_path / "m.txt"
        write_model(tree, path)
        text = path.read_text().strip().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(ParseError):
            read_model(path)

    def test_ragged_cpt(self, tmp_path):
        tree = random_tree_model(4, 0.5, 3, 2, 0.5, 2)
        path = tmp_path / "m.txt"
        write_model(tree, path)
        path.write_text(path.read_text().rstrip("\n") + " 0.5\n")
        with pytest.raises(ParseError) as err:
            read_model(path)
        assert "equal length" in str(err.value)

    def test_nan_probabilities(self, tmp_path):
        tree = random_tree_model(4, 0.5, 3, 2, 0.5, 2)
        path = tmp_path / "m.txt"
        write_model(tree, path)
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("marginal"))
        nan_marginal = lines[:at] + ["marginal nan nan"] + lines[at + 1:]
        path.write_text("\n".join(nan_marginal) + "\n")
        with pytest.raises(ParseError):
            read_model(path)
        nan_cpt = lines[:-1] + [" ".join(["nan"] * len(lines[-1].split()))]
        path.write_text("\n".join(nan_cpt) + "\n")
        with pytest.raises(ParseError):
            read_model(path)

    def test_missing_cpts(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "states 2 2\n"
            "leaf 0 a\nleaf 1 b\nleaf 2 c\nleaf 3 d\n"
            "hidden 4\nhidden 5\n"
            "edge 4 0\nedge 4 1\nedge 4 5\nedge 5 2\nedge 5 3\n"
            "root 4\nmarginal 0.5 0.5\n")
        with pytest.raises(ParseError) as err:
            read_model(path)
        assert "missing cpt" in str(err.value)

    @pytest.mark.parametrize("directive", ["leaf", "cpt"])
    def test_repeated_directive(self, tmp_path, directive):
        tree = random_tree_model(4, 0.5, 3, 2, 0.5, 2)
        path = tmp_path / "m.txt"
        write_model(tree, path)
        lines = path.read_text().splitlines()
        last_cpt = max(i for i, line in enumerate(lines) if line.startswith("cpt"))
        # A known leaf under a new name, or the last cpt block (it ends the file) again.
        again = {"leaf": ["leaf 0 renamed"], "cpt": lines[last_cpt:]}[directive]
        path.write_text("\n".join(lines + again) + "\n")
        with pytest.raises(ParseError, match=f"{directive} .* is declared twice") as err:
            read_model(path)
        assert err.value.line == len(lines) + 1

    @pytest.mark.parametrize("again", ["marginal 0.9 0.1", "root 4", "states 3 2"])
    def test_repeated_single_directive(self, tmp_path, again):
        # A later line must not silently replace an earlier one.
        tree = random_tree_model(4, 0.5, 3, 2, 0.5, 2)
        path = tmp_path / "m.txt"
        write_model(tree, path)
        lines = path.read_text().splitlines()
        directive = again.split()[0]
        first = 1 + next(i for i, line in enumerate(lines) if line.startswith(directive))
        path.write_text("\n".join(lines + [again]) + "\n")
        with pytest.raises(ParseError, match=f"{directive} is declared twice, "
                                             f"first on line {first}") as err:
            read_model(path)
        assert err.value.line == len(lines) + 1

    def test_undeclared_node_in_edge(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("leaf 0 a\nleaf 1 b\nedge 0 9\n")
        with pytest.raises(ParseError):
            read_model(path)

    def test_invalid_structure(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("leaf 0 a\nleaf 1 b\nleaf 2 c\nhidden 3\n"
                        "edge 3 0\nedge 3 1\nedge 3 2\nedge 0 1\n")
        with pytest.raises(ParseError):
            read_model(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "# a model\n\nleaf 0 a\nleaf 1 b\nleaf 2 c\nleaf 3 d  # four\n"
            "hidden 4\nhidden 5\n"
            "edge 4 0\nedge 4 1\nedge 4 5\nedge 5 2\nedge 5 3\n")
        assert read_model(path).d == 4

    @pytest.mark.parametrize("line, replacement, message", [
        ("states 2 2", "states 2", "states needs two integers: <n> <k> (line 1)"),
        ("hidden 5", "hidden 5 6", "hidden needs <id> (line 7)"),
        ("edge 5 3", "edge 5", "edge needs <u> <v> (line 12)"),
        ("root 4", "root", "root needs <hidden-id> (line 13)"),
        ("cpt 4 0", "cpt 4", "cpt needs <parent> <child> (line 15)"),
        ("root 4", "root 0", "root 0 is not a declared hidden node"),
        ("marginal 0.5 0.5", "", "parameterized model needs root and marginal"),
    ])
    def test_refused_directive(self, tmp_path, line, replacement, message):
        lines = ["states 2 2", "leaf 0 a", "leaf 1 b", "leaf 2 c", "leaf 3 d", "hidden 4",
                 "hidden 5", "edge 4 0", "edge 4 1", "edge 4 5", "edge 5 2", "edge 5 3",
                 "root 4", "marginal 0.5 0.5", "cpt 4 0", "0.9 0.2", "0.1 0.8"]
        lines[lines.index(line)] = replacement
        path = tmp_path / "m.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_model(path)
        assert str(err.value) == message


# Tokens a mutated model file may carry in place of a valid one.
BAD_TOKENS = ["nan", "inf", "-1", "1e400", "9" * 5000, "bogus", "leaf", "cpt"]
MUTATIONS = st.tuples(st.sampled_from(["delete", "duplicate", "swap"]),
                      st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                      st.sampled_from(BAD_TOKENS))


class TestProperties:
    # hypothesis refuses function-scoped fixtures such as tmp_path, so each
    # example writes into its own temporary directory.
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(4, 12), n=st.integers(2, 5), data=st.data(),
           mu=st.floats(0.0, 2.0), hidden_base=st.sampled_from(["independent", "identity"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, d, n, data, mu, hidden_base, seed):
        k = data.draw(st.integers(2, n))
        tree = random_tree_model(d, 0.5, n, k, mu, seed, hidden_base=hidden_base)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.txt"
            write_model(tree, path)
            back = read_model(path)
        assert back.edges() == tree.edges()
        assert back.leaf_names == tree.leaf_names
        p, q = tree.params, back.params
        assert (q.root, q.n, q.k) == (p.root, p.n, p.k)
        # %.17g round-trips every float64 exactly.
        assert np.array_equal(q.root_marginal, p.root_marginal)
        assert q.cpts.keys() == p.cpts.keys()
        for edge, cpt in p.cpts.items():
            assert np.array_equal(q.cpts[edge], cpt)

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(4, 7), seed=st.integers(0, 2 ** 32 - 1),
           mutations=st.lists(MUTATIONS, min_size=1, max_size=6))
    def test_mutated_files_raise_only_parse_error(self, d, seed, mutations):
        tree = random_tree_model(d, 0.5, 3, 2, 0.7, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.txt"
            write_model(tree, path)
            lines = [line.split() for line in path.read_text().splitlines()]
            for op, at, token_at, token in mutations:
                if not lines:
                    break
                i = at % len(lines)
                if op == "delete":
                    del lines[i]
                elif op == "duplicate":
                    lines.insert(i, list(lines[i]))
                else:
                    lines[i][token_at % len(lines[i])] = token
            path.write_text("".join(" ".join(fields) + "\n" for fields in lines))
            try:
                read_model(path)
            except ParseError:
                pass
