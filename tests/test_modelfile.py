"""Unit tests for the plain-text model file format."""

import numpy as np
import pytest

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
