"""Unit tests for the command-line interface."""

import json
import math
import os
from unittest import mock

import pytest

from tensortree import bench, cli, from_newick, robinson_foulds, write_model
from tensortree.bench import diagnostics, random_tree_model
from tensortree.cli import main
from tensortree.exceptions import ModelError, NumericalError, ParseError
from tensortree.model import sample
from tensortree.modelfile import read_model


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestQuartetBench:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "q.csv"
        code = main(["quartet-bench", "--kh", "2", "--kg", "4", "--n", "10",
                     "--mu", "0.5", "--samples", "50,2000", "--trials", "10",
                     "--methods", "tensor,oracle", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == "method,m,trial,outcome,elapsed_ms"
        assert len(rows) == 40  # 2 methods x 2 sample sizes x 10 trials
        manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "quartet-bench"
        assert manifest["seed"] == 7

    def test_rerun_identical_outcomes(self, tmp_path):
        args = ["quartet-bench", "--kh", "2", "--kg", "2", "--n", "4",
                "--mu", "0.8", "--samples", "100", "--trials", "5",
                "--methods", "tensor", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        strip = lambda p: [r[:4] for r in read_rows(p)[1]]
        assert strip(out1) == strip(out2)

    def test_spectral_k_exceeding_n_is_usage_error(self, tmp_path):
        code = main(["quartet-bench", "--kh", "2", "--kg", "2", "--n", "2",
                     "--mu", "0.5", "--samples", "50", "--trials", "1",
                     "--methods", "spectral@3", "--seed", "0",
                     "--out", str(tmp_path / "q.csv")])
        assert code == 2

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TENSORTREE_SEED", "99")
        out = tmp_path / "q.csv"
        main(["quartet-bench", "--kh", "2", "--kg", "2", "--n", "4",
              "--mu", "0.5", "--samples", "50", "--trials", "1",
              "--methods", "oracle", "--out", str(out)])
        manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_malformed_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TENSORTREE_SEED", "abc")
        out = tmp_path / "q.csv"
        code = main(["quartet-bench", "--kh", "2", "--kg", "2", "--n", "4",
                     "--mu", "0.5", "--samples", "50", "--trials", "1",
                     "--methods", "oracle", "--out", str(out)])
        assert code == 2
        assert "TENSORTREE_SEED" in capsys.readouterr().err
        assert not out.exists()


class TestTreeBench:
    def test_row_count_and_oracle(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["tree-bench", "--d", "6", "--beta", "0.5", "--mu", "0.5",
                     "--samples", "200", "--trials", "2",
                     "--methods", "nj,oracle", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) == 4
        oracle_rf = [float(r[3]) for r in rows if r[0] == "oracle"]
        assert oracle_rf == [0.0, 0.0]

    def test_pairwise_tables_over_stack_limit_is_usage_error(self, tmp_path, capsys):
        # d = 5 has 10 pairs: 90 bins at n = 3 and 160 at n = 4, around a limit of 100.
        with mock.patch.object(bench, "MAX_STACK_BINS", 100):
            for n, code in ((3, 0), (4, 2)):
                assert main(["tree-bench", "--d", "5", "--beta", "0.5", "--mu", "0.5",
                             "--n", str(n), "--k-range", "2,2", "--samples", "50",
                             "--trials", "1", "--methods", "tensor,nj",
                             "--out", str(tmp_path / f"t{n}.csv")]) == code
        assert capsys.readouterr().err == ("error: 5 variables of 4 states make pairwise "
                                           "tables of 160 bins, over the limit of 100\n")

    def test_oracle_counts_no_table(self, tmp_path):
        # 1100^2 bins would be over the table limit, but the oracle reads the true tree.
        out = tmp_path / "t.csv"
        assert main(["tree-bench", "--d", "6", "--beta", "0.5", "--mu", "0.5",
                     "--n", "1100", "--k-range", "2,2", "--samples", "20", "--trials", "1",
                     "--methods", "oracle", "--out", str(out)]) == 0
        assert [row[:4] for row in read_rows(out)[1]] == [["oracle", "20", "0", "0"]]

    def test_bad_k_range(self, tmp_path):
        code = main(["tree-bench", "--d", "6", "--beta", "0.5", "--mu", "0.5",
                     "--k-range", "2", "--samples", "50", "--trials", "1",
                     "--methods", "nj", "--out", str(tmp_path / "t.csv")])
        assert code == 2


@pytest.fixture(scope="module")
def fixture_data(tmp_path_factory):
    base = tmp_path_factory.mktemp("build")
    tree = random_tree_model(8, 0.5, 6, 3, 0.5, [21, 0], hidden_base="identity")
    csv = base / "samples.csv"
    sample(tree, 20000, [22, 0]).to_csv(csv)
    return tree, csv


class TestBuild:
    def test_tensor_build_recovers(self, fixture_data, tmp_path):
        tree, csv = fixture_data
        out = tmp_path / "tree.nwk"
        assert main(["build", "--input", str(csv), "--method", "tensor",
                     "--seed", "3", "--out", str(out)]) == 0
        built = from_newick(out.read_text())
        assert robinson_foulds(built, tree) == 0

    def test_nj_build_valid_newick(self, fixture_data, tmp_path):
        _, csv = fixture_data
        out = tmp_path / "tree.nwk"
        assert main(["build", "--input", str(csv), "--method", "nj",
                     "--out", str(out)]) == 0
        assert from_newick(out.read_text()).d == 8

    def test_byte_order_mark_is_not_part_of_a_name(self, fixture_data, tmp_path):
        _, csv = fixture_data
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + csv.read_bytes())
        newick = []
        for path in (csv, marked):
            out = tmp_path / f"{path.name}.nwk"
            assert main(["build", "--input", str(path), "--method", "nj",
                         "--out", str(out)]) == 0
            newick.append(out.read_text())
        assert "\ufeff" not in newick[1] and newick[0] == newick[1]

    def test_manifest_times_the_read_and_sizes_the_samples(self, fixture_data, tmp_path):
        _, csv = fixture_data
        out = tmp_path / "tree.nwk"
        assert main(["build", "--input", str(csv), "--method", "nj", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "tree.nwk.manifest.json").read_text())
        assert manifest["samples"] == {"rows": 20000, "columns": 8, "states": 6}
        assert manifest["read_seconds"] >= 0 and manifest["elapsed_seconds"] >= 0
        assert {"subcommand", "config", "seed", "version"} <= set(manifest)

    def test_too_few_variables(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("a,b,c\n1,1,1\n2,2,2\n")
        assert main(["build", "--input", str(csv),
                     "--out", str(tmp_path / "t.nwk")]) == 3

    def test_malformed_csv(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("a,b,c,d\n1,1,x,1\n")
        assert main(["build", "--input", str(csv),
                     "--out", str(tmp_path / "t.nwk")]) == 3

    @pytest.mark.parametrize("header, problem", [
        ("a,a,b,c", "'a' is repeated"),
        ("a,,c,d", "'' is empty"),
        ("a b,c,d,e", "'a b' holds"),
        ("a(,c,d,e", "'a(' holds"),
        ("a:1,c,d,e", "'a:1' holds"),
    ])
    def test_header_name_unfit_for_newick_is_data_error(self, tmp_path, capsys,
                                                        header, problem):
        csv = tmp_path / "s.csv"
        csv.write_text(f"{header}\n1,2,1,2\n2,1,2,1\n")
        out = tmp_path / "t.nwk"
        assert main(["build", "--input", str(csv), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"variable name {problem}" in err and "(line 1)" in err
        assert not out.exists()

    def test_state_beyond_int64_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("a,b,c,d\n1,1,1,1\n1,99999999999999999999,1,1\n")
        assert main(["build", "--input", str(csv),
                     "--out", str(tmp_path / "t.nwk")]) == 3
        assert "64-bit" in capsys.readouterr().err

    @pytest.mark.parametrize("method, state", [("tensor", 1000), ("spectral@2", 2 ** 40),
                                               ("nj", 2 ** 40)])
    def test_state_count_over_table_limit_is_data_error(self, tmp_path, capsys,
                                                         method, state):
        csv = tmp_path / "s.csv"
        csv.write_text(f"a,b,c,d\n1,2,1,2\n2,1,{state},1\n")
        out = tmp_path / "t.nwk"
        assert main(["build", "--input", str(csv), "--method", method,
                     "--out", str(out)]) == 3
        tables = (f"quartet tensors of {state ** 4}" if method == "tensor"
                  else f"pairwise tables of {state ** 2}")
        assert capsys.readouterr().err == (f"error: {state} states make {tables} bins, "
                                           f"over the limit of 1048576\n")
        assert not out.exists()

    def test_state_count_at_table_limit_builds(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("a,b,c,d\n1,2,1,2\n2,1,1024,1\n3,3,2,2\n")
        assert main(["build", "--input", str(csv), "--method", "nj",
                     "--out", str(tmp_path / "t.nwk")]) == 0

    @pytest.mark.parametrize("method", ["nj", "spectral@2"])
    def test_pairwise_tables_over_stack_limit_is_data_error(self, tmp_path, capsys, method):
        # d = 5 has 10 pairs: 90 bins at n = 3 and 160 at n = 4, around a limit of 100.
        for n in (3, 4):
            samples = sample(random_tree_model(5, 0.5, n, 2, 0.5, 1), 500, 1)
            assert samples.n_states == n and samples.columns.max() == n - 1
            samples.to_csv(tmp_path / f"s{n}.csv")
        with mock.patch.object(bench, "MAX_STACK_BINS", 100):
            assert main(["build", "--input", str(tmp_path / "s3.csv"), "--method", method,
                         "--out", str(tmp_path / "t3.nwk")]) == 0
            assert main(["build", "--input", str(tmp_path / "s4.csv"), "--method", method,
                         "--out", str(tmp_path / "t4.nwk")]) == 3
        assert capsys.readouterr().err == ("error: 5 variables of 4 states make pairwise "
                                           "tables of 160 bins, over the limit of 100\n")
        assert not (tmp_path / "t4.nwk").exists()

    def test_missing_file(self, tmp_path):
        assert main(["build", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "t.nwk")]) == 3

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_bytes(b"a,b,c,d\n1,1,1,1\n2,\xe9,1,1\n")
        out = tmp_path / "t.nwk"
        assert main(["build", "--input", str(csv), "--out", str(out)]) == 3
        assert f"cannot read {csv}: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert not out.exists()

    def test_spectral_rank_over_state_count_is_data_error(self, tmp_path, capsys):
        # The rank limit depends on the file's state count, as the table limits do.
        csv = tmp_path / "s.csv"
        csv.write_text("a,b,c,d\n1,2,1,2\n2,1,2,1\n")
        out = tmp_path / "t.nwk"
        assert main(["build", "--input", str(csv), "--method", "spectral@3",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: spectral rank 3 exceeds state count 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("method, message", [
        ("bogus", "unknown method 'bogus'"),
        ("spectral@x", "malformed method 'spectral@x'"),
        ("spectral@0", "spectral rank must be >= 1, got 0")])
    def test_unknown_method_is_usage_error(self, fixture_data, tmp_path, capsys,
                                           method, message):
        out = tmp_path / "t.nwk"
        assert main(["build", "--input", str(fixture_data[1]), "--method", method,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_oracle_not_allowed(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("a,b,c,d\n1,1,1,1\n")
        assert main(["build", "--input", str(csv), "--method", "oracle",
                     "--out", str(tmp_path / "t.nwk")]) == 2


class TestDiagnose:
    def test_report_matches_library(self, tmp_path, capsys):
        tree = random_tree_model(5, 0.5, 4, 2, 0.6, 2, hidden_base="identity")
        model = tmp_path / "model.txt"
        write_model(tree, model)
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--model", str(model),
                     "--samples", "1000", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        d = diagnostics(tree)
        assert f"{d.alpha_min:.12g}" in captured
        # The reported bound equals the closed form recomputed by hand.
        expected = 1 - 8 * math.exp(-1000 * d.alpha_min ** 2 / 32)
        rows = dict(line.split(",") for line in
                    out.read_text().strip().splitlines()[1:])
        assert float(rows["quartet_success_bound_m1000"]) == pytest.approx(
            expected, abs=1e-9)

    def test_report_and_csv_layout(self, model_file, tmp_path, capsys):
        d = diagnostics(read_model(model_file))
        assert d.margins_preserved_ok and not d.edge_bound_ok  # both booleans shown
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--model", str(model_file), "--samples", "100,5000",
                     "--out", str(out)]) == 0
        q = {m: f"{d.quartet_success_bound(m):.12g}" for m in (100, 5000)}
        t = {m: f"{d.tree_success_bound(m):.12g}" for m in (100, 5000)}
        # The seven diagnostics share one value column, each --samples value's two
        # bounds another; booleans read True/False here and 1/0 in the CSV.
        assert capsys.readouterr().out.splitlines() == [
            f"theta_min            {d.theta_min:.12g}",
            f"gamma_min            {d.gamma_min:.12g}",
            f"alpha_min            {d.alpha_min:.12g}",
            f"delta                {d.delta:.12g}",
            "margins_preserved_ok True",
            "edge_bound_ok        False",
            "combined_bound_ok    False",
            f"quartet_success_bound(m=100) {q[100]}",
            f"tree_success_bound(m=100)    {t[100]}",
            f"quartet_success_bound(m=5000) {q[5000]}",
            f"tree_success_bound(m=5000)    {t[5000]}"]
        assert out.read_text().splitlines() == [
            "quantity,value",
            f"theta_min,{d.theta_min:.12g}",
            f"gamma_min,{d.gamma_min:.12g}",
            f"alpha_min,{d.alpha_min:.12g}",
            f"delta,{d.delta:.12g}",
            "margins_preserved_ok,1",
            "edge_bound_ok,0",
            "combined_bound_ok,0",
            f"quartet_success_bound_m100,{q[100]}",
            f"tree_success_bound_m100,{t[100]}",
            f"quartet_success_bound_m5000,{q[5000]}",
            f"tree_success_bound_m5000,{t[5000]}"]

    def test_byte_order_mark_model_file(self, model_file, tmp_path, capsys):
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + model_file.read_bytes())
        runs = []
        for path in (model_file, marked):
            out = tmp_path / f"{path.name}.csv"
            assert main(["diagnose", "--model", str(path), "--out", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_text()))
        assert runs[0] == runs[1]

    def test_independent_edge_reports_zero_delta(self, tmp_path, capsys):
        tree = random_tree_model(4, 0.5, 3, 2, 0.0, 3)
        model = tmp_path / "model.txt"
        write_model(tree, model)
        assert main(["diagnose", "--model", str(model),
                     "--out", str(tmp_path / "d.csv")]) == 0
        assert "delta                0" in capsys.readouterr().out

    def test_unparameterized_model_is_data_error(self, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text(
            "leaf 0 a\nleaf 1 b\nleaf 2 c\nleaf 3 d\nhidden 4\nhidden 5\n"
            "edge 4 0\nedge 4 1\nedge 4 5\nedge 5 2\nedge 5 3\n")
        assert main(["diagnose", "--model", str(model),
                     "--out", str(tmp_path / "d.csv")]) == 3

    def test_nan_marginal_is_data_error(self, tmp_path, capsys):
        tree = random_tree_model(4, 0.5, 3, 2, 0.5, 2)
        model = tmp_path / "model.txt"
        write_model(tree, model)
        lines = ["marginal nan nan" if line.startswith("marginal") else line
                 for line in model.read_text().splitlines()]
        model.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--model", str(model),
                     "--out", str(tmp_path / "d.csv")]) == 3
        assert "probability vector" in capsys.readouterr().err

    def test_three_leaf_model_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        cpt = "cpt 3 {}\n0.9 0.2\n0.1 0.8\n"
        model.write_text(
            "states 2 2\nleaf 0 a\nleaf 1 b\nleaf 2 c\nhidden 3\n"
            "edge 3 0\nedge 3 1\nedge 3 2\nroot 3\nmarginal 0.5 0.5\n"
            + "".join(cpt.format(i) for i in range(3)))
        out = tmp_path / "d.csv"
        assert main(["diagnose", "--model", str(model), "--out", str(out)]) == 3
        assert "need at least 4 leaves, got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_state_count_over_table_limit_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        write_model(random_tree_model(4, 0.5, 33, 2, 0.5, 2), model)
        out = tmp_path / "d.csv"
        assert main(["diagnose", "--model", str(model), "--out", str(out)]) == 3
        assert ("33 states make quartet tensors of 1185921 bins, over the limit of "
                "1048576") in capsys.readouterr().err
        assert not out.exists()

    def test_cpt_on_a_non_edge_is_data_error(self, tmp_path, capsys):
        tree = random_tree_model(4, 0.5, 3, 2, 0.5, 2)
        model = tmp_path / "model.txt"
        write_model(tree, model)
        model.write_text(model.read_text() + "cpt 0 1\n1 0 0\n0 1 0\n0 0 1\n")
        out = tmp_path / "d.csv"
        assert main(["diagnose", "--model", str(model), "--out", str(out)]) == 3
        assert "stray cpt for [(0, 1)]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_file(self, tmp_path):
        assert main(["diagnose", "--model", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "d.csv")]) == 3

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        tree = random_tree_model(4, 0.5, 3, 2, 0.5, 2)
        model = tmp_path / "model.txt"
        write_model(tree, model)
        model.write_bytes(model.read_bytes() + b"# caf\xe9\n")
        out = tmp_path / "d.csv"
        assert main(["diagnose", "--model", str(model), "--out", str(out)]) == 3
        assert f"cannot read {model}: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert not out.exists()


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


QUARTET_ARGS = ["quartet-bench", "--kh", "2", "--kg", "2", "--n", "4", "--mu", "0.5",
                "--samples", "50", "--trials", "2", "--methods", "tensor"]
TREE_ARGS = ["tree-bench", "--d", "6", "--beta", "0.5", "--n", "3", "--k-range", "2,2",
             "--mu", "0.5", "--samples", "50", "--trials", "1", "--methods", "nj"]


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("diagnose") / "model.txt"
    write_model(random_tree_model(5, 0.5, 4, 2, 0.6, 2, hidden_base="identity"), path)
    return path


def command_args(command, model_file, csv):
    """Every option but --seed and --out of a valid run of ``command``."""
    return {"quartet-bench": QUARTET_ARGS, "tree-bench": TREE_ARGS,
            "build": ["build", "--input", str(csv), "--method", "nj"],
            "diagnose": ["diagnose", "--model", str(model_file)]}[command]


COMMANDS = ["quartet-bench", "tree-bench", "build", "diagnose"]


class TestOutOfRangeValues:
    """Values no command can use are usage errors (exit 2) that name the
    option, and no output is written."""

    def assert_usage_error(self, argv, out, capsys, message):
        assert exit_code(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_quartets(self, model_file, tmp_path, capsys):
        self.assert_usage_error(["diagnose", "--model", str(model_file),
                                 "--max-quartets", "-1"], tmp_path / "d.csv", capsys,
                                "--max-quartets: expected a positive integer, got '-1'")

    def test_zero_max_quartets(self, model_file, tmp_path, capsys):
        self.assert_usage_error(["diagnose", "--model", str(model_file),
                                 "--max-quartets", "0"], tmp_path / "d.csv", capsys,
                                "--max-quartets: expected a positive integer, got '0'")

    def test_negative_diagnose_samples(self, model_file, tmp_path, capsys):
        self.assert_usage_error(["diagnose", "--model", str(model_file),
                                 "--samples=-5"], tmp_path / "d.csv", capsys,
                                "--samples: expected a positive integer, got '-5'")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs(self, tmp_path, capsys, jobs):
        self.assert_usage_error(QUARTET_ARGS + ["--jobs", jobs], tmp_path / "q.csv",
                                capsys, f"--jobs: expected a positive integer, got '{jobs}'")

    def test_empty_method_list(self, tmp_path, capsys):
        argv = QUARTET_ARGS[:-1] + [","]  # --methods ,
        self.assert_usage_error(argv, tmp_path / "q.csv", capsys,
                                "need at least one method")

    @pytest.mark.parametrize("command, mu", [("quartet-bench", "nan"), ("tree-bench", "inf"),
                                             ("tree-bench", "1e308"), ("quartet-bench", "-1")])
    def test_mu_without_finite_column_sums(self, tmp_path, capsys, command, mu):
        # At mu = 1e308 a column sum of three entries overflows to inf.
        argv = (QUARTET_ARGS if command == "quartet-bench" else TREE_ARGS) + [f"--mu={mu}"]
        self.assert_usage_error(argv, tmp_path / "b.csv", capsys,
                                f"mu must be >= 0 with n * (1 + mu) finite, got {float(mu)}")

    @pytest.mark.parametrize("command, method", [("quartet-bench", "tensor"),
                                                 ("quartet-bench", "nj"),
                                                 ("tree-bench", "tensor")])
    def test_tables_over_the_limit(self, tmp_path, capsys, command, method):
        # 33^4 bins; quartet-bench draws every method's tables from the n^4 tensor.
        argv = (QUARTET_ARGS if command == "quartet-bench" else TREE_ARGS)
        argv = argv + ["--n", "33", "--methods", method]
        self.assert_usage_error(argv, tmp_path / "b.csv", capsys,
                                "error: 33 states make quartet tensors of 1185921 bins, "
                                "over the limit of 1048576\n")


    @pytest.mark.parametrize("command, option, value", [
        ("quartet-bench", "--samples", "50,200,50"),
        ("quartet-bench", "--methods", "tensor,nj,tensor"),
        ("tree-bench", "--samples", "50,50"), ("tree-bench", "--methods", "nj,oracle,nj"),
        ("diagnose", "--samples", "100,100")])
    def test_repeated_entry(self, model_file, fixture_data, tmp_path, capsys, command,
                            option, value):
        # A repeated entry would write the same rows, or report lines, twice.  A
        # repeated method is refused by the config, like two spellings of one method.
        argv = command_args(command, model_file, fixture_data[1]) + [option, value]
        repeated = value.split(",")[0]
        message = (f"methods {repeated!r} and {repeated!r} are the same method"
                   if option == "--methods" else
                   f"{option}: repeated entry {repeated} in {value!r}")
        self.assert_usage_error(argv, tmp_path / "o.csv", capsys, message)

    @pytest.mark.parametrize("command", ["quartet-bench", "tree-bench"])
    def test_one_method_under_two_spellings(self, tmp_path, capsys, command):
        # Both labels would name the same rows, so the run is refused.
        argv = (QUARTET_ARGS if command == "quartet-bench" else TREE_ARGS)[:-1]
        self.assert_usage_error(argv + ["spectral@2,nj,spectral@02"], tmp_path / "b.csv",
                                capsys, "error: methods 'spectral@2' and 'spectral@02' "
                                "are the same method\n")

    @pytest.mark.parametrize("command, option, value, message", [
        ("quartet-bench", "--samples", ",", "sample grid must be nonempty positive counts"),
        ("tree-bench", "--samples", ",", "sample grid must be nonempty positive counts"),
        ("quartet-bench", "--trials", "0", "trials must be >= 1"),
        ("tree-bench", "--trials", "0", "trials must be >= 1")])
    def test_empty_grid_and_zero_trials(self, tmp_path, capsys, command, option, value,
                                        message):
        argv = (QUARTET_ARGS if command == "quartet-bench" else TREE_ARGS) + [option, value]
        self.assert_usage_error(argv, tmp_path / "b.csv", capsys, f"error: {message}\n")

    def test_equal_k_range_bounds_are_valid(self, tmp_path):
        assert "2,2" in TREE_ARGS
        assert main(TREE_ARGS + ["--out", str(tmp_path / "t.csv")]) == 0

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed(self, model_file, fixture_data, tmp_path, capsys, command):
        argv = command_args(command, model_file, fixture_data[1]) + ["--seed=-1"]
        self.assert_usage_error(argv, tmp_path / "o.csv", capsys,
                                "--seed: expected a non-negative integer, got '-1'")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_env_seed(self, model_file, fixture_data, tmp_path, capsys,
                               monkeypatch, command):
        monkeypatch.setenv("TENSORTREE_SEED", "-3")
        self.assert_usage_error(command_args(command, model_file, fixture_data[1]),
                                tmp_path / "o.csv", capsys,
                                "TENSORTREE_SEED: expected a non-negative integer, got '-3'")


class TestBenchErrorCounts:
    """A trial that raises a TensorTreeError is a NaN outcome in the CSV, and the
    manifest's ``errors`` counts those rows per method, 0 for a method without any."""

    @staticmethod
    def run(argv, out):
        assert main(argv + ["--seed", "4", "--out", str(out)]) == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        return (*read_rows(out), manifest["errors"])

    @pytest.mark.parametrize("argv, resolver, failing", [
        (QUARTET_ARGS[:-1] + ["tensor,spectral@2,oracle"], "resolve_spectral_k", "spectral@2"),
        (TREE_ARGS[:-1] + ["tensor,nj,oracle"], "resolve_nuclear", "tensor")])
    def test_failing_resolver(self, tmp_path, monkeypatch, argv, resolver, failing):
        methods = argv[-1].split(",")
        header, rows, errors = self.run(argv, tmp_path / "a.csv")
        assert errors == dict.fromkeys(methods, 0)

        def fail(*args, **kwargs):
            raise NumericalError("SVD did not converge")
        monkeypatch.setattr(bench, resolver, fail)
        failed_header, failed_rows, errors = self.run(argv, tmp_path / "b.csv")
        per_method = len(rows) // len(methods)
        assert errors == {**dict.fromkeys(methods, 0), failing: per_method}
        assert failed_header == header == "method,m,trial,outcome,elapsed_ms"
        assert [r[:3] for r in failed_rows] == [r[:3] for r in rows]
        assert [r[3] for r in failed_rows] == ["nan" if r[0] == failing else r[3]
                                               for r in rows]

    def test_failed_trials_warn_and_exit_zero(self, tmp_path, monkeypatch, capsys):
        argv = QUARTET_ARGS[:-1] + ["tensor,spectral@2,oracle"]
        assert self.run(argv, tmp_path / "a.csv")[2] == dict.fromkeys(argv[-1].split(","), 0)
        assert capsys.readouterr().err == ""

        def fail(*args, **kwargs):
            raise NumericalError("SVD did not converge")
        monkeypatch.setattr(bench, "resolve_nuclear", fail)
        monkeypatch.setattr(bench, "resolve_spectral_k", fail)
        errors = self.run(argv, tmp_path / "b.csv")[2]  # asserts exit 0
        assert errors == {"tensor": 2, "spectral@2": 2, "oracle": 0}
        assert capsys.readouterr().err == ("warning: failed trials, written with outcome "
                                           "nan: tensor 2, spectral@2 2\n")


class TestUnwritableOut:
    """An --out path that cannot be written is a data error (exit 3)."""

    def test_bench_command(self, tmp_path, capsys):
        out = tmp_path / "missing" / "q.csv"
        assert exit_code(QUARTET_ARGS + ["--out", str(out)]) == 3
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_build(self, fixture_data, tmp_path, capsys):
        _, csv = fixture_data
        out = tmp_path / "missing" / "tree.nwk"
        assert exit_code(["build", "--input", str(csv), "--method", "nj",
                          "--out", str(out)]) == 3
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_checked_before_the_work(self, fixture_data, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")
        monkeypatch.setattr(cli, "recover", must_not_run)
        monkeypatch.setattr(cli, "run_quartet_experiment", must_not_run)
        _, csv = fixture_data
        (tmp_path / "file").write_text("")
        for out in (tmp_path / "missing" / "o.out", tmp_path / "file" / "o.out"):
            for argv in (QUARTET_ARGS, ["build", "--input", str(csv)]):
                assert exit_code(argv + ["--out", str(out)]) == 3
                assert f"cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_is_a_directory(self, model_file, fixture_data, tmp_path, capsys, command):
        # Its folder is writable, so the refusal comes when the output is opened.
        out = tmp_path / "taken"
        out.mkdir()
        argv = command_args(command, model_file, fixture_data[1])
        assert exit_code(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert not (tmp_path / "taken.manifest.json").exists()

    def test_refused_command_leaves_existing_out(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("a,b,c,d\n1,1,x,1\n")
        out = tmp_path / "t.nwk"
        out.write_text("kept\n")
        assert exit_code(["build", "--input", str(csv), "--out", str(out)]) == 3
        assert out.read_text() == "kept\n"


def dying_trial(cfg, trial):
    """A trial whose worker process exits at once, as if killed."""
    os._exit(1)


class TestErrorsEndInMain:
    """Library errors raised inside a command reach ``main``, which prints
    ``error: <message>`` and maps them to exit codes; other errors propagate."""

    @pytest.mark.parametrize("error, code", [(ModelError("bad tree"), 3),
                                             (ParseError("bad label", line=2), 3),
                                             (NumericalError("SVD did not converge"), 4)])
    def test_library_error_exit_code(self, fixture_data, tmp_path, capsys, monkeypatch,
                                     error, code):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "recover", fail)
        monkeypatch.setattr(cli, "run_quartet_experiment", fail)
        _, csv = fixture_data
        for argv in (QUARTET_ARGS, ["build", "--input", str(csv)]):
            out = tmp_path / "o.out"
            assert exit_code(argv + ["--out", str(out)]) == code
            assert capsys.readouterr().err == f"error: {error}\n"
            assert not out.exists()

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        message = ("Unable to allocate 745. GiB for an array with shape "
                   "(100000000000, 8) and data type int64")

        def fail(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(bench, "sample", fail)
        out = tmp_path / "t.csv"
        assert exit_code(["tree-bench", "--d", "8", "--beta", "0.5", "--mu", "0.5",
                          "--n", "3", "--k-range", "2,2", "--samples", "100000000000",
                          "--trials", "1", "--methods", "nj", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_dead_worker(self, tmp_path, capsys, monkeypatch):
        # A worker ended from outside (the OOM killer, say) breaks the pool.
        monkeypatch.setattr(bench, "_quartet_trial", dying_trial)
        out = tmp_path / "q.csv"
        assert exit_code(QUARTET_ARGS + ["--jobs", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_diagnose_numerical_error(self, model_file, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("SVD did not converge")
        monkeypatch.setattr(cli, "diagnostics", fail)
        assert exit_code(["diagnose", "--model", str(model_file),
                          "--out", str(tmp_path / "d.csv")]) == 4
        assert capsys.readouterr().err == "error: SVD did not converge\n"

    @pytest.mark.parametrize("error", [ValueError, TypeError, RuntimeError])
    def test_programming_error_propagates(self, fixture_data, tmp_path, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("bug in recover")
        monkeypatch.setattr(cli, "recover", broken)
        with pytest.raises(error, match="bug in recover"):
            main(["build", "--input", str(fixture_data[1]),
                  "--out", str(tmp_path / "t.nwk")])
