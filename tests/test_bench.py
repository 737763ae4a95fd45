"""Benchmark protocol and CLI tests."""

import json
import os
import statistics
import subprocess
import sys

import pytest

import bnsl
from bnsl import bench
from bnsl.cli import build_parser, main
from bnsl.formats import load_pdag, save_dataset, save_graph, save_network
from bnsl.graph import Dag
from bnsl.network import nparams, sample
from bnsl.synth import random_discrete_network

NET = random_discrete_network(8, seed=14, edge_prob=0.3, max_in_degree=2)


class TestOrderExperiment:
    def test_row_count_and_schema(self):
        spec = bench.OrderExperimentSpec(
            network=NET,
            algorithms=("gs", "mmpc"),
            ratios=(0.5, 1.0),
            repetitions=2,
            seed=5,
            label="synthetic",
        )
        rows = bench.run_order_experiment(spec)
        assert len(rows) == 2 * 2 * 2 * 2  # algorithms x ratios x reps x modes
        p = nparams(NET)
        for row in rows:
            assert row["n"] == round(row["ratio"] * p)
            assert row["mode"] in ("none", "start-set")
            assert row["hamming"] >= 0

    def test_mode_none_always_zero_hamming(self):
        spec = bench.OrderExperimentSpec(
            network=NET, algorithms=("si-hiton-pc",), ratios=(2.0,), repetitions=3, seed=1,
            label="synthetic",
        )
        rows = bench.run_order_experiment(spec)
        assert all(r["hamming"] == 0 for r in rows if r["mode"] == "none")

    def test_oracle_substitution_all_zero(self):
        spec = bench.OrderExperimentSpec(
            network=NET,
            algorithms=("gs", "si-hiton-pc"),
            ratios=(0.5,),
            repetitions=2,
            seed=2,
            test="oracle",
            label="synthetic",
        )
        rows = bench.run_order_experiment(spec)
        assert all(r["hamming"] == 0 for r in rows)

    def test_reproducible_given_same_seed(self):
        spec = bench.OrderExperimentSpec(
            network=NET, algorithms=("gs",), ratios=(1.0,), repetitions=2, seed=9,
            label="synthetic",
        )
        assert bench.run_order_experiment(spec) == bench.run_order_experiment(spec)

    def test_ratio_must_give_rows(self):
        spec = bench.OrderExperimentSpec(
            network=NET, algorithms=("gs",), ratios=(1e-9,), repetitions=1, label="synthetic"
        )
        with pytest.raises(ValueError):
            bench.run_order_experiment(spec)

    def test_csv_round_trip(self, tmp_path):
        spec = bench.OrderExperimentSpec(
            network=NET, algorithms=("gs",), ratios=(0.5,), repetitions=1, label="synthetic"
        )
        rows = bench.run_order_experiment(spec)
        path = tmp_path / "rows.csv"
        bench.write_csv(rows, path)
        loaded = bench.read_csv(path)
        assert len(loaded) == len(rows)
        assert loaded[0]["algorithm"] == rows[0]["algorithm"]
        assert int(loaded[0]["hamming"]) == rows[0]["hamming"]

    @pytest.mark.parametrize("field", ["algorithms", "ratios"])
    def test_empty_algorithms_or_ratios_rejected(self, field):
        spec = bench.OrderExperimentSpec(network=NET, repetitions=1, label="synthetic", **{field: ()})
        with pytest.raises(ValueError, match="at least one value"):
            bench.run_order_experiment(spec)

    def test_output_byte_identical_across_runs(self, tmp_path):
        spec = bench.OrderExperimentSpec(
            network=NET, algorithms=("mmpc",), ratios=(1.0,), repetitions=2, seed=12,
            label="synthetic",
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        bench.write_csv(bench.run_order_experiment(spec), a)
        bench.write_csv(bench.run_order_experiment(spec), b)
        assert a.read_bytes() == b.read_bytes()


class TestScalingExperiment:
    def test_rows_and_ratios(self):
        data = sample(NET, 400, 3)
        spec = bench.ScalingExperimentSpec(
            data=data, algorithm="gs", workers=(1, 2), repetitions=2
        )
        rows = bench.run_scaling_experiment(spec)
        none_rows = [r for r in rows if r["mode"] == "none"]
        back_rows = [r for r in rows if r["mode"] == "start-set"]
        assert len(none_rows) == 4 and len(back_rows) == 2
        k1 = [r for r in none_rows if r["workers"] == 1]
        assert all(r["ratio"] == 1.0 for r in k1)
        for r in none_rows:
            assert r["overhead"] == pytest.approx(r["ratio"] - 1.0 / r["workers"])
        # test counts are worker-invariant
        assert len({r["total_tests"] for r in none_rows}) == 1

    def test_dataset_and_network_together_rejected(self):
        spec = bench.ScalingExperimentSpec(data=sample(NET, 100, 3), network=NET, n=100)
        with pytest.raises(ValueError, match="both given"):
            bench.run_scaling_experiment(spec)

    def test_sample_size_with_a_dataset_rejected(self):
        # A dataset is used whole: n would be silently ignored.
        spec = bench.ScalingExperimentSpec(data=sample(NET, 100, 3), n=50, workers=(1,), repetitions=1)
        with pytest.raises(ValueError, match="n goes only with a network"):
            bench.run_scaling_experiment(spec)

    def test_baseline_required(self):
        data = sample(NET, 100, 3)
        spec = bench.ScalingExperimentSpec(data=data, workers=(2, 4))
        with pytest.raises(ValueError):
            bench.run_scaling_experiment(spec)

    def test_mean_and_median_emitted(self):
        data = sample(NET, 200, 3)
        spec = bench.ScalingExperimentSpec(
            data=data, algorithm="gs", workers=(1,), repetitions=3, compare_backtracking=False
        )
        rows = bench.run_scaling_experiment(spec)
        secs = [r["seconds"] for r in rows]
        assert rows[0]["mean_seconds"] == pytest.approx(statistics.fmean(secs))
        assert rows[0]["median_seconds"] == pytest.approx(statistics.median(secs))


class TestCli:
    @pytest.fixture()
    def net_path(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(NET, path)
        return path

    def test_nparams(self, net_path, capsys):
        assert main(["nparams", "--network", str(net_path)]) == 0
        assert capsys.readouterr().out.strip() == str(nparams(NET))

    @pytest.mark.parametrize("cpt", [[0.5, 0.5], {"parents": []}])
    def test_nparams_rejects_a_malformed_cpt(self, tmp_path, capsys, cpt):
        path = tmp_path / "bad.json"
        doc = {"variables": [{"name": "A", "levels": ["x", "y"]}], "arcs": [], "cpts": {"A": cpt}}
        path.write_text(json.dumps(doc))
        assert main(["nparams", "--network", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bnsl: error: malformed network file") and "Traceback" not in err

    def test_hamming_identical_graphs(self, net_path, tmp_path, capsys):
        g = tmp_path / "g.json"
        save_graph(NET.dag, g)
        assert main(["hamming", "--a", str(g), "--b", str(g)]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_sample_then_learn(self, net_path, tmp_path):
        csv_path = tmp_path / "d.csv"
        assert main([
            "sample", "--network", str(net_path), "--n", "600", "--seed", "4",
            "--output", str(csv_path),
        ]) == 0
        out_path = tmp_path / "g.json"
        telemetry2, telemetry1 = tmp_path / "t2.jsonl", tmp_path / "t1.jsonl"
        assert main([
            "learn", "--data", str(csv_path), "--algorithm", "si-hiton-pc",
            "--test", "mi", "--alpha", "0.01", "--workers", "2",
            "--output", str(out_path), "--telemetry", str(telemetry2),
        ]) == 0
        pdag2 = load_pdag(out_path)
        assert main([
            "learn", "--data", str(csv_path), "--algorithm", "si-hiton-pc",
            "--workers", "1", "--output", str(out_path), "--telemetry", str(telemetry1),
        ]) == 0
        pdag1 = load_pdag(out_path)
        assert pdag1 == pdag2  # worker invariance through the CLI
        lines2, lines1 = ([json.loads(l) for l in t.read_text().splitlines()] for t in (telemetry2, telemetry1))
        assert [l["phase"] for l in lines1] == [l["phase"] for l in lines2]
        assert lines2[0]["phase"] == "neighbours" and lines2[0]["total_tests"] > 0
        for l1, l2 in zip(lines1, lines2):
            assert all("per_worker_tests" in l and "per_worker_executed" in l for l in (l1, l2))
            assert (l1["total_tests"], l1["total_executed"]) == (l2["total_tests"], l2["total_executed"])
            # a phase may request no tests (here v-structures, whose sepsets
            # all come from the neighbour phase); one that does executes some
            assert 0 < l2["total_executed"] <= l2["total_tests"] or l2["total_tests"] == l2["total_executed"] == 0
            assert sum(l2["per_worker_executed"]) == l2["total_executed"]

    def test_sample_stdout_matches_file(self, net_path, tmp_path):
        csv_path = tmp_path / "d.csv"
        args = ["sample", "--network", str(net_path), "--n", "40", "--seed", "6"]
        assert main(args + ["--output", str(csv_path)]) == 0
        src = os.path.dirname(os.path.dirname(bnsl.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "bnsl.cli", *args, "--output", "-"],
            env=env, capture_output=True, check=True, timeout=60,
        ).stdout
        assert out == csv_path.read_bytes()

    def test_learn_oracle_requires_truth(self, net_path, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        main(["sample", "--network", str(net_path), "--n", "50", "--output", str(csv_path)])
        code = main([
            "learn", "--data", str(csv_path), "--algorithm", "gs", "--test", "oracle",
        ])
        assert code == 2
        assert "truth" in capsys.readouterr().err

    def test_oracle_rejects_alpha_outside_the_unit_interval(self, net_path, tmp_path, capsys):
        csv_path, truth = tmp_path / "d.csv", tmp_path / "t.json"
        main(["sample", "--network", str(net_path), "--n", "50", "--output", str(csv_path)])
        save_graph(NET.dag, truth)
        for test, extra in (("oracle", ["--truth", str(truth)]), ("mi", [])):
            code = main([
                "learn-local", "--data", str(csv_path), "--node", NET.dag.nodes[0],
                "--backend", "gs", "--test", test, "--alpha", "7", *extra,
            ])
            assert code == 2
            assert "bnsl: error: alpha must be in (0, 1)" in capsys.readouterr().err

    def test_learn_oracle_truth_lacking_a_variable_exits_2(self, net_path, tmp_path, capsys):
        csv_path, truth = tmp_path / "d.csv", tmp_path / "t.json"
        main(["sample", "--network", str(net_path), "--n", "50", "--output", str(csv_path)])
        nodes = NET.dag.nodes
        arcs = [(a, b) for a, b in NET.dag.directed_arcs if nodes[-1] not in (a, b)]
        save_graph(Dag(nodes[:-1], arcs), truth)
        code = main([
            "learn", "--data", str(csv_path), "--algorithm", "gs", "--test", "oracle",
            "--truth", str(truth),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bnsl: error:") and repr(nodes[-1]) in err
        assert "Traceback" not in err

    def test_learn_local_respects_blacklist(self, net_path, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        main(["sample", "--network", str(net_path), "--n", "400", "--seed", "1",
              "--output", str(csv_path)])
        node = NET.dag.nodes[0]
        banned = NET.dag.nodes[1]
        code = main([
            "learn-local", "--data", str(csv_path), "--node", node,
            "--backend", "si-hiton-pc", "--blacklist", banned,
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert banned not in doc["members"]
        assert doc["tests"] > 0

    def test_learn_local_reports_requested_and_executed_tests(self, net_path, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        main(["sample", "--network", str(net_path), "--n", "400", "--seed", "1", "--output", str(csv_path)])
        counts = {}
        for node in NET.dag.nodes:
            assert main(["learn-local", "--data", str(csv_path), "--node", node, "--backend", "si-hiton-pc"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert 0 < doc["executed"] <= doc["tests"]
            counts[node] = doc["tests"], doc["executed"]
        # X6's seven candidates all test dependent given the empty set. The
        # ranking scan asks each of those tests once, and the backward pass
        # skips the subsets a member's walk already asked, so every request
        # is executed. A backward pass that re-asked them would request seven
        # memo hits more (23 requested, the same 16 executed), and walks that
        # began at the empty set again seven more still (30).
        assert counts["X6"] == (16, 16)
        assert [sum(c) for c in zip(*counts.values())] == [71, 71]

    def test_usage_error_exits_1(self):
        assert main(["learn", "--algorithm", "gs"]) == 1
        assert main(["frobnicate"]) == 1

    def test_data_error_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["nparams", "--network", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_sample_rejects_zero_rows(self, net_path, capsys):
        code = main(["sample", "--network", str(net_path), "--n", "0"])
        assert code == 2

    def test_env_seed_fallback(self, net_path, tmp_path, monkeypatch):
        monkeypatch.setenv("BNSL_SEED", "123")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["sample", "--network", str(net_path), "--n", "30", "--output", str(a)])
        main(["sample", "--network", str(net_path), "--n", "30", "--output", str(b)])
        assert a.read_text() == b.read_text()

    def test_bench_order_cli(self, net_path, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "bench-order", "--network", str(net_path), "--algorithms", "gs",
            "--ratios", "0.5", "--repetitions", "1", "--seed", "0",
            "--output", str(out),
        ])
        assert code == 0
        rows = bench.read_csv(out)
        assert len(rows) == 2  # one per mode

    def test_bench_scaling_cli(self, net_path, tmp_path):
        data_path = tmp_path / "d.csv"
        main(["sample", "--network", str(net_path), "--n", "300", "--seed", "2",
              "--output", str(data_path)])
        out = tmp_path / "scaling.csv"
        code = main([
            "bench-scaling", "--data", str(data_path), "--algorithm", "gs",
            "--workers", "1,2", "--repetitions", "1", "--output", str(out),
        ])
        assert code == 0
        rows = bench.read_csv(out)
        assert {r["workers"] for r in rows} == {"1", "2"}


    def test_bench_scaling_without_data_or_network_exits_2(self, tmp_path, capsys):
        code = main(["bench-scaling", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "bnsl: error: either a dataset or a network plus sample size is required\n"
        assert not (tmp_path / "x.csv").exists()


class TestCliConfigErrors:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        path = tmp_path / "d.csv"
        save_dataset(sample(NET, 100, 3), path)
        return path

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_learn_negative_condition_cap_exits_2(self, csv_path, workers, capsys):
        code = main([
            "learn", "--data", str(csv_path), "--algorithm", "gs",
            "--workers", workers, "--max-condition-size", "-1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bnsl: error:") and "max_condition_size" in err
        assert "Traceback" not in err

    def test_learn_cor_on_one_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("a,b,c\n1.5,2.0,0.3\n")
        code = main(["learn", "--data", str(path), "--algorithm", "si-hiton-pc", "--test", "cor"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bnsl: error:") and "at least 2 rows" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err


class TestCliFrontEnd:
    """The CLI's list flags, its parity with the benchmark API, and --help."""

    @pytest.fixture()
    def net_path(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(NET, path)
        return path

    @pytest.fixture()
    def data_path(self, tmp_path):
        path = tmp_path / "d.csv"
        save_dataset(sample(NET, 300, 2), path)
        return path

    def _usage_error(self, argv, flag, out, capsys):
        assert main(argv + ["--output", str(out)]) == 1
        assert f"error: argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_ratios_is_a_usage_error(self, net_path, tmp_path, capsys):
        argv = ["bench-order", "--network", str(net_path), "--ratios", "0.5,abc"]
        self._usage_error(argv, "--ratios", tmp_path / "x.csv", capsys)

    def test_malformed_workers_is_a_usage_error(self, data_path, tmp_path, capsys):
        argv = ["bench-scaling", "--data", str(data_path), "--workers", "1,x"]
        self._usage_error(argv, "--workers", tmp_path / "x.csv", capsys)

    def test_unknown_bench_algorithm_is_a_usage_error(self, net_path, tmp_path, capsys):
        argv = ["bench-order", "--network", str(net_path), "--algorithms", "gs,nope"]
        self._usage_error(argv, "--algorithms", tmp_path / "x.csv", capsys)

    def test_bench_scaling_with_data_and_network_exits_2(self, net_path, data_path, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "bench-scaling", "--data", str(data_path), "--network", str(net_path), "--n", "50",
            "--workers", "1", "--repetitions", "1", "--output", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("bnsl: error: a dataset and a network were both given")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench-order", "--ratios", ""],
            ["bench-order", "--algorithms", ","],
            ["bench-scaling", "--n", "50", "--workers", ""],
        ],
    )
    def test_empty_list_flag_is_a_usage_error(self, net_path, tmp_path, capsys, argv):
        argv = [argv[0], "--network", str(net_path), *argv[1:]]
        self._usage_error(argv, argv[-2], tmp_path / "x.csv", capsys)

    @pytest.mark.parametrize("flag", ["--start", "--whitelist", "--blacklist"])
    def test_empty_name_set_is_the_empty_set(self, flag):
        argv = ["learn-local", "--data", "d.csv", "--node", "A", "--backend", "gs", flag, ""]
        assert getattr(build_parser().parse_args(argv), flag[2:]) == frozenset()

    def test_bench_scaling_with_data_and_n_exits_2(self, data_path, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "bench-scaling", "--data", str(data_path), "--n", "50", "--workers", "1",
            "--repetitions", "1", "--output", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "bnsl: error: a sample size was given with a dataset; n goes only with a network\n"
        )
        assert not out.exists()

    def test_learn_writes_the_graph_to_stdout(self, data_path, tmp_path, capsys):
        out = tmp_path / "g.json"
        argv = ["learn", "--data", str(data_path), "--algorithm", "gs"]
        assert main(argv + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert main(argv + ["--output", "-"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_sample_writes_the_csv_to_stdout(self, net_path, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = ["sample", "--network", str(net_path), "--n", "20", "--seed", "8"]
        assert main(argv + ["--output", str(out)]) == 0
        assert main(argv + ["--output", "-"]) == 0
        assert capsys.readouterr().out == out.read_bytes().decode()

    def test_non_finite_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("A,B\n1,2\nnan,3\n")
        assert main(["learn", "--data", str(path), "--algorithm", "gs"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_bench_order_cli_matches_api(self, net_path, tmp_path):
        out, api = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert main([
            "bench-order", "--network", str(net_path), "--algorithms", "gs,mmpc",
            "--ratios", "0.5,2", "--repetitions", "2", "--seed", "12", "--output", str(out),
        ]) == 0
        spec = bench.OrderExperimentSpec(
            network=str(net_path), algorithms=("gs", "mmpc"), ratios=(0.5, 2.0), repetitions=2,
            seed=12, label=str(net_path),
        )
        bench.write_csv(bench.run_order_experiment(spec), api)
        assert out.read_bytes() == api.read_bytes()

    def test_bench_scaling_without_comparison_writes_no_start_set_rows(self, data_path, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "bench-scaling", "--data", str(data_path), "--algorithm", "gs", "--workers", "1,2",
            "--repetitions", "1", "--no-backtracking-comparison", "--output", str(out),
        ]) == 0
        header = out.read_text().splitlines()[0]
        assert header == (
            "algorithm,mode,workers,seconds,total_tests,per_worker_tests,rep,"
            "mean_seconds,median_seconds,ratio,overhead"
        )
        rows = bench.read_csv(out)
        assert [(r["mode"], r["workers"]) for r in rows] == [("none", "1"), ("none", "2")]

    @pytest.mark.parametrize(
        "command",
        ["learn", "learn-local", "sample", "nparams", "hamming", "bench-order", "bench-scaling"],
    )
    def test_help_exits_0(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: bnsl {command}")
