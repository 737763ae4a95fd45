"""Benchmark protocol and CLI tests."""

import json
import os
import statistics
import subprocess
import sys

import pytest

import bnsl
from bnsl import bench
from bnsl.cli import main
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
        telemetry = tmp_path / "t.jsonl"
        assert main([
            "learn", "--data", str(csv_path), "--algorithm", "si-hiton-pc",
            "--test", "mi", "--alpha", "0.01", "--workers", "2",
            "--output", str(out_path), "--telemetry", str(telemetry),
        ]) == 0
        pdag2 = load_pdag(out_path)
        assert main([
            "learn", "--data", str(csv_path), "--algorithm", "si-hiton-pc",
            "--workers", "1", "--output", str(out_path),
        ]) == 0
        pdag1 = load_pdag(out_path)
        assert pdag1 == pdag2  # worker invariance through the CLI
        lines = [json.loads(l) for l in telemetry.read_text().splitlines()]
        assert all("per_worker_tests" in l for l in lines)

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
