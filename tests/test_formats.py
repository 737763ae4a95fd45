"""File format round-trips and validation."""

import json

import numpy as np
import pytest

from bnsl.data import ContinuousDataset, DiscreteDataset
from bnsl.formats import (
    load_dag,
    load_dataset,
    load_network,
    load_pdag,
    load_skeleton,
    save_dataset,
    save_graph,
    save_network,
)
from bnsl.graph import Dag, Pdag, Skeleton
from bnsl.network import nparams, sample
from bnsl.synth import random_discrete_network


class TestNetworkJson:
    def test_round_trip(self, tmp_path):
        bn = random_discrete_network(6, seed=1, edge_prob=0.4)
        path = tmp_path / "net.json"
        save_network(bn, path)
        loaded = load_network(path)
        assert loaded.dag == bn.dag
        assert loaded.levels == bn.levels
        assert nparams(loaded) == nparams(bn)
        for node in bn.dag.nodes:
            assert loaded.cpts[node][0] == bn.cpts[node][0]
            assert np.allclose(loaded.cpts[node][1], bn.cpts[node][1])

    def test_row_sum_validated_on_load(self, tmp_path):
        doc = {
            "variables": [{"name": "A", "levels": ["x", "y"]}],
            "arcs": [],
            "cpts": {"A": {"parents": [], "table": [[0.7, 0.7]]}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_network(path)

    def test_missing_cpt_rejected(self, tmp_path):
        doc = {"variables": [{"name": "A", "levels": ["x"]}], "arcs": [], "cpts": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_network(path)

    def test_missing_cpt_named_by_the_model(self, tmp_path):
        # load_network passes on the CPTs the file has; DiscreteBn names
        # the variable without one. An entry for a non-variable is ignored.
        doc = {
            "variables": [{"name": "A", "levels": ["x", "y"]}, {"name": "B", "levels": ["u", "v"]}],
            "arcs": [],
            "cpts": {"A": {"table": [[0.5, 0.5]]}, "Z": {"table": [[1.0]]}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^missing CPT for node 'B'$"):
            load_network(path)
        doc["cpts"]["B"] = {"parents": [], "table": [[0.1, 0.9]]}
        path.write_text(json.dumps(doc))
        assert set(load_network(path).cpts) == {"A", "B"}

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": 3}')
        with pytest.raises(ValueError):
            load_network(path)

    @pytest.mark.parametrize("cpt", [[0.5, 0.5], {"parents": []}])
    def test_malformed_cpt_entry(self, tmp_path, cpt):
        # A CPT that is not an object, or that lacks its table.
        doc = {"variables": [{"name": "A", "levels": ["x", "y"]}], "arcs": [], "cpts": {"A": cpt}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed network file"):
            load_network(path)

    def test_cpt_row_order_last_parent_fastest(self, tmp_path):
        # P(X | Y, Z): rows ordered (y0,z0), (y0,z1), (y1,z0), (y1,z1)
        doc = {
            "variables": [
                {"name": "Y", "levels": ["y0", "y1"]},
                {"name": "Z", "levels": ["z0", "z1"]},
                {"name": "X", "levels": ["x0", "x1"]},
            ],
            "arcs": [["Y", "X"], ["Z", "X"]],
            "cpts": {
                "Y": {"parents": [], "table": [[0.5, 0.5]]},
                "Z": {"parents": [], "table": [[0.5, 0.5]]},
                "X": {
                    "parents": ["Y", "Z"],
                    "table": [[1.0, 0.0], [0.9, 0.1], [0.2, 0.8], [0.0, 1.0]],
                },
            },
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        bn = load_network(path)
        # deterministic rows: with Y=y0, Z=z0 the child is always x0
        data = sample(bn, 4000, 0)
        y, z, x = data.column("Y"), data.column("Z"), data.column("X")
        assert set(x[(y == 0) & (z == 0)]) == {0}
        assert set(x[(y == 1) & (z == 1)]) == {1}


class TestDatasetCsv:
    def test_discrete_round_trip(self, tmp_path):
        bn = random_discrete_network(5, seed=2, edge_prob=0.4)
        data = sample(bn, 200, 3)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert isinstance(loaded, DiscreteDataset)
        assert loaded.names == data.names
        # level labels are sorted distinct values; codes must agree cell-wise
        for name in data.names:
            orig_labels = [data.levels(name)[c] for c in data.column(name)]
            new_labels = [loaded.levels(name)[c] for c in loaded.column(name)]
            assert orig_labels == new_labels

    def test_continuous_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = ContinuousDataset(["A", "B"], rng.standard_normal((50, 2)))
        path = tmp_path / "c.csv"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert isinstance(loaded, ContinuousDataset)
        assert np.array_equal(loaded.values, data.values)

    def test_kind_override(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n0,1\n1,0\n")
        auto = load_dataset(path)
        assert isinstance(auto, ContinuousDataset)
        forced = load_dataset(path, kind="discrete")
        assert isinstance(forced, DiscreteDataset)
        assert forced.levels("A") == ["0", "1"]

    def test_missing_values_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\nx,\ny,z\n")
        with pytest.raises(ValueError, match="missing value"):
            load_dataset(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\nx\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n")
        with pytest.raises(ValueError, match="has no observations"):
            load_dataset(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n0,1\n")
        with pytest.raises(ValueError, match="unknown dataset kind: 'binary'"):
            load_dataset(path, kind="binary")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_auto_numeric_non_finite_raises_not_discrete(self, tmp_path, cell):
        # Every cell parses as a number, so the file is continuous, and the
        # dataset's own check rejects it; it never falls back to discrete.
        path = tmp_path / "d.csv"
        path.write_text(f"A,B\n1,2\n{cell},3\n0.5,1\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(path)

    def test_auto_label_among_numbers_is_discrete(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n1,2\nx,3\n1,3\n")
        data = load_dataset(path)
        assert isinstance(data, DiscreteDataset)
        assert data.levels("A") == ["1", "x"] and data.levels("B") == ["2", "3"]

    def test_continuous_kind_on_a_label_raises_non_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n1,2\nx,3\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset(path, kind="continuous")


class TestGraphJson:
    def test_pdag_round_trip(self, tmp_path):
        pdag = Pdag(["A", "B", "C"], directed=[("A", "B")], undirected=[("B", "C")])
        path = tmp_path / "g.json"
        save_graph(pdag, path)
        assert load_pdag(path) == pdag

    def test_dag_round_trip(self, tmp_path):
        dag = Dag(["A", "B"], [("A", "B")])
        path = tmp_path / "g.json"
        save_graph(dag, path)
        assert load_dag(path) == dag

    def test_load_dag_rejects_undirected(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(Pdag(["A", "B"], undirected=[("A", "B")]), path)
        with pytest.raises(ValueError):
            load_dag(path)

    @pytest.mark.parametrize(
        "doc", [{"edges": []}, {"nodes": ["A"], "edges": [{"from": "A"}]}, {"nodes": ["A"], "edges": 3}]
    )
    def test_malformed_graph_file_rejected(self, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed graph file"):
            load_pdag(path)

    def test_skeleton_view(self, tmp_path):
        pdag = Pdag(["A", "B", "C"], directed=[("A", "B")], undirected=[("B", "C")])
        path = tmp_path / "g.json"
        save_graph(pdag, path)
        skel = load_skeleton(path)
        assert skel == Skeleton(["A", "B", "C"], [("A", "B"), ("B", "C")])
