"""File formats: network JSON, dataset CSV and graph JSON.

Network JSON schema::

    {
      "variables": [{"name": "A", "levels": ["a0", "a1"]}, ...],
      "arcs": [["A", "B"], ...],
      "cpts": {
        "B": {"parents": ["A"], "table": [[0.8, 0.2], [0.3, 0.7]]},
        ...
      }
    }

CPT rows follow lexicographic parent configurations with the LAST listed
parent varying fastest; every row sums to 1 within 1e-9.

Dataset CSV: the first row holds variable names; discrete cells hold level
labels, continuous cells decimal literals. Loading infers the kind (all
cells parse as numbers -> continuous) unless told otherwise; discrete level
sets are the sorted distinct labels per column. No missing values.

Graph JSON: ``{"nodes": [...], "edges": [{"from": ..., "to": ...,
"directed": true|false}, ...]}``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TextIO

import numpy as np

from .data import ContinuousDataset, Dataset, DiscreteDataset
from .graph import Dag, Pdag, Skeleton
from .network import DiscreteBn


def load_network(path: str | Path) -> DiscreteBn:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        variables = [(v["name"], list(v["levels"])) for v in doc["variables"]]
        arcs = [tuple(arc) for arc in doc.get("arcs", [])]
        raw_cpts = doc["cpts"]
        cpts = {}
        for name, _ in variables:
            if name in raw_cpts:  # DiscreteBn reports a missing one
                entry = raw_cpts[name]
                cpts[name] = (tuple(entry.get("parents", ())), np.asarray(entry["table"], dtype=float))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed network file {path}: {exc}") from exc
    return DiscreteBn(Dag([name for name, _ in variables], arcs), dict(variables), cpts)


def save_network(bn: DiscreteBn, path: str | Path) -> None:
    doc = {
        "variables": [{"name": n, "levels": bn.levels[n]} for n in bn.dag.nodes],
        "arcs": [list(a) for a in sorted(bn.dag.arcs)],
        "cpts": {
            n: {"parents": list(bn.cpts[n][0]), "table": bn.cpts[n][1].tolist()}
            for n in bn.dag.nodes
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_dataset(path: str | Path, kind: str = "auto") -> Dataset:
    """Load a CSV dataset; ``kind`` is ``auto``, ``discrete`` or ``continuous``."""
    if kind not in ("auto", "discrete", "continuous"):
        raise ValueError(f"unknown dataset kind: {kind!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty dataset file: {path}") from None
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"dataset {path} has no observations")
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {r + 2} of {path} has {len(row)} cells, expected {len(header)}")
        if any(cell == "" for cell in row):
            raise ValueError(f"missing value in row {r + 2} of {path}; imputation is out of scope")

    if kind != "discrete":
        try:
            values = np.array([[float(c) for c in row] for row in rows])
        except ValueError as exc:
            if kind == "continuous":
                raise ValueError(f"non-numeric cell in continuous dataset {path}: {exc}") from exc
        else:  # outside the try: a ContinuousDataset error must not fall back to discrete
            return ContinuousDataset(header, values)
    columns = list(zip(*rows))
    variables = []
    codes = np.empty((len(rows), len(header)), dtype=np.int64)
    for j, name in enumerate(header):
        levels = sorted(set(columns[j]))
        index = {label: i for i, label in enumerate(levels)}
        variables.append((name, levels))
        codes[:, j] = [index[c] for c in columns[j]]
    return DiscreteDataset(variables, codes)


def save_dataset(data: Dataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_dataset(data, fh)


def write_dataset(data: Dataset, fh: TextIO) -> None:
    """Write ``data`` as dataset CSV to the open text stream ``fh``."""
    writer = csv.writer(fh)
    writer.writerow(data.names)
    if isinstance(data, DiscreteDataset):
        label_maps = [levels for _, levels in data.variables]
        for row in data.codes:
            writer.writerow([label_maps[j][row[j]] for j in range(len(row))])
    else:
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


def save_graph(graph: Pdag, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=1)
        fh.write("\n")


def graph_to_dict(graph: Pdag) -> dict:
    """Graph JSON of any graph (a ``Dag`` or ``Skeleton`` is a ``Pdag``):
    sorted arcs, then sorted undirected edges."""
    if not isinstance(graph, Pdag):
        raise TypeError(f"not a graph: {type(graph).__name__}")
    edges = [{"from": p, "to": c, "directed": True} for p, c in sorted(graph.directed_arcs)]
    edges += [{"from": a, "to": b, "directed": False} for a, b in sorted(graph.undirected_edges)]
    return {"nodes": list(graph.nodes), "edges": edges}


def load_pdag(path: str | Path) -> Pdag:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        nodes = list(doc["nodes"])
        directed = [(e["from"], e["to"]) for e in doc["edges"] if e["directed"]]
        undirected = [(e["from"], e["to"]) for e in doc["edges"] if not e["directed"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph file {path}: {exc}") from exc
    return Pdag(nodes, directed, undirected)


def load_dag(path: str | Path) -> Dag:
    pdag = load_pdag(path)
    if pdag.undirected_edges:
        raise ValueError(f"graph {path} has undirected edges; a DAG is required")
    return Dag(pdag.nodes, pdag.directed_arcs)


def load_skeleton(path: str | Path) -> Skeleton:
    return load_pdag(path).skeleton()
