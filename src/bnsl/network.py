"""Discrete Bayesian networks: a DAG plus conditional probability tables.

CPT layout: for a node with parents ``(p1, ..., pk)`` (stored order), row
``r`` of its table holds the distribution over the node's own levels for the
parent configuration obtained by writing ``r`` in mixed radix with the LAST
parent varying fastest, i.e. ``r = ((l1 * c2 + l2) * c3 + ...) + lk``.
"""

from __future__ import annotations

import math

import numpy as np

from .data import DiscreteDataset
from .graph import Dag

ROW_SUM_TOL = 1e-9


def cpt_rows(parents, levels: dict[str, list[str]]) -> int:
    """Row count of a CPT given ``parents``: their joint configurations."""
    return math.prod(len(levels[p]) for p in parents)


class DiscreteBn:
    """A DAG with one conditional probability table per node."""

    def __init__(
        self,
        dag: Dag,
        levels: dict[str, list[str]],
        cpts: dict[str, tuple[tuple[str, ...], np.ndarray]],
    ):
        self.dag = dag
        if set(levels) != set(dag.nodes):
            missing, extra = sorted(set(dag.nodes) - set(levels)), sorted(set(levels) - set(dag.nodes))
            raise ValueError(f"levels do not match the graph's nodes: missing {missing}, extra {extra}")
        self.levels = {n: [str(l) for l in levels[n]] for n in dag.nodes}
        self.cpts: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
        for node in dag.nodes:
            if node not in cpts:
                raise ValueError(f"missing CPT for node {node!r}")
            parents, table = cpts[node]
            parents = tuple(parents)
            if set(parents) != set(dag.parents(node)):
                raise ValueError(f"CPT parents for {node!r} do not match the graph")
            table = np.asarray(table, dtype=np.float64)
            expected = (cpt_rows(parents, self.levels), len(self.levels[node]))
            if table.shape != expected:
                raise ValueError(f"CPT for {node!r} has shape {table.shape}, expected {expected}")
            if np.any(table < 0):
                raise ValueError(f"negative probability in CPT for {node!r}")
            if np.any(np.abs(table.sum(axis=1) - 1.0) > ROW_SUM_TOL):
                raise ValueError(f"CPT rows for {node!r} do not sum to 1")
            table = table.copy()
            table.flags.writeable = False
            self.cpts[node] = (parents, table)

    def cardinality(self, node: str) -> int:
        return len(self.levels[node])

    def __repr__(self):
        return f"DiscreteBn({len(self.dag.nodes)} nodes, {len(self.dag.arcs)} arcs)"


def nparams(bn: DiscreteBn) -> int:
    """Number of free parameters: sum of (card - 1) * prod(parent cards)."""
    total = 0
    for node in bn.dag.nodes:
        _, table = bn.cpts[node]
        total += table.shape[0] * (table.shape[1] - 1)
    return total


def sample(bn: DiscreteBn, n: int, seed: int) -> DiscreteDataset:
    """Forward (ancestral) sampling of ``n`` rows.

    Nodes are sampled in topological order; the output column order equals
    the network's node order. Deterministic for a given seed (numpy PCG64).
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    cols: dict[str, np.ndarray] = {}
    for node in bn.dag.topological_order:
        parents, table = bn.cpts[node]
        conf = np.zeros(n, dtype=np.int64)
        for p in parents:
            conf = conf * len(bn.levels[p]) + cols[p]
        cum = np.cumsum(table, axis=1)[conf]
        u = rng.random(n)
        cols[node] = np.minimum(
            (u[:, None] >= cum).sum(axis=1), len(bn.levels[node]) - 1
        ).astype(np.int64)
    codes = np.column_stack([cols[node] for node in bn.dag.nodes])
    variables = [(node, bn.levels[node]) for node in bn.dag.nodes]
    return DiscreteDataset(variables, codes)
