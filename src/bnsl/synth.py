"""Synthetic graphs, networks and datasets for tests and benchmarks.

Reference networks are not bundled; these generators provide seeded,
reproducible stand-ins at desk scale. All randomness goes through numpy's
PCG64 generator.
"""

from __future__ import annotations

import numpy as np

from .data import ContinuousDataset
from .graph import Dag
from .network import DiscreteBn, cpt_rows


def var_names(m: int, prefix: str = "X") -> list[str]:
    """Zero-padded names so that name order matches generation order."""
    width = len(str(m - 1)) if m > 1 else 1
    return [f"{prefix}{i:0{width}d}" for i in range(m)]


def random_dag(
    m: int,
    seed: int | np.random.Generator,
    edge_prob: float = 0.25,
    max_in_degree: int | None = None,
    prefix: str = "X",
) -> Dag:
    """Random DAG over ``m`` nodes; arcs point from earlier to later names."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    names = var_names(m, prefix)
    arcs = []
    in_deg = {n: 0 for n in names}
    for j in range(1, m):
        for i in range(j):
            if max_in_degree is not None and in_deg[names[j]] >= max_in_degree:
                break
            if rng.random() < edge_prob:
                arcs.append((names[i], names[j]))
                in_deg[names[j]] += 1
    return Dag(names, arcs)


def random_discrete_bn(
    dag: Dag,
    seed: int | np.random.Generator,
    max_levels: int = 3,
    floor: float = 0.05,
) -> DiscreteBn:
    """Random CPTs for ``dag``: Dirichlet rows mixed with a uniform floor.

    The floor keeps every conditional probability at least ``floor`` so
    sampled data cover all levels and CPT estimation converges.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    levels = {}
    for node in dag.nodes:
        card = int(rng.integers(2, max_levels + 1))
        levels[node] = [f"l{k}" for k in range(card)]
    cpts = {}
    for node in dag.nodes:
        parents = tuple(sorted(dag.parents(node)))
        card = len(levels[node])
        raw = rng.dirichlet(np.ones(card), size=cpt_rows(parents, levels))
        table = raw * (1.0 - floor * card) + floor
        cpts[node] = (parents, table)
    return DiscreteBn(dag, levels, cpts)


def random_discrete_network(
    m: int,
    seed: int,
    edge_prob: float = 0.1,
    max_in_degree: int = 2,
    max_levels: int = 3,
) -> DiscreteBn:
    """Random DAG plus random CPTs in one call (two independent streams)."""
    rng = np.random.default_rng(seed)
    dag = random_dag(m, rng, edge_prob=edge_prob, max_in_degree=max_in_degree)
    return random_discrete_bn(dag, rng, max_levels=max_levels)


def gaussian_sem_dataset(
    m: int,
    n: int,
    seed: int,
    edge_prob: float = 0.02,
    max_in_degree: int = 3,
) -> ContinuousDataset:
    """Sample a linear Gaussian structural equation model.

    Each node is a weighted sum of its parents plus unit Gaussian noise,
    with weights drawn uniformly from +-[0.5, 1.5].
    """
    rng = np.random.default_rng(seed)
    dag = random_dag(m, rng, edge_prob=edge_prob, max_in_degree=max_in_degree, prefix="G")
    names = list(dag.nodes)
    index = {name: j for j, name in enumerate(names)}
    values = np.empty((n, m))
    for node in dag.topological_order:
        col = rng.standard_normal(n)
        for p in sorted(dag.parents(node)):
            weight = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
            col = col + weight * values[:, index[p]]
        values[:, index[node]] = col
    return ContinuousDataset(names, values)
