"""Workload inputs: one fixed problem instance per workload, shuffled by seed.

Each workload is a fixed generating model and a fixed sample, built only
through bnsl's public generators. The run seed then shuffles the sample's
row order. Learning must not depend on it: G^2 depends only on counts, so
every discrete test is bit-identical, and correlations differ only in
rounding. So the same seed gives the same bytes, different seeds give
different bytes, and the exact metrics (test counts, SHD, Hamming distances)
should be the same for every seed; a spread in them across seeds is a
finding. Column order is not shuffled: the static schedule partitions nodes
in column order, and CPDAG orientations depend on it today (the traced
``structure.orientation_order_shd`` measures that).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from bnsl import (
    ContinuousDataset,
    Dag,
    Dataset,
    DiscreteDataset,
    nparams,
    reverse_columns,
    sample,
)
from bnsl.synth import gaussian_sem_dataset, random_dag, random_discrete_network

WORKLOADS = ("gauss-sihiton", "discrete-iamb", "order-37")

# Instance constants: the generating model and sample of each workload.
GAUSS = dict(m=200, n=2000, seed=1)
DISCRETE = dict(m=50, net_seed=2, data_seed=2, n=5000)
ORDER = dict(m=37, net_seed=3737, protocol_seed=20, datasets=8)

ALGORITHM = {
    "gauss-sihiton": ("si-hiton-pc", "cor"),
    "discrete-iamb": ("inter-iamb", "mi"),
}
ALPHA = 0.01


@dataclass
class Inputs:
    """Everything a run learns from, plus the truth it is scored against."""

    workload: str
    datasets: list[Dataset]  # one, or the order protocol's datasets
    truth: Dag
    instance: dict
    hashes: list[str] = field(default_factory=list)

    def reversed(self) -> list[Dataset]:
        return [reverse_columns(d) for d in self.datasets]


def build(workload: str, seed: int) -> Inputs:
    """Generate the workload's instance and shuffle it with ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "gauss-sihiton":
        base = gaussian_sem_dataset(GAUSS["m"], GAUSS["n"], GAUSS["seed"])
        truth = gauss_truth()
        datasets = [_shuffle(base, rng)]
        instance = dict(GAUSS)
    elif workload == "discrete-iamb":
        bn = discrete_network()
        base = sample(bn, DISCRETE["n"], DISCRETE["data_seed"])
        truth = bn.dag
        datasets = [_shuffle(base, rng)]
        instance = dict(DISCRETE)
    elif workload == "order-37":
        bn = order_network()
        n = 2 * nparams(bn)
        bases = [
            sample(bn, n, dataset_seed(ORDER["protocol_seed"], i))
            for i in range(ORDER["datasets"])
        ]
        truth = bn.dag
        datasets = [_shuffle(b, rng) for b in bases]
        instance = dict(ORDER, n=n)
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    inputs = Inputs(workload, datasets, truth, instance)
    inputs.hashes = [dataset_hash(d) for d in datasets]
    return inputs


def gauss_truth() -> Dag:
    """The DAG behind the Gaussian instance: ``gaussian_sem_dataset`` draws
    it first from the same stream."""
    rng = np.random.default_rng(GAUSS["seed"])
    return random_dag(GAUSS["m"], rng, edge_prob=0.02, max_in_degree=3, prefix="G")


def discrete_network():
    return random_discrete_network(
        DISCRETE["m"], DISCRETE["net_seed"], edge_prob=0.1, max_in_degree=2, max_levels=3
    )


def order_network():
    return random_discrete_network(
        ORDER["m"], ORDER["net_seed"], edge_prob=0.06, max_in_degree=2, max_levels=2
    )


def dataset_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence((seed, *key)).generate_state(1, np.uint64)[0])


def _shuffle(data: Dataset, rng: np.random.Generator) -> Dataset:
    """The same sample in another row order."""
    rows = rng.permutation(data.n)
    if isinstance(data, DiscreteDataset):
        return DiscreteDataset(data.variables, data.codes[rows])
    return ContinuousDataset(list(data.names), data.values[rows])


def dataset_hash(data: Dataset) -> str:
    """sha256 over the column names, level labels and cell values."""
    h = hashlib.sha256()
    if isinstance(data, DiscreteDataset):
        h.update(repr(data.variables).encode())
        h.update(np.ascontiguousarray(data.codes, dtype="<i8").tobytes())
    else:
        h.update(repr(list(data.names)).encode())
        h.update(np.ascontiguousarray(data.values, dtype="<f8").tobytes())
    return h.hexdigest()[:16]
