"""Golden digests of whole learns, pinned across commits.

Each configuration runs the three steps of ``learn_cpdag`` (skeleton,
v-structures, Meek's rules) and hashes a canonical JSON of what they
produced: the CPDAG's arcs and edges, the sorted ``SepsetTable`` items, the
accepted v-structures and the conflict count, and each phase's requested
and executed test totals. Float statistics are never hashed: their last
bits may differ under another libm or numpy build, while structure and
counts change only when a test crosses alpha or a learner changes.

Every JSON list is sorted or in the learner's own order, so no set or dict
iteration order reaches a digest; CI runs this file under two
``PYTHONHASHSEED`` values to check that.

A change that alters a digest on purpose names the digest and the reason in
``CHANGES.md``. ``python tests/test_golden.py`` prints the current table.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from bnsl import (
    ALGORITHMS,
    BACKTRACKING_MODES,
    GlobalLearnConfig,
    ParallelExecutor,
    PartialCorrelationTest,
    apply_meek_rules,
    learn_skeleton,
    make_engine,
    nparams,
    orient_v_structures,
    sample,
)
from bnsl.synth import gaussian_sem_dataset, random_discrete_network

ORDER_DATASETS = 8


@functools.cache
def dataset(name: str):
    """The dataset a configuration learns from, built once per session."""
    if name.startswith("order-37/"):
        # The order protocol's 37-node binary network, sample i of n = 2p.
        bn = random_discrete_network(37, 3737, edge_prob=0.06, max_in_degree=2, max_levels=2)
        seed = np.random.SeedSequence((20, int(name.split("/")[1]))).generate_state(1, np.uint64)[0]
        return sample(bn, 2 * nparams(bn), int(seed))
    if name == "discrete-iamb":
        return sample(random_discrete_network(50, 2, edge_prob=0.1, max_in_degree=2, max_levels=3), 5000, 2)
    if name == "gauss-sihiton":
        return gaussian_sem_dataset(200, 2000, 1)
    if name == "gauss-14":
        # Dense enough that the four cor learns make 2,762 tests given two or
        # more variables (test_the_small_gaussian_tests_given_two_or_more).
        return gaussian_sem_dataset(14, 400, 7, edge_prob=0.3, max_in_degree=3)
    raise ValueError(f"unknown dataset: {name!r}")


def learn_record(data, cfg: GlobalLearnConfig) -> dict:
    """Structure and counts of one learn, as JSON-ready lists."""
    executor = ParallelExecutor(cfg.workers, cfg.schedule)
    skel, sepsets = learn_skeleton(data, cfg, executor)
    engine = make_engine(cfg.test, data, cfg.alpha)
    oriented = orient_v_structures(skel, sepsets, data, engine, executor, cfg.max_condition_size)
    cpdag = apply_meek_rules(oriented.pdag)
    return {
        "arcs": sorted(cpdag.directed_arcs),
        "edges": sorted(cpdag.undirected_edges),
        "sepsets": [[a, b, None if s is None else sorted(s)] for (a, b), s in sepsets.items()],
        "v_structures": [[v.left, v.collider, v.right] for v in oriented.v_structures],
        "conflicts": oriented.conflicts,
        "phases": [[t.phase, t.test_count, t.executed] for t in executor.telemetry],
    }


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def configurations() -> list[tuple[str, str, str, str]]:
    """(dataset, algorithm, test, backtracking) of every pinned learn."""
    out = [
        (f"order-37/{i}", algorithm, "mi", mode)
        for i in range(ORDER_DATASETS) for algorithm in ALGORITHMS for mode in BACKTRACKING_MODES
    ]
    out += [("discrete-iamb", algorithm, "mi", "none") for algorithm in ("gs", "inter-iamb")]
    out += [("gauss-sihiton", "si-hiton-pc", "cor", "none")]
    out += [("gauss-14", algorithm, "cor", "none") for algorithm in ALGORITHMS]
    return out


def _key(name, algorithm, test, mode) -> str:
    return f"{name} {algorithm} {test} {mode}"


GOLDEN = {
    'order-37/0 gs mi none': '8030096ceca7d4e7',
    'order-37/0 gs mi start-set': 'e6e7d31113cc726a',
    'order-37/0 gs mi legacy': '6fba33ffecc0f960',
    'order-37/0 inter-iamb mi none': '44ecddce914242f5',
    'order-37/0 inter-iamb mi start-set': 'bf273399f3ea8a54',
    'order-37/0 inter-iamb mi legacy': '2a33082b72d68d8e',
    'order-37/0 mmpc mi none': '29c6847f8e3ff16d',
    'order-37/0 mmpc mi start-set': '2270437fba0946d4',
    'order-37/0 mmpc mi legacy': '2280e231e4ab189f',
    'order-37/0 si-hiton-pc mi none': '86d5f4cb849caff6',
    'order-37/0 si-hiton-pc mi start-set': '408f909513c274a1',
    'order-37/0 si-hiton-pc mi legacy': '66cb5542efec992e',
    'order-37/1 gs mi none': 'c7b57f29b856fad5',
    'order-37/1 gs mi start-set': '2612a6f1fb23d657',
    'order-37/1 gs mi legacy': '7c48bcdfab66ef1a',
    'order-37/1 inter-iamb mi none': '783c1f5b63330065',
    'order-37/1 inter-iamb mi start-set': 'd2e440382e85c308',
    'order-37/1 inter-iamb mi legacy': 'da9fda967add44a7',
    'order-37/1 mmpc mi none': 'bdecc6e1b7b1534c',
    'order-37/1 mmpc mi start-set': 'd2e9fc030d61894b',
    'order-37/1 mmpc mi legacy': 'd3ddf248482b8346',
    'order-37/1 si-hiton-pc mi none': '24dcf6b637b17237',
    'order-37/1 si-hiton-pc mi start-set': 'dcdda2e0be392a62',
    'order-37/1 si-hiton-pc mi legacy': '7417454dc5ee51f5',
    'order-37/2 gs mi none': '70136dbd07767bac',
    'order-37/2 gs mi start-set': '6dba7623deeed9b8',
    'order-37/2 gs mi legacy': '0fe54e95ff810544',
    'order-37/2 inter-iamb mi none': 'e6c48ec2e343397d',
    'order-37/2 inter-iamb mi start-set': '679075cc875c4a4c',
    'order-37/2 inter-iamb mi legacy': 'fd6f37fbb23abf59',
    'order-37/2 mmpc mi none': '0e42be048d18468f',
    'order-37/2 mmpc mi start-set': '9f626f942d40e86a',
    'order-37/2 mmpc mi legacy': 'eefd338eabd77a16',
    'order-37/2 si-hiton-pc mi none': 'a1c4f052e1e2f5ea',
    'order-37/2 si-hiton-pc mi start-set': '37bebc4087738254',
    'order-37/2 si-hiton-pc mi legacy': 'c861dae70159a07b',
    'order-37/3 gs mi none': 'd69b8329d9152d4c',
    'order-37/3 gs mi start-set': 'b47cfbf01d5051df',
    'order-37/3 gs mi legacy': '44aa8608ad9560c1',
    'order-37/3 inter-iamb mi none': 'c708c5ad6c40260c',
    'order-37/3 inter-iamb mi start-set': '69c91fbae5c67b10',
    'order-37/3 inter-iamb mi legacy': '253751591d68e718',
    'order-37/3 mmpc mi none': '2a0038226c79889f',
    'order-37/3 mmpc mi start-set': '61ae5057d8ca35fe',
    'order-37/3 mmpc mi legacy': '2175023a67bb8543',
    'order-37/3 si-hiton-pc mi none': '251fc63a2c3aef23',
    'order-37/3 si-hiton-pc mi start-set': '26f9fbaf1413d122',
    'order-37/3 si-hiton-pc mi legacy': 'c9f6f40990712e45',
    'order-37/4 gs mi none': 'f976850ac7e9689b',
    'order-37/4 gs mi start-set': 'cd31d0aa3d0b5357',
    'order-37/4 gs mi legacy': 'b7829a4c9717df11',
    'order-37/4 inter-iamb mi none': 'c8cc9c19fb0190e9',
    'order-37/4 inter-iamb mi start-set': 'af0a04e6e171a834',
    'order-37/4 inter-iamb mi legacy': 'f1a5b7f33c274c20',
    'order-37/4 mmpc mi none': '6eba0557f47c7f12',
    'order-37/4 mmpc mi start-set': '72e392cf3d28d427',
    'order-37/4 mmpc mi legacy': '347a07d8ddb4b237',
    'order-37/4 si-hiton-pc mi none': 'a3ea7a603df3a286',
    'order-37/4 si-hiton-pc mi start-set': 'a2264f7d72527045',
    'order-37/4 si-hiton-pc mi legacy': 'cfba8476e42c7d62',
    'order-37/5 gs mi none': '0e4f2eb62a2a1fdb',
    'order-37/5 gs mi start-set': '8c32d1e8fd715189',
    'order-37/5 gs mi legacy': 'd043bbf426c3fcd8',
    'order-37/5 inter-iamb mi none': 'fddf387dee51b476',
    'order-37/5 inter-iamb mi start-set': 'a1408f090a8f02b2',
    'order-37/5 inter-iamb mi legacy': 'b93a0d96d778714a',
    'order-37/5 mmpc mi none': '9fbc48a65b64133c',
    'order-37/5 mmpc mi start-set': '58d9c5b64c35108e',
    'order-37/5 mmpc mi legacy': '42088004834db5c7',
    'order-37/5 si-hiton-pc mi none': '70cbc0cfb2c9150c',
    'order-37/5 si-hiton-pc mi start-set': '909d103e96a9fe8c',
    'order-37/5 si-hiton-pc mi legacy': 'f2bf2cd55b3df565',
    'order-37/6 gs mi none': '8cc27fbe8d67dd71',
    'order-37/6 gs mi start-set': '7085c6cf8dc8ec23',
    'order-37/6 gs mi legacy': '34707c8d82bfb066',
    'order-37/6 inter-iamb mi none': 'a6bb2703a274d527',
    'order-37/6 inter-iamb mi start-set': 'a0024fed6f9b4bea',
    'order-37/6 inter-iamb mi legacy': 'ca98662667fdabc5',
    'order-37/6 mmpc mi none': '6a44cf341e439768',
    'order-37/6 mmpc mi start-set': '63510dd681fb5f0a',
    'order-37/6 mmpc mi legacy': 'def110d3e40d034a',
    'order-37/6 si-hiton-pc mi none': '0a7ace9e4896a646',
    'order-37/6 si-hiton-pc mi start-set': '647885794e3b47f8',
    'order-37/6 si-hiton-pc mi legacy': '381ead779120395a',
    'order-37/7 gs mi none': '0f7f185312e7d369',
    'order-37/7 gs mi start-set': '68b5b5e8a4805542',
    'order-37/7 gs mi legacy': 'f95e9d97818b79d6',
    'order-37/7 inter-iamb mi none': '2cc859bb3abc11a4',
    'order-37/7 inter-iamb mi start-set': '263d6b350223b41f',
    'order-37/7 inter-iamb mi legacy': 'f0ac81eb304e368f',
    'order-37/7 mmpc mi none': 'a5f48828e70ffde3',
    'order-37/7 mmpc mi start-set': '63d8db75633218a3',
    'order-37/7 mmpc mi legacy': '794780e786ef5bfc',
    'order-37/7 si-hiton-pc mi none': '82bbf6901b5f52a7',
    'order-37/7 si-hiton-pc mi start-set': 'c3b59d7fecb0b9fe',
    'order-37/7 si-hiton-pc mi legacy': '3444ce3849404e05',
    'discrete-iamb gs mi none': '44661f843c64f619',
    'discrete-iamb inter-iamb mi none': '04c2da20d80014da',
    'gauss-sihiton si-hiton-pc cor none': '6df452baa21df813',
    'gauss-14 gs cor none': '65ffe55c959dcdca',
    'gauss-14 inter-iamb cor none': '747436994caaa5fd',
    'gauss-14 mmpc cor none': '5270f2f8953fa28f',
    'gauss-14 si-hiton-pc cor none': '6e5450f5efe6fc60',
}

@pytest.mark.parametrize("dataset_name, algorithm, test, mode", configurations(), ids=str)
def test_learn_matches_its_golden_digest(dataset_name, algorithm, test, mode):
    cfg = GlobalLearnConfig(algorithm=algorithm, test=test, backtracking=mode)
    got = digest(learn_record(dataset(dataset_name), cfg))
    assert got == GOLDEN[_key(dataset_name, algorithm, test, mode)]


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_two_workers_reproduce_the_gaussian_digest(schedule):
    cfg = GlobalLearnConfig(algorithm="si-hiton-pc", test="cor", workers=2, schedule=schedule)
    got = digest(learn_record(dataset("gauss-sihiton"), cfg))
    assert got == GOLDEN[_key("gauss-sihiton", "si-hiton-pc", "cor", "none")]


TWO_WORKER_DISCRETE = [("discrete-iamb", algorithm) for algorithm in ("gs", "inter-iamb")]
TWO_WORKER_DISCRETE += [("order-37/0", algorithm) for algorithm in ALGORITHMS]


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("dataset_name, algorithm", TWO_WORKER_DISCRETE, ids=str)
def test_two_workers_reproduce_the_discrete_digests(dataset_name, algorithm, schedule):
    """Sepsets and member sets cross the lane pipe at k = 2; each run must
    reproduce its one-worker digest."""
    cfg = GlobalLearnConfig(algorithm=algorithm, test="mi", workers=2, schedule=schedule)
    got = digest(learn_record(dataset(dataset_name), cfg))
    assert got == GOLDEN[_key(dataset_name, algorithm, "mi", "none")]


def test_the_small_gaussian_tests_given_two_or_more(monkeypatch):
    """The ``gauss-14`` learns execute 2,762 cor tests given two or more
    variables, which take the t test's forward-solve path."""
    sizes = []
    kernel = PartialCorrelationTest._kernel_many

    def counting(self, target, candidates, z):
        sizes.extend([len(z)] * len(candidates))
        return kernel(self, target, candidates, z)

    monkeypatch.setattr(PartialCorrelationTest, "_kernel_many", counting)
    for algorithm in ALGORITHMS:
        learn_record(dataset("gauss-14"), GlobalLearnConfig(algorithm=algorithm, test="cor"))
    assert sum(size >= 2 for size in sizes) == 2762


if __name__ == "__main__":
    for config in configurations():
        name, algorithm, test, mode = config
        cfg = GlobalLearnConfig(algorithm=algorithm, test=test, backtracking=mode)
        print(f"    {_key(*config)!r}: {digest(learn_record(dataset(name), cfg))!r},")
