"""Golden digests of whole learns, pinned across commits.

Each configuration runs the three steps of ``learn_cpdag`` (skeleton,
v-structures, Meek's rules) and is pinned twice. One digest hashes a
canonical JSON of what they produced: the CPDAG's arcs and edges, the
sorted ``SepsetTable`` items, the accepted v-structures and the conflict
count, and each phase's name and executed test total. Beside it, each
phase's requested test total is pinned as a plain integer, so a change
that only asks fewer (or more) tests shows as that, with the outputs and
executed counts still checked by the digest. Float statistics are never
hashed: their last bits may differ under another libm or numpy build,
while structure and counts change only when a test crosses alpha or a
learner changes.

Every JSON list is sorted or in the learner's own order, so no set or dict
iteration order reaches a digest; CI runs this file under two
``PYTHONHASHSEED`` values to check that.

A change that alters a pin on purpose names the pin and the reason in
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


def pins(record: dict) -> tuple[str, list[int]]:
    """(digest of the outputs and per-phase executed counts, per-phase
    requested counts) of one learn's record."""
    phases = record["phases"]
    outputs = {**record, "phases": [[phase, executed] for phase, _, executed in phases]}
    return digest(outputs), [requested for _, requested, _ in phases]


def check(record: dict, key: str) -> None:
    """Compare a learn's pins with the golden ones, outputs first."""
    got_digest, got_requested = pins(record)
    want_digest, want_requested = GOLDEN[key]
    assert got_digest == want_digest, "outputs or executed counts differ"
    assert got_requested == want_requested, "requested counts differ"


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
    'order-37/0 gs mi none': ('cf90056f368395f4', [2512, 18, 0]),
    'order-37/0 gs mi start-set': ('ee01b16e1c879483', [1107, 18, 0]),
    'order-37/0 gs mi legacy': ('2cd4f2bb8437da1f', [1078, 38, 0]),
    'order-37/0 inter-iamb mi none': ('e5731942bba4b1df', [2960, 17, 0]),
    'order-37/0 inter-iamb mi start-set': ('5b1d6aa7a826e5d9', [1298, 18, 0]),
    'order-37/0 inter-iamb mi legacy': ('c33dbc5e368369cb', [1262, 37, 0]),
    'order-37/0 mmpc mi none': ('7c841f2a0ceeb331', [2759, 0]),
    'order-37/0 mmpc mi start-set': ('98968d889126fb39', [1539, 0]),
    'order-37/0 mmpc mi legacy': ('f103f9d515f58e49', [1515, 0]),
    'order-37/0 si-hiton-pc mi none': ('089dd0cfa6f5594d', [1364, 0]),
    'order-37/0 si-hiton-pc mi start-set': ('a01058344bf01a3d', [709, 0]),
    'order-37/0 si-hiton-pc mi legacy': ('7181f69f7f1129fc', [685, 0]),
    'order-37/1 gs mi none': ('d8b8f9bc06322ac2', [2589, 25, 0]),
    'order-37/1 gs mi start-set': ('eb0a4f99b1d99379', [1202, 28, 0]),
    'order-37/1 gs mi legacy': ('9e55c6a7d1e78317', [1160, 61, 0]),
    'order-37/1 inter-iamb mi none': ('a2a741cb72f73aae', [3552, 29, 0]),
    'order-37/1 inter-iamb mi start-set': ('f8229fd1904a83c7', [1615, 34, 0]),
    'order-37/1 inter-iamb mi legacy': ('eb623c3c716f7cd7', [1525, 65, 0]),
    'order-37/1 mmpc mi none': ('eb323bf995525d23', [3243, 0]),
    'order-37/1 mmpc mi start-set': ('4d57a49d9d1f4514', [1861, 0]),
    'order-37/1 mmpc mi legacy': ('01ef32cdc1617d01', [1818, 0]),
    'order-37/1 si-hiton-pc mi none': ('3072bb214c550093', [1382, 0]),
    'order-37/1 si-hiton-pc mi start-set': ('3c28bb6731f7ce84', [736, 0]),
    'order-37/1 si-hiton-pc mi legacy': ('7879cd2a028aed45', [693, 0]),
    'order-37/2 gs mi none': ('95f28346807323ae', [2410, 18, 0]),
    'order-37/2 gs mi start-set': ('e7ba5bae28ca4dc9', [1085, 17, 0]),
    'order-37/2 gs mi legacy': ('419ff0b057b95af0', [1060, 30, 0]),
    'order-37/2 inter-iamb mi none': ('c7f8aa4931fd776f', [2997, 16, 0]),
    'order-37/2 inter-iamb mi start-set': ('b8b752034dd9d837', [1237, 17, 0]),
    'order-37/2 inter-iamb mi legacy': ('3076440858bb3dd1', [1201, 32, 0]),
    'order-37/2 mmpc mi none': ('511960c5f27fb1f2', [2655, 0]),
    'order-37/2 mmpc mi start-set': ('acd32d40eaab5c00', [1363, 0]),
    'order-37/2 mmpc mi legacy': ('053cf33bd052ae3e', [1342, 0]),
    'order-37/2 si-hiton-pc mi none': ('7ceb8622b7252108', [1357, 0]),
    'order-37/2 si-hiton-pc mi start-set': ('ceac73bca6393dee', [702, 0]),
    'order-37/2 si-hiton-pc mi legacy': ('fce8c1fb61b6826e', [681, 0]),
    'order-37/3 gs mi none': ('96dda4bb44641508', [2518, 14, 0]),
    'order-37/3 gs mi start-set': ('9cfcc5ad6c7ede14', [1200, 22, 0]),
    'order-37/3 gs mi legacy': ('32c644ef309f8341', [1172, 32, 0]),
    'order-37/3 inter-iamb mi none': ('ddf9dc9a5e66c33d', [3110, 19, 0]),
    'order-37/3 inter-iamb mi start-set': ('2db34dd2e22c3def', [1342, 23, 0]),
    'order-37/3 inter-iamb mi legacy': ('52792b5624a1a25c', [1302, 35, 0]),
    'order-37/3 mmpc mi none': ('6d6aafeef3017816', [2898, 0]),
    'order-37/3 mmpc mi start-set': ('c8fad44bcd83d3b9', [1634, 0]),
    'order-37/3 mmpc mi legacy': ('c0f671b776a58766', [1606, 0]),
    'order-37/3 si-hiton-pc mi none': ('6ea85bb576536199', [1386, 0]),
    'order-37/3 si-hiton-pc mi start-set': ('b9dfbc9dfec64c30', [730, 0]),
    'order-37/3 si-hiton-pc mi legacy': ('b5cd1252a503e30c', [700, 0]),
    'order-37/4 gs mi none': ('f8e271c55ed148f5', [2371, 24, 0]),
    'order-37/4 gs mi start-set': ('d243a530992d24ba', [1076, 25, 0]),
    'order-37/4 gs mi legacy': ('c3a7da0020a324be', [1051, 33, 0]),
    'order-37/4 inter-iamb mi none': ('2fa868b70452a031', [2812, 16, 0]),
    'order-37/4 inter-iamb mi start-set': ('66ba6594ca0e8d8c', [1319, 24, 0]),
    'order-37/4 inter-iamb mi legacy': ('dfea56577b6d6a71', [1261, 29, 0]),
    'order-37/4 mmpc mi none': ('6f07c497aa5b8cc0', [2860, 0]),
    'order-37/4 mmpc mi start-set': ('326a47faa5e572ed', [1495, 0]),
    'order-37/4 mmpc mi legacy': ('b2e5428698c102c4', [1471, 0]),
    'order-37/4 si-hiton-pc mi none': ('f666205dfaf571da', [1379, 0]),
    'order-37/4 si-hiton-pc mi start-set': ('ce874a96fb5de450', [714, 0]),
    'order-37/4 si-hiton-pc mi legacy': ('030089d5189c42ba', [690, 0]),
    'order-37/5 gs mi none': ('237e493f951e9d94', [2547, 18, 0]),
    'order-37/5 gs mi start-set': ('42d000b6107a8d80', [1165, 21, 0]),
    'order-37/5 gs mi legacy': ('fc6bd46606df9031', [1134, 45, 0]),
    'order-37/5 inter-iamb mi none': ('3d67707a6d0f430d', [3108, 18, 0]),
    'order-37/5 inter-iamb mi start-set': ('c32b2127c3749c0e', [1444, 18, 0]),
    'order-37/5 inter-iamb mi legacy': ('d2100e659ea2def3', [1373, 44, 0]),
    'order-37/5 mmpc mi none': ('2ffbaa4394bdddae', [2933, 0]),
    'order-37/5 mmpc mi start-set': ('f0a1bd455081795a', [1698, 0]),
    'order-37/5 mmpc mi legacy': ('711155bfccfbf534', [1664, 0]),
    'order-37/5 si-hiton-pc mi none': ('3ccd9e9de394fe44', [1371, 0]),
    'order-37/5 si-hiton-pc mi start-set': ('0ac8354abfd457f2', [722, 0]),
    'order-37/5 si-hiton-pc mi legacy': ('4c5399b167520fa2', [688, 0]),
    'order-37/6 gs mi none': ('d8dd7dec1baccde2', [2652, 25, 0]),
    'order-37/6 gs mi start-set': ('592237088513f4c3', [1240, 27, 0]),
    'order-37/6 gs mi legacy': ('9c7513ff66ccdde3', [1206, 48, 0]),
    'order-37/6 inter-iamb mi none': ('58c5aad187a5fad1', [3404, 27, 0]),
    'order-37/6 inter-iamb mi start-set': ('e65d44812fa025b6', [1480, 27, 0]),
    'order-37/6 inter-iamb mi legacy': ('f1fd04b86d863f71', [1453, 49, 0]),
    'order-37/6 mmpc mi none': ('534b91644f6ae5d9', [2863, 0]),
    'order-37/6 mmpc mi start-set': ('84070b57044e1457', [1641, 0]),
    'order-37/6 mmpc mi legacy': ('1d543f751ad85d41', [1611, 0]),
    'order-37/6 si-hiton-pc mi none': ('cfd743b6583605e3', [1364, 0]),
    'order-37/6 si-hiton-pc mi start-set': ('3d5fea7fe2ac4a21', [715, 0]),
    'order-37/6 si-hiton-pc mi legacy': ('4cee254678ed8ca4', [685, 0]),
    'order-37/7 gs mi none': ('2c881db11d61e50a', [3003, 25, 0]),
    'order-37/7 gs mi start-set': ('a1b314046093150e', [1231, 29, 0]),
    'order-37/7 gs mi legacy': ('0c1025a23a258bce', [1195, 48, 0]),
    'order-37/7 inter-iamb mi none': ('4da7d3d4cee7b6b0', [3885, 30, 0]),
    'order-37/7 inter-iamb mi start-set': ('4370766388dd625f', [1549, 33, 0]),
    'order-37/7 inter-iamb mi legacy': ('72079265c5148994', [1469, 45, 0]),
    'order-37/7 mmpc mi none': ('956d75fa503076dd', [3176, 0]),
    'order-37/7 mmpc mi start-set': ('8e4d9ca4440de01f', [1668, 0]),
    'order-37/7 mmpc mi legacy': ('93e97a25be94c7c1', [1638, 0]),
    'order-37/7 si-hiton-pc mi none': ('27b0f0091b3e848f', [1381, 0]),
    'order-37/7 si-hiton-pc mi start-set': ('6367b16795e8185f', [725, 0]),
    'order-37/7 si-hiton-pc mi legacy': ('7383609669da4d25', [695, 0]),
    'discrete-iamb gs mi none': ('01a317c3a60f17d0', [5847, 213, 0]),
    'discrete-iamb inter-iamb mi none': ('8167491a791e74a4', [11450, 248, 0]),
    'gauss-sihiton si-hiton-pc cor none': ('9863efd2e9479120', [66071, 0]),
    'gauss-14 gs cor none': ('9c6873318795dd1f', [543, 377, 0]),
    'gauss-14 inter-iamb cor none': ('3d346230a73a76f8', [1341, 456, 0]),
    'gauss-14 mmpc cor none': ('b54daf0cfb5825b0', [1551, 0]),
    'gauss-14 si-hiton-pc cor none': ('ec7a29cd2e842f68', [532, 0]),
}

@pytest.mark.parametrize("dataset_name, algorithm, test, mode", configurations(), ids=str)
def test_learn_matches_its_golden_digest(dataset_name, algorithm, test, mode):
    cfg = GlobalLearnConfig(algorithm=algorithm, test=test, backtracking=mode)
    check(learn_record(dataset(dataset_name), cfg), _key(dataset_name, algorithm, test, mode))


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_two_workers_reproduce_the_gaussian_digest(schedule):
    cfg = GlobalLearnConfig(algorithm="si-hiton-pc", test="cor", workers=2, schedule=schedule)
    check(learn_record(dataset("gauss-sihiton"), cfg), _key("gauss-sihiton", "si-hiton-pc", "cor", "none"))


TWO_WORKER_DISCRETE = [("discrete-iamb", algorithm) for algorithm in ("gs", "inter-iamb")]
TWO_WORKER_DISCRETE += [("order-37/0", algorithm) for algorithm in ALGORITHMS]


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("dataset_name, algorithm", TWO_WORKER_DISCRETE, ids=str)
def test_two_workers_reproduce_the_discrete_digests(dataset_name, algorithm, schedule):
    """Sepsets and member sets cross the lane pipe at k = 2; each run must
    reproduce its one-worker digest."""
    cfg = GlobalLearnConfig(algorithm=algorithm, test="mi", workers=2, schedule=schedule)
    check(learn_record(dataset(dataset_name), cfg), _key(dataset_name, algorithm, "mi", "none"))


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
        print(f"    {_key(*config)!r}: {pins(learn_record(dataset(name), cfg))!r},")
