"""Golden digests of whole learns, pinned across commits.

Each configuration runs the three steps of ``learn_cpdag`` (skeleton,
v-structures, Meek's rules) and is pinned twice. One digest hashes a
canonical JSON of what they produced: the CPDAG's arcs and edges, the
sorted ``SepsetTable`` items, the accepted v-structures and the conflict
count. Beside it, each phase's test total is pinned as a plain integer,
and the phases' names are checked against the algorithm's, so a change
that only asks fewer (or more) tests shows as that, with the outputs
still checked by the digest. Float statistics are never hashed: their
last bits may differ under another libm or numpy build, while structure
and counts change only when a test crosses alpha or a learner changes.

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
from bnsl.local import MB_BACKENDS
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
        "phases": [[t.phase, t.test_count] for t in executor.telemetry],
    }


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pins(record: dict) -> tuple[str, list[int]]:
    """(digest of the outputs, per-phase test counts) of one learn's record."""
    outputs = {key: value for key, value in record.items() if key != "phases"}
    return digest(outputs), [count for _, count in record["phases"]]


def check(record: dict, key: str) -> None:
    """Compare a learn's pins with the golden ones, outputs first."""
    algorithm = key.split()[1]
    assert [phase for phase, _ in record["phases"]] == PHASES[algorithm in MB_BACKENDS]
    got_digest, got_counts = pins(record)
    want_digest, want_counts = GOLDEN[key]
    assert got_digest == want_digest, "outputs differ"
    assert got_counts == want_counts, "test counts differ"


# The phases of a learn, by whether its algorithm learns Markov blankets.
PHASES = {
    True: ["markov-blankets", "pair-separation", "v-structures"],
    False: ["neighbours", "v-structures"],
}


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
    'order-37/0 gs mi none': ('da07d7e916ce67de', [1953, 18, 0]),
    'order-37/0 gs mi start-set': ('8f6b63a4edce09d5', [913, 18, 0]),
    'order-37/0 gs mi legacy': ('b1b32aa33eb2ff6b', [885, 38, 0]),
    'order-37/0 inter-iamb mi none': ('8488335e57bcd388', [2872, 17, 0]),
    'order-37/0 inter-iamb mi start-set': ('3fdab462ef78595b', [1247, 18, 0]),
    'order-37/0 inter-iamb mi legacy': ('6889030960fbd149', [1218, 37, 0]),
    'order-37/0 mmpc mi none': ('c5eb81eae4b21cf7', [2759, 0]),
    'order-37/0 mmpc mi start-set': ('ff2f4128008205ba', [1539, 0]),
    'order-37/0 mmpc mi legacy': ('b20bc6485348f528', [1515, 0]),
    'order-37/0 si-hiton-pc mi none': ('45083eb066ce69d4', [1364, 0]),
    'order-37/0 si-hiton-pc mi start-set': ('4431998289926c72', [709, 0]),
    'order-37/0 si-hiton-pc mi legacy': ('df82b7b360946d24', [685, 0]),
    'order-37/1 gs mi none': ('1f03a04059398a33', [2092, 25, 0]),
    'order-37/1 gs mi start-set': ('7805fea2ef72366f', [981, 28, 0]),
    'order-37/1 gs mi legacy': ('a67aab6f84360ba1', [943, 61, 0]),
    'order-37/1 inter-iamb mi none': ('745bde9aa899edcd', [3432, 29, 0]),
    'order-37/1 inter-iamb mi start-set': ('3b8dfdd69faaf61d', [1539, 34, 0]),
    'order-37/1 inter-iamb mi legacy': ('dbc688a4bfe342d2', [1463, 65, 0]),
    'order-37/1 mmpc mi none': ('0ad09d8fcd0d8b55', [3243, 0]),
    'order-37/1 mmpc mi start-set': ('c50158a4f1ef6606', [1861, 0]),
    'order-37/1 mmpc mi legacy': ('90409ba22dfa5264', [1818, 0]),
    'order-37/1 si-hiton-pc mi none': ('d908f093cd3a73d5', [1382, 0]),
    'order-37/1 si-hiton-pc mi start-set': ('53aaa75557bba661', [736, 0]),
    'order-37/1 si-hiton-pc mi legacy': ('b5f583cae8b2007d', [693, 0]),
    'order-37/2 gs mi none': ('79c65a70c1a4ac65', [1946, 18, 0]),
    'order-37/2 gs mi start-set': ('2f165e1b091d9c05', [894, 17, 0]),
    'order-37/2 gs mi legacy': ('8151853064041e1b', [870, 30, 0]),
    'order-37/2 inter-iamb mi none': ('55d10470fd18aec8', [2907, 16, 0]),
    'order-37/2 inter-iamb mi start-set': ('34f32c7df0f10b13', [1186, 17, 0]),
    'order-37/2 inter-iamb mi legacy': ('75321090ded9a778', [1159, 32, 0]),
    'order-37/2 mmpc mi none': ('fe22d3c7ea123ba0', [2655, 0]),
    'order-37/2 mmpc mi start-set': ('8a38f403ea087083', [1363, 0]),
    'order-37/2 mmpc mi legacy': ('2a3bf2dfa06732ec', [1342, 0]),
    'order-37/2 si-hiton-pc mi none': ('becb217743d03512', [1357, 0]),
    'order-37/2 si-hiton-pc mi start-set': ('954da57300bc9f12', [702, 0]),
    'order-37/2 si-hiton-pc mi legacy': ('499a345af46d1e18', [681, 0]),
    'order-37/3 gs mi none': ('dfbd8b268f01755e', [1920, 14, 0]),
    'order-37/3 gs mi start-set': ('73f78cf3c8fd5c3e', [938, 22, 0]),
    'order-37/3 gs mi legacy': ('7c590a92edeb1bc0', [912, 32, 0]),
    'order-37/3 inter-iamb mi none': ('b43657f608a554f5', [3013, 19, 0]),
    'order-37/3 inter-iamb mi start-set': ('1f2d5a57706fdcd0', [1286, 23, 0]),
    'order-37/3 inter-iamb mi legacy': ('9ebfa6786578e9d6', [1256, 35, 0]),
    'order-37/3 mmpc mi none': ('41d47e1275ed5130', [2898, 0]),
    'order-37/3 mmpc mi start-set': ('d41997346cc52020', [1634, 0]),
    'order-37/3 mmpc mi legacy': ('2022002af92eeea7', [1606, 0]),
    'order-37/3 si-hiton-pc mi none': ('59c13bb19e9fb09f', [1386, 0]),
    'order-37/3 si-hiton-pc mi start-set': ('8abe86763746e1ad', [730, 0]),
    'order-37/3 si-hiton-pc mi legacy': ('90cd43cacc9e4e23', [700, 0]),
    'order-37/4 gs mi none': ('cf3acfecdf5d6e00', [1827, 24, 0]),
    'order-37/4 gs mi start-set': ('0c5141a6b77f4aba', [909, 25, 0]),
    'order-37/4 gs mi legacy': ('41d1c98b3ac787c6', [885, 33, 0]),
    'order-37/4 inter-iamb mi none': ('4fff643348bb0df3', [2732, 16, 0]),
    'order-37/4 inter-iamb mi start-set': ('3a74c771b6a30e67', [1270, 24, 0]),
    'order-37/4 inter-iamb mi legacy': ('5ed40a02033d28e1', [1219, 29, 0]),
    'order-37/4 mmpc mi none': ('e55ccef48ce133d7', [2860, 0]),
    'order-37/4 mmpc mi start-set': ('d95a0fbcf7219db7', [1495, 0]),
    'order-37/4 mmpc mi legacy': ('d95a0fbcf7219db7', [1471, 0]),
    'order-37/4 si-hiton-pc mi none': ('33f167fcbeca99ab', [1379, 0]),
    'order-37/4 si-hiton-pc mi start-set': ('ffba67eca05e9895', [714, 0]),
    'order-37/4 si-hiton-pc mi legacy': ('ffba67eca05e9895', [690, 0]),
    'order-37/5 gs mi none': ('842a924b0be81c8a', [1998, 18, 0]),
    'order-37/5 gs mi start-set': ('331e8b41f9c2a525', [961, 21, 0]),
    'order-37/5 gs mi legacy': ('fa90714cac508480', [931, 45, 0]),
    'order-37/5 inter-iamb mi none': ('406860624cf490f0', [3012, 18, 0]),
    'order-37/5 inter-iamb mi start-set': ('1d47b9a62bdcfc82', [1385, 18, 0]),
    'order-37/5 inter-iamb mi legacy': ('039d5b61b591a017', [1323, 44, 0]),
    'order-37/5 mmpc mi none': ('3704579d0410dab6', [2933, 0]),
    'order-37/5 mmpc mi start-set': ('30de58b10d4a6962', [1698, 0]),
    'order-37/5 mmpc mi legacy': ('23b451001ac8d98e', [1664, 0]),
    'order-37/5 si-hiton-pc mi none': ('a481540a888c29b7', [1371, 0]),
    'order-37/5 si-hiton-pc mi start-set': ('a481540a888c29b7', [722, 0]),
    'order-37/5 si-hiton-pc mi legacy': ('1d940f574ba2e6f8', [688, 0]),
    'order-37/6 gs mi none': ('1fa4a5f56f4af4ff', [2100, 25, 0]),
    'order-37/6 gs mi start-set': ('fd579621aecfe1a5', [1017, 27, 0]),
    'order-37/6 gs mi legacy': ('d09660f8ddc5e76d', [986, 48, 0]),
    'order-37/6 inter-iamb mi none': ('7fec8b68e399f547', [3292, 27, 0]),
    'order-37/6 inter-iamb mi start-set': ('27cb7d8200b0dab5', [1412, 27, 0]),
    'order-37/6 inter-iamb mi legacy': ('2b589da958ea9490', [1397, 49, 0]),
    'order-37/6 mmpc mi none': ('f8bc4184870dfff9', [2863, 0]),
    'order-37/6 mmpc mi start-set': ('2e9f0ee8e14f9ace', [1641, 0]),
    'order-37/6 mmpc mi legacy': ('92fe7ed8a46d7a58', [1611, 0]),
    'order-37/6 si-hiton-pc mi none': ('73d56dbed68dc3d5', [1364, 0]),
    'order-37/6 si-hiton-pc mi start-set': ('73d56dbed68dc3d5', [715, 0]),
    'order-37/6 si-hiton-pc mi legacy': ('6b253fc3c0bafb6f', [685, 0]),
    'order-37/7 gs mi none': ('37650ac532ccd23d', [2378, 25, 0]),
    'order-37/7 gs mi start-set': ('b39312b3211b04de', [1034, 29, 0]),
    'order-37/7 gs mi legacy': ('16d73bfabd65bf7c', [1003, 48, 0]),
    'order-37/7 inter-iamb mi none': ('e880f6a8966b485a', [3747, 30, 0]),
    'order-37/7 inter-iamb mi start-set': ('61f9f6cd17062621', [1475, 33, 0]),
    'order-37/7 inter-iamb mi legacy': ('767e0fb4e3f8c5f8', [1411, 45, 0]),
    'order-37/7 mmpc mi none': ('a47eff673b2ad5d6', [3176, 0]),
    'order-37/7 mmpc mi start-set': ('5c129ff25364fd23', [1668, 0]),
    'order-37/7 mmpc mi legacy': ('63a5b5b4a22df155', [1638, 0]),
    'order-37/7 si-hiton-pc mi none': ('27216a2ec300f915', [1381, 0]),
    'order-37/7 si-hiton-pc mi start-set': ('27216a2ec300f915', [725, 0]),
    'order-37/7 si-hiton-pc mi legacy': ('ef7588649d9da166', [695, 0]),
    'discrete-iamb gs mi none': ('e033f087c507bcc7', [4507, 213, 0]),
    'discrete-iamb inter-iamb mi none': ('36d132af54101cdc', [11090, 248, 0]),
    'gauss-sihiton si-hiton-pc cor none': ('534cdf923a366275', [66071, 0]),
    'gauss-14 gs cor none': ('6dc83ced746646da', [468, 377, 0]),
    'gauss-14 inter-iamb cor none': ('2b0671c3254f7423', [1173, 456, 0]),
    'gauss-14 mmpc cor none': ('6bfa411f6d522054', [1551, 0]),
    'gauss-14 si-hiton-pc cor none': ('2d0733aca7aa64ba', [532, 0]),
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
