"""Per-node backend tests, mostly against the d-separation oracle.

With a perfect test and a faithful DAG the blanket backends must recover
the true Markov blanket exactly. Neighbourhood backends may keep one-sided
false positives (that is what the symmetry correction in the global
pipeline is for), so per-node they are checked as supersets of the true
neighbourhood whose symmetrised version is exact; see the four-node
counterexample below.
"""

import hashlib
import itertools

import numpy as np
import pytest

from bnsl import citests, local, structure
from bnsl.citests import MutualInfoTest, OracleTest
from bnsl.data import DiscreteDataset
from bnsl.graph import Dag, markov_blanket_of
from bnsl.local import (
    MB_BACKENDS,
    NBR_BACKENDS,
    LocalLearnConfig,
    SepsetTable,
    first_separator,
    learn_mb,
    learn_nbr,
    subsets_in_order,
)
from bnsl.network import sample
from bnsl.structure import ALGORITHMS, GlobalLearnConfig
from bnsl.synth import gaussian_sem_dataset, random_dag, random_discrete_bn, random_discrete_network


class RecordingEngine:
    """Engine proxy that remembers every (x, y, z) query; spawned engines
    share the record. It offers only ``test``, as name-only proxies do, so
    batched scans fall back to one call per candidate."""

    def __init__(self, inner, calls=None):
        self.inner = inner
        self.calls = [] if calls is None else calls

    @property
    def counter(self):
        return self.inner.counter

    @property
    def alpha(self):
        return self.inner.alpha

    def test(self, x, y, z):
        self.calls.append((x, y, frozenset(z)))
        return self.inner.test(x, y, z)

    def spawn(self):
        return type(self)(self.inner.spawn(), self.calls)


class BatchRecordingEngine(RecordingEngine):
    """:class:`RecordingEngine` that also passes ``test_many`` through and
    records a batch as one (target, candidates, z) query. A batch of no
    candidates requests no test and is not recorded."""

    def test_many(self, target, candidates, z):
        if candidates:
            self.calls.append((target, tuple(candidates), frozenset(z)))
        return self.inner.test_many(target, candidates, z)


def oracle_data(dag, n=4):
    """Tiny dataset carrying the DAG's variable names for the oracle test."""
    bn = random_discrete_bn(dag, 0)
    return sample(bn, n, 0)


def true_neighbours(dag, x):
    return frozenset(dag.parents(x) | dag.children(x))


def _nonempty_prefixes(seq):
    return [seq[: i + 1] for i in range(len(seq))]


CHAIN = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
COLLIDER = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
# One-sided false positive for neighbourhood backends: no subset of the
# candidates reachable from T separates T from V, but V's own search
# separates them given {C, S}; only the symmetry correction removes T - V.
ASYMMETRIC = Dag(["T", "C", "S", "V"], [("T", "C"), ("S", "C"), ("C", "V"), ("S", "V")])


class TestLearnMb:
    @pytest.mark.parametrize("backend", MB_BACKENDS)
    def test_two_isolated_variables(self, backend):
        dag = Dag(["T", "A"], [])
        data = oracle_data(dag)
        members, _ = learn_mb(data, "T", LocalLearnConfig(backend), OracleTest(dag))
        assert members == frozenset()

    @pytest.mark.parametrize("backend", MB_BACKENDS)
    def test_chain_and_collider(self, backend):
        cfg = LocalLearnConfig(backend)
        members, _ = learn_mb(oracle_data(CHAIN), "B", cfg, OracleTest(CHAIN))
        assert members == {"A", "C"}
        members, _ = learn_mb(oracle_data(COLLIDER), "A", cfg, OracleTest(COLLIDER))
        assert members == {"B", "C"}

    @pytest.mark.parametrize("backend", MB_BACKENDS)
    def test_exact_recovery_on_random_dags(self, backend):
        for seed in range(25):
            dag = random_dag(10, seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_data(dag)
            engine = OracleTest(dag)
            cfg = LocalLearnConfig(backend)
            for x in dag.nodes:
                members, _ = learn_mb(data, x, cfg, engine)
                assert members == markov_blanket_of(dag, x), (seed, backend, x)

    def test_wrong_backend_rejected(self):
        data = oracle_data(CHAIN)
        with pytest.raises(ValueError):
            learn_mb(data, "B", LocalLearnConfig("mmpc"), OracleTest(CHAIN))


class ScriptedEngine:
    """An inconsistent engine: every batched scan calls each candidate
    dependent, and every single test calls the pair independent. After
    ``max_scans`` scans it fails the test, so a loop that never ends shows
    as a failure, not a hang."""

    def __init__(self, max_scans=5):
        self.scans, self.max_scans = 0, max_scans

    def test_many(self, target, candidates, z):
        self.scans += 1
        assert self.scans <= self.max_scans, "the forward loop did not stop"
        return [citests.TestOutcome(10.0, 1, 0.0, False) for _ in candidates]

    def test(self, x, y, z):
        return citests.TestOutcome(0.0, 1, 1.0, True)


class TestForwardGuard:
    def test_a_member_set_seen_before_ends_the_forward_loop(self):
        # Inter-IAMB's scan adds A and its interleaved shrink drops A again,
        # which brings the member set back to the empty set it started from.
        data = DiscreteDataset([("A", ["0", "1"]), ("T", ["0", "1"])], np.zeros((2, 2), dtype=int))
        engine = ScriptedEngine()
        members, sepsets = learn_mb(data, "T", LocalLearnConfig("inter-iamb"), engine)
        assert members == frozenset() and engine.scans == 1
        assert sepsets.get("A", "T") == frozenset()


class TestLearnNbr:
    @pytest.mark.parametrize("backend", NBR_BACKENDS)
    def test_collider_neighbourhoods_and_sepsets(self, backend):
        cfg = LocalLearnConfig(backend)
        data = oracle_data(COLLIDER)
        engine = OracleTest(COLLIDER)
        members, seps = learn_nbr(data, "A", cfg, engine)
        assert members == {"C"}
        assert seps.get("A", "B") == frozenset()
        members, _ = learn_nbr(data, "C", cfg, engine)
        assert members == {"A", "B"}

    def test_mmpc_keeps_the_first_subset_among_equal_p_values(self):
        # D is independent of A given both {} and {B}, at p = 1 each time;
        # the first subset in order is the one recorded.
        dag = Dag(["A", "B", "D"], [("A", "B")])
        cfg = LocalLearnConfig("mmpc", start=frozenset({"B"}))
        members, seps = learn_nbr(oracle_data(dag), "A", cfg, OracleTest(dag))
        assert members == {"B"}
        assert seps.get("A", "D") == frozenset()

    @pytest.mark.parametrize("backend", NBR_BACKENDS)
    def test_superset_per_node_exact_after_symmetry(self, backend):
        for seed in range(25):
            dag = random_dag(10, 3000 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_data(dag)
            engine = OracleTest(dag)
            cfg = LocalLearnConfig(backend)
            results = {}
            for x in dag.nodes:
                members, _ = learn_nbr(data, x, cfg, engine)
                assert members >= true_neighbours(dag, x), (seed, backend, x)
                results[x] = members
            for x in dag.nodes:
                symmetric = frozenset(j for j in results[x] if x in results[j])
                assert symmetric == true_neighbours(dag, x), (seed, backend, x)

    @pytest.mark.parametrize("backend", NBR_BACKENDS)
    def test_known_one_sided_false_positive(self, backend):
        data = oracle_data(ASYMMETRIC)
        engine = OracleTest(ASYMMETRIC)
        cfg = LocalLearnConfig(backend)
        from_t, _ = learn_nbr(data, "T", cfg, engine)
        assert from_t == {"C", "V"}  # V survives: T's side cannot separate it
        from_v, _ = learn_nbr(data, "V", cfg, engine)
        assert from_v == {"C", "S"}  # but V's side never keeps T

    def test_wrong_backend_rejected(self):
        data = oracle_data(CHAIN)
        with pytest.raises(ValueError):
            learn_nbr(data, "B", LocalLearnConfig("gs"), OracleTest(CHAIN))


class TestStartWhitelistBlacklist:
    def test_paper_style_start_call(self):
        # start = {A, C}, blacklist = {B}: the candidate set begins at
        # {A, C} and B is never tested.
        dag = random_dag(6, 5, edge_prob=0.4, prefix="N")
        names = list(dag.nodes)
        target, a, b, c = names[3], names[0], names[1], names[2]
        data = oracle_data(dag)
        engine = RecordingEngine(OracleTest(dag))
        cfg = LocalLearnConfig(
            "si-hiton-pc", start=frozenset({a, c}), blacklist=frozenset({b})
        )
        learn_nbr(data, target, cfg, engine)
        assert all(b not in (x, y) for x, y, _ in engine.calls)

    def test_whitelist_is_forced_superset(self):
        dag = COLLIDER
        data = oracle_data(dag)
        cfg = LocalLearnConfig("si-hiton-pc", whitelist=frozenset({"A", "B"}))
        members, _ = learn_nbr(data, "C", cfg, OracleTest(dag))
        assert members >= {"A", "B"}
        # even when the whitelisted node is not a true neighbour
        cfg = LocalLearnConfig("si-hiton-pc", whitelist=frozenset({"B"}))
        members, _ = learn_nbr(data, "A", cfg, OracleTest(dag))
        assert "B" in members

    @pytest.mark.parametrize("backend", MB_BACKENDS + NBR_BACKENDS)
    def test_counter_equals_outcomes_produced(self, backend):
        dag = random_dag(8, 61, edge_prob=0.3, max_in_degree=3)
        data = oracle_data(dag)
        engine = RecordingEngine(OracleTest(dag))
        learner = learn_mb if backend in MB_BACKENDS else learn_nbr
        learner(data, dag.nodes[0], LocalLearnConfig(backend), engine)
        assert engine.counter.count == len(engine.calls) > 0

    @pytest.mark.parametrize("backend", MB_BACKENDS + NBR_BACKENDS)
    def test_blacklisted_nodes_never_tested(self, backend):
        dag = random_dag(8, 17, edge_prob=0.35, max_in_degree=3)
        data = oracle_data(dag)
        target = dag.nodes[0]
        banned = dag.nodes[1]
        engine = RecordingEngine(OracleTest(dag))
        cfg = LocalLearnConfig(backend, blacklist=frozenset({banned}))
        learner = learn_mb if backend in MB_BACKENDS else learn_nbr
        members, _ = learner(data, target, cfg, engine)
        assert banned not in members
        assert all(banned not in (x, y) for x, y, _ in engine.calls)

    @pytest.mark.parametrize("backend", MB_BACKENDS)
    def test_start_only_seeds_blanket_backends(self, backend):
        # With a perfect test the blanket output must not depend on the
        # start set at all: grow reaches the same fixpoint either way.
        for seed in range(8):
            dag = random_dag(8, 400 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_data(dag)
            engine = OracleTest(dag)
            target = dag.nodes[0]
            plain, _ = learn_mb(data, target, LocalLearnConfig(backend), engine)
            others = [n for n in dag.nodes if n != target]
            for start in ([others[0]], others[:3]):
                seeded, _ = learn_mb(
                    data, target, LocalLearnConfig(backend, start=frozenset(start)), engine
                )
                assert seeded == plain, (seed, backend, start)

    @pytest.mark.parametrize("backend", NBR_BACKENDS)
    def test_start_never_forces_neighbour_backends(self, backend):
        # Arbitrary seeds widen the subset search and may remove one-sided
        # false positives, so only the direction of the guarantee is tested:
        # true neighbours always survive, and seeding with nodes the run
        # discovers anyway changes nothing.
        for seed in range(8):
            dag = random_dag(8, 400 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_data(dag)
            engine = OracleTest(dag)
            target = dag.nodes[0]
            plain, _ = learn_nbr(data, target, LocalLearnConfig(backend), engine)
            truth = true_neighbours(dag, target)
            assert plain >= truth
            for start in _nonempty_prefixes(sorted(truth)):
                seeded, _ = learn_nbr(
                    data, target, LocalLearnConfig(backend, start=frozenset(start)), engine
                )
                assert seeded == plain, (seed, backend, start)
            others = [n for n in dag.nodes if n != target]
            for start in ([others[0]], others[:3]):
                seeded, _ = learn_nbr(
                    data, target, LocalLearnConfig(backend, start=frozenset(start)), engine
                )
                assert seeded >= truth, (seed, backend, start)

    def test_conflicting_sets_rejected(self):
        with pytest.raises(ValueError):
            LocalLearnConfig("gs", whitelist=frozenset("A"), blacklist=frozenset("A")).validate("T")
        with pytest.raises(ValueError):
            LocalLearnConfig("gs", start=frozenset("A"), blacklist=frozenset("A")).validate("T")
        with pytest.raises(ValueError):
            LocalLearnConfig("gs", start=frozenset("T")).validate("T")
        with pytest.raises(ValueError):
            LocalLearnConfig("nope").validate("T")


class TestSepsets:
    def test_every_recorded_sepset_replays(self):
        # Re-running the recorded test must return independence, both for
        # the oracle and for a finite-sample engine.
        dag = random_dag(9, 55, edge_prob=0.3, max_in_degree=3)
        bn = random_discrete_bn(dag, 55)
        data = sample(bn, 800, 55)
        engines = [OracleTest(dag), MutualInfoTest(data, alpha=0.01)]
        for engine in engines:
            for backend in MB_BACKENDS + NBR_BACKENDS:
                learner = learn_mb if backend in MB_BACKENDS else learn_nbr
                for target in dag.nodes:
                    members, seps = learner(
                        data, target, LocalLearnConfig(backend), engine
                    )
                    for (x, y), s in seps.items():
                        assert s is not None
                        assert engine.test(x, y, s).independent

    def test_sepset_table_merge_first_wins(self):
        a = SepsetTable()
        a.record("X", "Y", frozenset({"Z"}))
        b = SepsetTable()
        b.record("Y", "X", frozenset())
        b.record("X", "W", None)
        a.merge_first_wins(b)
        assert a.get("X", "Y") == {"Z"}
        assert a.get("W", "X") is None
        assert len(a) == 2

    def test_record_overwrites_a_pair_where_it_sits(self):
        table = SepsetTable()
        table.record("X", "Y", frozenset({"Z"}))
        table.record("Y", "X", None)
        assert len(table) == 1
        assert table.get("X", "Y") is None and table.get("Y", "X") is None
        assert list(table.items()) == [(("X", "Y"), None)]
        table.record("X", "Y", frozenset())
        assert len(table) == 1 and list(table.items()) == [(("X", "Y"), frozenset())]

    @pytest.mark.parametrize("held", [("X", "Y"), ("Y", "X")])
    @pytest.mark.parametrize("merged", [("X", "Y"), ("Y", "X")])
    def test_merge_first_wins_keeps_a_pair_held_under_either_endpoint(self, held, merged):
        table, other = SepsetTable(), SepsetTable()
        table.record(*held, frozenset({"first"}))
        other.record(*merged, None)
        other.record(merged[0], "W", frozenset())
        table.merge_first_wins(other)
        assert list(table.items()) == [(("W", merged[0]), frozenset()), (("X", "Y"), frozenset({"first"}))]
        assert len(table) == 2

    @pytest.mark.parametrize("backend", MB_BACKENDS + NBR_BACKENDS)
    def test_learner_tables_read_as_recorded_tables(self, backend):
        # A learner's table answers every lookup as a table that records the
        # same sets one pair at a time, and merges into a table the same way.
        data = sample(random_discrete_network(7, 808, edge_prob=0.35, max_levels=3), 400, 808)
        learner = learn_mb if backend in MB_BACKENDS else learn_nbr
        names = [*data.names, "NOPE"]
        seen = 0
        for target in data.names:
            others = [v for v in data.names if v != target]
            for kw in ({}, {"start": frozenset(data.names[:2]) - {target}}, {"blacklist": frozenset({data.names[-1]}) - {target}}):
                _, learned = learner(data, target, LocalLearnConfig(backend, **kw), MutualInfoTest(data, 0.05))
                assert isinstance(learned, SepsetTable)
                recorded = SepsetTable()
                for (x, y), sepset in learned.items():
                    assert target in (x, y)
                    recorded.record(target, y if x == target else x, sepset)
                seen += len(recorded)
                assert list(learned.items()) == list(recorded.items())
                assert len(learned) == len(recorded)
                for x, y in itertools.product(names, repeat=2):
                    assert learned.has(x, y) == recorded.has(x, y), (x, y)
                    if x == y:
                        assert not learned.has(x, y)
                    if recorded.has(x, y):
                        assert learned.get(x, y) is recorded.get(x, y)
                    else:
                        with pytest.raises(KeyError) as want:
                            recorded.get(x, y)
                        with pytest.raises(KeyError) as got:
                            learned.get(x, y)
                        assert got.value.args == want.value.args
                merged = []
                for table in (learned, recorded):
                    # Pre-seeded pairs with the target, held under either endpoint.
                    into = SepsetTable()
                    into.record(target, others[0], frozenset({"first"}))
                    into.record(others[-1], target, frozenset({"first"}))
                    into.merge_first_wins(table)
                    merged.append(list(into.items()))
                    pairs = {pair for pair, _ in table.items()} | {pair for pair, _ in merged[-1]}
                    assert [pair for pair, _ in merged[-1]] == sorted(pairs)
                assert merged[0] == merged[1]
                assert dict(merged[0])[tuple(sorted((target, others[-1])))] == {"first"}
        assert seen > 0

    def test_subsets_enumeration_order(self):
        got = list(subsets_in_order(["C", "A", "B"]))
        expected = [
            frozenset(),
            frozenset("A"),
            frozenset("B"),
            frozenset("C"),
            frozenset("AB"),
            frozenset("AC"),
            frozenset("BC"),
            frozenset("ABC"),
        ]
        assert got == expected
        capped = list(subsets_in_order(["A", "B", "C"], cap=1))
        assert capped == expected[:4]


class TestFirstSeparator:
    # X -> M1 -> M2 -> Y: each of M1 and M2 alone separates X from Y; A is
    # isolated and separates nothing.
    CHAIN4 = Dag(["X", "M1", "M2", "Y", "A"], [("X", "M1"), ("M1", "M2"), ("M2", "Y")])

    def test_first_by_size_then_name(self):
        engine = OracleTest(self.CHAIN4)
        # Tried: {}, {A}, {M1}; {A, M1} would come first in plain
        # lexicographic order, and {M2} after {M1} by name.
        assert first_separator(engine, "X", "Y", ["M2", "M1", "A"]) == frozenset({"M1"})
        assert engine.counter.count == 3

    def test_none_when_nothing_separates(self):
        engine = OracleTest(COLLIDER)
        assert first_separator(engine, "A", "C", ["B"]) is None
        assert engine.counter.count == 2

    def test_empty_set_first(self):
        engine = OracleTest(COLLIDER)
        assert first_separator(engine, "A", "B", ["C"]) == frozenset()
        assert engine.counter.count == 1

    def test_cap_zero_tries_only_the_empty_set(self):
        engine = OracleTest(self.CHAIN4)
        assert first_separator(engine, "X", "Y", ["M1", "M2"], cap=0) is None
        assert engine.counter.count == 1
        engine = OracleTest(self.CHAIN4)
        assert first_separator(engine, "X", "Y", ["M1", "M2", "A"], cap=1) == frozenset({"M1"})
        assert engine.counter.count == 3


class TestSubsetOrder:
    """Separating-subset searches walk the subsets of a pool lazily, one size
    level at a time, and share one empty set."""

    # T and 32 other nodes, every one d-separated from T given the empty set.
    CHAIN30 = [f"S{i:02d}" for i in range(30)]
    WIDE = Dag(["T", *CHAIN30, "W0", "W1"], list(zip(CHAIN30, CHAIN30[1:])))
    START = frozenset(CHAIN30)

    @pytest.fixture
    def bounded_combinations(self, monkeypatch):
        """Fail at once, instead of running for ever, if a search draws more
        than a few thousand subsets."""
        drawn = []

        def counting(pool, size):
            for combo in itertools.combinations(pool, size):
                drawn.append(combo)
                assert len(drawn) < 5000, "subsets drawn past the levels the searches reach"
                yield combo

        monkeypatch.setattr(local, "combinations", counting, raising=False)
        return drawn

    def test_a_thirty_member_pool_stops_at_the_empty_set(self, bounded_combinations):
        engine = OracleTest(self.WIDE)
        assert first_separator(engine, "T", "W0", self.START) == frozenset()
        assert engine.counter.count == 1

    @pytest.mark.parametrize("backend", NBR_BACKENDS)
    def test_a_thirty_node_start_set_is_searched_lazily(self, backend, bounded_combinations):
        # 2^30 subsets per search if any level were built before a search
        # reaches it. MMPC's forward scan walks every subset of its members,
        # so only SI-HITON-PC sees candidates outside the start set.
        engine = OracleTest(self.WIDE)
        blacklist = frozenset({"W0", "W1"}) if backend == "mmpc" else frozenset()
        cfg = LocalLearnConfig(backend, start=self.START, blacklist=blacklist)
        members, seps = learn_nbr(oracle_data(self.WIDE), "T", cfg, engine)
        assert members == frozenset()
        searched = [v for v in self.WIDE.nodes if v not in {"T"} | blacklist]
        assert len(seps) == len(searched) and all(seps.get("T", v) == frozenset() for v in searched)
        # One search test per member. SI-HITON-PC also scans its two other
        # candidates given the empty set; both test independent, so neither
        # is walked.
        assert engine.counter.count == (30 if backend == "mmpc" else 30 + 2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_empty_sepset_is_one_object(self, algorithm):
        data = gaussian_sem_dataset(16, 400, 7, edge_prob=0.2)
        _, seps = structure.learn_skeleton(data, GlobalLearnConfig(algorithm, test="cor"))
        empties = [s for _, s in seps.items() if s == frozenset()]
        assert len(empties) >= 10
        assert all(s is empties[0] for s in empties)

    def test_skipping_a_member_walks_the_rest_in_order(self):
        # The backward pass tests member v against the target by walking the
        # members' order and skipping the subsets that hold v. That requests
        # exactly what a search over members - {v} requests.
        dag = random_dag(9, 17, edge_prob=0.4, max_in_degree=3)
        target, *pool = sorted(dag.nodes)
        for cap in (None, 0, 1, 2):
            order = local._SubsetOrder(pool, cap)
            for v in pool:
                shared, own = RecordingEngine(OracleTest(dag)), RecordingEngine(OracleTest(dag))
                assert order.first(shared, target, v, skip=v) == first_separator(own, target, v, set(pool) - {v}, cap)
                assert shared.calls == own.calls
            assert list(order) == list(subsets_in_order(pool, cap))


def _digest(calls, results) -> str:
    """sha256 of the recorded queries and the learned results, with every
    set sorted so that the digest does not depend on string hashing."""
    calls = [(x, y, sorted(z)) for x, y, z in calls]
    results = [
        (sorted(members), [(pair, None if s is None else sorted(s)) for pair, s in seps.items()])
        for members, seps in results
    ]
    return hashlib.sha256(repr((calls, results)).encode()).hexdigest()


class TestRequestSequence:
    """The exact tests each learner requests, in order and in batches.

    The digests were recorded from the learners as they stood when this
    test was written; a refactor that keeps outputs and counts but reorders,
    re-batches or adds a test changes them.
    """

    DATA = sample(random_discrete_network(7, 808, edge_prob=0.35, max_levels=3), 400, 808)

    LEARNER_DIGESTS = {
        ("gs", "batched"): "4ce2979d96a498b98958f6cfd95beb44bfd2e853ee23cac74ac1f270a838906a",
        ("gs", "single"): "4ce2979d96a498b98958f6cfd95beb44bfd2e853ee23cac74ac1f270a838906a",
        ("iamb", "batched"): "3dd161774db01a64ad5acb078d54b235033e2bc4b2b97c138c86d52d3b4a190f",
        ("iamb", "single"): "d71c31b710d391a5249b5708e4c8aa379e89dd5278507c2e0cc1122b7dfae61d",
        ("inter-iamb", "batched"): "60cb88b2ee6725462162426287b874669e0767690378ce02f1ac2478cb0f1271",
        ("inter-iamb", "single"): "689dec3c495085713235f7da0731a7a8572ce157a6e3407d56e193ae98a8d401",
        ("mmpc", "batched"): "01787b6096429c43623f2e73e6d8b15c7576a7ab7f687c361fd4f32147a391eb",
        ("mmpc", "single"): "86585b071a1c746b40b327ff1c3f51e1d379c5055849a550cb03166e3a32ea36",
        ("si-hiton-pc", "batched"): "a846f455ee1f7e9fc0a69e4e22f8ce59ed17d0ec42ef39fb2a842bb17a08b5b8",
        ("si-hiton-pc", "single"): "28e0ea87edfc10c72a7e60af79e77deff6f483a0fd17ea14d6344b3ffd1cdc84",
    }
    SKELETON_DIGESTS = {
        ("gs", "none"): "52a9b9d1101b7120ced7d4e9c8480d1820b17b84d7dce6125b614b69fdae3d97",
        ("gs", "start-set"): "56706ba9be06fbcf21bb6e57ce5ba642b09a42475a65e4bae26ee12ca7a1950d",
        ("inter-iamb", "none"): "c3caa28f41f272690d64897a1dc983d5f0e22d37cb6dacfe32a18f6a0354143a",
        ("inter-iamb", "start-set"): "f356b2b69935cc104bbaa5f09b16cf674e27c94b7b1a5e98cf86499a07244da6",
    }

    @pytest.mark.parametrize("backend, calls", sorted(LEARNER_DIGESTS))
    def test_learner_requests(self, backend, calls):
        data = self.DATA
        learner = learn_mb if backend in MB_BACKENDS else learn_nbr
        engine = (BatchRecordingEngine if calls == "batched" else RecordingEngine)(MutualInfoTest(data, alpha=0.05))
        results = []
        for target in data.names:
            a, b, c, d = [v for v in data.names if v != target][:4]
            seeds = [
                {},
                {"start": frozenset({a, d})},
                {"whitelist": frozenset({b}), "blacklist": frozenset({c})},
            ]
            for cap in (None, 2):
                for kw in seeds:
                    results.append(learner(data, target, LocalLearnConfig(backend, max_condition_size=cap, **kw), engine))
        assert _digest(engine.calls, results) == self.LEARNER_DIGESTS[(backend, calls)]

    @pytest.mark.parametrize("algorithm, mode", sorted(SKELETON_DIGESTS))
    def test_pair_separation_requests(self, algorithm, mode, monkeypatch):
        engine = BatchRecordingEngine(MutualInfoTest(self.DATA, alpha=0.05))
        monkeypatch.setattr(structure, "make_engine", lambda *args, **kwargs: engine)
        cfg = GlobalLearnConfig(algorithm=algorithm, alpha=0.05, backtracking=mode)
        skel, seps = structure.learn_skeleton(self.DATA, cfg)
        assert _digest(engine.calls, [(skel.edges, seps)]) == self.SKELETON_DIGESTS[(algorithm, mode)]


class EachTestRecordingEngine(RecordingEngine):
    """:class:`RecordingEngine` that also passes ``test_many`` through and
    records each candidate of a batch as one (target, candidate, z) query."""

    def test_many(self, target, candidates, z):
        self.calls.extend((target, v, frozenset(z)) for v in candidates)
        return self.inner.test_many(target, candidates, z)


class TestOncePerCall:
    """A neighbourhood learner asks each test at most once per call. MMPC
    keeps each candidate's weakest outcome, so the scan after an admission
    asks only the subsets that hold the new member. The backward pass skips
    the subsets a member's forward phase tested it against, and searches
    start-set seeds, which no scan tested, in full."""

    DATA = {
        "discrete": (sample(random_discrete_network(12, 33, edge_prob=0.3, max_levels=3), 600, 5), "mi"),
        "gauss-14": (gaussian_sem_dataset(14, 400, 7, edge_prob=0.3, max_in_degree=3), "cor"),
    }

    @pytest.mark.parametrize("cap", (None, 0, 1, 2), ids=str)
    @pytest.mark.parametrize("data_name", sorted(DATA))
    @pytest.mark.parametrize("backend", NBR_BACKENDS)
    def test_no_test_is_requested_twice_in_one_call(self, backend, data_name, cap):
        data, test = self.DATA[data_name]
        engine = structure.make_engine(test, data, 0.05)
        for target in data.names:
            a, b, c, d, e = [v for v in data.names if v != target][:5]
            for kw in ({}, {"start": frozenset({a, c, e})}, {"whitelist": frozenset({b, d})}):
                recorder = EachTestRecordingEngine(engine.spawn())
                learn_nbr(data, target, LocalLearnConfig(backend, max_condition_size=cap, **kw), recorder)
                asked = [(frozenset((x, y)), z) for x, y, z in recorder.calls]
                assert len(asked) == len(set(asked)), (target, kw)
                assert recorder.counter.count == recorder.counter.executed == len(asked) > 0
