"""Pipeline tests: skeleton, orientation, propagation, backtracking modes."""

import itertools
from collections import Counter

import pytest

from bnsl.citests import CiEngine, MutualInfoTest, OracleTest, make_engine
from bnsl.data import reverse_columns
from bnsl.graph import (
    Dag,
    Pdag,
    Skeleton,
    dag_to_cpdag,
    hamming_skeleton,
    unshielded_colliders,
)
from bnsl.local import LocalLearnConfig, SepsetTable, learn_mb, learn_nbr
from bnsl.network import sample
from bnsl.parallel import ParallelExecutor
from bnsl.structure import (
    ALGORITHMS,
    GlobalLearnConfig,
    learn_cpdag,
    learn_skeleton,
    orient_v_structures,
)
from bnsl.synth import gaussian_sem_dataset, random_dag, random_discrete_bn, random_discrete_network

COLLIDER = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
CHAIN = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])


def oracle_setup(dag, n=4, seed=0):
    bn = random_discrete_bn(dag, seed)
    return sample(bn, n, seed)


class TestLearnSkeleton:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_collider_skeleton(self, algorithm):
        data = oracle_setup(COLLIDER)
        cfg = GlobalLearnConfig(algorithm=algorithm, test="oracle")
        skel, seps = learn_skeleton(data, cfg, truth=COLLIDER)
        assert skel.edges == {("A", "C"), ("B", "C")}
        assert seps.get("A", "B") == frozenset()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_true_skeleton_on_random_dags(self, algorithm):
        for seed in range(10):
            dag = random_dag(9, 600 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_setup(dag)
            cfg = GlobalLearnConfig(algorithm=algorithm, test="oracle")
            skel, _ = learn_skeleton(data, cfg, truth=dag)
            assert skel == dag.skeleton(), seed

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GlobalLearnConfig(algorithm="pc").validate()
        with pytest.raises(ValueError):
            GlobalLearnConfig(algorithm="gs", backtracking="maybe").validate()
        with pytest.raises(ValueError):
            GlobalLearnConfig(algorithm="gs", workers=0).validate()
        with pytest.raises(ValueError):
            GlobalLearnConfig(algorithm="gs", alpha=2.0).validate()

    def test_backtracking_requires_single_worker(self):
        cfg = GlobalLearnConfig(algorithm="gs", backtracking="start-set", workers=2)
        with pytest.raises(ValueError, match="sequential"):
            cfg.validate()


class TestSymmetryCorrection:
    def test_asymmetric_candidate_dropped(self):
        from bnsl.structure import _symmetrize

        sets = {"A": frozenset({"B"}), "B": frozenset()}
        fixed = _symmetrize(["A", "B"], sets)
        assert fixed["A"] == frozenset()
        assert fixed["B"] == frozenset()


class TestOrientVStructures:
    def test_collider_triple_oriented(self):
        skel = Skeleton(["A", "B", "C"], [("A", "C"), ("B", "C")])
        seps = SepsetTable()
        seps.record("A", "B", frozenset())
        data = oracle_setup(COLLIDER)
        result = orient_v_structures(skel, seps, data, OracleTest(COLLIDER))
        assert result.pdag.directed_arcs == {("A", "C"), ("B", "C")}
        assert len(result.v_structures) == 1
        assert result.conflicts == 0

    def test_chain_triple_not_oriented(self):
        skel = Skeleton(["A", "B", "C"], [("A", "B"), ("B", "C")])
        seps = SepsetTable()
        seps.record("A", "C", frozenset({"B"}))
        data = oracle_setup(CHAIN)
        result = orient_v_structures(skel, seps, data, OracleTest(CHAIN))
        assert result.pdag.directed_arcs == frozenset()
        assert result.v_structures == []

    def test_missing_sepset_computed_on_demand(self):
        skel = Skeleton(["A", "B", "C"], [("A", "C"), ("B", "C")])
        data = oracle_setup(COLLIDER)
        result = orient_v_structures(skel, SepsetTable(), data, OracleTest(COLLIDER))
        assert result.pdag.directed_arcs == {("A", "C"), ("B", "C")}

    def test_finds_true_colliders_on_random_dags(self):
        for seed in range(15):
            dag = random_dag(10, 700 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_setup(dag)
            cfg = GlobalLearnConfig(algorithm="si-hiton-pc", test="oracle")
            skel, seps = learn_skeleton(data, cfg, truth=dag)
            result = orient_v_structures(skel, seps, data, OracleTest(dag))
            assert result.v_structures == unshielded_colliders(dag), seed
            assert result.conflicts == 0

    def test_conflicting_triples_first_wins(self):
        # B - C shared by two triples wanting opposite directions: the
        # sepsets are deliberately inconsistent (impossible under faithfulness).
        skel = Skeleton(["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("C", "D")])
        seps = SepsetTable()
        seps.record("A", "C", frozenset())   # wants A -> B <- C
        seps.record("B", "D", frozenset())   # wants B -> C <- D, conflicts on (B, C)
        data = oracle_setup(Dag(["A", "B", "C", "D"], []))
        result = orient_v_structures(skel, seps, data, OracleTest(Dag(["A", "B", "C", "D"], [])))
        assert ("C", "B") in result.pdag.directed_arcs  # first triple won
        assert result.conflicts == 1

    def test_missing_pair_searched_once(self):
        # A 4-cycle without recorded sepsets: each of the two non-adjacent
        # pairs has two common neighbours, and each is one task, searched
        # once for both of its triples.
        dag = Dag(["A", "B", "K1", "K2"], [("A", "K1"), ("A", "K2"), ("K1", "B"), ("K2", "B")])
        skel = dag.skeleton()
        assert len(skel.unshielded_triples()) == 4
        seps = SepsetTable()
        ex = ParallelExecutor(1)
        result = orient_v_structures(skel, seps, oracle_setup(dag), OracleTest(dag), ex)
        [phase] = ex.telemetry
        assert phase.reports[0].items == (("A", "B"), ("K1", "K2"))
        # (A, B): {}, {K1}, {K2}, {K1, K2} separates; (K1, K2): {}, {A} separates
        assert phase.test_count == 6
        assert seps.get("A", "B") == {"K1", "K2"}
        assert seps.get("K1", "K2") == {"A"}
        assert result.pdag.directed_arcs == {("K1", "B"), ("K2", "B")}

    def test_collider_closing_a_directed_cycle_is_a_conflict(self):
        # Empty sepsets for every non-adjacent pair make every unshielded
        # triple a collider. Four of them cannot be oriented: three would
        # reverse an arc already placed and one, N4 -> N0 <- N5, would close
        # the cycle N0 -> N1 -> N4 -> N0.
        nodes = [f"N{i}" for i in range(6)]
        edges = [("N0", "N1"), ("N0", "N3"), ("N0", "N4"), ("N0", "N5"),
                 ("N1", "N2"), ("N1", "N4"), ("N1", "N5"), ("N3", "N4")]
        skel = Skeleton(nodes, edges)
        seps = SepsetTable()
        for a, b in itertools.combinations(nodes, 2):
            if not skel.has_edge(a, b):
                seps.record(a, b, frozenset())
        empty = Dag(nodes, [])
        result = orient_v_structures(skel, seps, oracle_setup(empty), OracleTest(empty))
        assert result.conflicts == 4
        arcs = result.pdag.directed_arcs
        assert arcs == {("N0", "N1"), ("N1", "N4"), ("N2", "N1"), ("N3", "N0"),
                        ("N3", "N4"), ("N5", "N0"), ("N5", "N1")}
        Dag(nodes, arcs)  # acyclic

    def test_on_demand_search_without_a_separator_records_none(self):
        # A and B are adjacent in the truth but not in the skeleton: no
        # subset of either's neighbours separates them, so the pair is
        # recorded as None and A - K - B becomes a collider. B's pool is
        # A's, whose subsets the first search tested: they are not re-asked.
        truth = Dag(["A", "B", "K"], [("A", "B"), ("A", "K"), ("B", "K")])
        skel = Skeleton(["A", "B", "K"], [("A", "K"), ("B", "K")])
        seps = SepsetTable()
        ex = ParallelExecutor(1)
        result = orient_v_structures(skel, seps, oracle_setup(truth), OracleTest(truth), ex)
        assert ex.total_tests() == 2  # {} and {K}
        assert seps.has("A", "B") and seps.get("A", "B") is None
        assert result.pdag.directed_arcs == {("A", "K"), ("B", "K")}

    def test_a_negative_cap_is_rejected(self):
        # A -> C -> B with no recorded sepset: the search finds {C}, so the
        # triple is no collider. A negative cap would search nothing and
        # orient the false collider A -> C <- B.
        chain = Dag(["A", "B", "C"], [("A", "C"), ("C", "B")])
        skel = Skeleton(["A", "B", "C"], [("A", "C"), ("B", "C")])
        data = oracle_setup(chain)
        assert orient_v_structures(skel, SepsetTable(), data, OracleTest(chain)).v_structures == []
        with pytest.raises(ValueError, match="max_condition_size"):
            orient_v_structures(skel, SepsetTable(), data, OracleTest(chain), max_condition_size=-1)

    def test_inconsistent_inputs_rejected(self):
        skel = Skeleton(["A", "Z"], [])
        data = oracle_setup(CHAIN)
        with pytest.raises(ValueError):
            orient_v_structures(skel, SepsetTable(), data, OracleTest(CHAIN))


class TestLearnCpdag:
    def test_collider_recovered(self):
        data = oracle_setup(COLLIDER)
        cfg = GlobalLearnConfig(algorithm="gs", test="oracle")
        pdag = learn_cpdag(data, cfg, truth=COLLIDER)
        assert pdag.directed_arcs == {("A", "C"), ("B", "C")}

    def test_chain_fully_undirected(self):
        data = oracle_setup(CHAIN)
        cfg = GlobalLearnConfig(algorithm="gs", test="oracle")
        pdag = learn_cpdag(data, cfg, truth=CHAIN)
        assert pdag == dag_to_cpdag(CHAIN)
        assert pdag.directed_arcs == frozenset()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_oracle_equals_cpdag_oracle(self, algorithm):
        for seed in range(12):
            dag = random_dag(10, 800 + seed, edge_prob=0.25, max_in_degree=3)
            data = oracle_setup(dag)
            cfg = GlobalLearnConfig(algorithm=algorithm, test="oracle")
            assert learn_cpdag(data, cfg, truth=dag) == dag_to_cpdag(dag), seed


    def test_gaussian_cpdag_invariant_under_column_reversal(self):
        data = gaussian_sem_dataset(80, 500, 2)
        cfg = GlobalLearnConfig(algorithm="si-hiton-pc", test="cor")
        assert learn_cpdag(data, cfg) == learn_cpdag(reverse_columns(data), cfg)


class TestWorkerInvariance:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cpdag_and_counts_invariant(self, algorithm):
        bn = random_discrete_network(12, seed=31, edge_prob=0.2, max_in_degree=2)
        data = sample(bn, 800, 9)
        reference = None
        ref_tests = None
        for k in (1, 3):
            cfg = GlobalLearnConfig(algorithm=algorithm, test="mi", workers=k)
            ex = ParallelExecutor(k)
            pdag = learn_cpdag(data, cfg, ex)
            if reference is None:
                reference, ref_tests = pdag, ex.total_tests()
            else:
                assert pdag == reference
                assert ex.total_tests() == ref_tests

    def test_static_and_dynamic_agree(self):
        bn = random_discrete_network(10, seed=32, edge_prob=0.25, max_in_degree=2)
        data = sample(bn, 500, 4)
        outputs = []
        for schedule in ("static", "dynamic"):
            cfg = GlobalLearnConfig(algorithm="mmpc", test="mi", workers=3, schedule=schedule)
            ex = ParallelExecutor(3, schedule)
            outputs.append((learn_cpdag(data, cfg, ex), ex.total_tests()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("test, algorithm", [("cor", "si-hiton-pc"), ("mi", "mmpc")])
    def test_requested_and_executed_counts_invariant(self, test, algorithm):
        # Every task gets a fresh engine, and each requested test runs the
        # kernel once, so the one count does not depend on how tasks meet
        # workers.
        if test == "cor":
            data = gaussian_sem_dataset(16, 400, 7, edge_prob=0.2)
        else:
            data = sample(random_discrete_network(12, seed=33, edge_prob=0.2, max_in_degree=2), 600, 5)
        outputs = []
        for k, schedule in ((1, "static"), (2, "static"), (2, "dynamic")):
            cfg = GlobalLearnConfig(algorithm=algorithm, test=test, workers=k, schedule=schedule)
            ex = ParallelExecutor(k, schedule)
            outputs.append((learn_cpdag(data, cfg, ex), ex.total_tests()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][1] > 0


class TestBacktrackingModes:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_oracle_skeleton_invariant_under_start_set(self, algorithm):
        for seed in range(8):
            dag = random_dag(9, 900 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_setup(dag)
            plain = learn_skeleton(
                data, GlobalLearnConfig(algorithm=algorithm, test="oracle"), truth=dag
            )[0]
            backed = learn_skeleton(
                data,
                GlobalLearnConfig(algorithm=algorithm, test="oracle", backtracking="start-set"),
                truth=dag,
            )[0]
            assert backed == plain, (seed, algorithm)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_oracle_legacy_mode(self, algorithm):
        # Legacy whitelisting enforces symmetry by construction, so the
        # one-sided false positives of the neighbourhood backends become
        # hard edges: the skeleton may gain edges but never loses true ones.
        # Blanket backends learn exact per-node sets, so they stay exact.
        for seed in range(8):
            dag = random_dag(9, 900 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_setup(dag)
            backed = learn_skeleton(
                data,
                GlobalLearnConfig(algorithm=algorithm, test="oracle", backtracking="legacy"),
                truth=dag,
            )[0]
            if algorithm in ("gs", "inter-iamb"):
                assert backed == dag.skeleton(), (seed, algorithm)
            else:
                assert backed.edges >= dag.skeleton().edges, (seed, algorithm)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_start_set_saves_tests(self, algorithm):
        bn = random_discrete_network(14, seed=21, edge_prob=0.2, max_in_degree=2)
        data = sample(bn, 600, 3)
        ex_none = ParallelExecutor(1)
        learn_skeleton(data, GlobalLearnConfig(algorithm=algorithm, test="mi"), ex_none)
        ex_back = ParallelExecutor(1)
        learn_skeleton(
            data,
            GlobalLearnConfig(algorithm=algorithm, test="mi", backtracking="start-set"),
            ex_back,
        )
        assert ex_back.total_tests() <= ex_none.total_tests()

    @pytest.mark.parametrize("algorithm", ["gs", "inter-iamb"])
    def test_backtracking_decides_each_pair_once(self, algorithm):
        # Every mode searches each in-blanket pair once, from the endpoint
        # that owns the smaller blanket: half the tests of searching it from
        # both endpoints.
        for seed in range(8):
            dag = random_dag(9, 900 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_setup(dag)
            counts = {}
            for mode in ("none", "start-set", "legacy"):
                ex = ParallelExecutor(1)
                cfg = GlobalLearnConfig(algorithm=algorithm, test="oracle", backtracking=mode)
                learn_skeleton(data, cfg, ex, truth=dag)
                [counts[mode]] = [t.test_count for t in ex.telemetry if t.phase == "pair-separation"]
                engine = make_engine("oracle", data, cfg.alpha, truth=dag)
                _, _, per_endpoint = per_endpoint_pair_separation(engine, reference_blankets(data, algorithm, mode, engine)[0])
                assert 2 * counts[mode] == per_endpoint, (seed, mode)
            assert counts["none"] == counts["start-set"] == counts["legacy"] > 0, (seed, counts)

    def test_start_set_phases_run_through_the_executor(self):
        bn = random_discrete_network(14, seed=21, edge_prob=0.2, max_in_degree=2)
        data = sample(bn, 600, 3)
        cfg = GlobalLearnConfig(algorithm="si-hiton-pc", test="mi", backtracking="start-set")
        ex = ParallelExecutor(1)
        learn_skeleton(data, cfg, ex)
        [phase] = ex.telemetry
        assert phase.phase == "neighbours"
        assert [r.items for r in phase.reports] == [(tuple(data.names),)]
        # The same sequential loop by hand on one engine.
        engine = make_engine("mi", data, cfg.alpha)
        names = list(data.names)
        found = {}
        for j, node in enumerate(names):
            seeds = frozenset(i for i in names[:j] if node in found[i])
            excluded = frozenset(names[:j]) - seeds
            found[node] = learn_nbr(data, node, cfg.local("si-hiton-pc", start=seeds, blacklist=excluded), engine)[0]
        assert ex.total_tests() == engine.counter.count > 0

    def test_blanket_backtracking_reports_both_phases(self):
        bn = random_discrete_network(14, seed=21, edge_prob=0.2, max_in_degree=2)
        data = sample(bn, 600, 3)
        ex = ParallelExecutor(1)
        learn_skeleton(data, GlobalLearnConfig(algorithm="gs", test="mi", backtracking="start-set"), ex)
        assert [t.phase for t in ex.telemetry] == ["markov-blankets", "pair-separation"]
        assert all(len(t.reports) == 1 and t.test_count > 0 for t in ex.telemetry)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_column_order_invariance_mode_none(self, algorithm):
        bn = random_discrete_network(12, seed=22, edge_prob=0.2, max_in_degree=2)
        for rep in range(3):
            data = sample(bn, 300, 50 + rep)
            cfg = GlobalLearnConfig(algorithm=algorithm, test="mi")
            skel, _ = learn_skeleton(data, cfg)
            rskel, _ = learn_skeleton(reverse_columns(data), cfg)
            assert hamming_skeleton(skel, rskel) == 0


def reference_blankets(data, algorithm, mode, engine):
    """The symmetrised blankets of the first phase, by hand: each node's
    blanket in column order, seeded in the backtracking modes with the
    earlier nodes that chose it (``start``, or ``whitelist`` in ``legacy``)
    and blacklisting the rest; and the witnessed sets merged first-wins in
    name order."""
    names = list(data.names)
    found, tables = {}, {}
    for k, node in enumerate(names):
        earlier = frozenset(names[:k] if mode != "none" else ())
        chose = frozenset(i for i in earlier if node in found[i])
        seeds = {"whitelist": chose} if mode == "legacy" else {"start": chose}
        found[node], tables[node] = learn_mb(data, node, LocalLearnConfig(algorithm, blacklist=earlier - chose, **seeds), engine)
    sepsets = {}
    for node in sorted(names):
        for pair, sep in tables[node].items():
            sepsets.setdefault(pair, sep)
    return {i: frozenset(j for j in found[i] if i in found[j]) for i in names}, sepsets


def per_endpoint_pair_separation(engine, blankets):
    """Pair separation as each endpoint deciding for itself: every endpoint
    of each in-blanket pair searches the subsets of the smaller blanket (the
    name-smaller endpoint's on a tie) minus the pair, by size and then in
    ``itertools.combinations`` order, and keeps the other endpoint iff none
    separates them; the two answers are intersected. Returns the
    neighbours, the separating sets (the name-smaller endpoint's first) and
    the number of tests requested."""
    kept, sepsets, requests = {}, {}, 0
    for x in sorted(blankets):
        kept[x] = set()
        for y in sorted(blankets[x]):
            a, b = sorted((x, y))
            pool = sorted((blankets[a] if len(blankets[a]) <= len(blankets[b]) else blankets[b]) - {a, b})
            for z in itertools.chain.from_iterable(itertools.combinations(pool, k) for k in range(len(pool) + 1)):
                requests += 1
                if engine.test(x, y, frozenset(z)).independent:
                    sepsets.setdefault((a, b), frozenset(z))
                    break
            else:
                kept[x].add(y)
    return {x: frozenset(y for y in kept[x] if x in kept[y]) for x in kept}, sepsets, requests


class TestPairSeparationReference:
    """Searching each in-blanket pair once, from its name-smaller endpoint,
    gives the neighbours and separating sets of the per-endpoint protocol in
    every backtracking mode."""

    @staticmethod
    def assert_matches_reference(data, algorithm, mode, test, truth=None):
        cfg = GlobalLearnConfig(algorithm=algorithm, test=test, backtracking=mode)
        skel, seps = learn_skeleton(data, cfg, truth=truth)
        engine = make_engine(test, data, cfg.alpha, truth=truth)
        blankets, expected = reference_blankets(data, algorithm, mode, engine)
        neighbours, pair_sepsets, _ = per_endpoint_pair_separation(engine, blankets)
        for pair, sep in pair_sepsets.items():
            expected.setdefault(pair, sep)
        assert {x: skel.neighbours(x) for x in data.names} == neighbours
        assert dict(seps.items()) == expected

    @pytest.mark.parametrize("mode", ["none", "start-set", "legacy"])
    @pytest.mark.parametrize("algorithm", ["gs", "inter-iamb"])
    def test_oracle_dags(self, algorithm, mode):
        for seed in range(8):
            dag = random_dag(9, 900 + seed, edge_prob=0.3, max_in_degree=3)
            data = oracle_setup(dag)
            self.assert_matches_reference(data, algorithm, mode, "oracle", dag)

    @pytest.mark.parametrize("mode", ["none", "start-set", "legacy"])
    @pytest.mark.parametrize("algorithm", ["gs", "inter-iamb"])
    def test_mi_samples(self, algorithm, mode):
        for seed in range(3):
            bn = random_discrete_network(12, 930 + seed, edge_prob=0.25, max_in_degree=3, max_levels=3)
            data = sample(bn, 400, seed)
            self.assert_matches_reference(data, algorithm, mode, "mi")


class OnlyTestEngine:
    """Engine proxy exposing only ``test``, ``spawn`` and ``counter``, as a
    tracing proxy does, so the learners test one candidate per call."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def counter(self):
        return self.inner.counter

    def test(self, x, y, z):
        return self.inner.test(x, y, z)

    def spawn(self):
        return OnlyTestEngine(self.inner.spawn())


class ProxyExecutor(ParallelExecutor):
    def run_phase(self, phase, items, task_fn, engine_factory):
        return super().run_phase(phase, items, task_fn, lambda: OnlyTestEngine(engine_factory()))


class TaskRecorder(OnlyTestEngine):
    """:class:`OnlyTestEngine` that keeps its task's ``(x, y, z)`` requests."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = []

    def test(self, x, y, z):
        self.calls.append((x, y, frozenset(z)))
        return self.inner.test(x, y, z)


class RecordingTaskExecutor(ParallelExecutor):
    """One-lane executor that gives every task a recorder of its own, kept in
    ``tasks[phase][item]``."""

    def __init__(self):
        super().__init__(1)
        self.tasks = {}

    def run_phase(self, phase, items, task_fn, engine_factory):
        recorders = self.tasks[phase] = {}

        def task(item, engine):
            recorders[item] = engine
            return task_fn(item, engine)

        return super().run_phase(phase, items, task, lambda: TaskRecorder(engine_factory()))


class TestPairOwnership:
    """Each in-blanket pair is searched once, in one task per node, by the
    endpoint that owns the smaller blanket (the name-smaller one on a tie),
    over its own blanket minus the pair, in every mode."""

    DATA = sample(random_discrete_network(14, seed=21, edge_prob=0.2, max_in_degree=2), 600, 3)

    @pytest.mark.parametrize("mode", ["none", "start-set"])
    @pytest.mark.parametrize("algorithm", ["gs", "inter-iamb"])
    def test_owner_of_the_smaller_blanket_searches(self, algorithm, mode):
        data, ex = self.DATA, RecordingTaskExecutor()
        cfg = GlobalLearnConfig(algorithm=algorithm, test="mi", backtracking=mode)
        learn_skeleton(data, cfg, ex)
        blankets, _ = reference_blankets(data, algorithm, mode, make_engine("mi", data, cfg.alpha))
        rank = {x: (len(blanket), x) for x, blanket in blankets.items()}
        pairs = {frozenset((x, y)) for x in blankets for y in blankets[x]}
        # The data hold pairs whose smaller blanket is the name-larger endpoint's.
        assert any(rank[max(pair)] < rank[min(pair)] for pair in pairs)
        tasks = ex.tasks["pair-separation"]
        assert sorted(tasks) == sorted(data.names)
        searched = Counter()
        for node, recorder in tasks.items():
            for x, y, z in recorder.calls:
                assert x == node and rank[x] < rank[y] and z <= blankets[x] - {y}, (node, x, y, z)
            searched.update({frozenset((x, y)) for x, y, _ in recorder.calls})
        assert searched == Counter(pairs)


class TestBatchedScans:
    @pytest.mark.parametrize("backtracking", ["none", "start-set"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_engine_without_test_many_gives_the_same_run(self, monkeypatch, algorithm, backtracking):
        batches = []
        test_many = CiEngine.test_many

        def spy(self, target, candidates, z):
            batches.append(len(candidates))
            return test_many(self, target, candidates, z)

        monkeypatch.setattr(CiEngine, "test_many", spy)
        dag = random_dag(9, 950, edge_prob=0.3, max_in_degree=3)
        cases = [
            (sample(random_discrete_network(12, seed=34, edge_prob=0.2, max_in_degree=2), 600, 6), "mi", None),
            (oracle_setup(dag), "oracle", dag),
        ]
        for data, test, truth in cases:
            cfg = GlobalLearnConfig(algorithm=algorithm, test=test, backtracking=backtracking)
            runs = []
            for ex in (ParallelExecutor(1), ProxyExecutor(1)):
                batches.clear()
                pdag = learn_cpdag(data, cfg, ex, truth=truth)
                runs.append((pdag, ex.total_tests(), len(batches)))
            plain, proxied = runs
            assert plain[:2] == proxied[:2], test
            # GS scans one candidate at a time: its grow step changes z.
            assert proxied[2] == 0 and (plain[2] > 0) == (algorithm != "gs"), test

    def test_local_config_backend_defaults_to_the_algorithm(self):
        cfg = GlobalLearnConfig(algorithm="mmpc", max_condition_size=2)
        assert cfg.local(start={"A"}) == cfg.local("mmpc", start={"A"})
        assert cfg.local().backend == "mmpc" and cfg.local("gs").backend == "gs"
        assert cfg.local().max_condition_size == 2


class TestMeekOnLearnedGraphs:
    def test_no_shielded_triple_oriented(self):
        # a fully connected triangle has no unshielded triples
        dag = Dag(["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")])
        data = oracle_setup(dag)
        cfg = GlobalLearnConfig(algorithm="gs", test="oracle")
        skel, seps = learn_skeleton(data, cfg, truth=dag)
        result = orient_v_structures(skel, seps, data, OracleTest(dag))
        assert result.v_structures == []
        assert result.pdag.directed_arcs == frozenset()

    def test_directed_part_always_acyclic(self):
        for seed in range(10):
            bn = random_discrete_network(10, seed=seed, edge_prob=0.3, max_in_degree=3)
            data = sample(bn, 200, seed)  # small n: noisy, conflict-prone
            cfg = GlobalLearnConfig(algorithm="mmpc", test="mi", alpha=0.05)
            pdag = learn_cpdag(data, cfg)
            Dag(pdag.nodes, pdag.directed_arcs)  # raises on a cycle


class TestConfigChecks:
    def test_negative_condition_cap_rejected_before_any_phase(self):
        cfg = GlobalLearnConfig(algorithm="si-hiton-pc", test="oracle", max_condition_size=-1)
        with pytest.raises(ValueError, match="max_condition_size"):
            cfg.validate()
        for k in (1, 2):
            ex = ParallelExecutor(k)
            cfg = GlobalLearnConfig(algorithm="gs", test="oracle", workers=k, max_condition_size=-1)
            with pytest.raises(ValueError, match="max_condition_size"):
                learn_cpdag(oracle_setup(COLLIDER), cfg, ex, truth=COLLIDER)
            assert ex.telemetry == []

    def test_unknown_schedule_rejected_with_an_explicit_executor(self):
        cfg = GlobalLearnConfig(algorithm="gs", test="oracle", schedule="bogus")
        with pytest.raises(ValueError, match="bogus"):
            cfg.validate()
        ex = ParallelExecutor(1)
        with pytest.raises(ValueError, match="bogus"):
            learn_cpdag(oracle_setup(COLLIDER), cfg, ex, truth=COLLIDER)
        assert ex.telemetry == []


class TestOnDemandVStructuresInParallel:
    def test_empty_sepset_table_same_at_every_k_and_schedule(self):
        # Orienting a learned skeleton from no recorded sepsets sends every
        # unshielded pair through the on-demand search phase.
        data = gaussian_sem_dataset(16, 400, 7, edge_prob=0.2)
        skel, _ = learn_skeleton(data, GlobalLearnConfig(algorithm="si-hiton-pc", test="cor"))
        missing = sorted({(a, b) for a, _, b in skel.unshielded_triples()})
        assert len(missing) > 2
        outputs = []
        for k, schedule in ((1, "static"), (2, "static"), (2, "dynamic")):
            seps = SepsetTable()
            ex = ParallelExecutor(k, schedule)
            result = orient_v_structures(skel, seps, data, make_engine("cor", data, 0.01), ex)
            [phase] = ex.telemetry
            searched = [pair for report in phase.reports for pair in report.items]
            assert sorted(searched) == missing and len(searched) == len(set(searched))
            assert [pair for pair, _ in seps.items()] == missing
            outputs.append((result.pdag, result.v_structures, result.conflicts, list(seps.items()), phase.test_count))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][1] and outputs[0][4] > 0
