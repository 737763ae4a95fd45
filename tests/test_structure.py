"""Pipeline tests: skeleton, orientation, propagation, backtracking modes."""

import pytest

from bnsl.citests import MutualInfoTest, OracleTest, make_engine
from bnsl.data import reverse_columns
from bnsl.graph import (
    Dag,
    Pdag,
    Skeleton,
    dag_to_cpdag,
    hamming_skeleton,
    unshielded_colliders,
)
from bnsl.local import SepsetTable, learn_nbr
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
        # Every task gets a fresh engine, so its memo never spans tasks and
        # the executed count does not depend on how tasks meet workers.
        if test == "cor":
            data = gaussian_sem_dataset(16, 400, 7, edge_prob=0.2)
        else:
            data = sample(random_discrete_network(12, seed=33, edge_prob=0.2, max_in_degree=2), 600, 5)
        outputs = []
        for k, schedule in ((1, "static"), (2, "static"), (2, "dynamic")):
            cfg = GlobalLearnConfig(algorithm=algorithm, test=test, workers=k, schedule=schedule)
            ex = ParallelExecutor(k, schedule)
            outputs.append((learn_cpdag(data, cfg, ex), ex.total_tests(), ex.total_executed()))
        assert outputs[0] == outputs[1] == outputs[2]
        _, requested, executed = outputs[0]
        assert 0 < executed < requested


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
