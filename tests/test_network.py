"""Discrete network tests: parameter counting and forward sampling.

Oracles here are independent of the implementation: parameter counts are
re-derived by enumerating CPT rows, and sampled marginals are compared with
exact marginals obtained by brute-force summation over the joint.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from bnsl.data import DiscreteDataset
from bnsl.graph import Dag
from bnsl.network import DiscreteBn, nparams, sample
from bnsl.synth import random_discrete_network


def three_node_bn():
    # X has parents Y and Z; all roots binary, X ternary.
    dag = Dag(["Y", "Z", "X"], [("Y", "X"), ("Z", "X")])
    levels = {"Y": ["y0", "y1"], "Z": ["z0", "z1"], "X": ["x0", "x1", "x2"]}
    table = np.array(
        [
            [0.2, 0.3, 0.5],
            [0.6, 0.2, 0.2],
            [0.1, 0.8, 0.1],
            [0.3, 0.3, 0.4],
        ]
    )
    cpts = {
        "Y": ((), np.array([[0.4, 0.6]])),
        "Z": ((), np.array([[0.7, 0.3]])),
        "X": (("Y", "Z"), table),
    }
    return DiscreteBn(dag, levels, cpts)


def chain_bn():
    dag = Dag(["A", "B"], [("A", "B")])
    levels = {"A": ["a0", "a1"], "B": ["b0", "b1"]}
    cpts = {
        "A": ((), np.array([[0.3, 0.7]])),
        "B": (("A",), np.array([[0.9, 0.1], [0.2, 0.8]])),
    }
    return DiscreteBn(dag, levels, cpts)


def exact_joint(bn):
    """Brute-force joint distribution over all configurations."""
    nodes = list(bn.dag.nodes)
    cards = [len(bn.levels[n]) for n in nodes]
    joint = {}
    for config in itertools.product(*[range(c) for c in cards]):
        assign = dict(zip(nodes, config))
        prob = 1.0
        for node in nodes:
            parents, table = bn.cpts[node]
            row = 0
            for p in parents:
                row = row * len(bn.levels[p]) + assign[p]
            prob *= table[row, assign[node]]
        joint[config] = prob
    return nodes, joint


def exact_marginal(bn, node):
    nodes, joint = exact_joint(bn)
    j = nodes.index(node)
    card = len(bn.levels[node])
    out = np.zeros(card)
    for config, prob in joint.items():
        out[config[j]] += prob
    return out


class TestNparams:
    def test_closed_formula_example(self):
        # (3 - 1) * 4 + 1 + 1 with two binary roots and a ternary child
        assert nparams(three_node_bn()) == 10

    def test_matches_cpt_cell_enumeration(self):
        for seed in range(12):
            bn = random_discrete_network(8, seed, edge_prob=0.3, max_in_degree=3)
            free = 0
            for node in bn.dag.nodes:
                _, table = bn.cpts[node]
                for row in table:
                    free += len(row) - 1
            assert nparams(bn) == free

    def test_invariant_under_relabeling(self):
        bn = three_node_bn()
        relabeled = DiscreteBn(
            Dag(["Y", "Z", "X"], [("Y", "X"), ("Z", "X")]),
            {"Y": ["u", "v"], "Z": ["p", "q"], "X": ["r", "s", "t"]},
            {n: bn.cpts[n] for n in bn.dag.nodes},
        )
        assert nparams(relabeled) == nparams(bn)


class TestCptValidation:
    def test_rows_must_sum_to_one(self):
        dag = Dag(["A"], [])
        with pytest.raises(ValueError):
            DiscreteBn(dag, {"A": ["x", "y"]}, {"A": ((), np.array([[0.5, 0.4]]))})

    def test_negative_probabilities_rejected(self):
        dag = Dag(["A"], [])
        with pytest.raises(ValueError):
            DiscreteBn(dag, {"A": ["x", "y"]}, {"A": ((), np.array([[1.2, -0.2]]))})

    def test_shape_must_match(self):
        dag = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(ValueError):
            DiscreteBn(
                dag,
                {"A": ["x", "y"], "B": ["u", "v"]},
                {"A": ((), np.array([[0.5, 0.5]])), "B": (("A",), np.array([[0.5, 0.5]]))},
            )

    def test_cpt_parents_must_match_the_graph(self):
        bn = chain_bn()
        with pytest.raises(ValueError, match="CPT parents for 'B' do not match the graph"):
            DiscreteBn(bn.dag, bn.levels, {**bn.cpts, "B": ((), np.array([[0.5, 0.5]]))})

    def test_levels_missing_a_node_rejected(self):
        bn = chain_bn()
        with pytest.raises(ValueError, match=r"missing \['B'\]"):
            DiscreteBn(bn.dag, {"A": bn.levels["A"]}, bn.cpts)

    def test_levels_with_an_extra_node_rejected(self):
        bn = chain_bn()
        with pytest.raises(ValueError, match=r"extra \['Z'\]"):
            DiscreteBn(bn.dag, {**bn.levels, "Z": ["z0", "z1"]}, bn.cpts)


class TestSampling:
    def test_degenerate_cpt_is_constant(self):
        dag = Dag(["A"], [])
        bn = DiscreteBn(dag, {"A": ["a0", "a1"]}, {"A": ((), np.array([[1.0, 0.0]]))})
        data = sample(bn, 100, 3)
        assert list(np.unique(data.column("A"))) == [0]

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            sample(chain_bn(), 0, 1)

    def test_same_seed_bit_identical(self):
        bn = three_node_bn()
        a = sample(bn, 500, 42)
        b = sample(bn, 500, 42)
        assert np.array_equal(a.codes, b.codes)
        c = sample(bn, 500, 43)
        assert not np.array_equal(a.codes, c.codes)

    def test_column_order_is_node_order(self):
        data = sample(three_node_bn(), 10, 0)
        assert data.names == ("Y", "Z", "X")

    def test_marginal_matches_exact_summation(self):
        n = 50000
        for bn in (chain_bn(), three_node_bn()):
            data = sample(bn, n, 11)
            for node in bn.dag.nodes:
                expect = exact_marginal(bn, node)
                counts = np.bincount(data.column(node), minlength=len(expect))
                for level, p in enumerate(expect):
                    bound = 3.0 * math.sqrt(p * (1.0 - p) / n)
                    assert abs(counts[level] / n - p) <= bound, (node, level)

    def test_disconnected_nodes_sample_independently(self):
        # G^2 on the 2x2 table stays below the chi2_1 0.999 quantile in at
        # least 99 of 100 seeds (documented flake budget, seeds are fixed).
        dag = Dag(["A", "B"], [])
        bn = DiscreteBn(
            dag,
            {"A": ["a0", "a1"], "B": ["b0", "b1"]},
            {"A": ((), np.array([[0.5, 0.5]])), "B": ((), np.array([[0.35, 0.65]]))},
        )
        cutoff = stats.chi2.ppf(0.999, 1)
        n = 50000
        ok = 0
        for seed in range(100):
            data = sample(bn, n, seed)
            table = np.zeros((2, 2))
            np.add.at(table, (data.column("A"), data.column("B")), 1)
            rows = table.sum(axis=1, keepdims=True)
            cols = table.sum(axis=0, keepdims=True)
            expected = rows * cols / n
            mask = table > 0
            g2 = 2.0 * (table[mask] * np.log(table[mask] / expected[mask])).sum()
            if g2 < cutoff:
                ok += 1
        assert ok >= 99

    def test_cpt_recovery_by_relative_frequency(self):
        # max-abs CPT estimation error at n = 100000 on three fixed networks
        nets = [chain_bn(), three_node_bn(), random_discrete_network(5, 77, edge_prob=0.4)]
        n = 100000
        for bn in nets:
            data = sample(bn, n, 5)
            for node in bn.dag.nodes:
                parents, table = bn.cpts[node]
                conf = np.zeros(n, dtype=np.int64)
                for p in parents:
                    conf = conf * len(bn.levels[p]) + data.column(p)
                for row in range(table.shape[0]):
                    mask = conf == row
                    if mask.sum() == 0:
                        continue
                    freq = np.bincount(
                        data.column(node)[mask], minlength=table.shape[1]
                    ) / mask.sum()
                    assert np.max(np.abs(freq - table[row])) <= 0.02, node
