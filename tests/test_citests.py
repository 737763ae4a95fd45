"""Conditional independence test verification.

Expected values were computed first with independent references (direct
formula evaluation in plain Python for G^2; regression residuals plus
scipy.stats.pearsonr for partial correlation) and are frozen below. The
brute-force oracles live in this file and never call the implementation.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bnsl import citests
from bnsl.citests import (
    MutualInfoTest,
    OracleTest,
    PartialCorrelationTest,
    cor_test,
    make_engine,
    mi_test,
    oracle_test,
)
from bnsl.data import ContinuousDataset, DiscreteDataset
from bnsl.graph import Dag
from bnsl.structure import GlobalLearnConfig, learn_cpdag
from bnsl.synth import random_dag


def dataset_from_table(table, x="X", y="Y"):
    """Build a two-variable discrete dataset realising the given counts."""
    xs, ys = [], []
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            xs.extend([i] * count)
            ys.extend([j] * count)
    codes = np.column_stack([xs, ys])
    levels_x = [f"x{i}" for i in range(len(table))]
    levels_y = [f"y{j}" for j in range(len(table[0]))]
    return DiscreteDataset([(x, levels_x), (y, levels_y)], codes)


def g2_oracle(data, x, y, z):
    """Plain-Python G^2 over nested dictionaries; written before mi_test."""
    zs = sorted(z)
    cells = {}
    for row in range(data.n):
        key = tuple(int(data.column(v)[row]) for v in zs)
        xv = int(data.column(x)[row])
        yv = int(data.column(y)[row])
        cells.setdefault(key, {}).setdefault((xv, yv), 0)
        cells[key][(xv, yv)] += 1
    terms = []
    for key, counts in cells.items():
        ns = sum(counts.values())
        row_tot = {}
        col_tot = {}
        for (xv, yv), c in counts.items():
            row_tot[xv] = row_tot.get(xv, 0) + c
            col_tot[yv] = col_tot.get(yv, 0) + c
        for (xv, yv), c in counts.items():
            if c > 0:
                expected = row_tot[xv] * col_tot[yv] / ns
                terms.append(c * math.log(c / expected))
    stat = 2.0 * math.fsum(terms)
    dof = (data.cardinality(x) - 1) * (data.cardinality(y) - 1)
    for v in zs:
        dof *= data.cardinality(v)
    return stat, dof


def partial_corr_oracle(values, ix, iy, iz):
    """Residual-regression partial correlation; written before cor_test."""
    x = values[:, ix]
    y = values[:, iy]
    if not iz:
        r, _ = stats.pearsonr(x, y)
        return float(r)
    design = np.column_stack([np.ones(len(x)), values[:, iz]])
    rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
    ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    r, _ = stats.pearsonr(rx, ry)
    return float(r)


class TestMiTest:
    def test_perfect_association(self):
        data = dataset_from_table([[10, 0], [0, 10]])
        out = mi_test(data, "X", "Y", frozenset(), alpha=0.01)
        assert out.statistic == pytest.approx(27.725887222397812, abs=1e-9)
        assert out.dof == 1
        assert out.p_value == pytest.approx(1.3977963343581475e-07, rel=1e-6)
        assert not out.independent

    def test_uniform_table_is_zero(self):
        data = dataset_from_table([[5, 5], [5, 5]])
        out = mi_test(data, "X", "Y", frozenset(), alpha=0.01)
        assert out.statistic == 0.0
        assert out.dof == 1
        assert out.p_value == 1.0
        assert out.independent

    def test_stratified_statistic_is_sum_of_strata(self):
        rng = np.random.default_rng(2)
        codes = np.column_stack(
            [rng.integers(0, 2, 300), rng.integers(0, 2, 300), rng.integers(0, 2, 300)]
        )
        data = DiscreteDataset(
            [("X", ["0", "1"]), ("Y", ["0", "1"]), ("Z", ["0", "1"])], codes
        )
        out = mi_test(data, "X", "Y", {"Z"}, alpha=0.01)
        assert out.dof == 2
        total = 0.0
        for zval in (0, 1):
            mask = data.column("Z") == zval
            sub = DiscreteDataset(
                [("X", ["0", "1"]), ("Y", ["0", "1"])],
                codes[mask][:, :2],
            )
            total += mi_test(sub, "X", "Y", frozenset(), alpha=0.01).statistic
        assert out.statistic == pytest.approx(total, abs=1e-9)

    def test_matches_plain_python_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(60):
            cards = [int(rng.integers(2, 5)) for _ in range(4)]
            n = int(rng.integers(30, 400))
            codes = np.column_stack([rng.integers(0, c, n) for c in cards])
            names = ["A", "B", "C", "D"]
            data = DiscreteDataset(
                [(nm, [str(k) for k in range(c)]) for nm, c in zip(names, cards)], codes
            )
            for z in ([], ["C"], ["C", "D"]):
                expected_stat, expected_dof = g2_oracle(data, "A", "B", z)
                out = mi_test(data, "A", "B", frozenset(z), alpha=0.05)
                assert out.dof == expected_dof
                assert out.statistic == pytest.approx(expected_stat, abs=1e-9, rel=1e-9)
                assert out.p_value == pytest.approx(
                    float(stats.chi2.sf(expected_stat, expected_dof)), abs=1e-12
                )

    def test_empty_strata_keep_their_dof(self):
        # Z level "2" never occurs; dof still counts all three levels.
        codes = np.column_stack(
            [np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])]
        )
        data = DiscreteDataset(
            [("X", ["0", "1"]), ("Y", ["0", "1"]), ("Z", ["0", "1", "2"])], codes
        )
        out = mi_test(data, "X", "Y", {"Z"}, alpha=0.01)
        assert out.dof == 3

    def test_zero_dof_returns_independent(self):
        codes = np.column_stack([np.zeros(5, dtype=int), np.arange(5) % 2])
        data = DiscreteDataset([("X", ["only"]), ("Y", ["0", "1"])], codes)
        out = mi_test(data, "X", "Y", frozenset(), alpha=0.01)
        assert out.independent and out.p_value == 1.0 and out.degenerate

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(4)
        codes = np.column_stack([rng.integers(0, 3, 200), rng.integers(0, 2, 200), rng.integers(0, 2, 200)])
        data = DiscreteDataset(
            [("A", ["0", "1", "2"]), ("B", ["0", "1"]), ("C", ["0", "1"])], codes
        )
        a = mi_test(data, "A", "B", {"C"}, alpha=0.01)
        b = mi_test(data, "B", "A", {"C"}, alpha=0.01)
        assert a == b

    def test_level_relabeling_invariance(self):
        # permuting level order (and renaming labels) must not change the
        # statistic, dof or p-value
        rng = np.random.default_rng(6)
        codes = np.column_stack([rng.integers(0, 3, 150), rng.integers(0, 2, 150)])
        data = DiscreteDataset([("A", ["0", "1", "2"]), ("B", ["0", "1"])], codes)
        perm = np.array([2, 0, 1])
        permuted = DiscreteDataset(
            [("A", ["u", "v", "w"]), ("B", ["yes", "no"])],
            np.column_stack([perm[codes[:, 0]], 1 - codes[:, 1]]),
        )
        a = mi_test(data, "A", "B", frozenset(), 0.01)
        b = mi_test(permuted, "A", "B", frozenset(), 0.01)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert (a.dof, a.independent) == (b.dof, b.independent)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        codes = np.column_stack([rng.integers(0, 2, 100), rng.integers(0, 3, 100)])
        data = DiscreteDataset([("A", ["0", "1"]), ("B", ["0", "1", "2"])], codes)
        perm = rng.permutation(100)
        shuffled = DiscreteDataset([("A", ["0", "1"]), ("B", ["0", "1", "2"])], codes[perm])
        assert mi_test(data, "A", "B", frozenset(), 0.01) == mi_test(
            shuffled, "A", "B", frozenset(), 0.01
        )

    def test_argument_errors(self):
        data = dataset_from_table([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            mi_test(data, "X", "X", frozenset(), 0.01)
        with pytest.raises(ValueError):
            mi_test(data, "X", "Q", frozenset(), 0.01)
        with pytest.raises(ValueError):
            mi_test(data, "X", "Y", {"X"}, 0.01)
        with pytest.raises(ValueError):
            mi_test(data, "X", "Y", frozenset(), 1.5)


class TestCorTest:
    def test_orthogonal_columns(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        data = ContinuousDataset(["X", "Y"], np.column_stack([x, y]))
        out = cor_test(data, "X", "Y", frozenset(), alpha=0.01)
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.p_value == pytest.approx(1.0)
        assert out.independent

    def test_identical_columns_dependent(self):
        x = np.arange(10.0)
        data = ContinuousDataset(["X", "Y"], np.column_stack([x, x]))
        out = cor_test(data, "X", "Y", frozenset(), alpha=0.01)
        assert math.isinf(out.statistic)
        assert out.p_value == 0.0
        assert not out.independent

    def test_five_point_reference_values(self):
        # Reference values from scipy.stats.pearsonr, computed beforehand.
        data = ContinuousDataset(
            ["X", "Y"],
            np.column_stack([[1.0, 2, 3, 4, 5], [2.0, 1, 4, 3, 6]]),
        )
        out = cor_test(data, "X", "Y", frozenset(), alpha=0.01)
        assert out.statistic == pytest.approx(2.5, abs=1e-9)
        assert out.dof == 3
        assert out.p_value == pytest.approx(0.08770664700806555, abs=1e-9)

    def test_matches_regression_oracle(self):
        rng = np.random.default_rng(20)
        for trial in range(60):
            n = int(rng.integers(20, 200))
            m = 6
            values = rng.standard_normal((n, m))
            # induce some correlation structure
            values[:, 1] += 0.5 * values[:, 0]
            values[:, 3] += 0.8 * values[:, 1] - 0.3 * values[:, 2]
            data = ContinuousDataset([f"V{i}" for i in range(m)], values)
            for z_idx in ([], [2], [2, 3], [2, 3, 4]):
                z = [f"V{i}" for i in z_idx]
                expected_r = partial_corr_oracle(values, 0, 1, z_idx)
                expected_t = expected_r * math.sqrt(
                    (n - len(z) - 2) / (1 - expected_r**2)
                )
                out = cor_test(data, "V0", "V1", frozenset(z), alpha=0.05)
                assert out.dof == n - len(z) - 2
                assert out.statistic == pytest.approx(expected_t, abs=1e-7, rel=1e-7)

    def test_degenerate_sample_size(self):
        data = ContinuousDataset(["X", "Y", "Z"], np.random.default_rng(0).standard_normal((3, 3)))
        out = cor_test(data, "X", "Y", {"Z"}, alpha=0.01)
        assert out.independent and out.degenerate

    def test_singular_submatrix_gets_ridged(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        values = np.column_stack([x, x.copy(), rng.standard_normal(50)])
        data = ContinuousDataset(["A", "B", "C"], values)
        out = cor_test(data, "C", "A", {"B"}, alpha=0.01)
        assert out.ridged or math.isinf(out.statistic)

    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((80, 3))
        data = ContinuousDataset(["A", "B", "C"], values)
        scaled = values.copy()
        scaled[:, 0] = 3.5 * scaled[:, 0] + 11.0
        scaled[:, 2] = 0.25 * scaled[:, 2] - 4.0
        data2 = ContinuousDataset(["A", "B", "C"], scaled)
        a = cor_test(data, "A", "B", {"C"}, 0.01)
        b = cor_test(data2, "A", "B", {"C"}, 0.01)
        assert abs(a.statistic) == pytest.approx(abs(b.statistic), rel=1e-9)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((50, 3))
        data = ContinuousDataset(["A", "B", "C"], values)
        assert cor_test(data, "A", "B", {"C"}, 0.01) == cor_test(data, "B", "A", {"C"}, 0.01)


class TestOracleEngine:
    def test_chain_query(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert oracle_test(dag, "A", "C", {"B"}).independent

    def test_collider_query(self):
        dag = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        assert not oracle_test(dag, "A", "B", {"C"}).independent

    def test_agrees_with_d_separation_exhaustively(self):
        from bnsl.graph import d_separated

        dag = random_dag(8, 123, edge_prob=0.3)
        names = list(dag.nodes)
        for x, y in itertools.combinations(names, 2):
            rest = [v for v in names if v not in (x, y)]
            for z in itertools.chain([()], itertools.combinations(rest, 1), itertools.combinations(rest, 2)):
                out = oracle_test(dag, x, y, frozenset(z))
                assert out.independent == d_separated(dag, x, y, set(z))


class TestCountersAndEngines:
    def test_counter_increments_once_per_call(self):
        data = dataset_from_table([[5, 5], [5, 5]])
        engine = MutualInfoTest(data, alpha=0.01)
        for expected in range(1, 6):
            engine.test("X", "Y", frozenset())
            assert engine.counter.count == expected
        engine.counter.reset()
        assert engine.counter.count == 0

    def test_spawn_gives_private_counter(self):
        data = dataset_from_table([[5, 5], [5, 5]])
        engine = MutualInfoTest(data, alpha=0.01)
        engine.test("X", "Y", frozenset())
        clone = engine.spawn()
        assert clone.counter.count == 0
        clone.test("X", "Y", frozenset())
        assert engine.counter.count == 1 and clone.counter.count == 1

    def test_make_engine_dispatch(self):
        data = dataset_from_table([[5, 5], [5, 5]])
        assert isinstance(make_engine("mi", data, 0.01), MutualInfoTest)
        cont = ContinuousDataset(["A", "B"], np.random.default_rng(0).standard_normal((10, 2)))
        assert isinstance(make_engine("cor", cont, 0.01), PartialCorrelationTest)
        dag = Dag(["A"], [])
        assert isinstance(make_engine("oracle", None, 0.01, truth=dag), OracleTest)
        with pytest.raises(ValueError):
            make_engine("oracle", data, 0.01)
        with pytest.raises(ValueError):
            make_engine("nope", data, 0.01)

    def test_every_engine_rejects_alpha_outside_the_unit_interval(self):
        data = dataset_from_table([[5, 5], [5, 5]])
        cont = ContinuousDataset(["X", "Y"], np.random.default_rng(0).standard_normal((10, 2)))
        dag = Dag(["X", "Y"], [])
        for alpha in (0.0, 1.0, 7.0, -0.5, math.nan):
            for build in (
                lambda: MutualInfoTest(data, alpha),
                lambda: PartialCorrelationTest(cont, alpha),
                lambda: OracleTest(dag, alpha),
                lambda: make_engine("oracle", data, alpha, truth=dag),
            ):
                with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                    build()

    def test_oracle_truth_must_cover_the_dataset(self):
        data = DiscreteDataset([(v, ["0", "1"]) for v in "ABCD"], np.zeros((4, 4), dtype=int))
        truth = Dag(["A", "B", "E"], [("A", "B")])
        with pytest.raises(ValueError, match="lacks dataset variables: 'C', 'D'"):
            make_engine("oracle", data, 0.01, truth=truth)
        # learn_cpdag fails before its first phase, not inside a task
        with pytest.raises(ValueError, match="lacks dataset variables: 'C', 'D'"):
            learn_cpdag(data, GlobalLearnConfig(algorithm="gs", test="oracle"), truth=truth)
        assert isinstance(make_engine("oracle", data, 0.01, truth=Dag([*"ABCDE"], [])), OracleTest)

    def test_counter_type(self):
        c = citests.TestCounter()
        c.increment()
        c.increment()
        assert c.count == 2


def bits(outcome):
    """Every field of an outcome, floats by their exact bit pattern."""
    return tuple(
        v.hex() if isinstance(v, float) else (type(v), v) for v in dataclasses.astuple(outcome)
    )


def random_queries(names, rng, count, max_z):
    """(x, y, z) queries that revisit earlier ones with x and y swapped and
    z given as a permuted tuple, a set or a frozenset."""
    queries = []
    for _ in range(count):
        if queries and rng.random() < 0.5:
            x, y, z = queries[int(rng.integers(len(queries)))]
            z = list(z)
            rng.shuffle(z)
            queries.append((y, x, [tuple, set, frozenset][int(rng.integers(3))](z)))
        else:
            pick = rng.permutation(names)[: 2 + int(rng.integers(0, max_z + 1))]
            queries.append((str(pick[0]), str(pick[1]), tuple(str(v) for v in pick[2:])))
    return queries


def asymmetric_continuous(seed, n=300, m=24):
    """Continuous data under shuffled names (name order is not column
    order) whose correlation matrix is not exactly symmetric; it holds an
    exactly collinear and an exactly anti-collinear pair."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, m)) * rng.uniform(0.1, 50.0, m)
    values[:, 1] += 0.7 * values[:, 0]
    values[:, 5] = 3.0 * values[:, 4] - 1.0
    values[:, 7] = -0.5 * values[:, 6]
    names = [f"V{j:02d}" for j in rng.permutation(m)]
    data = ContinuousDataset(names, values)
    assert (data.correlation != data.correlation.T).any()
    return data


class TestMemoisedEngine:
    def test_engines_match_standalone_tests_field_for_field(self):
        rng = np.random.default_rng(31)
        m = 9
        cards = [int(c) for c in rng.integers(2, 4, m)]
        codes = np.column_stack([rng.integers(0, c, 400) for c in cards])
        codes[:, 1] = (codes[:, 0] + codes[:, 2]) % cards[1]
        names = [f"D{j}" for j in rng.permutation(m)]
        discrete = DiscreteDataset(
            [(nm, [str(v) for v in range(c)]) for nm, c in zip(names, cards)], codes
        )
        continuous = asymmetric_continuous(32, m=m)
        dag = random_dag(m, 33, edge_prob=0.3)
        cases = [
            (MutualInfoTest(discrete, 0.05), lambda x, y, z: mi_test(discrete, x, y, z, 0.05)),
            (PartialCorrelationTest(continuous, 0.05), lambda x, y, z: cor_test(continuous, x, y, z, 0.05)),
            (OracleTest(dag), lambda x, y, z: oracle_test(dag, x, y, z)),
        ]
        for engine, reference in cases:
            names = list(engine.dag.nodes if isinstance(engine, OracleTest) else engine.data.names)
            queries = random_queries(names, rng, 300, max_z=4)
            for x, y, z in queries:
                assert bits(engine.test(x, y, z)) == bits(reference(x, y, z)), (engine.name, x, y, z)
            assert engine.counter.count == len(queries)
            distinct = {(frozenset((x, y)), frozenset(z)) for x, y, z in queries}
            assert engine.counter.executed == len(distinct)

    def test_marginal_table_matches_cor_test_for_every_pair(self):
        # Single z = {} tests, and each target's z = {} batch (read from the
        # target's correlations), equal cor_test bit for bit for every pair.
        data = asymmetric_continuous(41)
        engine = PartialCorrelationTest(data, 0.01)
        for x, y in itertools.permutations(data.names, 2):
            assert bits(engine.test(x, y, ())) == bits(cor_test(data, x, y, (), 0.01)), (x, y)
        for target in data.names:
            others = [v for v in data.names if v != target]
            got = PartialCorrelationTest(data, 0.01).test_many(target, others, ())
            want = [cor_test(data, target, v, (), 0.01) for v in others]
            assert list(map(bits, got)) == list(map(bits, want)), target
        names = data.names
        assert math.isinf(engine.test(names[4], names[5], ()).statistic)
        assert engine.test(names[6], names[7], ()).statistic == -math.inf

    def test_memo_hits_are_counted_as_requests(self):
        data = dataset_from_table([[5, 1], [2, 7]])
        engine = MutualInfoTest(data, alpha=0.01)
        first = engine.test("X", "Y", frozenset())
        assert engine.test("Y", "X", ()) is first
        assert engine.test("X", "Y", set()) is first
        assert (engine.counter.count, engine.counter.executed) == (3, 1)
        clone = engine.spawn()
        clone.test("X", "Y", ())
        assert (clone.counter.count, clone.counter.executed) == (1, 1)
        assert engine.counter.executed <= engine.counter.count

    def test_invalid_arguments_raise_on_every_call(self):
        discrete = dataset_from_table([[5, 1], [2, 7]])
        continuous = ContinuousDataset(["X", "Y"], np.random.default_rng(0).standard_normal((20, 2)))
        engines = [
            MutualInfoTest(discrete, 0.01),
            PartialCorrelationTest(continuous, 0.01),
            OracleTest(Dag(["X", "Y"], [("X", "Y")])),
        ]
        for engine in engines:
            engine.test("X", "Y", ())
            for _ in range(2):
                for x, y, z in [("X", "X", ()), ("X", "Q", ()), ("X", "Y", ("Y",)), ("X", "Y", ("Q",))]:
                    with pytest.raises(ValueError):
                        engine.test(x, y, z)
            assert (engine.counter.count, engine.counter.executed) == (1, 1)
        for standalone, data, alpha in ((mi_test, discrete, 1.5), (cor_test, continuous, 0.0)):
            for _ in range(2):
                with pytest.raises(ValueError, match="alpha"):
                    standalone(data, "X", "Y", (), alpha)

    def test_cor_engines_share_the_dataset_correlation_matrix(self):
        data = asymmetric_continuous(5)
        first = make_engine("cor", data, 0.01)
        second = make_engine("cor", data, 0.05)
        assert first.corr is second.corr is data.correlation
        assert first.spawn().corr is first.corr
        assert not data.correlation.flags.writeable
        np.testing.assert_array_equal(data.correlation, citests.correlation_matrix(data.values))


def wide_dataset(n, n_z):
    """A binary and a ternary variable plus ``n_z`` ternary conditioning
    variables; the ternary one copies the first conditioning variable 60%
    of the time."""
    rng = np.random.default_rng(n_z)
    cards = [2, 3] + [3] * n_z
    codes = np.column_stack([rng.integers(0, c, n) for c in cards])
    codes[:, 1] = np.where(rng.random(n) < 0.6, codes[:, 2], codes[:, 1])
    names = [f"V{j:02d}" for j in range(len(cards))]
    data = DiscreteDataset([(nm, [str(v) for v in range(c)]) for nm, c in zip(names, cards)], codes)
    return data, codes, cards, names


class TestWideConditioningSets:
    @pytest.mark.parametrize("n, n_z", [(500, 20), (200, 45)])
    def test_bounded_memory_and_reference_statistic(self, n, n_z):
        # 20 ternary variables would need a 3^20-stratum table, and 45 would
        # overflow int64 stratum codes; strata are re-coded to those observed.
        from test_acceptance import g2_reference

        data, codes, cards, names = wide_dataset(n, n_z)
        tracemalloc.start()
        try:
            out = mi_test(data, "V00", "V01", frozenset(names[2:]), alpha=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20, peak
        expected_stat, expected_dof = g2_reference(codes, cards, list(range(2, len(cards))))
        assert out.dof == expected_dof == 2 * 3**n_z
        assert out.statistic == pytest.approx(expected_stat, abs=1e-9)

    def test_batch_equals_single_test_past_int64_dof(self):
        # 2 * 3^45 degrees of freedom do not fit an int64.
        data, _, _, names = wide_dataset(200, 45)
        single = mi_test(data, "V00", "V01", frozenset(names[2:]), alpha=0.01)
        [batched] = MutualInfoTest(data, 0.01).test_many("V00", ["V01"], names[2:])
        assert single.dof == 2 * 3**45 and isinstance(batched.dof, int)
        assert batched == single


@pytest.mark.parametrize("kind", ["mi", "cor"])
def test_repeated_conditioning_variable_counts_once(kind):
    rng = np.random.default_rng(11)
    if kind == "mi":
        data = DiscreteDataset([(v, ["0", "1"]) for v in "XYZ"], rng.integers(0, 2, (500, 3)))
        test = mi_test
    else:
        data = ContinuousDataset(list("XYZ"), rng.normal(size=(500, 3)))
        test = cor_test
    assert test(data, "X", "Y", ("Z", "Z"), 0.01) == test(data, "X", "Y", ("Z",), 0.01)


class TestNullCalibration:
    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_rejection_rate_near_alpha(self, kind):
        # 2000 independent-pair datasets at n = 500; the empirical rejection
        # rate at alpha = 0.01 must sit inside [0.003, 0.03].
        rng = np.random.default_rng(77 if kind == "mi" else 78)
        n = 500
        rejections = 0
        reps = 2000
        for _ in range(reps):
            if kind == "mi":
                codes = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n)])
                data = DiscreteDataset([("X", ["0", "1"]), ("Y", ["0", "1"])], codes)
                out = mi_test(data, "X", "Y", frozenset(), alpha=0.01)
            else:
                values = rng.standard_normal((n, 2))
                data = ContinuousDataset(["X", "Y"], values)
                out = cor_test(data, "X", "Y", frozenset(), alpha=0.01)
            if not out.independent:
                rejections += 1
        rate = rejections / reps
        assert 0.003 <= rate <= 0.03, rate


def mixed_discrete(seed, n=60, m=14):
    """Discrete data under shuffled names with 1-, 2- and 3-level columns;
    column 1 copies column 2 on most rows so some tests reject."""
    rng = np.random.default_rng(seed)
    cards = [1, 2, 3] + [int(c) for c in rng.integers(2, 4, m - 3)]
    codes = np.column_stack([rng.integers(0, c, n) for c in cards])
    codes[:, 1] = np.where(rng.random(n) < 0.7, codes[:, 2] % 2, codes[:, 1])
    names = [f"D{j:02d}" for j in rng.permutation(m)]
    return DiscreteDataset([(nm, [str(v) for v in range(c)]) for nm, c in zip(names, cards)], codes)


class TestManyCandidates:
    @pytest.mark.parametrize("cap", [citests.BATCH_CELLS, 300])
    def test_mi_outcomes_equal_mi_test_field_for_field(self, monkeypatch, cap):
        # cap = 300 cuts every side into chunks of one to five candidates.
        monkeypatch.setattr(citests, "BATCH_CELLS", cap)
        data = mixed_discrete(51)
        names = sorted(data.names)
        ternary = sorted(v for v in names if len(data.levels(v)) == 3)
        target = names[len(names) // 2]
        for size in range(6):
            # Five ternary z variables give 243 > n = 60 strata: a re-code.
            z = frozenset([v for v in ternary if v != target][:size])
            candidates = [v for v in names if v != target and v not in z]
            assert min(candidates) < target < max(candidates)
            engine = MutualInfoTest(data, 0.05)
            for v, out in zip(candidates, engine.test_many(target, candidates, z)):
                assert bits(out) == bits(mi_test(data, target, v, z, 0.05)), (target, v, sorted(z))
            assert (engine.counter.count, engine.counter.executed) == (len(candidates), len(candidates))
        degenerate = data.names[0]
        out = MutualInfoTest(data, 0.05).test_many(target, [degenerate], ())[0]
        assert out.degenerate and bits(out) == bits(mi_test(data, target, degenerate, (), 0.05))

    def test_duplicates_and_memo_hits_count_as_repeated_tests(self):
        data = mixed_discrete(52)
        names = sorted(data.names)
        target, a, b, c = names[5], names[2], names[9], names[12]
        z = (names[0],)
        engine = MutualInfoTest(data, 0.05)
        first = engine.test(b, target, z)
        outs = engine.test_many(target, [a, b, a, c, b], z)
        assert outs[1] is first and outs[0] is outs[2] and outs[4] is first
        assert (engine.counter.count, engine.counter.executed) == (6, 3)
        assert engine.test(target, c, z) is outs[3]
        assert engine.test_many(target, [], z) == []
        assert (engine.counter.count, engine.counter.executed) == (7, 3)

    def test_cor_table_path_and_fallback_equal_cor_test(self):
        data = asymmetric_continuous(53)
        names = sorted(data.names)
        target = names[11]
        for z in [(), (names[3],), (names[3], names[20])]:
            candidates = [v for v in names if v != target and v not in z]
            engine = PartialCorrelationTest(data, 0.01)
            for v, out in zip(candidates, engine.test_many(target, candidates, z)):
                assert bits(out) == bits(cor_test(data, target, v, z, 0.01)), (target, v, z)
            assert engine.counter.executed == len(candidates)
        collinear = PartialCorrelationTest(data, 0.01).test_many(data.names[4], [data.names[5]], ())[0]
        assert math.isinf(collinear.statistic)

    def test_invalid_arguments_raise_on_every_call(self):
        discrete = dataset_from_table([[5, 1], [2, 7]])
        continuous = ContinuousDataset(["X", "Y"], np.random.default_rng(0).standard_normal((20, 2)))
        engines = [
            MutualInfoTest(discrete, 0.01),
            PartialCorrelationTest(continuous, 0.01),
            OracleTest(Dag(["X", "Y"], [("X", "Y")])),
        ]
        bad = [("X", ["X"], ()), ("X", ["Q"], ()), ("Q", ["Y"], ()), ("X", ["Y"], ("Y",)),
               ("X", ["Y"], ("X",)), ("X", ["Y"], ("Q",)), ("X", ["Y", "X"], ())]
        for engine in engines:
            engine.test_many("X", ["Y"], ())
            for _ in range(2):
                for target, candidates, z in bad:
                    with pytest.raises(ValueError):
                        engine.test_many(target, candidates, z)
            assert (engine.counter.count, engine.counter.executed) == (1, 1)
        for alpha in (1.5, 0.0):
            with pytest.raises(ValueError, match="alpha"):
                MutualInfoTest(discrete, alpha)

    def test_memory_is_bounded_whatever_the_candidate_count(self):
        # One chunk of 100 candidates at n = 20,000 would need 16 MB per
        # int64 array (a 60 MB peak); BATCH_CELLS caps the chunk instead.
        rng = np.random.default_rng(54)
        n, m = 20_000, 107
        names = [f"V{j:03d}" for j in range(m)]
        data = DiscreteDataset([(nm, ["0", "1", "2"]) for nm in names], rng.integers(0, 3, (n, m)))
        data.code_columns
        engine = MutualInfoTest(data, 0.01)
        tracemalloc.start()
        try:
            outs = engine.test_many(names[0], names[7:], names[1:7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(outs) == 100 and all(out.dof == 4 * 3**6 for out in outs)
        assert peak < 4 * 2**20, peak


def name_ordered(data):
    """The same data with its columns reordered into name order, so that a
    variable's rank in name order is its column."""
    order = sorted(range(len(data.names)), key=data.names.__getitem__)
    if isinstance(data, DiscreteDataset):
        return DiscreteDataset([data.variables[j] for j in order], data.codes[:, order])
    return ContinuousDataset([data.names[j] for j in order], data.values[:, order])


def integral_continuous(seed, n=150, m=12):
    """Continuous data under shuffled names whose correlation matrix is not
    exactly symmetric, yet is the same matrix, permuted, in any column
    order: small integers in rows of +/- pairs have integral means, so
    every covariance is exact."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-4, 5, (n, m)).astype(float)
    values[:, 1] += values[:, 0]
    values[:, 3] += 2.0 * values[:, 2] - values[:, 5]
    names = [f"C{j:02d}" for j in rng.permutation(m)]
    return ContinuousDataset(names, np.vstack([values, -values]))


class TestColumnPermutation:
    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_outcomes_equal_those_on_name_ordered_columns(self, kind):
        # Every field of every outcome, for single and batched tests, with
        # |z| from 0 to 4 (a z = {} cor batch reads the target's correlations),
        # is bit-equal to the outcome on the same data with its columns in
        # name order.
        data = mixed_discrete(61, n=200) if kind == "mi" else integral_continuous(62)
        ordered = name_ordered(data)
        assert ordered.names != data.names and sorted(ordered.names) == list(ordered.names)
        if kind == "cor":
            perm = [data.names.index(v) for v in ordered.names]
            assert (data.correlation != data.correlation.T).any()
            np.testing.assert_array_equal(ordered.correlation, data.correlation[np.ix_(perm, perm)])
        standalone = mi_test if kind == "mi" else cor_test
        names = list(ordered.names)
        rng = np.random.default_rng(63)
        engine, reference = make_engine(kind, data, 0.05), make_engine(kind, ordered, 0.05)
        for size in range(5):
            for _ in range(20):
                x, y, *z = (str(v) for v in rng.permutation(names)[: 2 + size])
                want = bits(reference.test(x, y, z))
                assert bits(engine.test(x, y, z)) == want, (x, y, z)
                assert bits(engine.test(y, x, frozenset(z))) == want, (y, x, z)
                assert bits(standalone(data, x, y, z, 0.05)) == want, (x, y, z)
            for target in (names[2], names[len(names) // 2], names[-3]):
                z = [str(v) for v in rng.permutation([v for v in names[1:-1] if v != target])[:size]]
                candidates = [v for v in names if v != target and v not in z]
                assert min(candidates) < target < max(candidates)
                got = make_engine(kind, data, 0.05).test_many(target, candidates, z)
                want = make_engine(kind, ordered, 0.05).test_many(target, candidates, z)
                assert list(map(bits, got)) == list(map(bits, want)), (target, z)

    def test_cor_engines_share_the_correlation_and_n2_is_degenerate(self):
        data = asymmetric_continuous(64)
        first = make_engine("cor", data, 0.01)
        second = make_engine("cor", data, 0.05)
        assert first.corr is second.corr is first.spawn().corr is data.correlation
        tiny = ContinuousDataset(["X", "Y", "Z"], [[0.0, 1.0, 2.0], [1.0, 0.5, 0.0]])
        engine = make_engine("cor", tiny, 0.01)
        for outcome in [engine.test("X", "Y", ()), *engine.test_many("Z", ["X", "Y"], ())]:
            assert outcome.degenerate and outcome.independent and (outcome.dof, outcome.p_value) == (0, 1.0)

    def test_outcome_is_slotted(self):
        out = mi_test(dataset_from_table([[5, 1], [2, 7]]), "X", "Y", (), 0.01)
        assert not hasattr(out, "__dict__")
        assert dataclasses.astuple(out)[3:] == (out.independent, False, False)
        assert out.ranking_key("Y") == (out.p_value, -abs(out.statistic), "Y")
