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
from scipy import special, stats
from scipy.special import cython_special

from bnsl import citests
from bnsl.citests import (
    MutualInfoTest,
    OracleTest,
    PartialCorrelationTest,
    cor_test,
    default_test,
    make_engine,
    mi_test,
    oracle_test,
)
from bnsl.data import ContinuousDataset, DiscreteDataset, correlation_matrix
from bnsl.graph import Dag
from bnsl.network import sample
from bnsl.parallel import ParallelExecutor
from bnsl.structure import ALGORITHMS, GlobalLearnConfig, learn_cpdag
from bnsl.synth import random_dag, random_discrete_network


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

    def test_large_n_within_rounding_of_an_fsum_reference(self):
        # The table form sums terms as large as n ln n, so its error grows
        # like eps * n * ln n; the contract is 16 times that.
        from test_acceptance import g2_reference

        n = 10**5
        rng = np.random.default_rng(12)
        zs = rng.integers(0, 4, n)
        xs = np.where(rng.random(n) < 0.1, zs % 3, rng.integers(0, 3, n))
        ys = np.where(rng.random(n) < 0.1, zs % 2, rng.integers(0, 2, n))
        codes = np.column_stack([xs, ys, zs])
        data = DiscreteDataset([("X", list("abc")), ("Y", list("ab")), ("Z", list("abcd"))], codes)
        expected_stat, expected_dof = g2_reference(codes, [3, 2, 4], [2])
        out = mi_test(data, "X", "Y", {"Z"}, alpha=0.01)
        assert out.dof == expected_dof
        assert abs(out.statistic - expected_stat) <= 16 * np.finfo(float).eps * n * math.log(n)

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

    def test_scalar_chdtrc_equals_the_ufunc(self):
        # A single test's scalar Cython chdtrc and a batch's ufunc give the
        # same p-values, bit for bit. A batch passes dof as float64, so dofs
        # past 2^63 enter both as floats.
        rng = np.random.default_rng(17)
        dofs = [1, 2, 3, 4, 8, 12, 18, 100, 1000, 35_100, 10**4, 10**5, 10**6, 2**63, 2**70]
        dofs += rng.integers(1, 10**6, 500).tolist()
        for dof in dofs:
            # Statistics from 0 to past 3 dof, where p falls from 1 to 0.
            xs = [0.0, 1e-300, 1e-8, math.inf, *(dof * rng.uniform(0, 3, 24)).tolist(),
                  *rng.exponential(10, 10).tolist()]
            ufunc = special.chdtrc(np.full(len(xs), dof, dtype=np.float64), np.array(xs)).tolist()
            for x, p in zip(xs, ufunc):
                assert cython_special.chdtrc(float(dof), x).hex() == p.hex(), (dof, x)


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

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("copy, of", [("C2", "C"), ("BC", "C"), ("D2", "D")])
    def test_a_redundant_conditioning_column_is_dropped(self, seed, copy, of):
        # The copy sorts right after its original (C2), before it (BC), or
        # last, past a cached prefix (D2). The factor drops whichever of the
        # two comes later in name order, which leaves the partial correlation
        # of the set without the copy, at the dof of the full set, flagged.
        rng = np.random.default_rng(seed)
        a, b, c, d, e = rng.standard_normal((5, 200))
        names = ["A", "B", "C", "D", "E", copy]
        values = np.column_stack([a + c, b, c, d, e, (c if of == "C" else d).copy()])
        data = ContinuousDataset(names, values)
        z3 = sorted(["C", "D", copy])
        cases = [("A", "B", tuple(z3[:2])), ("A", "B", tuple(z3)), ("E", "A", tuple(z3)), ("B", "E", tuple(z3))]
        for (x, y, z), out in zip(cases, assert_routes_agree(data, cases)):
            kept = sorted({of if v == copy else v for v in z})
            r = partial_corr_oracle(values, names.index(x), names.index(y), [names.index(v) for v in kept])
            dof = data.n - len(z) - 2
            assert (out.dof, out.ridged, out.degenerate) == (dof, len(kept) < len(z), False), (x, y, z)
            assert abs(out.statistic - r * math.sqrt(dof / (1.0 - r * r))) <= 1e-9, (x, y, z)

    @pytest.mark.parametrize("seed", range(8))
    def test_x_or_y_in_the_span_of_z_is_trivially_independent(self, seed):
        # X copies C and S = C + D: given a z holding C (and D for S), the
        # residual of X (or S) is rounding noise, and the outcome is the
        # degenerate independent one, whether |z| is 1 or more.
        rng = np.random.default_rng(seed)
        a, b, c, d = rng.standard_normal((4, 200))
        data = ContinuousDataset(["A", "B", "C", "D", "S", "X"], np.column_stack([a + c, b, c, d, c + d, c.copy()]))
        cases = [("X", "A", ("C",)), ("B", "X", ("C",)), ("X", "A", ("C", "D")), ("B", "X", ("A", "C", "D")),
                 ("S", "A", ("C", "D")), ("B", "S", ("C", "D")), ("S", "X", ("C", "D")), ("S", "B", ("A", "C", "D"))]
        for (x, y, z), out in zip(cases, assert_routes_agree(data, cases)):
            assert bits(out) == bits(citests.TestOutcome(0.0, data.n - len(z) - 2, 1.0, True, True)), (x, y, z)
        # S given C alone keeps a residual (D), so its tests are not degenerate.
        assert not cor_test(data, "S", "B", ("C",), 0.01).degenerate

    def test_constant_columns_are_flagged_degenerate(self):
        # A column of zeros, or of 0.1s (whose mean is off by an ulp), has no
        # defined correlation: both are set to 0. Every test of either,
        # single or batched, at any |z|, reads t = 0 and p = 1 and is
        # flagged; the other tests are not.
        rng = np.random.default_rng(12)
        values = rng.standard_normal((300, 6))
        values[:, 1] += values[:, 0]
        values[:, 2] = 0.0
        values[:, 3] = 0.1
        data = ContinuousDataset(["A", "B", "K0", "K1", "E", "F"], values)
        assert data.constant_columns == {2, 3}
        engine = PartialCorrelationTest(data, 0.01)
        for z in [(), ("E",), ("E", "F"), ("A", "E", "F")]:
            for x in ("K0", "K1"):
                others = [v for v in data.names if v != x and v not in z]
                for y, out in zip(others, engine.spawn().test_many(x, others, z)):
                    single = cor_test(data, y, x, z, 0.01)
                    assert out.degenerate and bits(out) == bits(single), (x, y, z)
                    assert bits(engine.test(x, y, z)) == bits(single), (x, y, z)
                    assert (abs(out.statistic), out.p_value) == (0.0, 1.0), (x, y, z)
            others = [v for v in ("B", "F") if v not in z]
            pairs = [cor_test(data, "A", v, z[1:], 0.01) for v in others]
            pairs += engine.spawn().test_many("A", others, z[1:])
            assert not any(out.degenerate for out in pairs), z

    def test_two_constant_columns_do_not_correlate(self):
        # Columns of 0.1s and 0.3s have means off by an ulp each; their
        # rounding noise alone would correlate them at exactly -1.
        values = np.random.default_rng(5).standard_normal((2000, 3))
        values[:, 0], values[:, 1] = 0.1, 0.3
        data = ContinuousDataset(["K1", "K3", "N"], values)
        np.testing.assert_array_equal(correlation_matrix(values)[:2], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        batch = PartialCorrelationTest(data, 0.01).test_many("K1", ["K3", "N"], ())
        for out in [cor_test(data, "K3", "K1", (), 0.01), *batch]:
            assert (out.statistic, out.p_value, out.independent, out.degenerate) == (0.0, 1.0, True, True)

    def test_scalar_stdtr_equals_the_ufunc(self):
        # _t_outcome's scalar Cython stdtr and _t_many's ufunc give the same
        # p-values, bit for bit, on integer degrees of freedom.
        dofs = [1, 2, 3, 5, 10, 30, 100, 1000, 10**4, 10**5, 10**6]
        ts = [0.0, -0.0, 1e-8, -1e-8, 40.0, -40.0, math.inf, -math.inf]
        for dof in dofs:
            for t in ts:
                scalar = 2.0 * cython_special.stdtr(float(dof), -abs(t))
                vector = float(2.0 * special.stdtr(np.array([dof]), -np.abs(np.array([t])))[0])
                assert scalar.hex() == vector.hex(), (dof, t)
        rng = np.random.default_rng(13)
        for dof, r in zip(rng.integers(1, 10**6, 2000).tolist(), rng.uniform(-1, 1, 2000).tolist()):
            assert bits(citests._t_outcome(r, dof, 0.05)) == bits(citests._t_many(np.array([r]), dof, 0.05)[0])

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

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e200, 1e300])
    def test_a_column_of_extreme_scale_tests_as_unscaled(self, scale):
        # Any finite column is valid data. Times 1e-170, A used to correlate
        # with B and C at exactly +-1; times 1e200, np.corrcoef overflowed
        # (an error under the suite's warnings filter) and zeroed A's row.
        values = np.random.default_rng(21).standard_normal((50, 4))
        values[:, 1] += 0.5 * values[:, 0]
        scaled = values.copy()
        scaled[:, 0] *= scale
        names = ["A", "B", "C", "D"]
        data, extreme = ContinuousDataset(names, values), ContinuousDataset(names, scaled)
        for x, y, z in [("A", "B", ()), ("A", "C", ("B",)), ("B", "C", ("A",)), ("A", "B", ("C", "D")), ("C", "D", ("A", "B"))]:
            want, got = cor_test(data, x, y, z, 0.01), cor_test(extreme, x, y, z, 0.01)
            assert abs(got.statistic - want.statistic) <= 1e-9, (x, y, z)
            assert abs(got.p_value - want.p_value) <= 1e-9, (x, y, z)
            assert (got.independent, got.degenerate, got.ridged) == (want.independent, want.degenerate, want.ridged)

    def test_power_of_two_column_scales_leave_the_matrix_bit_identical(self):
        from test_golden import dataset

        values = np.random.default_rng(22).standard_normal((50, 3))
        values[:, 1] += values[:, 0]
        want = correlation_matrix(values)
        for k in range(-900, 901, 50):
            scaled = values.copy()
            scaled[:, 0] = np.ldexp(scaled[:, 0], k)
            scaled[:, 2] = np.ldexp(scaled[:, 2], -k)
            assert correlation_matrix(scaled).tobytes() == want.tobytes(), k
        # The diagonal is exactly 1.0 whatever np.corrcoef rounds it to: on
        # the benchmark's Gaussian data in two row orders, and beside a
        # constant column and columns whose unscaled products overflow.
        gauss = dataset("gauss-sihiton").values
        matrices = [correlation_matrix(gauss[np.random.default_rng(seed).permutation(len(gauss))]) for seed in (1, 3)]
        for column, fill in [(0, 0.1), (2, 1e300), (2, 1.7e308)]:
            edited = values.copy()
            edited[:, column] = fill if column == 0 else edited[:, column] / np.abs(edited[:, column]).max() * fill
            matrices.append(correlation_matrix(edited))
        for corr in matrices:
            assert (np.diagonal(corr) == 1.0).all()

    def test_given_at_most_one_variable_equals_the_closed_forms(self):
        # The one formula over _solve does the closed forms' float operations
        # when z holds no variable or one, so every route equals them bit for
        # bit; each reads the name-smaller variable's row for r_xy.
        from test_golden import dataset

        data = dataset("gauss-sihiton")
        corr, index = data.correlation, data.column_index

        def closed_form(x, y, z):
            x, y = sorted((x, y))
            r = corr.item(index(x), index(y))
            if z:
                rxz, ryz = corr.item(index(x), index(z[0])), corr.item(index(y), index(z[0]))
                r = (r - rxz * ryz) / math.sqrt((1.0 - rxz * rxz) * (1.0 - ryz * ryz))
            dof = data.n - len(z) - 2
            t = r * math.sqrt(dof / (1.0 - r * r))
            p_value = 2.0 * cython_special.stdtr(float(dof), -abs(t))
            return bits(citests.TestOutcome(t, dof, p_value, p_value > 0.01))

        rng = np.random.default_rng(23)
        engine = PartialCorrelationTest(data, 0.01)
        for _ in range(2000):
            x, y, w, *z = (str(v) for v in rng.choice(data.names, 3 + int(rng.integers(2)), replace=False))
            want = closed_form(x, y, z)
            assert bits(cor_test(data, x, y, z, 0.01)) == want, (x, y, z)
            assert bits(engine.test(y, x, z)) == want, (x, y, z)
            batch = engine.spawn().test_many(x, [y, w], z)
            assert list(map(bits, batch)) == [want, closed_form(x, w, z)], (x, y, w, z)

    @pytest.mark.parametrize("case", ["larger", "smaller", "covariance"])
    def test_a_supplied_corr_must_be_a_correlation_matrix(self, case):
        # Every formula reads the diagonal as 1, so a matrix of another shape
        # or a covariance matrix would give a wrong t silently (or an
        # IndexError); it is refused instead.
        rng = np.random.default_rng(24)
        values = rng.standard_normal((100, 4)) * [1.0, 2.0, 3.0, 4.0]
        values[:, 1] += values[:, 0]
        data = ContinuousDataset(["A", "B", "C", "D"], values)
        corr = {
            "larger": correlation_matrix(np.column_stack([values, rng.standard_normal((100, 2))])),
            "smaller": correlation_matrix(values[:, :2]),
            "covariance": np.cov(values, rowvar=False),
        }[case]
        with pytest.raises(ValueError, match="correlation_matrix"):
            cor_test(data, "A", "B", ("C",), 0.01, corr=corr)
        own = correlation_matrix(values)
        assert bits(cor_test(data, "A", "B", ("C",), 0.01, corr=own)) == bits(cor_test(data, "A", "B", ("C",), 0.01))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((50, 3))
        data = ContinuousDataset(["A", "B", "C"], values)
        assert cor_test(data, "A", "B", {"C"}, 0.01) == cor_test(data, "B", "A", {"C"}, 0.01)


def queries_through(names, column, rng, count, max_z):
    """Random (x, y, z) queries; two in three hold ``column`` as x, y or a
    member of z."""
    queries = []
    for _ in range(count):
        pick = [str(v) for v in rng.permutation(names)[: 2 + int(rng.integers(0, max_z + 1))]]
        if column not in pick and rng.random() < 2 / 3:
            pick[int(rng.integers(len(pick)))] = column
        queries.append((pick[0], pick[1], tuple(pick[2:])))
    return queries


class TestMetamorphic:
    """Transformations of the benchmark datasets that a test must see
    through: the sign of a column, the order of the rows, the order of a
    variable's levels."""

    def test_negating_a_column_negates_t_and_nothing_else(self):
        from test_golden import dataset

        data = dataset("gauss-sihiton")
        rng = np.random.default_rng(51)
        column = data.names[int(rng.integers(len(data.names)))]
        values = data.values.copy()
        values[:, data.column_index(column)] *= -1.0
        negated = ContinuousDataset(data.names, values)
        for x, y, z in queries_through(data.names, column, rng, 600, 4):
            want, got = cor_test(data, x, y, z, 0.01), cor_test(negated, x, y, z, 0.01)
            sign = -1.0 if (x == column) != (y == column) else 1.0
            assert bits(got) == bits(dataclasses.replace(want, statistic=sign * want.statistic)), (x, y, z)

    def test_permuting_the_rows_leaves_g2_bit_identical(self):
        from test_golden import dataset

        data = dataset("discrete-iamb")
        rng = np.random.default_rng(52)
        shuffled = DiscreteDataset(data.variables, data.codes[rng.permutation(data.n)])
        for x, y, z in random_queries(data.names, rng, 300, 3):
            assert bits(mi_test(shuffled, x, y, z, 0.01)) == bits(mi_test(data, x, y, z, 0.01)), (x, y, z)

    def test_reversing_a_variables_levels_moves_g2_by_rounding_only(self):
        # The table cells are summed in another order, so the statistic may
        # change in its last bits.
        from test_golden import dataset

        data = dataset("discrete-iamb")
        rng = np.random.default_rng(53)
        column = next(name for name in data.names if data.cardinality(name) == 3)
        j = data.column_index(column)
        codes = data.codes.copy()
        codes[:, j] = 2 - codes[:, j]
        variables = [(name, levels[::-1] if name == column else levels) for name, levels in data.variables]
        reversed_levels = DiscreteDataset(variables, codes)
        for x, y, z in queries_through(data.names, column, rng, 300, 3):
            want, got = mi_test(data, x, y, z, 0.01), mi_test(reversed_levels, x, y, z, 0.01)
            assert abs(got.statistic - want.statistic) <= 1e-9, (x, y, z)
            assert abs(got.p_value - want.p_value) <= 1e-9, (x, y, z)
            assert (got.dof, got.independent, got.degenerate) == (want.dof, want.independent, want.degenerate)


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

    def test_each_data_engine_takes_its_own_kind_of_data(self):
        data = dataset_from_table([[5, 5], [5, 5]])
        cont = ContinuousDataset(["X", "Y"], np.random.default_rng(0).standard_normal((10, 2)))
        with pytest.raises(ValueError, match="requires discrete data"):
            MutualInfoTest(cont, 0.01)
        with pytest.raises(ValueError, match="requires continuous data"):
            PartialCorrelationTest(data, 0.01)
        assert (default_test(data), default_test(cont)) == ("mi", "cor")

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
        assert c.count == 0
        assert repr(c) == "TestCounter(0)"


def assert_routes_agree(data, cases):
    """The ``cor`` outcome of each (x, y, z) of ``cases``, checked to be the
    same bit for bit however it is reached: cold (``cor_test``), on one
    engine that met the cases before it (so z's solves may extend memoised
    ones), on a fresh engine with x and y swapped, and in a batch of every
    candidate for x given z."""
    engine = PartialCorrelationTest(data, 0.01)
    outs = []
    for x, y, z in cases:
        want = bits(cor_test(data, x, y, z, 0.01))
        assert bits(engine.test(x, y, z)) == want, (x, y, z)
        assert bits(PartialCorrelationTest(data, 0.01).test(y, x, z)) == want, (y, x, z)
        others = [v for v in data.names if v != x and v not in z]
        assert bits(engine.spawn().test_many(x, others, z)[others.index(y)]) == want, (x, y, z)
        outs.append(cor_test(data, x, y, z, 0.01))
    return outs


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
            assert engine.counter.count == 1
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


def chained_continuous(seed, n=2000, m=16):
    """Gaussian data under shuffled names where each column leans on a few
    earlier ones, so partial correlations given large sets differ from the
    marginal ones."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, m))
    for j in range(1, m):
        values[:, j] += values[:, :j] @ (rng.uniform(-0.7, 0.7, j) * (rng.random(j) < 0.3))
    return ContinuousDataset([f"G{j:02d}" for j in rng.permutation(m)], values)


class TestCorFactorCache:
    """Tests given two or more variables use forward solves against the
    Cholesky factor of corr[z, z], which an engine memoises per z and
    variable; a solve given z extends the one given z's leading columns."""

    def requests(self, data, rng):
        """(x, y, z) requests with |z| from 2 to 8 that reuse each z and its
        prefixes in name order, in a shuffled stream."""
        names = sorted(data.names)
        out = []
        for size in range(2, 9):
            for _ in range(3):
                z = sorted(str(v) for v in rng.choice(names, size, replace=False))
                for zz in [z] if size == 2 else [z, z[:-1]]:
                    rest = [v for v in names if v not in zz]
                    for _ in range(4):
                        x, y = (str(v) for v in rng.choice(rest, 2, replace=False))
                        out.append((x, y, tuple(zz)))
        rng.shuffle(out)
        return out

    def test_outcomes_are_bit_identical_however_they_are_reached(self):
        data = chained_continuous(81)
        rng = np.random.default_rng(82)
        stream = self.requests(data, rng)
        engine = PartialCorrelationTest(data, 0.01)
        for x, y, z in stream:
            want = bits(cor_test(data, x, y, z, 0.01))
            assert bits(engine.test(x, y, z)) == want, (x, y, z)
            assert bits(engine.test(y, x, list(reversed(z)))) == want, (y, x, z)
            assert bits(PartialCorrelationTest(data, 0.01).test(y, x, z)) == want, (y, x, z)
        names = list(data.names)
        for x, _, z in stream[::9]:
            candidates = [v for v in names if v != x and v not in z]
            batched = engine.spawn().test_many(x, candidates, z)
            assert list(map(bits, batched)) == [bits(cor_test(data, x, v, z, 0.01)) for v in candidates]
            assert list(map(bits, engine.test_many(x, candidates, z))) == list(map(bits, batched))

    def test_statistics_match_a_regression_reference(self):
        data = chained_continuous(83)
        values, index = data.values, data.column_index
        engine = PartialCorrelationTest(data, 0.01)
        for x, y, z in self.requests(data, np.random.default_rng(84)):
            r = partial_corr_oracle(values, index(x), index(y), [index(v) for v in z])
            dof = data.n - len(z) - 2
            out = engine.test(x, y, z)
            assert out.dof == dof
            assert abs(out.statistic - r * math.sqrt(dof / (1.0 - r * r))) <= 1e-9, (x, y, z)

    def test_spawn_starts_with_an_empty_cache(self):
        data = chained_continuous(85, n=200, m=8)
        engine = PartialCorrelationTest(data, 0.01)
        names = sorted(data.names)
        engine.test(names[0], names[1], names[2:4])
        first = dict(engine._solves)
        engine.test(names[0], names[1], names[2:6])
        cold = PartialCorrelationTest(data, 0.01)
        cold.test(names[0], names[1], names[2:6])
        # Given z, the engine keeps each entry it built given z's leading
        # pair as it is, and adds only the rest of what a cold engine builds.
        assert all(engine._solves[key] is entry for key, entry in first.items())
        assert engine._solves.keys() == first.keys() | cold._solves.keys()
        assert len(engine._solves) - len(first) == 7
        clone = engine.spawn()
        assert clone._solves == {}
        assert engine._solves and clone.corr is engine.corr


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
        # A batch of two takes the batched path, and 2 * 3^44 > 2^63 too.
        z = names[3:]
        outs = MutualInfoTest(data, 0.01).test_many("V00", ["V01", "V02"], z)
        for v, out in zip(["V01", "V02"], outs):
            assert out.dof == 2 * 3**44 > 2**63 and isinstance(out.dof, int)
            assert bits(out) == bits(mi_test(data, "V00", v, z, 0.01)) == bits(mi_test(data, v, "V00", z, 0.01))


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
            assert engine.counter.count == len(candidates)
        degenerate = data.names[0]
        out = MutualInfoTest(data, 0.05).test_many(target, [degenerate], ())[0]
        assert out.degenerate and bits(out) == bits(mi_test(data, target, degenerate, (), 0.05))

    def test_mi_batch_with_one_wide_variable_equals_mi_test(self):
        # A test's cube shape depends on the test alone: the binary pairs of
        # a batch that also holds a 12-level candidate keep their 2 x 2
        # cubes, so their sums block as a single test's do, bit for bit.
        rng = np.random.default_rng(55)
        n, cards = 400, [2, 2, 2, 12, 2, 2, 2, 2]
        codes = np.column_stack([rng.integers(0, c, n) for c in cards])
        codes[:, 1] = np.where(rng.random(n) < 0.3, codes[:, 3] % 2, codes[:, 1])
        names = [f"W{j}" for j in range(len(cards))]
        data = DiscreteDataset([(nm, [str(v) for v in range(c)]) for nm, c in zip(names, cards)], codes)
        for target in names:
            for z in ((), (names[6],), (names[6], names[7])):
                if target in z:
                    continue
                candidates = [v for v in names if v != target and v not in z]
                outs = MutualInfoTest(data, 0.05).test_many(target, candidates, z)
                for v, out in zip(candidates, outs):
                    assert bits(out) == bits(mi_test(data, target, v, z, 0.05)), (target, v, z)

    def test_engines_and_spawns_share_one_xlogx_table(self):
        data = mixed_discrete(56)
        first = MutualInfoTest(data, 0.01)
        assert "xlogx" in vars(data)  # built with the engine, before workers fork
        table = data.xlogx
        assert MutualInfoTest(data, 0.05).data.xlogx is first.spawn().data.xlogx is table
        assert not table.flags.writeable and table.shape == (data.n + 1,)
        assert table[0] == 0.0 and table[7] == 7 * math.log(7)
        assert "level_bits" in vars(data)
        level_bits = data.level_bits
        assert MutualInfoTest(data, 0.05).data.level_bits is first.spawn().data.level_bits is level_bits
        bits, rows = level_bits
        assert not bits.flags.writeable and not rows.flags.writeable and bits.dtype == np.uint64
        cards = data.cardinalities
        assert bits.shape == (sum(cards) + 1, 1) and rows.shape == (len(cards), 3)  # 60 rows fit one word
        assert int(bits[-1, 0]) == 0
        for j, col in enumerate(data.code_columns):
            for level in range(3):
                want = sum(1 << r for r in range(data.n) if col[r] == level)
                assert int(bits[rows[j, level], 0]) == want, (j, level)
                assert (rows[j, level] == len(bits) - 1) == (level >= cards[j]), (j, level)

    def test_cor_table_path_and_fallback_equal_cor_test(self):
        data = asymmetric_continuous(53)
        names = sorted(data.names)
        target = names[11]
        for z in [(), (names[3],), (names[3], names[20])]:
            candidates = [v for v in names if v != target and v not in z]
            engine = PartialCorrelationTest(data, 0.01)
            for v, out in zip(candidates, engine.test_many(target, candidates, z)):
                assert bits(out) == bits(cor_test(data, target, v, z, 0.01)), (target, v, z)
            assert engine.counter.count == len(candidates)
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
            # An empty batch asks nothing, so it checks nothing either.
            assert engine.test_many("Q", [], ("R",)) == []
            assert engine.counter.count == 1
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
        # Given six variables the batch takes bincount; given none, popcount,
        # whose AND arrays BATCH_CELLS caps too.
        assert not citests._popcount_pays(n, 100, 3**6, 3, 3) and citests._popcount_pays(n, 100, 1, 3, 3)
        for z, dof in ((names[1:7], 4 * 3**6), ((), 4)):
            tracemalloc.start()
            try:
                outs = engine.test_many(names[0], names[7:], z)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(outs) == 100 and all(out.dof == dof for out in outs)
            assert peak < 4 * 2**20, (z, peak)


def counter_data(n, seed=81):
    """Binary and ternary targets B and T between candidates in name order
    (A0-A2 before, U and Z0-Z2 after) of 2, 3 and 4 levels; U declares a
    third level that never occurs, and A1 copies T on most rows."""
    rng = np.random.default_rng(seed)
    cards = {"A0": 2, "A1": 3, "A2": 4, "B": 2, "T": 3, "U": 3, "Z0": 2, "Z1": 3, "Z2": 4}
    codes = {v: rng.integers(0, 2 if v == "U" else c, n) for v, c in cards.items()}
    codes["A1"] = np.where(rng.random(n) < 0.6, codes["T"], codes["A1"])
    return DiscreteDataset([(v, [str(l) for l in range(c)]) for v, c in cards.items()],
                           np.column_stack(list(codes.values())))


def count_cubes(data, target, candidates, z):
    """Both counters' cubes for each m-group of the candidates, and a cube
    counted row by row with ``np.add.at``."""
    columns, cards = data.code_columns, data.cardinalities
    column = data.column_index
    it, zc = column(target), citests._z_columns(data, frozenset(z))
    strata, k = citests._strata(columns, cards, zc)
    groups = {}
    for v in candidates:
        groups.setdefault(max(cards[it], cards[column(v)]), []).append(column(v))
    for m, ics in groups.items():
        by_bincount = np.concatenate(list(citests._bincount_cubes(columns, it, strata, k, m, ics)))
        by_popcount = np.concatenate(list(citests._popcount_cubes(*data.level_bits, cards, it, zc, m, ics)))
        reference = np.zeros((len(ics), k, m, m), dtype=np.int64)
        for i, ic in enumerate(ics):
            np.add.at(reference[i], (0 if strata is None else strata, columns[it], columns[ic]), 1)
        yield m, by_bincount, by_popcount, reference


class TestG2Counters:
    ZS = [(), ("Z1",), ("U", "Z1")]

    @pytest.mark.parametrize("cap", [citests.BATCH_CELLS, 300])
    @pytest.mark.parametrize("n", [63, 64, 65, 5000])
    def test_both_counters_build_the_same_integer_cubes(self, monkeypatch, n, cap):
        # cap = 300 puts one candidate in each chunk of either counter.
        monkeypatch.setattr(citests, "BATCH_CELLS", cap)
        data = counter_data(n)
        for target in ("B", "T"):
            for z in self.ZS:
                candidates = [v for v in data.names if v != target and v not in z]
                ms = []
                for m, by_bincount, by_popcount, reference in count_cubes(data, target, candidates, z):
                    assert by_popcount.dtype == by_bincount.dtype == np.int64
                    assert np.array_equal(by_bincount, reference), (target, z, m)
                    assert np.array_equal(by_popcount, reference), (target, z, m)
                    ms.append(m)
                assert len(ms) >= 2, (target, z)

    @pytest.mark.parametrize("n", [63, 64, 65, 5000])
    def test_popcount_batches_equal_mi_test_field_for_field(self, monkeypatch, n):
        # Every group of two or more takes popcount here; singles take the single-test branch.
        monkeypatch.setattr(citests, "_popcount_pays", lambda n, c, *rest: c > 1)
        counted = []
        counter = citests._popcount_cubes
        monkeypatch.setattr(citests, "_popcount_cubes", lambda *args: counted.append(len(args[-1])) or counter(*args))
        data = counter_data(n)
        for target in ("B", "T"):
            for z in self.ZS:
                candidates = [v for v in data.names if v != target and v not in z]
                assert min(candidates) < target < max(candidates)
                counted.clear()
                outs = MutualInfoTest(data, 0.05).test_many(target, candidates, z)
                singles = [mi_test(data, target, v, z, 0.05) for v in candidates]
                assert sum(counted) == len(candidates), (target, z)
                for v, out, single in zip(candidates, outs, singles):
                    assert bits(out) == bits(single), (n, target, v, z)

    def test_popcount_is_picked_for_large_batches_only(self, monkeypatch):
        # A later change must not turn the popcount counter off for the wide
        # batches it pays on, nor give it batches of one or small samples.
        counted = []
        counter = citests._popcount_cubes
        monkeypatch.setattr(citests, "_popcount_cubes", lambda *args: counted.append(len(args[-1])) or counter(*args))
        rng = np.random.default_rng(82)
        names = [f"V{j:02d}" for j in range(46)]
        wide = DiscreteDataset([(v, ["0", "1", "2"]) for v in names], rng.integers(0, 3, (5000, 46)))
        engine = MutualInfoTest(wide, 0.01)
        outs = engine.test_many(names[0], names[1:], ())
        assert counted == [45]
        assert [bits(out) for out in outs] == [bits(mi_test(wide, names[0], v, (), 0.01)) for v in names[1:]]
        counted.clear()
        engine.spawn().test(names[0], names[1], ())
        engine.spawn().test(names[0], names[1], (names[2],))
        assert counted == []
        # n = 146, as in the order protocol: no batch, however wide, nor any learn.
        names = [f"V{j:03d}" for j in range(101)]
        small = DiscreteDataset([(v, ["0", "1"]) for v in names], rng.integers(0, 2, (146, 101)))
        for z in ((), (names[1],), (names[1], names[2])):
            MutualInfoTest(small, 0.01).test_many(names[0], [v for v in names[1:] if v not in z], z)
        bn = random_discrete_network(37, 3737, edge_prob=0.06, max_in_degree=2, max_levels=2)
        for algorithm in ALGORITHMS:
            learn_cpdag(sample(bn, 146, 20), GlobalLearnConfig(algorithm, alpha=0.01), ParallelExecutor(1))
        assert counted == []

    def test_only_a_batch_of_one_takes_the_single_test_branch(self, monkeypatch):
        # A batch of one counts its cube itself and calls neither batch
        # counter; a batch of two or more passes every candidate of dof > 0
        # to one of them, even when each m-group holds one candidate.
        counted = []
        for name in ("_bincount_cubes", "_popcount_cubes"):
            counter = getattr(citests, name)
            monkeypatch.setattr(citests, name, lambda *args, name=name, counter=counter: (
                counted.append((name, len(args[-1]))) or counter(*args)))
        data = counter_data(5000)
        for z in self.ZS:
            engine = MutualInfoTest(data, 0.05)
            engine.test("T", "A1", z)
            engine.test_many("T", ["Z0"], z)
            mi_test(data, "B", "A2", z, 0.05)
            assert counted == [], z
            for candidates in (["A0", "Z0"], ["A2", "Z0"], ["A0", "A1", "A2", "Z0", "Z2"]):
                singles = [bits(mi_test(data, "T", v, z, 0.05)) for v in candidates]
                assert counted == []
                outs = MutualInfoTest(data, 0.05).test_many("T", candidates, z)
                assert sum(c for _, c in counted) == len(candidates), (candidates, z, counted)
                assert [bits(out) for out in outs] == singles, (candidates, z)
                counted.clear()
        # ["A2", "Z0"] splits into two m-groups of one: bincount counts each.
        MutualInfoTest(data, 0.05).test_many("T", ["A2", "Z0"], ())
        assert counted == [("_bincount_cubes", 1), ("_bincount_cubes", 1)]
        counted.clear()
        # A batch of two with one zero-dof candidate counts the other.
        data = mixed_discrete(52)
        one_level, candidate = data.names[0], data.names[2]
        target = next(v for v in data.names[3:] if len(data.levels(v)) == 2)
        outs = MutualInfoTest(data, 0.05).test_many(target, [one_level, candidate], ())
        assert counted == [("_bincount_cubes", 1)] and outs[0].degenerate
        assert [bits(out) for out in outs] == [bits(mi_test(data, target, v, (), 0.05)) for v in (one_level, candidate)]


# The generating models of perfbench's two discrete workloads, as
# random_discrete_network arguments, with each workload's sample size.
DISCRETE_WORKLOADS = {
    "discrete-iamb": (dict(m=50, seed=2, edge_prob=0.1, max_in_degree=2, max_levels=3), 5000),
    "order-37": (dict(m=37, seed=3737, edge_prob=0.06, max_in_degree=2, max_levels=2), 146),
}


def workload_sample(workload, n=None):
    """A sample of a discrete workload's generating model (of the workload's
    size unless ``n`` is given) plus ``X25a``, a one-level column (its tests
    have zero dof) between X25 and X26."""
    model, size = DISCRETE_WORKLOADS[workload]
    n = n or size
    data = sample(random_discrete_network(**model), n, 26)
    codes = np.column_stack([data.codes, np.zeros(n, dtype=np.int64)])
    return DiscreteDataset([*data.variables, ("X25a", ["only"])], codes)


class TestSingleTestBranch:
    @pytest.mark.parametrize("counter", ["bincount", "popcount"])
    @pytest.mark.parametrize("cap", [citests.BATCH_CELLS, 300])
    @pytest.mark.parametrize("workload", sorted(DISCRETE_WORKLOADS))
    def test_single_tests_equal_batched_outcomes_field_for_field(self, monkeypatch, workload, cap, counter):
        # The batch's groups go to one counter; cap = 300 puts one candidate
        # in each chunk, so a group's target-margin and stratum-total sums,
        # read off its first cube, serve every chunk after it.
        monkeypatch.setattr(citests, "BATCH_CELLS", cap)
        monkeypatch.setattr(citests, "_popcount_pays", lambda n, c, *rest: counter == "popcount" and c > 1)
        data = workload_sample(workload)
        cards = dict(zip(data.names, data.cardinalities))
        names = sorted(data.names)
        middle = names[len(names) // 3:]
        targets = [next(v for v in middle if cards[v] == c) for c in sorted(set(cards.values()) - {1})]
        seen = set()
        for target in targets:
            others = [v for v in names if v != target]
            # The last z holds more strata than rows, so they are re-coded.
            wide = next(others[:j] for j in range(len(others)) if math.prod(cards[v] for v in others[:j]) > data.n)
            for z in ((), others[-1:], others[3:5], wide):
                candidates = [v for v in others if v not in z]
                outs = MutualInfoTest(data, 0.05).test_many(target, candidates, z)
                for v, out in zip(candidates, outs):
                    single = mi_test(data, target, v, z, 0.05)
                    assert bits(out) == bits(single) == bits(mi_test(data, v, target, z, 0.05)), (target, v, z)
                    seen.add((v < target, (cards[v] > cards[target]) - (cards[v] < cards[target]), out.degenerate))
        assert {(before, False) for before in (True, False)} <= {(b, d) for b, _, d in seen}
        assert (False, -1, True) in seen  # X25a: zero dof
        if len(targets) == 2:  # ternary and binary targets meet candidates of fewer and more levels
            assert {(b, w, False) for b in (True, False) for w in (-1, 1)} <= seen

    @pytest.mark.parametrize("workload", sorted(DISCRETE_WORKLOADS))
    def test_sparse_tables_pin_the_order_of_the_margin_sums(self, workload):
        # At n = 40 given seven variables most cells hold zero to two rows,
        # and the margin subtractions round. With the candidate first in name
        # order, the candidate's margin C is subtracted before the target's
        # T; for some of these tests ((O - C) - T) and ((O - T) - C) differ
        # in the last bits, so parity here pins one order on both paths.
        data = workload_sample(workload, 40)
        xlogx = data.xlogx
        names = sorted(data.names)
        sensitive = 0
        for target in names[len(names) // 3:]:
            others = [v for v in names if v != target]
            z = others[-7:]
            candidates = [v for v in others if v not in z]
            outs = MutualInfoTest(data, 0.05).test_many(target, candidates, z)
            for v, out in zip(candidates, outs):
                assert bits(out) == bits(mi_test(data, target, v, z, 0.05)) == bits(mi_test(data, v, target, z, 0.05))
                if v < target and not out.degenerate:
                    [(_, _, _, [cube])] = count_cubes(data, v, [target], z)  # (candidate, target) layout
                    o, c, t = (float(xlogx.take(a).sum()) for a in (cube, cube.sum(axis=2), cube.sum(axis=1)))
                    sensitive += (o - c) - t != (o - t) - c
        assert sensitive >= 10, sensitive


class TestKernelHook:
    @pytest.mark.parametrize("kind", ["mi", "cor", "oracle"])
    def test_every_executed_test_goes_through_the_hook(self, monkeypatch, kind):
        # One seam: every requested test reaches _kernel_many exactly once,
        # so the candidates passed to it add up to the requested count, in
        # learns and in any mix of test and test_many calls (repeats and
        # batches of one included).
        dag = random_dag(12, 71, edge_prob=0.3)
        data = {
            "mi": lambda: mixed_discrete(72, n=200, m=12),
            "cor": lambda: asymmetric_continuous(73, m=12),
            "oracle": lambda: DiscreteDataset([(v, ["0", "1"]) for v in dag.nodes], np.zeros((4, 12), dtype=int)),
        }[kind]()
        truth = dag if kind == "oracle" else None
        engine = make_engine(kind, data, 0.05, truth)
        hook = type(engine)._kernel_many
        passed = []

        def spy(self, target, candidates, z):
            passed.append(len(candidates))
            return hook(self, target, candidates, z)

        monkeypatch.setattr(type(engine), "_kernel_many", spy)
        for algorithm in ALGORITHMS:
            passed.clear()
            executor = ParallelExecutor(1)
            learn_cpdag(data, GlobalLearnConfig(algorithm, test=kind, alpha=0.05), executor, truth=truth)
            assert 0 < sum(passed) == executor.total_tests(), algorithm
        passed.clear()
        rng = np.random.default_rng(74)
        names, requested = list(data.names), 0
        for x, y, z in random_queries(names, rng, 200, max_z=3):
            engine.test(x, y, z)
            others = [v for v in names if v != x and v not in z]
            batch = [str(v) for v in rng.choice(others, int(rng.integers(1, 4)))]
            engine.test_many(x, batch + batch[:1], z)
            requested += 2 + len(batch)
        assert sum(passed) == engine.counter.count == requested
        assert 1 in passed and max(passed) > 1


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

    def test_one_row_fails_before_any_test(self):
        one = ContinuousDataset(["X", "Y", "Z"], [[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match="at least 2 rows"):
            make_engine("cor", one, 0.01)
        with pytest.raises(ValueError, match="at least 2 rows"):
            cor_test(one, "X", "Y", (), 0.01)
        with pytest.raises(ValueError, match="at least 2 rows"):
            correlation_matrix(np.zeros((1, 3)))

    def test_outcome_is_slotted(self):
        out = mi_test(dataset_from_table([[5, 1], [2, 7]]), "X", "Y", (), 0.01)
        assert not hasattr(out, "__dict__")
        assert dataclasses.astuple(out)[3:] == (out.independent, False, False)
        assert out.ranking_key("Y") == (out.p_value, -abs(out.statistic), "Y")


def boundary_engine(kind):
    """An ``mi`` or ``cor`` engine over four variables whose names are not
    in column order."""
    rng = np.random.default_rng(91)
    names = ["Y", "W", "X", "V"]
    if kind == "mi":
        data = DiscreteDataset([(v, ["0", "1", "2"]) for v in names], rng.integers(0, 3, (80, 4)))
    else:
        data = ContinuousDataset(names, rng.standard_normal((80, 4)))
    return make_engine(kind, data, 0.05)


def single(engine, x, y, z):
    return engine.test(x, y, z)


def batched(engine, x, y, z):
    return engine.test_many(x, ["V", y], z)


class TestEngineBoundary:
    """Names stop at ``test`` and ``test_many``: x, y and the candidates are
    checked on every call, and z once per task through the engine's z
    cache (a frozenset -> its columns in name order)."""

    @pytest.mark.parametrize("call", [single, batched])
    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_a_cached_z_still_checks_x_and_y_on_every_call(self, kind, call):
        engine = boundary_engine(kind)
        call(engine, "X", "Y", {"W"})
        assert frozenset({"W"}) in engine._zs
        count = engine.counter.count
        for _ in range(2):
            for x, y, z in [("W", "Y", {"W"}), ("X", "W", ("W",)), ("X", "X", {"W"}), ("Q", "Y", {"W"})]:
                with pytest.raises(ValueError):
                    call(engine, x, y, z)
        assert engine.counter.count == count
        assert list(engine._zs) == [frozenset({"W"})]

    @pytest.mark.parametrize("call", [single, batched])
    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_an_unknown_z_raises_and_is_not_cached(self, kind, call):
        engine = boundary_engine(kind)
        for _ in range(2):
            # Two unknown names: the error names the name-smaller whatever
            # the set's iteration order.
            with pytest.raises(ValueError, match="unknown variable: 'Q1'"):
                call(engine, "X", "Y", {"W", "Q2", "Q1"})
        assert engine._zs == {} and engine.counter.count == 0
        call(engine, "X", "Y", ["W"])
        assert engine._zs == {frozenset({"W"}): (engine.data.column_index("W"),)}

    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_cached_columns_follow_name_order(self, kind):
        engine = boundary_engine(kind)
        engine.test("X", "Y", ("W", "V"))
        index = engine.data.column_index
        assert engine._zs[frozenset({"V", "W"})] == (index("V"), index("W"))

    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_spawn_starts_with_an_empty_z_cache(self, kind):
        engine = boundary_engine(kind)
        engine.test("X", "Y", {"W"})
        clone = engine.spawn()
        assert clone._zs == {} and engine._zs
        clone.test("X", "Y", {"V"})
        assert frozenset({"V"}) not in engine._zs

    @pytest.mark.parametrize("call", [single, batched])
    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_an_unknown_target_is_reported_before_an_unknown_z(self, kind, call):
        # The checks run in one order: the target, z, then each candidate.
        engine = boundary_engine(kind)
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown variable: 'Q'"):
                call(engine, "Q", "Y", {"R"})
            with pytest.raises(ValueError, match="unknown variable: 'R'"):
                call(engine, "X", "Z", {"R"})
        assert engine._zs == {} and engine.counter.count == 0

    @pytest.mark.parametrize("call", [single, batched])
    def test_the_oracle_names_the_name_smallest_unknown_z(self, call):
        # The oracle checks names in d_separated: x and y first, then the
        # name-smallest unknown z, whatever the set's iteration order.
        dag = Dag(["V", "W", "X", "Y"], [("X", "W"), ("W", "Y")])
        engine = OracleTest(dag)
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown node: 'Q1'"):
                call(engine, "X", "Y", {"Q3", "W", "Q1", "Q2"})
            with pytest.raises(ValueError, match="unknown node: 'Q'"):
                call(engine, "Q", "Y", {"R"})
        with pytest.raises(ValueError, match="unknown node: 'Q1'"):
            oracle_test(dag, "X", "Y", {"Q3", "Q1", "Q2"})
        assert engine.counter.count == 0

    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_standalone_checks_alpha_after_the_target_and_z(self, kind):
        # The target, z, the target against z and alpha, then the candidate.
        engine = boundary_engine(kind)
        standalone = mi_test if kind == "mi" else cor_test
        for x, y, z, alpha, message in [
            ("Q", "Y", {"R"}, 0.05, "unknown variable: 'Q'"),
            ("X", "Q", {"R"}, 0.05, "unknown variable: 'R'"),
            ("Q", "Y", (), 2.0, "unknown variable: 'Q'"),
            ("X", "Y", {"R"}, 2.0, "unknown variable: 'R'"),
            ("W", "Y", {"W"}, 2.0, "must not appear"),
            ("X", "Q", (), 2.0, "alpha must be"),
            ("X", "X", (), 2.0, "alpha must be"),
        ]:
            with pytest.raises(ValueError, match=message):
                standalone(engine.data, x, y, z, alpha)

    @pytest.mark.parametrize("kind", ["mi", "cor"])
    def test_standalone_tests_check_at_their_own_boundary(self, kind):
        engine = boundary_engine(kind)
        standalone = mi_test if kind == "mi" else cor_test
        data = engine.data
        assert bits(standalone(data, "X", "Y", {"W", "V"}, 0.05)) == bits(engine.test("Y", "X", ("V", "W")))
        for x, y, z in [("W", "Y", {"W"}), ("X", "X", ()), ("Q", "Y", ()), ("X", "Y", {"Q2", "Q1"})]:
            with pytest.raises(ValueError):
                standalone(data, x, y, z, 0.05)
        with pytest.raises(ValueError, match="unknown variable: 'Q1'"):
            standalone(data, "X", "Y", {"Q2", "W", "Q1"}, 0.05)
