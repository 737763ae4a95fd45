"""Dataset container tests."""

import numpy as np
import pytest

from bnsl.data import ContinuousDataset, DiscreteDataset, reverse_columns


def small_discrete():
    return DiscreteDataset(
        [("A", ["a0", "a1"]), ("B", ["b0", "b1", "b2"]), ("C", ["c0", "c1"])],
        np.array([[0, 2, 1], [1, 0, 0], [0, 1, 1]]),
    )


def test_discrete_accessors():
    d = small_discrete()
    assert d.names == ("A", "B", "C")
    assert d.n == 3
    assert d.cardinality("B") == 3
    assert list(d.column("C")) == [1, 0, 1]


def test_discrete_rejects_out_of_range_codes():
    with pytest.raises(ValueError):
        DiscreteDataset([("A", ["a0"])], np.array([[1]]))


def test_discrete_rejects_non_integer_codes():
    with pytest.raises(ValueError, match="integers"):
        DiscreteDataset([("A", ["a0", "a1"])], np.array([[0.0], [1.0]]))


def test_discrete_rejects_a_variable_without_levels():
    with pytest.raises(ValueError, match="'B' has no levels"):
        DiscreteDataset([("A", ["a0"]), ("B", [])], np.zeros((2, 2), dtype=int))


@pytest.mark.parametrize("columns", [1, 3])
def test_discrete_rejects_a_code_column_count_other_than_the_names(columns):
    with pytest.raises(ValueError, match="one column per variable"):
        DiscreteDataset([("A", ["a0"]), ("B", ["b0"])], np.zeros((2, columns), dtype=int))


def test_discrete_rejects_empty():
    with pytest.raises(ValueError):
        DiscreteDataset([("A", ["a0"])], np.empty((0, 1), dtype=int))


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        DiscreteDataset([("A", ["x"]), ("A", ["x"])], np.zeros((1, 2), dtype=int))


def test_continuous_rejects_nonfinite():
    with pytest.raises(ValueError):
        ContinuousDataset(["A"], np.array([[np.nan]]))


def test_unknown_column():
    d = small_discrete()
    with pytest.raises(ValueError, match="Z"):
        d.column("Z")


def test_datasets_immutable():
    d = small_discrete()
    with pytest.raises(ValueError):
        d.codes[0, 0] = 1


def test_reverse_columns_discrete():
    d = small_discrete()
    r = reverse_columns(d)
    assert r.names == ("C", "B", "A")
    assert list(r.column("A")) == list(d.column("A"))
    assert list(r.column("B")) == list(d.column("B"))


def test_reverse_single_column():
    d = DiscreteDataset([("A", ["x", "y"])], np.array([[0], [1]]))
    r = reverse_columns(d)
    assert r.names == ("A",)
    assert list(r.column("A")) == [0, 1]


def test_reverse_is_involution():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = int(rng.integers(1, 6))
        values = rng.standard_normal((5, m))
        d = ContinuousDataset([f"V{i}" for i in range(m)], values)
        rr = reverse_columns(reverse_columns(d))
        assert rr.names == d.names
        assert np.array_equal(rr.values, d.values)


@pytest.mark.parametrize("names", [["", "b", "c"], ["a", "", "c"]])
def test_empty_variable_name_rejected(names):
    with pytest.raises(ValueError, match="invalid node name"):
        ContinuousDataset(names, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="invalid node name"):
        DiscreteDataset([(name, ["x"]) for name in names], np.zeros((2, 3), dtype=int))


def test_load_dataset_rejects_empty_header_cell(tmp_path):
    from bnsl.formats import load_dataset

    path = tmp_path / "d.csv"
    for kind, rows in (("continuous", "1,2,3\n4,5,6\n"), ("discrete", "x,y,z\nx,z,y\n")):
        path.write_text("a,,c\n" + rows)
        with pytest.raises(ValueError, match="invalid node name"):
            load_dataset(path)
        with pytest.raises(ValueError, match="invalid node name"):
            load_dataset(path, kind)


def test_both_kinds_share_the_column_core():
    values = np.arange(6.0).reshape(3, 2)
    c = ContinuousDataset([1, "b"], values)
    d = DiscreteDataset([(1, ["x"]), ("b", ["x"])], np.zeros((3, 2), dtype=int))
    for data in (c, d):
        assert data.names == ("1", "b") and data.n == 3
        assert data.column_index("b") == 1
        assert data.name_ranks == ({"1": 0, "b": 1}, (0, 1))
        with pytest.raises(ValueError, match="Q"):
            data.column("Q")
        with pytest.raises(ValueError, match="Q"):
            data.column_index("Q")
    assert not c.column("b").flags.writeable
    assert repr(c) == "ContinuousDataset(3 rows, 2 variables)"
    assert repr(d) == "DiscreteDataset(3 rows, 2 variables)"
