"""Column-oriented datasets: discrete (categorical) and continuous (real).

Both kinds share one column core, ``_Columns``, and each input check exists
once:

- ``_Columns``: variable names follow the graph node-name rule
  (``graph._check_nodes``: distinct, non-empty, after ``str`` coercion),
  the data array is ``(n, m)`` with one column per name, and there is at
  least one row;
- ``DiscreteDataset``: codes are integers inside each variable's levels,
  and every variable has a level;
- ``ContinuousDataset``: every value is finite.

The core also owns the name-rank table and the name lookups that read it
(``column_index``, ``column``).

Datasets are immutable after construction; the backing arrays are marked
read-only so they can be shared across workers without copying or locking.
Views the CI tests need (the name-rank table, contiguous code columns, the
``c * ln c`` table of counts, the per-level row bitsets, the correlation
matrix and the constant columns) are derived on first use and kept, so
every engine over one dataset shares them and construction itself does no
extra work.

A variable has two integer ids. Its *column* is its position in the
dataset, which indexes the code columns and the correlation matrix. Its
*rank* is its position in name order, so sorting ranks sorts names and
ties still break by name. ``name_ranks`` maps a name to its rank and a
rank to its column. The CI tests translate names through it, and report
an unknown name, at their public calls; past those they use columns only.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .graph import _check_nodes


def _frozen(array: np.ndarray, dtype=None) -> np.ndarray:
    """``array`` as a C-contiguous array of ``dtype``, marked read-only (a
    copy unless it already is one)."""
    array = np.ascontiguousarray(array, dtype=dtype)
    array.flags.writeable = False
    return array


class _Columns:
    """What both dataset kinds share: the name, shape and row checks, the
    name lookups and the name-rank table. ``label`` names the data array in
    errors; the subclass checks the array's values, then keeps its
    read-only copy as ``_cells``."""

    def __init__(self, names, cells: np.ndarray, label: str):
        self.names = _check_nodes(str(name) for name in names)
        if cells.ndim != 2 or cells.shape[1] != len(self.names):
            raise ValueError(f"{label} must be (n, m) with one column per variable")
        if cells.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        self.n = cells.shape[0]

    def column_index(self, name: str) -> int:
        rank, columns = self.name_ranks
        try:
            return columns[rank[name]]
        except KeyError:
            raise ValueError(f"unknown variable: {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self._cells[:, self.column_index(name)]

    @cached_property
    def name_ranks(self) -> tuple[dict[str, int], tuple[int, ...]]:
        """Each name's rank in name order, and each rank's column."""
        names = self.names
        columns = tuple(sorted(range(len(names)), key=names.__getitem__))
        return {names[j]: r for r, j in enumerate(columns)}, columns

    def __repr__(self):
        return f"{type(self).__name__}({self.n} rows, {len(self.names)} variables)"


class DiscreteDataset(_Columns):
    """Categorical observations stored as per-variable level indices.

    ``variables`` is an ordered list of ``(name, levels)`` pairs where
    ``levels`` is the ordered list of level labels; ``codes`` is an
    ``(n, m)`` integer array with ``codes[r, j] < len(levels_j)``.
    """

    def __init__(self, variables: list[tuple[str, list[str]]], codes: np.ndarray):
        self.variables = [(str(name), [str(l) for l in levels]) for name, levels in variables]
        codes = np.asarray(codes)
        super().__init__([name for name, _ in self.variables], codes, "codes")
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError("codes must be integers")
        for j, (name, levels) in enumerate(self.variables):
            if not levels:
                raise ValueError(f"variable {name!r} has no levels")
            col = codes[:, j]
            if col.min() < 0 or col.max() >= len(levels):
                raise ValueError(f"out-of-range level index in column {name!r}")
        self.codes = self._cells = _frozen(codes, np.int64)

    def levels(self, name: str) -> list[str]:
        return self.variables[self.column_index(name)][1]

    def cardinality(self, name: str) -> int:
        return len(self.levels(name))

    @cached_property
    def code_columns(self) -> np.ndarray:
        """``(m, n)`` read-only copy of the codes: row ``j`` is column ``j``,
        contiguous in memory."""
        return _frozen(self.codes.T)

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(levels) for _, levels in self.variables)

    @cached_property
    def xlogx(self) -> np.ndarray:
        """Read-only table of ``c * ln c`` for each count c in [0, n], 0 at
        c = 0: every logarithm the G^2 test takes."""
        c = np.arange(1, self.n + 1, dtype=np.float64)
        return _frozen(np.concatenate(([0.0], c * np.log(c))))

    @cached_property
    def level_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """Row bitsets of every level, and the row of each column's levels.

        The table is read-only ``(levels + 1, ceil(n / 64))`` uint64, one
        row per level of each column (in column order) and a last row of
        zeros: bit ``r % 64`` of word ``r // 64`` of a level's row is set
        when row ``r`` of its column has that level, and padding bits are
        0. The read-only ``(m, L)`` index, L the largest level count, holds
        the row of level ``l`` of column ``j`` at ``[j, l]``, and the zero
        row for a level the column lacks. So the table holds one bit per
        level and data row however many levels the widest column has. The
        G^2 test counts batches from it with ``np.bitwise_count``."""
        n, cards = self.n, self.cardinalities
        first = np.cumsum((0, *cards))
        table = np.zeros((first[-1] + 1, 8 * -(-n // 64)), dtype=np.uint8)
        for j, col in enumerate(self.code_columns):  # one column at a time: its levels x n bytes of scratch
            onehot = col == np.arange(cards[j])[:, None]
            table[first[j]:first[j + 1], :-(-n // 8)] = np.packbits(onehot, axis=1, bitorder="little")
        levels = np.arange(max(cards))
        rows = np.where(levels < np.array(cards)[:, None], first[:-1, None] + levels, first[-1])
        return _frozen(table.view("<u8")), _frozen(rows)


class ContinuousDataset(_Columns):
    """Real-valued observations; all cells finite, no missing values."""

    def __init__(self, names: list[str], values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        super().__init__(names, values, "values")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")
        self.values = self._cells = _frozen(values)

    @cached_property
    def correlation(self) -> np.ndarray:
        """Read-only Pearson correlation matrix in column order."""
        return _frozen(correlation_matrix(self.values))

    @cached_property
    def constant_columns(self) -> frozenset[int]:
        """Columns whose values are all equal: their correlations are not
        defined (0 in the matrix), and their t tests are flagged degenerate."""
        return frozenset(np.flatnonzero(_all_equal(self.values)).tolist())


Dataset = DiscreteDataset | ContinuousDataset


def _all_equal(values: np.ndarray) -> np.ndarray:
    """Mask of the columns of ``values`` whose entries are all equal."""
    return (values == values[0]).all(axis=0)


def correlation_matrix(values: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix with undefined entries neutralised and a
    diagonal of exactly 1.0 (``np.corrcoef``'s is off by an ulp on some
    columns; the t test reads it as 1).

    A constant column has no defined correlation (numpy gives non-finite
    values, or rounding noise when its mean is off by an ulp): its row and
    column are set to zero, so learning stays defined on degenerate data.
    Any other non-finite entry is zeroed too. Fewer than two rows define no
    correlation at all and raise ``ValueError``.

    Each column is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1). That is exact, so it moves no correlation, and
    it keeps a column of extreme scale (say 1e-170 or 1e200 times unit
    scale) from underflowing or overflowing in the products.

    The scaled copy is the only n x m array made: it is centred in place,
    and the rest are ``np.corrcoef``'s own operations in its order (the
    same mean, product, scale and clip), so the matrix is bit-identical to
    ``np.corrcoef``'s without ``np.cov``'s second copy of the data.
    """
    if len(values) < 2:
        raise ValueError(f"a correlation needs at least 2 rows, the data have {len(values)}")
    constant = _all_equal(values)
    rows = np.ldexp(values, -np.frexp(np.abs(values).max(axis=0))[1]).T  # one row per variable
    with np.errstate(divide="ignore", invalid="ignore"):
        rows -= rows.mean(axis=1)[:, None]
        corr = np.dot(rows, rows.T)
        corr *= np.true_divide(1, len(values) - 1)
        scale = np.sqrt(np.diag(corr))
        corr /= scale[:, None]
        corr /= scale[None, :]
    np.clip(corr, -1, 1, out=corr)
    corr[constant] = corr[:, constant] = 0.0
    corr[~np.isfinite(corr)] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr


def reverse_columns(data: Dataset) -> Dataset:
    """Same rows with the variable order reversed; an involution."""
    if isinstance(data, DiscreteDataset):
        return DiscreteDataset(list(reversed(data.variables)), data.codes[:, ::-1])
    if isinstance(data, ContinuousDataset):
        return ContinuousDataset(list(reversed(data.names)), data.values[:, ::-1])
    raise TypeError(f"not a dataset: {type(data).__name__}")
