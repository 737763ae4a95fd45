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

The core also owns the name lookups (``column_index``, ``column``) and
the name-rank table.

Datasets are immutable after construction; the backing arrays are marked
read-only so they can be shared across workers without copying or locking.
Views the CI tests need (the name-rank table, contiguous code columns and
the correlation matrix) are derived on first use and kept, so every engine
over one dataset shares them and construction itself does no extra work.

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
        self._index = {name: j for j, name in enumerate(self.names)}

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
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

    is_discrete = True

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


class ContinuousDataset(_Columns):
    """Real-valued observations; all cells finite, no missing values."""

    is_discrete = False

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


Dataset = DiscreteDataset | ContinuousDataset


def correlation_matrix(values: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix with non-finite entries neutralised.

    Constant columns produce undefined correlations; they are replaced with
    zero off the diagonal (and one on it) so learning stays defined on
    degenerate data.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(values, rowvar=False)
    corr = np.atleast_2d(corr)
    bad = ~np.isfinite(corr)
    if bad.any():
        corr[bad] = 0.0
        np.fill_diagonal(corr, 1.0)
    return corr


def reverse_columns(data: Dataset) -> Dataset:
    """Same rows with the variable order reversed; an involution."""
    if isinstance(data, DiscreteDataset):
        return DiscreteDataset(list(reversed(data.variables)), data.codes[:, ::-1])
    if isinstance(data, ContinuousDataset):
        return ContinuousDataset(list(reversed(data.names)), data.values[:, ::-1])
    raise TypeError(f"not a dataset: {type(data).__name__}")
