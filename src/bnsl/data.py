"""Column-oriented datasets: discrete (categorical) and continuous (real).

Datasets are immutable after construction; the backing arrays are marked
read-only so they can be shared across workers without copying or locking.
Views the CI tests need (the name-rank table, contiguous code columns, the
correlation matrix and its z = {} t/p table) are derived on first use and
kept, so every engine over one dataset shares them and construction itself
does no extra work.

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
from scipy import special


class DiscreteDataset:
    """Categorical observations stored as per-variable level indices.

    ``variables`` is an ordered list of ``(name, levels)`` pairs where
    ``levels`` is the ordered list of level labels; ``codes`` is an
    ``(n, m)`` integer array with ``codes[r, j] < len(levels_j)``.
    """

    is_discrete = True

    def __init__(self, variables: list[tuple[str, list[str]]], codes: np.ndarray):
        self.variables = [(str(name), [str(l) for l in levels]) for name, levels in variables]
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != len(self.variables):
            raise ValueError("codes must be (n, m) with one column per variable")
        if codes.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError("codes must be integers")
        for j, (name, levels) in enumerate(self.variables):
            if not levels:
                raise ValueError(f"variable {name!r} has no levels")
            col = codes[:, j]
            if col.min() < 0 or col.max() >= len(levels):
                raise ValueError(f"out-of-range level index in column {name!r}")
        self.codes = np.ascontiguousarray(codes, dtype=np.int64)
        self.codes.flags.writeable = False
        self._index = {name: j for j, name in enumerate(names)}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    def levels(self, name: str) -> list[str]:
        return self.variables[self.column_index(name)][1]

    def cardinality(self, name: str) -> int:
        return len(self.levels(name))

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable: {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.codes[:, self.column_index(name)]

    @cached_property
    def name_ranks(self) -> tuple[dict[str, int], tuple[int, ...]]:
        """Each name's rank in name order, and each rank's column."""
        return _name_ranks(self.names)

    @cached_property
    def code_columns(self) -> np.ndarray:
        """``(m, n)`` read-only copy of the codes: row ``j`` is column ``j``,
        contiguous in memory."""
        cols = np.ascontiguousarray(self.codes.T)
        cols.flags.writeable = False
        return cols

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(levels) for _, levels in self.variables)

    def __repr__(self):
        return f"DiscreteDataset({self.n} rows, {len(self.variables)} variables)"


class ContinuousDataset:
    """Real-valued observations; all cells finite, no missing values."""

    is_discrete = False

    def __init__(self, names: list[str], values: np.ndarray):
        self.names_list = [str(n) for n in names]
        if len(set(self.names_list)) != len(self.names_list):
            raise ValueError("duplicate variable names")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(self.names_list):
            raise ValueError("values must be (n, m) with one column per variable")
        if values.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")
        self.values = np.ascontiguousarray(values)
        self.values.flags.writeable = False
        self._index = {name: j for j, name in enumerate(self.names_list)}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.names_list)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable: {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    @cached_property
    def name_ranks(self) -> tuple[dict[str, int], tuple[int, ...]]:
        """Each name's rank in name order, and each rank's column."""
        return _name_ranks(self.names)

    @cached_property
    def correlation(self) -> np.ndarray:
        """Read-only Pearson correlation matrix in column order."""
        corr = correlation_matrix(self.values)
        corr.flags.writeable = False
        return corr

    @cached_property
    def marginal_table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``t`` and ``p`` of every z = {} partial-correlation test, on
        n - 2 degrees of freedom, in read-only symmetric matrices indexed
        by column; ``None`` when n - 2 <= 0.

        Each entry is what the t kernel computes for its pair. The
        correlation matrix is not exactly symmetric, so each pair reads the
        entry whose row is the name-smaller variable, as the kernel does.
        """
        dof = self.n - 2
        if dof <= 0:
            return None
        rank = self.name_ranks[0]
        corr = self.correlation
        m = len(rank)
        i, j = np.triu_indices(m, 1)
        by_column = np.array([rank[name] for name in self.names_list])
        r = np.clip(np.where(by_column[i] < by_column[j], corr[i, j], corr[j, i]), -1.0, 1.0)
        sure = np.abs(r) >= 1.0 - 1e-12
        safe = np.where(sure, 0.0, r)
        t = np.where(sure, np.copysign(np.inf, r), safe * np.sqrt(dof / (1.0 - safe * safe)))
        p = np.where(sure, 0.0, 2.0 * special.stdtr(dof, -np.abs(t)))
        tables = np.zeros((2, m, m))
        tables[:, i, j] = tables[:, j, i] = t, p
        tables.flags.writeable = False
        return tables[0], tables[1]

    def __repr__(self):
        return f"ContinuousDataset({self.n} rows, {len(self.names_list)} variables)"


Dataset = DiscreteDataset | ContinuousDataset


def _name_ranks(names) -> tuple[dict[str, int], tuple[int, ...]]:
    columns = tuple(sorted(range(len(names)), key=names.__getitem__))
    return {names[j]: r for r, j in enumerate(columns)}, columns


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
        return ContinuousDataset(list(reversed(data.names_list)), data.values[:, ::-1])
    raise TypeError(f"not a dataset: {type(data).__name__}")
