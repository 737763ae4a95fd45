"""Conditional independence tests behind one memoised engine.

Three statistics share one engine: the discrete mutual-information test
(G^2, asymptotically chi-squared), the exact Student's t test for partial
correlation, and a d-separation oracle for validating learners on known
graphs. :class:`CiEngine` holds what they share - the memo, the counter
and ``spawn`` - and each subclass only binds a kernel. The standalone
:func:`mi_test` and :func:`cor_test` call the same kernels.

Callers name variables; the kernels take column ids. One checker,
:func:`_check`, checks and translates the names at that boundary on every
call. It takes a batch's shape (a target, its candidates and z), so a
single test is a batch of one, and a batch checks the target, z and alpha
once and each candidate with one lookup. The translation reads the
dataset's name-rank table (see :mod:`bnsl.data`): one dict lookup per name
gives its rank, the ranks are sorted as integers, and each rank maps to
its column. Rank order is name order, so the kernels receive the columns
of {x, y} union z in name order, exactly as a sort of the names would
give them, and every statistic is unchanged.

Each engine keeps a memo of the outcomes it computed, keyed on the
unordered pair and the conditioning set. Every kernel is symmetric in
``x`` and ``y`` bit for bit, so a memo hit returns exactly what a fresh
evaluation would. The executor builds one engine per task, so a memo lives
for one task only. Its counter records two numbers: ``count``, the tests
requested (memo hits included; this is the learner's cost in tests, and
the logical count merged at the phase barriers), and ``executed``, the
kernel evaluations. Both are invariant in the worker count and schedule.
An outcome is a slotted, mutable dataclass: building one is on every
test's path, and nothing mutates or hashes it.

:meth:`CiEngine.test_many` answers one target against many candidates
given one conditioning set, and counts exactly as the same ``test`` calls
would. By default it loops the single-test kernel. The ``mi`` engine codes
the strata and the (stratum, target) cells once per call and counts a
chunk of candidates with one ``bincount``; each outcome is bit-identical
to :func:`mi_test`'s, and ``BATCH_CELLS`` bounds a chunk's memory. The
``cor`` engine answers a z = {} batch from the target's correlations with
one vectorised t test, :func:`_t_many`, bit-identical to :func:`cor_test`.
The learners batch the scans whose tests share a target and z and are all
requested: IAMB's grow scan, MMPC's per-subset scan and SI-HITON-PC's
z = {} ranking.

Degenerate cases are resolved conservatively: a test with zero degrees of
freedom (or a t test with a non-positive sample-size margin) returns
independence with p = 1, since a vacuous test carries no evidence of
dependence. A singular correlation submatrix gets a fixed 1e-12 diagonal
ridge before inversion and the outcome is flagged.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import ContinuousDataset, Dataset, DiscreteDataset
from .data import correlation_matrix  # noqa: F401 - re-exported for callers of citests
from .graph import Dag, d_separated

RIDGE = 1e-12
# Cap on one batched G^2 chunk: candidates x max(n, cells per candidate).
# It bounds the chunk's arrays (512 KB per int64 array) for any candidate count.
BATCH_CELLS = 1 << 16


@dataclass(slots=True)
class TestOutcome:
    """Result of one conditional independence test."""

    statistic: float
    dof: float
    p_value: float
    independent: bool
    degenerate: bool = False
    ridged: bool = False

    def ranking_key(self, name: str) -> tuple:
        """Sort key for association ranking: strongest association first.

        Smaller p wins; ties broken by larger statistic magnitude, then by
        canonical variable name.
        """
        return (self.p_value, -abs(self.statistic), name)


class TestCounter:
    """Monotone counts of one engine: tests requested and tests executed."""

    def __init__(self) -> None:
        self.count = 0
        self.executed = 0

    def increment(self) -> None:
        self.count += 1

    def reset(self) -> None:
        self.count = 0
        self.executed = 0

    def __repr__(self):
        return f"TestCounter({self.count}, executed={self.executed})"


def _check(data: Dataset, target: str, candidates, z, alpha: float) -> tuple[int, list[int], list[int]]:
    """Check the tests of ``target`` against each of ``candidates`` given
    ``z`` (a single test passes one candidate): the target, z and alpha
    once, then each candidate with one lookup. Returns the ranks of the
    target, of z (sorted) and of each candidate. z is a set: a repeated
    name counts once, as in the engines' memo key."""
    rank = data.name_ranks[0]
    z = frozenset(z)
    try:
        rt = rank[target]
        rz = sorted([rank[v] for v in z])
    except KeyError as err:
        raise ValueError(f"unknown variable: {err.args[0]!r}") from None
    if target in z:
        raise ValueError("x and y must not appear in the conditioning set")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    rcs = []
    for v in candidates:
        r = rank.get(v)
        if r is None:
            raise ValueError(f"unknown variable: {v!r}")
        if r == rt:
            raise ValueError("x and y must differ")
        if v in z:
            raise ValueError("x and y must not appear in the conditioning set")
        rcs.append(r)
    return rt, rz, rcs


def _order(columns, ranks: list[int], rx: int, ry: int) -> tuple[list[int], int, int]:
    """:func:`_partial_t`'s arguments from the ranks of {x, y} union z
    (sorted here, in place) and of x and y: the columns in name order and
    the positions of the name-smaller and name-larger of x and y in them."""
    ranks.sort()
    a, b = ranks.index(rx), ranks.index(ry)
    idx = [columns[r] for r in ranks]
    return (idx, a, b) if a < b else (idx, b, a)


def _g2(columns: np.ndarray, cards, it: int, izs: list[int], ic: int, before: bool, alpha: float) -> TestOutcome:
    """G^2 kernel over contiguous code columns, with :func:`_g2_many`'s
    arguments for one candidate ``(ic, before)``. Strata come from
    :func:`_strata`, so memory stays O(n |x| |y|) and the nonzero cells are
    summed in the same order whether or not they were re-coded.
    """
    ix, iy = (ic, it) if before else (it, ic)
    cx, cy = cards[ix], cards[iy]
    dof = (cx - 1) * (cy - 1)
    for j in izs:
        dof *= cards[j]
    if dof <= 0:
        return TestOutcome(0.0, 0, 1.0, independent=True, degenerate=True)

    strata, k = _strata(columns, cards, izs)
    flat = columns[ix] * cy if strata is None else (strata * cx + columns[ix]) * cy
    flat += columns[iy]
    cube = np.bincount(flat, minlength=k * cx * cy).reshape(k, cx, cy)

    rows = cube.sum(axis=2)
    cols = cube.sum(axis=1)
    totals = rows.sum(axis=1)
    s, i, j = cube.nonzero()
    counts = cube[s, i, j]
    terms = counts * np.log(counts * totals[s] / (rows[s, i] * cols[s, j]))
    statistic = max(2.0 * float(terms.sum()), 0.0)
    p_value = float(special.chdtrc(dof, statistic))
    return TestOutcome(statistic, dof, p_value, independent=p_value > alpha)


def _strata(columns: np.ndarray, cards, izs: list[int]) -> tuple[np.ndarray | None, int]:
    """Stratum codes of the z columns ``izs`` (in name order) and their
    count ``k``; ``None`` and 1 for an empty z.

    Whenever the running count exceeds n the codes are re-coded to the
    combinations actually observed, in the same order, so ``k`` never
    exceeds n once it has and the codes cannot overflow.
    """
    n = columns.shape[1]
    strata, k = None, 1
    for j in izs:
        strata = columns[j] if strata is None else strata * cards[j] + columns[j]
        k *= cards[j]
        if k > n:
            strata, k = _observed(strata, k)
    return strata, k


def _observed(codes: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Re-code ``codes`` in [0, k) to ranks among the values present."""
    seen = np.zeros(k, dtype=bool)
    seen[codes] = True
    rank = np.cumsum(seen) - 1
    return rank[codes], int(rank[-1]) + 1


def _g2_many(columns: np.ndarray, cards, it: int, izs: list[int], cands, alpha: float) -> list[TestOutcome]:
    """:func:`_g2` of column ``it`` against each candidate given the z
    columns ``izs`` (name order); ``cands`` holds ``(column, before)``
    pairs, ``before`` when the candidate's name sorts before the target's.

    The strata and the (stratum, target) codes are built once, and each
    chunk of candidates is counted by one ``bincount`` into square cubes
    padded to the widest variable. A cube's two inner axes are (candidate,
    target) for a candidate named before the target and (target, candidate)
    otherwise, as :func:`_g2` lays them out. Padded cells stay empty, so
    every candidate's margins and nonzero cells, in order, are
    :func:`_g2`'s, and its terms are summed on their own: each outcome is
    bit-identical.
    """
    ct = cards[it]
    zdof = math.prod(cards[j] for j in izs)
    outcomes: list[TestOutcome | None] = [None] * len(cands)
    live = []
    for pos, (ic, before) in enumerate(cands):
        dof = (ct - 1) * (cards[ic] - 1) * zdof
        if dof <= 0:
            outcomes[pos] = TestOutcome(0.0, 0, 1.0, independent=True, degenerate=True)
        else:
            live.append((not before, pos, ic, dof))
    if not live:
        return outcomes
    live.sort()  # candidates named before the target first

    n = columns.shape[1]
    strata, k = _strata(columns, cards, izs)
    m = max(ct, *(cards[ic] for _, _, ic, _ in live))
    cells = k * m * m
    # A candidate's cell is code * m + head before the target, code + tail after.
    head = columns[it] if strata is None else strata * (m * m) + columns[it]
    tail = (columns[it] if strata is None else strata * m + columns[it]) * m
    step = max(1, BATCH_CELLS // max(n, cells))
    for lo in range(0, len(live), step):
        chunk = live[lo:lo + step]
        split = sum(not after for after, *_ in chunk)
        flat = columns[[ic for _, _, ic, _ in chunk]]
        flat[:split] *= m
        flat[:split] += head
        flat[split:] += tail
        flat += np.arange(0, len(chunk) * cells, cells)[:, None]
        cube = np.bincount(flat.ravel(), minlength=len(chunk) * cells).reshape(len(chunk), k, m, m)
        del flat
        stats = _g2_statistics(cube)
        # float64: a dof past 2^63 would make an object array the ufunc rejects.
        dofs = np.array([dof for *_, dof in chunk], dtype=np.float64)
        for (_, pos, _, dof), statistic, p_value in zip(chunk, stats, special.chdtrc(dofs, stats).tolist()):
            outcomes[pos] = TestOutcome(statistic, dof, p_value, independent=p_value > alpha)
    return outcomes


def _g2_statistics(cube: np.ndarray) -> list[float]:
    """The G^2 statistic of each cube ``cube[c]``, with :func:`_g2`'s
    elementwise terms in :func:`_g2`'s order, each cube's summed alone."""
    rows = sum(cube[..., j:j + 1] for j in range(cube.shape[3]))
    cols = sum(cube[:, :, i:i + 1] for i in range(cube.shape[2]))
    totals = sum(rows[:, :, i:i + 1] for i in range(cube.shape[2]))
    seen = cube > 0
    counts = cube[seen]
    terms = counts * np.log((cube * totals)[seen] / (rows * cols)[seen])
    ends = np.cumsum(np.count_nonzero(seen.reshape(len(cube), -1), axis=1)).tolist()
    add = np.add.reduce
    return [max(2.0 * float(add(terms[lo:hi])), 0.0) for lo, hi in zip([0, *ends], ends)]


def mi_test(data: DiscreteDataset, x: str, y: str, z: frozenset | set | tuple, alpha: float) -> TestOutcome:
    """G^2 mutual-information test of ``x`` against ``y`` given ``z``.

    statistic = 2 * sum O * ln(O / E) with expected counts computed per
    stratum of ``z``; cells with O = 0 contribute nothing. Degrees of
    freedom use the declared level counts: (|x|-1)(|y|-1) * prod |z_k|;
    empty strata still count toward the dof (pure asymptotic formula).
    """
    rx, rz, (ry,) = _check(data, x, (y,), z, alpha)
    columns = data.name_ranks[1]
    izs = [columns[r] for r in rz]
    return _g2(data.code_columns, data.cardinalities, columns[rx], izs, columns[ry], ry < rx, alpha)


def _partial_t(corr: np.ndarray, n: int, idx: list[int], a: int, b: int, alpha: float) -> TestOutcome:
    """Partial-correlation t kernel; arguments from :func:`_order`.

    Conditioning sets of size 0 and 1 use the closed forms on Python
    floats; larger sets invert the correlation submatrix over the sorted
    variables, applying the diagonal ridge if the submatrix is singular.
    """
    dof = n - len(idx)
    if dof <= 0:
        return TestOutcome(0.0, max(dof, 0), 1.0, independent=True, degenerate=True)
    ix, iy = idx[a], idx[b]
    if len(idx) == 2:
        return _t_outcome(corr.item(ix, iy), dof, alpha)
    if len(idx) == 3:
        iz = idx[3 - a - b]
        rxy, rxz, ryz = corr.item(ix, iy), corr.item(ix, iz), corr.item(iy, iz)
        denom = (1.0 - rxz * rxz) * (1.0 - ryz * ryz)
        if denom > 0:
            return _t_outcome((rxy - rxz * ryz) / math.sqrt(denom), dof, alpha)
    sub = corr.take(idx, axis=0).take(idx, axis=1)
    ridged = False
    try:
        omega = np.linalg.inv(sub)
        if not np.isfinite(omega).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        omega = np.linalg.inv(sub + RIDGE * np.eye(len(idx)))
        ridged = True
    denom = omega[a, a] * omega[b, b]
    r = -omega[a, b] / math.sqrt(denom) if denom > 0 else 0.0
    return _t_outcome(float(r), dof, alpha, ridged)


def _t_outcome(r: float, dof: int, alpha: float, ridged: bool = False) -> TestOutcome:
    """Two-sided t test of a (partial) correlation ``r`` on ``dof`` degrees."""
    r = min(max(r, -1.0), 1.0)
    # Exactly collinear pairs land within rounding error of |r| = 1.
    if abs(r) >= 1.0 - 1e-12:
        return TestOutcome(math.copysign(math.inf, r), dof, 0.0, independent=False, ridged=ridged)
    t = r * math.sqrt(dof / (1.0 - r * r))
    p_value = float(2.0 * special.stdtr(dof, -abs(t)))
    return TestOutcome(t, dof, p_value, independent=p_value > alpha, ridged=ridged)


def _t_many(r: np.ndarray, dof: int, alpha: float) -> list[TestOutcome]:
    """:func:`_t_outcome` of each correlation in ``r``, vectorised with the
    same elementwise operations, so each outcome is bit-identical."""
    r = np.clip(r, -1.0, 1.0)
    sure = np.abs(r) >= 1.0 - 1e-12
    safe = np.where(sure, 0.0, r)
    t = np.where(sure, np.copysign(np.inf, r), safe * np.sqrt(dof / (1.0 - safe * safe)))
    p = np.where(sure, 0.0, 2.0 * special.stdtr(dof, -np.abs(t)))
    # Positional, not keyword, arguments: they build a batch's outcomes faster.
    return [TestOutcome(ti, dof, pi, pi > alpha) for ti, pi in zip(t.tolist(), p.tolist())]


def cor_test(
    data: ContinuousDataset,
    x: str,
    y: str,
    z: frozenset | set | tuple,
    alpha: float,
    corr: np.ndarray | None = None,
) -> TestOutcome:
    """Exact Student's t test for the partial correlation of ``x`` and ``y``.

    The partial correlation is read off the inverse of the correlation
    submatrix over {x, y} union z; t = r * sqrt((n - |z| - 2) / (1 - r^2))
    with n - |z| - 2 degrees of freedom, two-sided p-value.

    ``corr`` optionally supplies a full correlation matrix in dataset
    column order; by default the dataset's own (built once) is used.
    """
    if corr is None:
        corr = data.correlation
    rx, rz, (ry,) = _check(data, x, (y,), z, alpha)
    return _partial_t(corr, data.n, *_order(data.name_ranks[1], [*rz, rx, ry], rx, ry), alpha)


def oracle_test(dag: Dag, x: str, y: str, z: frozenset | set | tuple) -> TestOutcome:
    """Perfect test: independence is d-separation in the true graph."""
    if d_separated(dag, x, y, set(z)):
        return TestOutcome(0.0, 0, 1.0, independent=True)
    return TestOutcome(math.inf, 0, 0.0, independent=False)


class CiEngine:
    """A test engine: a kernel behind a task-local memo and a counter.

    Subclasses implement ``_kernel(x, y, z)``, which checks its arguments
    and computes the outcome; invalid arguments raise on every call,
    because only outcomes enter the memo. A subclass may also override
    ``_kernel_many(target, candidates, z)``, which computes the outcomes
    :meth:`test_many` does not find in the memo, under the same checks
    made once per batch.
    """

    name = ""

    def __init__(self, alpha: float):
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.counter = TestCounter()
        self._memo: dict[tuple, TestOutcome] = {}

    def test(self, x: str, y: str, z) -> TestOutcome:
        key = (x, y, frozenset(z)) if x < y else (y, x, frozenset(z))
        outcome = self._memo.get(key)
        if outcome is None:
            outcome = self._memo[key] = self._kernel(*key)
            self.counter.executed += 1
        self.counter.count += 1
        return outcome

    def test_many(self, target: str, candidates: list[str], z) -> list[TestOutcome]:
        """``test(target, v, z)`` for each ``v`` in ``candidates``, in order.

        Counts as ``len(candidates)`` calls of :meth:`test`: duplicates and
        memo hits are requested, and each distinct pair not in the memo is
        executed once. Invalid arguments raise before anything is counted.
        """
        z = frozenset(z)
        keys = [(target, v, z) if target < v else (v, target, z) for v in candidates]
        fresh = {key: v for v, key in zip(candidates, keys) if key not in self._memo}
        if fresh:
            self._memo.update(zip(fresh, self._kernel_many(target, list(fresh.values()), z)))
            self.counter.executed += len(fresh)
        self.counter.count += len(candidates)
        return [self._memo[key] for key in keys]

    def _kernel(self, x: str, y: str, z: frozenset) -> TestOutcome:
        raise NotImplementedError

    def _kernel_many(self, target: str, candidates: list[str], z: frozenset) -> list[TestOutcome]:
        return [self._kernel(*sorted((target, v)), z) for v in candidates]

    def spawn(self):
        """Engine over the same data and precomputed tables, with a zeroed
        private counter and an empty memo."""
        clone = copy.copy(self)
        clone.counter = TestCounter()
        clone._memo = {}
        return clone


class MutualInfoTest(CiEngine):
    """Engine for :func:`mi_test` over one discrete dataset."""

    name = "mi"

    def __init__(self, data: DiscreteDataset, alpha: float):
        if not isinstance(data, DiscreteDataset):
            raise ValueError("the mutual information test requires discrete data")
        super().__init__(alpha)
        self.data = data
        data.name_ranks, data.code_columns  # derive once, before workers fork

    def _kernel(self, x, y, z):
        return mi_test(self.data, x, y, z, self.alpha)

    def _kernel_many(self, target, candidates, z):
        data = self.data
        rt, rz, rcs = _check(data, target, candidates, z, self.alpha)
        columns = data.name_ranks[1]
        cands = [(columns[r], r < rt) for r in rcs]
        izs = [columns[r] for r in rz]
        return _g2_many(data.code_columns, data.cardinalities, columns[rt], izs, cands, self.alpha)


class PartialCorrelationTest(CiEngine):
    """Engine for :func:`cor_test` over one continuous dataset.

    The dataset's correlation matrix is shared by every engine over it. A
    z = {} batch reads the target's correlations from it and tests them
    together with :func:`_t_many`.
    """

    name = "cor"

    def __init__(self, data: ContinuousDataset, alpha: float):
        if not isinstance(data, ContinuousDataset):
            raise ValueError("the correlation test requires continuous data")
        super().__init__(alpha)
        self.data = data
        self.corr = data.correlation
        data.name_ranks  # derive once, before workers fork

    def _kernel(self, x, y, z):
        return cor_test(self.data, x, y, z, self.alpha, self.corr)

    def _kernel_many(self, target, candidates, z):
        rt, rz, rcs = _check(self.data, target, candidates, z, self.alpha)
        columns, n = self.data.name_ranks[1], self.data.n
        if z or n <= 2:
            return [_partial_t(self.corr, n, *_order(columns, [*rz, rt, r], rt, r), self.alpha) for r in rcs]
        # Each pair's entry has the name-smaller variable's row, as in _partial_t.
        it, ics = columns[rt], [columns[r] for r in rcs]
        r = np.where([rc < rt for rc in rcs], self.corr[ics, it], self.corr[it, ics])
        return _t_many(r, n - 2, self.alpha)


class OracleTest(CiEngine):
    """Engine for :func:`oracle_test` against a known true DAG."""

    name = "oracle"

    def __init__(self, dag: Dag, alpha: float = 0.01):
        super().__init__(alpha)
        self.dag = dag

    def _kernel(self, x, y, z):
        return oracle_test(self.dag, x, y, z)


CiTest = CiEngine


def make_engine(test: str, data: Dataset | None, alpha: float, truth: Dag | None = None) -> CiEngine:
    """Build a test engine by name: ``mi``, ``cor`` or ``oracle``; the
    oracle's ``truth`` must hold every variable of ``data``."""
    if test == "mi":
        return MutualInfoTest(data, alpha)
    if test == "cor":
        return PartialCorrelationTest(data, alpha)
    if test == "oracle":
        if truth is None:
            raise ValueError("the oracle test requires truth, the true DAG")
        missing = sorted(set(data.names) - set(truth.nodes)) if data is not None else []
        if missing:
            raise ValueError(f"the true DAG lacks dataset variables: {', '.join(map(repr, missing))}")
        return OracleTest(truth, alpha)
    raise ValueError(f"unknown test: {test!r}")
