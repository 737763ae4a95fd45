"""Conditional independence tests behind one engine.

Three statistics share one engine: the discrete mutual-information test
(G^2, asymptotically chi-squared), the exact Student's t test for partial
correlation, and a d-separation oracle for validating learners on known
graphs. :class:`CiEngine` holds what they share - the counter and
``spawn`` - and each subclass only binds a kernel. The standalone
:func:`mi_test` and :func:`cor_test` call the same kernels.

Callers name variables, and names stop at the boundary: an engine's
``test`` and ``test_many``, and the standalone :func:`mi_test` and
:func:`cor_test`. There the names are checked once and translated through
the dataset's name-rank table (see :mod:`bnsl.data`) by one checker,
:func:`_check`: the target and each candidate with one dict lookup, and z
to its columns in name order (:func:`_z_columns`: ranks sorted as integers,
then each rank's column). An engine's hook checks the target and candidates
on every call and keeps z's columns in a per-task cache keyed by the
frozenset, so each z is translated once per task. The kernels take ranks
and columns only and check nothing. Rank order is name order, so the
kernels receive z's columns exactly as a sort of the names would give them,
and every statistic is unchanged. The oracle has no dataset: its hook gets
the names, and ``d_separated`` checks them.

Every test an engine is asked runs its kernel: the learners ask each test
once per call (see :mod:`bnsl.local`), so an engine keeps no outcomes.
Every kernel is symmetric in ``x`` and ``y`` bit for bit. The executor
builds one engine per task. Its counter records ``count``, the tests
requested: the learner's cost in tests, merged at the phase barriers and
invariant in the worker count and schedule. An outcome is a slotted,
mutable dataclass, since building one is on every test's path. Only
:func:`_cor_many` mutates one: it flags the fresh outcomes of a constant
column degenerate before returning them. Nothing mutates an outcome after
that, and nothing hashes one.

:meth:`CiEngine.test_many` answers one target against many candidates
given one conditioning set, and counts exactly as the same ``test`` calls
would. Each engine binds one kernel hook, ``_kernel_many``, which gets the
candidates of a batch; ``test`` passes its pair as a batch of one. Each
statistic has one kernel, and its standalone test passes it one candidate.
The G^2 kernel, :func:`_g2_many`, answers one candidate on a lean branch:
one ``bincount`` over the test's cell codes, four scalar sums and the
scalar ``chdtrc``, with no grouping and neither batch counter. It groups
the candidates of a batch by cube size and counts each group's cubes with
one of two counters that build the same integers.
:func:`_bincount_cubes` codes the strata once per call and counts a chunk
of candidates with one ``bincount`` over their rows. :func:`_popcount_cubes`
ANDs the row bitsets of the dataset's ``level_bits`` table, one per
stratum-and-target code against one per candidate level, and sums their
popcounts, 64 rows per word. :func:`_popcount_pays` picks popcount for a
group of two or more candidates, at n >= ``POPCOUNT_MIN_ROWS``, with at
most n strata, when its bitset pairs and words cost less than bincount's
rows under a cost model fitted on a grid (see the module constants).
Groups of one and small samples keep bincount. ``BATCH_CELLS`` bounds a
chunk's memory under either counter. The kernel then reads each
statistic off the dataset's ``c * ln c`` table: the cell and
candidate-margin sums per candidate, and the target-margin and
stratum-total sums once per group, since every row has one candidate
level. The t kernel, :func:`_cor_many`,
tests a z = {} batch of two or more from the target's correlations with
one vectorised t test, :func:`_t_many`, bit-identical to
:func:`_partial_t`, which takes every other test with one formula for
every z: the Schur complement of corr[z, z] (whose diagonal is exactly 1)
through its Cholesky factor, in Python floats. The factor's rows and each
variable's forward solve come from :func:`_solve`, memoised for two or
more z columns, keyed on them and the variable; a solve given z extends
the one given z without its last column by one entry. A
:class:`PartialCorrelationTest` keeps that memo for its task, so a task
computes each row and solve once; ``spawn`` empties it.
The learners batch the scans whose tests share a target and z and are all
requested: IAMB's grow scan, MMPC's per-subset scan and SI-HITON-PC's
z = {} ranking.

Tolerance contract of G^2: its table form rounds differently from a
per-cell O ln(O / E) sum, within 16 eps n ln n of an exact reference up
to n = 10^6 (and 1e-9 on the acceptance data). Outcomes stay bit-identical
for ``mi_test(x, y)`` and ``mi_test(y, x)``, single and batched tests, any
column order, worker count and schedule.

Tolerance contract of the t test: the factor form is within 1e-9 of an
exact regression reference on well-conditioned data (criterion 6; |z| up
to 8 in the unit tests), and for |z| <= 1 it equals the closed forms
(r_xy - r_xz r_yz) / sqrt((1 - r_xz^2)(1 - r_yz^2)) and r_xy bit for bit.
Outcomes stay bit-identical for memoised and cold solves (the standalone
:func:`cor_test` builds the same solves cold), ``cor_test(x, y)`` and
``cor_test(y, x)``, single and batched tests, any worker count and
schedule: an outcome depends on (x, y, z) alone.

Degenerate cases are resolved conservatively: a test with zero degrees of
freedom (or a t test with a non-positive sample-size margin) returns
independence with p = 1, since a vacuous test carries no evidence of
dependence. So does a t test whose x or y has a residual variance given z
at or below ``PIVOT_FLOOR``: x is then independent of y given z trivially.
Both are flagged degenerate. A z column within ``PIVOT_FLOOR`` of the span
of the z columns before it in name order gets no row in the factor, which
leaves the partial correlation and the dof unchanged, and the outcome is
flagged ``ridged``. A constant column (see
``ContinuousDataset.constant_columns``) correlates at 0: its t tests read
t = 0 and p = 1, and are flagged degenerate.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from operator import mul

import numpy as np
from scipy import special
from scipy.special import cython_special

from .data import ContinuousDataset, Dataset, DiscreteDataset
from .data import correlation_matrix  # noqa: F401 - re-exported for callers of citests
from .graph import Dag, d_separated

# A residual variance at or below this is rounding noise of an exact linear
# dependence: the t test drops such a z column, or finds x or y a function of z.
PIVOT_FLOOR = 1e-10
# Cap on one batched G^2 chunk: candidates x max(n, cells per candidate), or
# the words of a popcount chunk's AND array. It bounds the chunk's arrays
# (512 KB per 8-byte array) for any candidate count.
BATCH_CELLS = 1 << 16
# The G^2 counters' cost model (see _popcount_pays), in ns: popcount's fixed
# cost per m-group; its cost per pair of row bitsets ANDed (numpy's inner loop
# runs once per pair, over its W words) and per word; and bincount's cost per
# candidate row. Fitted on a grid of n in {146, 500, 2,000, 5,000, 20,000},
# c in {1, 3, 8, 45} candidates, |z| 0-3 and binary and ternary variables,
# timing both counters interleaved on a shared 2-core x86-64 host. On a second
# grid of fresh data the rule's picks for groups of two or more at n >= 500
# cost 0.03% more than always picking the faster counter, and bincount alone
# 75% more. A cost per word alone, without the per-pair term, cost 0.6%.
POPCOUNT_NS = 6_000
POPCOUNT_PAIR_NS = 30
POPCOUNT_WORD_NS = 2.2
BINCOUNT_ROW_NS = 2.9
# On both grids, at n = 146 popcount was faster in 4 of 96 cells of two or
# more candidates, by at most 5%, and up to twice as slow; a batch of one it
# counted slower in most cells up to n = 5,000 (median 1.01x there). So
# bincount keeps every batch below this many rows and every group of one.
POPCOUNT_MIN_ROWS = 500


@dataclass(slots=True)
class TestOutcome:
    """Result of one conditional independence test. ``degenerate`` flags a
    vacuous test; ``ridged``, a t test that dropped a near-collinear
    conditioning column (see the module docstring)."""

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
    """Monotone count of the tests one engine was asked."""

    def __init__(self) -> None:
        self.count = 0

    def __repr__(self):
        return f"TestCounter({self.count})"


def _z_columns(data: Dataset, z: frozenset) -> tuple[int, ...]:
    """The columns of the conditioning set ``z`` in name order. An unknown
    name raises ``ValueError`` naming the name-smallest unknown one, so the
    error does not depend on the set's iteration order."""
    rank, columns = data.name_ranks
    try:
        return tuple([columns[r] for r in sorted([rank[v] for v in z])])
    except KeyError:
        raise ValueError(f"unknown variable: {min((v for v in z if v not in rank), key=str)!r}") from None


def _check(data: Dataset, target: str, candidates, z: frozenset, alpha: float, zs: dict) -> tuple:
    """Check the tests of ``target`` against each of ``candidates`` given
    ``z`` (a single test passes one candidate) and translate them: the
    target, z, the target against z and alpha once, in that order, then
    each candidate with one lookup in the name-rank table. ``zs`` caches
    z's columns (:func:`_z_columns`); only a z of known names enters it.
    Returns the rank of the target, the candidates' ranks and z's
    columns."""
    rank = data.name_ranks[0]
    rt = rank.get(target)
    if rt is None:
        raise ValueError(f"unknown variable: {target!r}")
    zc = zs.get(z)
    if zc is None:
        zc = zs[z] = _z_columns(data, z)
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
    return rt, rcs, zc


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


def _popcount_pays(n: int, c: int, k: int, ct: int, m: int) -> bool:
    """Whether popcount counts an m-group of ``c`` candidates faster than
    ``bincount``, given n rows, ``k`` strata of the z columns and a
    target of ``ct`` levels. Popcount ANDs c K m pairs of row bitsets of
    W = ceil(n / 64) words, K = k * ct, and bincount passes over c n
    rows: the rule is POPCOUNT_NS + c K m (POPCOUNT_PAIR_NS + W
    POPCOUNT_WORD_NS) < c n BINCOUNT_ROW_NS. A group of one, or one of fewer
    than ``POPCOUNT_MIN_ROWS`` rows, never takes popcount."""
    pairs = c * k * ct * m
    return (
        c > 1
        and n >= POPCOUNT_MIN_ROWS
        and POPCOUNT_NS + pairs * (POPCOUNT_PAIR_NS + -(-n // 64) * POPCOUNT_WORD_NS) < c * n * BINCOUNT_ROW_NS
    )


def _bincount_cubes(columns: np.ndarray, it: int, strata: np.ndarray | None, k: int, m: int, ics: list[int]):
    """Yield the count cubes of the target column ``it`` against each of
    the candidate columns ``ics``, a chunk of ``(c, k, m, m)`` at a time,
    over the stratum codes ``strata`` (``None`` for one stratum); the
    axes are candidate, stratum, target level and candidate level. Each
    chunk is one ``bincount`` over c n codes, capped by ``BATCH_CELLS``."""
    n, cells = columns.shape[1], k * m * m
    # Cells in (stratum, target, candidate) order; a chunk's cubes follow one another.
    tail = (columns[it] if strata is None else strata * m + columns[it]) * m
    step = max(1, BATCH_CELLS // max(n, cells))
    for lo in range(0, len(ics), step):
        flat = columns.take(ics[lo:lo + step], axis=0)
        c = len(flat)
        flat += tail
        if c > 1:
            flat += np.arange(0, c * cells, cells)[:, None]
        cube = np.bincount(flat.ravel(), minlength=c * cells).reshape(c, k, m, m)
        del flat  # the caller's statistic step runs while this frame waits
        yield cube


def _popcount_cubes(bits: np.ndarray, rows: np.ndarray, cards, it: int, zc: tuple[int, ...], m: int, ics: list[int]):
    """:func:`_bincount_cubes` over the z columns ``zc`` (in name order),
    whose product of level counts must be their stratum count (at most n),
    counted from the dataset's ``level_bits`` table ``bits`` and its index
    ``rows``. Each stratum-and-target code u = stratum |target| + target
    gets a row bitset (the AND of its levels' bitsets), and a cell's count
    is the popcount of that bitset AND the candidate level's, summed over
    the words; a level the candidate lacks reads the zero row. A chunk's
    AND array holds at most ``BATCH_CELLS`` words, or one candidate's. The
    cubes are the same integers as ``bincount``'s."""
    ct, words = cards[it], bits.shape[1]
    ubits = bits[rows[it, :ct]]
    for j in reversed(zc):
        ubits = (bits[rows[j, :cards[j]], None] & ubits).reshape(-1, words)
    k = len(ubits) // ct
    step = max(1, BATCH_CELLS // (len(ubits) * m * words))
    for lo in range(0, len(ics), step):
        levels = bits[rows[ics[lo:lo + step], None, :m]]  # (c, 1, m, W)
        c = len(levels)
        counts = np.bitwise_count(levels & ubits[:, None]).sum(axis=3, dtype=np.int64)
        del levels  # as in _bincount_cubes
        if ct == m:
            yield counts.reshape(c, k, m, m)
        else:
            cube = np.zeros((c, k, m, m), dtype=np.int64)
            cube[:, :, :ct] = counts.reshape(c, k, ct, m)
            yield cube


def _g2_many(data: DiscreteDataset, rt: int, rcs: list[int], zc: tuple[int, ...], alpha: float) -> list[TestOutcome]:
    """G^2 of the variable of rank ``rt`` against each of ranks ``rcs``
    given the z columns ``zc`` (in name order), all checked by the caller.

    G^2 = 2 [sum O ln O - sum R ln R - sum C ln C + sum T ln T] over each
    stratum's cells O, row and column margins R and C and total T, with
    every term read from the dataset's ``xlogx`` table. A candidate of w
    levels is counted into a k x m x m cube, m = max(|target|, w), whose
    axes are the two variables in name order. The cube, and so the length
    and order of every sum, depends only on the test, so ``mi_test(x, y)``,
    ``mi_test(y, x)`` and a batched outcome are bit-identical.

    A single test (one candidate) counts its cube with one ``bincount``
    over the same codes as :func:`_bincount_cubes`, reads the four sums in
    the same layouts and combines them in the same order as a batch, and
    takes p from the scalar ``chdtrc``. A batch groups its candidates by m,
    and each group is counted by one of two counters that build the same
    integer cubes: :func:`_bincount_cubes`, one ``bincount`` over c n codes
    per chunk, or :func:`_popcount_cubes`, c K m ceil(n / 64) word ANDs and
    popcounts over the dataset's ``level_bits`` (K = k |target|).
    :func:`_popcount_pays` picks popcount for a group whose strata need no
    re-coding (k <= n) when its bitset work is cheaper than bincount's row
    work. ``BATCH_CELLS`` bounds a chunk's memory either way. Every row
    has one candidate level, so the target-margin and stratum-total sums
    are the same for every candidate of a group: they are read once, off
    its first cube.
    """
    columns, cards, xlogx = data.code_columns, data.cardinalities, data.xlogx
    col = data.name_ranks[1]
    it, ct = col[rt], cards[col[rt]]
    zdof = math.prod(cards[j] for j in zc)
    if len(rcs) == 1:
        ic = col[rcs[0]]
        dof = (ct - 1) * (cards[ic] - 1) * zdof
        if dof <= 0:
            return [TestOutcome(0.0, 0, 1.0, True, True)]
        m = max(ct, cards[ic])
        strata, k = _strata(columns, cards, zc)
        codes = columns[it] * m if strata is None else (strata * m + columns[it]) * m
        codes += columns[ic]
        cube = np.bincount(codes, minlength=k * m * m).reshape(k, m, m)
        tm = cube.sum(axis=2)
        t_sum = float(xlogx.take(tm).sum())
        c_sum = float(xlogx.take(cube.sum(axis=1)).sum())
        if rcs[0] < rt:  # as a batch lays out a candidate that comes first in name order
            g = float(xlogx.take(cube.swapaxes(1, 2)).sum()) - c_sum - t_sum
        else:
            g = float(xlogx.take(cube).sum()) - t_sum - c_sum
        statistic = max(2.0 * (g + float(xlogx.take(tm.sum(axis=1)).sum())), 0.0)
        # The scalar Cython chdtrc: the ufunc's result, bit for bit, without its dispatch.
        p_value = cython_special.chdtrc(float(dof), statistic)
        return [TestOutcome(statistic, dof, p_value, p_value > alpha)]

    outcomes: list[TestOutcome | None] = [None] * len(rcs)
    groups: dict[int, list] = {}
    for pos, r in enumerate(rcs):
        ic = col[r]
        dof = (ct - 1) * (cards[ic] - 1) * zdof
        if dof <= 0:
            outcomes[pos] = TestOutcome(0.0, 0, 1.0, True, True)
        else:
            groups.setdefault(max(ct, cards[ic]), []).append((pos, ic, r < rt, dof))
    if not groups:
        return outcomes

    n = columns.shape[1]
    coded = None
    for m, group in groups.items():
        ics = [ic for _, ic, _, _ in group]
        # zdof <= n: _strata would not re-code, so the strata are zc's level combinations.
        if zdof <= n and _popcount_pays(n, len(group), zdof, ct, m):
            cubes = _popcount_cubes(*data.level_bits, cards, it, zc, m, ics)
        else:
            if coded is None:
                coded = _strata(columns, cards, zc)
            cubes = _bincount_cubes(columns, it, *coded, m, ics)
        lo = 0
        for cube in cubes:
            chunk = group[lo:lo + len(cube)]
            if not lo:  # the group's target margin and stratum totals, from its first cube
                tm = cube[0].sum(axis=2)
                t_sum, s_sum = xlogx.take(tm).sum(), xlogx.take(tm.sum(axis=1)).sum()
            lo += len(cube)
            c = len(chunk)
            c_sums = xlogx.take(cube.sum(axis=2)).reshape(c, -1).sum(axis=1)
            before = [before for _, _, before, _ in chunk]
            if any(before):  # name order puts these candidates first: the (candidate, target) layout
                swap = np.array(before)
                cube = np.where(swap[:, None, None, None], cube.swapaxes(2, 3), cube)
                first, second = np.where(swap, c_sums, t_sum), np.where(swap, t_sum, c_sums)
            else:
                first, second = t_sum, c_sums
            stats = xlogx.take(cube).reshape(c, -1).sum(axis=1)
            stats -= first
            stats -= second
            stats += s_sum
            stats = np.maximum(2.0 * stats, 0.0)
            # float64: a dof past 2^63 would make an object array the ufunc rejects.
            dofs = np.array([dof for *_, dof in chunk], dtype=np.float64)
            for (pos, _, _, dof), statistic, p_value in zip(chunk, stats.tolist(), special.chdtrc(dofs, stats).tolist()):
                outcomes[pos] = TestOutcome(statistic, dof, p_value, p_value > alpha)
    return outcomes


def mi_test(data: DiscreteDataset, x: str, y: str, z: frozenset | set | tuple, alpha: float) -> TestOutcome:
    """G^2 mutual-information test of ``x`` against ``y`` given ``z``.

    statistic = 2 * sum O * ln(O / E) with expected counts computed per
    stratum of ``z``; cells with O = 0 contribute nothing. Degrees of
    freedom use the declared level counts: (|x|-1)(|y|-1) * prod |z_k|;
    empty strata still count toward the dof (pure asymptotic formula).
    """
    return _g2_many(data, *_check(data, x, (y,), frozenset(z), alpha, {}), alpha)[0]


def _partial_t(
    corr: np.ndarray, n: int, columns, zc: tuple[int, ...], rx: int, ry: int, alpha: float, solves: dict
) -> TestOutcome:
    """Partial-correlation t kernel of the variables of ranks ``rx`` and
    ``ry`` given the z columns ``zc`` in name order; ``columns`` maps a
    rank to its column.

    Every z takes the Schur complement of corr[z, z] through its Cholesky
    factor L: with a = L^-1 r_za and b = L^-1 r_zb from :func:`_solve`,
    where a is the name-smaller variable, r = (r_ab - a.b) /
    sqrt((1 - |a|^2)(1 - |b|^2)): for |z| <= 1, the closed forms' float
    operations. ``solves`` memoises the forward solves for one engine's
    calls; an empty one builds them cold, and each solve is the same floats
    either way, so every outcome depends on (x, y, z) alone, bit for bit.
    Agreement with an exact reference is within 1e-9 on well-conditioned data.

    A residual variance of x or y given z at or below ``PIVOT_FLOOR``
    gives the degenerate independent outcome.
    """
    dof = n - len(zc) - 2
    if dof <= 0:
        return TestOutcome(0.0, max(dof, 0), 1.0, True, True)
    ix, iy = (columns[rx], columns[ry]) if rx < ry else (columns[ry], columns[rx])
    a_x, var_x, skipped = _solve(solves, corr, zc, ix)
    a_y, var_y, _ = _solve(solves, corr, zc, iy)
    if var_x > PIVOT_FLOOR and var_y > PIVOT_FLOOR:
        r = (corr.item(ix, iy) - sum(map(mul, a_x, a_y))) / math.sqrt(var_x * var_y)
        return _t_outcome(r, dof, alpha, skipped)
    # x or y lies in the span of z: x is independent of y given z, trivially.
    return TestOutcome(0.0, dof, 1.0, True, True, skipped)


def _solve(solves: dict, corr: np.ndarray, key: tuple[int, ...], iv: int) -> tuple[list[float], float, bool]:
    """``(a, 1 - |a|^2, skipped)`` for the forward solve a = L^-1 r_zv of
    column ``iv``, where L is the lower Cholesky factor of corr[z, z] for
    the z columns ``key`` in name order; memoised in ``solves`` by
    ``(key, iv)`` for a key of two or more columns. As corr's diagonal is
    exactly 1, a shorter key gives ``([], 1.0, False)`` or
    ``([r_vz], 1 - r_vz^2, False)``, cheaper to compute than to memoise.

    L's leading block is the factor of the leading columns, so L's row for
    key[-1] is that column's solve against key[:-1], and a extends the solve
    of ``iv`` against key[:-1] by one entry. So one memo holds every longer
    factor row and solve of a task, each computed by the same operations
    whichever test asked for it first. A z column whose residual variance
    is at or below ``PIVOT_FLOOR`` lies in the span of the columns before
    it: it gets no row, which changes no partial correlation given z, and
    ``skipped`` records it.
    """
    if not key:
        return [], 1.0, False
    if len(key) == 1:
        r = corr.item(iv, key[0])
        return [r], 1.0 - r * r, False
    out = solves.get((key, iv))
    if out is None:
        head, iz = key[:-1], key[-1]
        a, var, skipped = _solve(solves, corr, head, iv)
        row, pvar, _ = _solve(solves, corr, head, iz)
        if pvar > PIVOT_FLOOR:
            s = (corr.item(iv, iz) - sum(map(mul, row, a))) / math.sqrt(pvar)
            out = ([*a, s], var - s * s, skipped)
        else:
            out = (a, var, True)
        solves[(key, iv)] = out
    return out


def _t_outcome(r: float, dof: int, alpha: float, ridged: bool = False) -> TestOutcome:
    """Two-sided t test of a (partial) correlation ``r`` on ``dof`` degrees."""
    r = min(max(r, -1.0), 1.0)
    # Exactly collinear pairs land within rounding error of |r| = 1.
    if abs(r) >= 1.0 - 1e-12:
        return TestOutcome(math.copysign(math.inf, r), dof, 0.0, False, False, ridged)
    t = r * math.sqrt(dof / (1.0 - r * r))
    # The scalar Cython stdtr: the ufunc's result, bit for bit, without its dispatch.
    p_value = 2.0 * cython_special.stdtr(float(dof), -abs(t))
    # Positional, not keyword, arguments: they build an outcome faster.
    return TestOutcome(t, dof, p_value, p_value > alpha, False, ridged)


def _t_many(r: np.ndarray, dof: int, alpha: float) -> list[TestOutcome]:
    """:func:`_t_outcome` of each correlation in ``r``, vectorised with the
    same elementwise operations, so each outcome is bit-identical."""
    r = np.clip(r, -1.0, 1.0)
    sure = np.abs(r) >= 1.0 - 1e-12
    safe = np.where(sure, 0.0, r)
    t = np.where(sure, np.copysign(np.inf, r), safe * np.sqrt(dof / (1.0 - safe * safe)))
    p = np.where(sure, 0.0, 2.0 * special.stdtr(dof, -np.abs(t)))
    return [TestOutcome(ti, dof, pi, pi > alpha) for ti, pi in zip(t.tolist(), p.tolist())]


def _cor_many(
    data: ContinuousDataset, rt: int, rcs: list[int], zc: tuple[int, ...], alpha: float, corr: np.ndarray, solves: dict
) -> list[TestOutcome]:
    """t tests of the variable of rank ``rt`` against each of ranks ``rcs``
    given the z columns ``zc`` (in name order), all checked by the caller,
    over the correlation matrix ``corr``; a single test is a batch of one.
    Only a z = {} batch of two or more (and n > 2) takes :func:`_t_many`;
    ``solves`` is :func:`_partial_t`'s memo. A test of a constant column is
    flagged degenerate."""
    columns, n = data.name_ranks[1], data.n
    if len(rcs) == 1:  # no comprehension: it would cost a single test about 10%
        outcomes = [_partial_t(corr, n, columns, zc, rt, rcs[0], alpha, solves)]
    elif zc or n <= 2:
        outcomes = [_partial_t(corr, n, columns, zc, rt, r, alpha, solves) for r in rcs]
    else:
        # Each pair's entry has the name-smaller variable's row, as in _partial_t.
        it, ics = columns[rt], [columns[r] for r in rcs]
        r = np.where([rc < rt for rc in rcs], corr[ics, it], corr[it, ics])
        outcomes = _t_many(r, n - 2, alpha)
    constant = data.constant_columns
    if constant:
        target_constant = columns[rt] in constant
        for outcome, r in zip(outcomes, rcs):
            if target_constant or columns[r] in constant:
                outcome.degenerate = True
    return outcomes


def cor_test(
    data: ContinuousDataset,
    x: str,
    y: str,
    z: frozenset | set | tuple,
    alpha: float,
    corr: np.ndarray | None = None,
) -> TestOutcome:
    """Exact Student's t test for the partial correlation of ``x`` and ``y``.

    The partial correlation is that of x and y given z in the correlation
    matrix (see :func:`_partial_t`); t = r * sqrt((n - |z| - 2) / (1 - r^2))
    with n - |z| - 2 degrees of freedom, two-sided p-value. A standalone
    test builds its forward solves cold, and its outcome equals an
    engine's bit for bit.

    ``corr`` optionally supplies the m x m matrix that ``correlation_matrix``
    builds (diagonal exactly 1.0, in dataset column order) or raises
    ``ValueError``; by default the dataset's own (built once) is used.
    """
    if corr is None:
        corr = data.correlation
    elif corr.shape != (len(data.names),) * 2 or np.count_nonzero(corr.diagonal() - 1.0):
        raise ValueError("corr must be m x m with a diagonal of exactly 1.0, as correlation_matrix builds it")
    return _cor_many(data, *_check(data, x, (y,), frozenset(z), alpha, {}), alpha, corr, {})[0]


def oracle_test(dag: Dag, x: str, y: str, z: frozenset | set | tuple) -> TestOutcome:
    """Perfect test: independence is d-separation in the true graph."""
    if d_separated(dag, x, y, set(z)):
        return TestOutcome(0.0, 0, 1.0, True)
    return TestOutcome(math.inf, 0, 0.0, False)


class CiEngine:
    """A test engine: a kernel behind a counter.

    :meth:`test` and :meth:`test_many` pass each request, by name, to the
    engine's one kernel hook, ``_kernel_many(target, candidates, z)``:
    :meth:`test` passes ``y`` as a batch of one, and :meth:`test_many`
    its candidates. Invalid arguments raise on every call, before
    anything is counted.

    The hook of an engine over a dataset (``self.data``) checks and
    translates the names with :func:`_check`: the target and candidates
    through the name-rank table on every call, and z through a per-task
    cache, ``_zs``, from the frozenset to its columns in name order; only
    a checked z enters it, and :meth:`spawn` empties it.
    """

    name = ""

    def __init__(self, alpha: float):
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.counter = TestCounter()
        self._zs: dict[frozenset, tuple[int, ...]] = {}

    def test(self, x: str, y: str, z) -> TestOutcome:
        outcome = self._kernel_many(x, (y,), frozenset(z))[0]
        self.counter.count += 1
        return outcome

    def test_many(self, target: str, candidates: list[str], z) -> list[TestOutcome]:
        """``test(target, v, z)`` for each ``v`` in ``candidates``, in order,
        as one kernel batch; it counts as ``len(candidates)`` calls of
        :meth:`test`. An empty batch asks nothing."""
        if not candidates:
            return []
        outcomes = self._kernel_many(target, candidates, frozenset(z))
        self.counter.count += len(outcomes)
        return outcomes

    def _kernel_many(self, target, candidates, z) -> list[TestOutcome]:
        raise NotImplementedError

    def spawn(self):
        """Engine over the same data and precomputed tables, with a zeroed
        private counter and an empty z cache."""
        clone = copy.copy(self)
        clone.counter = TestCounter()
        clone._zs = {}
        return clone


class MutualInfoTest(CiEngine):
    """Engine for :func:`mi_test` over one discrete dataset."""

    name = "mi"

    def __init__(self, data: DiscreteDataset, alpha: float):
        if not isinstance(data, DiscreteDataset):
            raise ValueError("the mutual information test requires discrete data")
        super().__init__(alpha)
        self.data = data
        data.name_ranks, data.code_columns, data.xlogx, data.level_bits  # derive once, before workers fork

    def _kernel_many(self, target, candidates, z):
        return _g2_many(self.data, *_check(self.data, target, candidates, z, self.alpha, self._zs), self.alpha)


class PartialCorrelationTest(CiEngine):
    """Engine for :func:`cor_test` over one continuous dataset.

    The dataset's correlation matrix is shared by every engine over it.
    ``_solves`` memoises the forward solves of the tests given two or more
    variables (see :func:`_solve`), and :meth:`spawn` empties it.
    """

    name = "cor"

    def __init__(self, data: ContinuousDataset, alpha: float):
        if not isinstance(data, ContinuousDataset):
            raise ValueError("the correlation test requires continuous data")
        super().__init__(alpha)
        self.data = data
        self.corr = data.correlation
        self._solves: dict[tuple, tuple] = {}
        data.name_ranks, data.constant_columns  # derive once, before workers fork

    def _kernel_many(self, target, candidates, z):
        rt, rcs, zc = _check(self.data, target, candidates, z, self.alpha, self._zs)
        return _cor_many(self.data, rt, rcs, zc, self.alpha, self.corr, self._solves)

    def spawn(self):
        """As :meth:`CiEngine.spawn`, with an empty solve memo too."""
        clone = super().spawn()
        clone._solves = {}
        return clone


class OracleTest(CiEngine):
    """Engine for :func:`oracle_test` against a known true DAG. It has no
    dataset: its hook gets names, and ``d_separated`` checks them."""

    name = "oracle"

    def __init__(self, dag: Dag, alpha: float = 0.01):
        super().__init__(alpha)
        self.dag = dag

    def _kernel_many(self, target, candidates, z):
        return [oracle_test(self.dag, *sorted((target, v)), z) for v in candidates]


def default_test(data: Dataset) -> str:
    """The test a learn on ``data`` runs when none is named."""
    return "mi" if isinstance(data, DiscreteDataset) else "cor"


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
