"""Per-node learners: Markov blanket and neighbourhood backends.

Markov blanket backends (``gs``, ``iamb``, ``inter-iamb``) grow a candidate
set and shrink away false positives; neighbourhood backends (``mmpc``,
``si-hiton-pc``) search for separating subsets and keep only candidates no
subset can separate. Each is a forward phase, then an elimination phase;
GS grows in its own loop (each dependent candidate changes the next
conditioning set), and the rest share two loops:

- :func:`_forward`, max-min forward selection: scan the candidates given
  each of some conditioning sets and add the one most associated at its
  weakest. IAMB scans given the current blanket (Inter-IAMB also shrinks
  after each addition). MMPC keeps each candidate's weakest outcome for
  the whole call: its first scan walks each subset of the seeds up to
  ``max_condition_size``, and each later one only the subsets that hold
  the member just admitted. SI-HITON-PC ranks by one scan given z = {},
  then walks only the dependent candidates, from subsets of size one.
- :func:`_eliminate`, one name-ordered elimination pass. Every blanket
  backend ends with :func:`_shrink`, which repeats it to a fixpoint testing
  each member given the rest; every neighbourhood backend with
  :func:`_backward`, which runs it once with a separating-subset search.
  The pipeline's pair separation runs it once per node, over the node's
  own blanket.

So every learner asks each test once per call: never one whose answer
the call holds. ``witness`` holds the independent answers (candidate ->
latest separating set), and GS's grow loop and the IAMB scans skip a
candidate whose witness is the set at hand. ``walked`` holds dependent
ones. A blanket backend's ``walked[v]`` is the latest set ``v`` tested
dependent given, its admission set first, and every :func:`_shrink` of
the call keeps ``v`` untested when its rest equals it. A neighbourhood
backend's is the member set at ``v``'s admission: ``v`` tested dependent
given each subset of it up to the cap, so the backward pass skips them.
Start-set seeds have no entry, and are searched in full.

All heuristic choices are deterministic: candidates are scanned in name
order, association ranking breaks ties by statistic magnitude then name,
a candidate's weakest outcome is the first in subset order among equal
p-values, and separating subsets are enumerated by increasing size and name-
lexicographically within a size. :meth:`_SubsetOrder.first` is the single
search for the first separating subset (:func:`first_separator` runs it
on a pool of its own). Whitelisted nodes are forced members and never
tested for removal; blacklisted nodes are never tested at all; start
nodes seed the candidate set but remain removable.

A :class:`_SubsetOrder` builds a pool's subsets one size at a time, when
a walk first reaches that size. Searches that repeat a pool share one
order, and so one frozenset per subset: SI-HITON-PC's forward searches
(one order for ``pc``, replaced when it grows), :func:`_backward` (one
order for the members; member ``v`` skips the subsets that hold ``v``,
and those inside its ``walked`` set) and the pipeline's pair separation
(one order per task, over the node's own blanket; pair ``j`` skips the
subsets that hold ``j``). Every empty conditioning set, in a search or a
scan, is the one ``graph._NO_NODES``.

A scan asks the engine for each conditioning set's whole batch
(``test_many``); engines that only implement ``test`` get one call per
candidate. GS's grow scan, :func:`_shrink` and the separating-subset
searches stay one test at a time: each outcome changes the next
conditioning set or ends the search, so batching them would run tests
never requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator

from .citests import CiEngine
from .graph import _NO_NODES, _pair

MB_BACKENDS = ("gs", "iamb", "inter-iamb")
NBR_BACKENDS = ("mmpc", "si-hiton-pc")


@dataclass(frozen=True)
class LocalLearnConfig:
    """Settings for one local learning call."""

    backend: str
    start: frozenset[str] = frozenset()
    whitelist: frozenset[str] = frozenset()
    blacklist: frozenset[str] = frozenset()
    max_condition_size: int | None = None

    def validate(self, target: str) -> None:
        if self.backend not in MB_BACKENDS + NBR_BACKENDS:
            raise ValueError(f"unknown backend: {self.backend!r}")
        if self.whitelist & self.blacklist:
            raise ValueError("whitelist and blacklist overlap")
        if self.start & self.blacklist:
            raise ValueError("start set and blacklist overlap")
        for name, group in (("start", self.start), ("whitelist", self.whitelist), ("blacklist", self.blacklist)):
            if target in group:
                raise ValueError(f"target {target!r} may not appear in the {name} set")
        _check_cap(self.max_condition_size)


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 0:  # it would search no subset, not even the empty one
        raise ValueError("max_condition_size must be non-negative")


class SepsetTable:
    """Separating sets found during learning, keyed by unordered pair.

    A value of ``None`` marks a pair for which an exhaustive search found no
    separating set ("none found"); any recorded set witnessed an independent
    test outcome for its pair.

    The table is stored as rows, one per endpoint: each pair sits in exactly
    one row, that of the endpoint that recorded it (a learner's table is
    one row, its target's). Lookups read both endpoints' rows, and pair
    tuples are built only by :meth:`items`.
    """

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: dict[str, dict[str, frozenset[str] | None]] = {}

    def record(self, x: str, y: str, sepset: frozenset[str] | None) -> None:
        """Set the pair's set where the pair sits, or else in ``x``'s row."""
        rows = self._rows
        if x in rows.get(y, ()):
            rows[y][x] = sepset
        else:
            rows.setdefault(x, {})[y] = sepset

    def has(self, x: str, y: str) -> bool:
        rows = self._rows
        return y in rows.get(x, ()) or x in rows.get(y, ())

    def get(self, x: str, y: str) -> frozenset[str] | None:
        rows = self._rows
        if y in (row := rows.get(x, ())):
            return row[y]
        if x in (row := rows.get(y, ())):
            return row[x]
        raise KeyError(_pair(x, y))

    def merge_first_wins(self, other: "SepsetTable") -> None:
        """Adopt entries from ``other`` for pairs not already present."""
        rows = self._rows
        for x, theirs in other._rows.items():
            mine = rows.setdefault(x, {})
            for y, sepset in theirs.items():
                if y not in mine and x not in rows.get(y, ()):
                    mine[y] = sepset

    def items(self) -> Iterator[tuple[tuple[str, str], frozenset[str] | None]]:
        return iter(sorted((_pair(x, y), sepset) for x, row in self._rows.items() for y, sepset in row.items()))

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def __repr__(self):
        return f"SepsetTable({len(self)} pairs)"


def subsets_in_order(pool: Iterable[str], cap: int | None = None) -> Iterator[frozenset[str]]:
    """All subsets of ``pool`` by increasing size, name-lexicographic within
    a size, optionally capped at ``cap`` elements. Includes the empty set,
    always the shared ``_NO_NODES``. A negative ``cap`` raises
    ``ValueError``, here and in every search."""
    return iter(_SubsetOrder(pool, cap))


def first_separator(
    test: CiEngine, x: str, y: str, pool: Iterable[str], cap: int | None = None
) -> frozenset[str] | None:
    """The first subset of ``pool``, in :func:`subsets_in_order` order, given
    which ``x`` and ``y`` test independent, or ``None`` when none does.

    A size's subsets are made only when the search reaches that size, so a
    search that stops at the empty set (the shared ``_NO_NODES``) makes
    none. Searches that repeat a pool share a :class:`_SubsetOrder`."""
    return _SubsetOrder(pool, cap).first(test, x, y)


class _SubsetOrder:
    """The subsets of one pool in :func:`subsets_in_order` order, kept for
    every search over that pool: ``levels[k]`` lists those of size ``k``,
    built the first time a walk reaches size ``k``."""

    __slots__ = ("pool", "top", "levels")

    def __init__(self, pool: Iterable[str], cap: int | None = None) -> None:
        _check_cap(cap)
        self.pool = sorted(pool)
        self.top = len(self.pool) if cap is None else min(cap, len(self.pool))
        self.levels = [[_NO_NODES]]

    def level(self, size: int) -> list[frozenset[str]]:
        """The subsets of ``size`` elements; sizes are reached in order."""
        levels = self.levels
        if size == len(levels):
            levels.append([frozenset(c) for c in combinations(self.pool, size)])
        return levels[size]

    def __iter__(self) -> Iterator[frozenset[str]]:
        for size in range(self.top + 1):
            yield from self.level(size)

    def first(
        self,
        test: CiEngine,
        x: str,
        y: str,
        skip: str | None = None,
        start: int = 0,
        asked: frozenset[str] | None = None,
    ) -> frozenset[str] | None:
        """The first subset without ``skip``, of ``start`` or more elements
        and not inside ``asked``, given which ``x`` and ``y`` test
        independent, or ``None``. Leaving out the subsets that hold a
        member ``skip`` walks ``subsets_in_order(pool - {skip}, cap)``:
        combinations of a sorted list keep their relative order when an
        element goes. A walk from ``start=1`` skips the empty set, for a
        pair already tested given it; one with ``asked`` skips every subset
        of ``asked`` (the empty set included), for a pair already tested
        given each of them. ``asked=None`` skips none."""
        levels = self.levels
        for size in range(start, self.top + 1):
            for s in levels[size] if size < len(levels) else self.level(size):
                if skip not in s and (asked is None or not s <= asked) and test.test(x, y, s).independent:
                    return s
        return None


def _orders(cap: int | None):
    """``order_of(pool)``: one shared :class:`_SubsetOrder` per frozenset
    ``pool``, for searches that repeat a pool."""
    return cache(partial(_SubsetOrder, cap=cap))


def learn_mb(
    data, target: str, cfg: LocalLearnConfig, test: CiEngine
) -> tuple[frozenset[str], SepsetTable]:
    """Learn the Markov blanket of ``target`` with a grow-shrink backend.

    Returns the candidate blanket and the separating sets recorded for
    excluded candidates.
    """
    return _learn(_MB_STEPS, _shrink, "Markov blankets", data, target, cfg, test)


def learn_nbr(
    data, target: str, cfg: LocalLearnConfig, test: CiEngine
) -> tuple[frozenset[str], SepsetTable]:
    """Learn the neighbourhood (parents and children) of ``target``.

    Returns the candidate neighbourhood and, for every rejected candidate,
    the separating set that excluded it.
    """
    return _learn(_NBR_STEPS, _backward, "neighbourhoods", data, target, cfg, test)


def _learn(steps, eliminate, kind, data, target, cfg, test):
    """Run the forward phase ``steps[cfg.backend]`` for ``target`` on the
    member set seeded with the whitelist and the start set, then
    ``eliminate``, passing it what the forward phase returns (a
    neighbourhood backend's ``walked`` sets). Both note in ``witness`` the
    latest separating set of each candidate they rejected."""
    cfg.validate(target)
    if cfg.backend not in steps:
        raise ValueError(f"backend {cfg.backend!r} does not learn {kind}")
    names = _resolve_names(data, target, cfg)
    members, witness = set(cfg.whitelist | cfg.start), {}
    walked = steps[cfg.backend](names, members, target, cfg, test, witness)
    eliminate(members, target, cfg, test, witness, walked)
    return frozenset(members), _sepsets(target, members, witness)


def _sepsets(target, members, witness) -> SepsetTable:
    """The sepset table of one learner call: one row, the target's, with the
    witnessed sets of the non-members."""
    table = SepsetTable()
    table._rows[target] = {v: sepset for v, sepset in witness.items() if v not in members}
    return table


def _resolve_names(data, target: str, cfg: LocalLearnConfig) -> list[str]:
    """Eligible candidate names in canonical (name) order. The dataset's
    name-rank table lists every name, in name order."""
    rank = data.name_ranks[0]
    for name in (target, *cfg.start, *cfg.whitelist, *cfg.blacklist):
        if name not in rank:
            raise ValueError(f"unknown variable: {name!r}")
    # The start set and whitelist are names, neither the target nor blacklisted.
    return [v for v in rank if v != target and v not in cfg.blacklist]


def _grow(names, cmb, target, cfg, test, witness) -> dict[str, frozenset[str]]:
    """GS's grow loop, in name-ordered passes until one adds nothing.
    Returns each added member's conditioning set at its admission."""
    walked, changed = {}, True
    while changed:
        changed = False
        for v in names:
            if v not in cmb and witness.get(v) != (cond := _frozen(cmb)):
                if test.test(target, v, cond).independent:
                    witness[v] = cond
                else:
                    walked[v] = cond
                    cmb.add(v)
                    changed = True
    return walked


def _iamb(names, cmb, target, cfg, test, witness, interleave: bool) -> dict[str, frozenset[str]]:
    grown = partial(_shrink, target=target, cfg=cfg, test=test, witness=witness) if interleave else None
    return _forward(names, cmb, target, test, witness, lambda members, _: [_frozen(members)], grown)


def _mmpc(names, cpc, target, cfg, test, witness) -> dict[str, frozenset[str]]:
    """Max-min parents and children with a running weakest outcome per
    candidate: the first scan walks each subset of the seeds, and the scan
    after admitting ``m`` only the new subsets {m} | s, for s a subset of
    the earlier members of at most ``cap - 1`` elements (none at cap 0)."""
    cap = cfg.max_condition_size

    def sets(members, added):
        if added is None:
            return subsets_in_order(members, cap)
        if cap == 0:
            return ()
        one = frozenset((added,))
        return (s | one for s in subsets_in_order(members - one, None if cap is None else cap - 1))

    return _forward(names, cpc, target, test, witness, sets, weakest={})


def _si_hiton_pc(names, pc, target, cfg, test, witness) -> dict[str, frozenset[str]]:
    """Rank the candidates by one scan given the empty set, then admit each
    dependent one that no non-empty subset of ``pc`` separates. The scan
    asks each marginal test once: it witnesses the independent candidates,
    which are never walked, and a dependent one's walk starts at size one.
    Every search walks one order of ``pc``, replaced when ``pc`` grows.
    Returns each admitted candidate's ``pc`` at its admission."""
    candidates = [v for v in names if v not in pc]
    order = _SubsetOrder(pc, cfg.max_condition_size)
    walked = {}
    for _, v, out in sorted(_scan(test, target, candidates, [_NO_NODES], witness, {}), key=itemgetter(0)):
        if out.independent:
            continue
        sep = order.first(test, target, v, start=1)
        if sep is None:
            walked[v] = frozenset(pc)
            pc.add(v)
            order = _SubsetOrder(pc, cfg.max_condition_size)
        else:
            witness[v] = sep
    return walked


def _frozen(members) -> frozenset[str]:
    """``frozenset(members)``, the shared ``_NO_NODES`` when empty."""
    return frozenset(members) if members else _NO_NODES


def _forward(names, members, target, test, witness, sets, grown=None, weakest=None) -> dict[str, frozenset[str]]:
    """Max-min forward selection: while the candidate most associated at its
    weakest tests dependent, add it to ``members`` and call
    ``grown(members, walked=walked)``. A round scans the candidates given
    ``sets(members, added)``, ``added`` being the member the last round
    admitted (``None`` in the first round), into a fresh weakest map, or
    into the caller's ``weakest`` if it holds one for the whole call; then
    ``sets`` gives only the sets new since the last round. A round that
    ranks no candidate ends the loop, and so does a member set seen before:
    a guard against inconsistent answers when ``grown`` drops members.
    Returns ``walked``: each admitted candidate's member set at its
    admission (``grown`` may update it)."""
    state = frozenset(members)
    seen, walked, added = {state}, {}, None
    while candidates := [v for v in names if v not in members]:
        merged = {} if weakest is None else weakest
        ranked = _scan(test, target, candidates, sets(members, added), witness, merged)
        if not ranked:
            break
        _, v, out = min(ranked)
        if out.independent:
            break
        walked[v], added = state, v
        members.add(v)
        if grown is not None:
            grown(members, walked=walked)
        if (state := frozenset(members)) in seen:
            break
        seen.add(state)
    return walked


def _scan(test, target, candidates, sets, witness, weakest) -> list:
    """``(ranking key, name, outcome)`` per candidate, the outcome its weakest
    over the conditioning ``sets`` and what ``weakest`` already holds for
    it (largest p; on equal p the set first in :func:`subsets_in_order`
    order), merged into ``weakest``; that set witnesses an independent
    candidate. A set's tests leave out the candidates it witnesses, and a
    candidate with no outcome is not ranked. Each set is one ``test_many``
    batch, or one ``test`` call per candidate on engines that only have
    ``test``."""
    many = getattr(test, "test_many", None)
    for s in sets:
        asked = [v for v in candidates if witness.get(v) != s]
        outcomes = many(target, asked, s) if many else [test.test(target, v, s) for v in asked]
        for v, out in zip(asked, outcomes):
            held = weakest.get(v)
            if held is None or _weaker(out, s, *held):
                weakest[v] = out, s
    ranked = []
    for v in candidates:
        if v in weakest:
            out, s = weakest[v]
            if out.independent:
                witness[v] = s
            ranked.append((out.ranking_key(v), v, out))
    return ranked


def _weaker(out, s, held, t) -> bool:
    """Whether outcome ``out`` given ``s`` is weaker than ``held`` given
    ``t``: a larger p, or an equal p given a set that comes before ``t`` in
    :func:`subsets_in_order`."""
    return out.p_value > held.p_value or (out.p_value == held.p_value and (len(s), sorted(s)) < (len(t), sorted(t)))


def _eliminate(members: set[str], keep, witness, separator) -> bool:
    """Drop, in name order, each member ``v`` outside ``keep`` that
    ``separator(v)`` separates from the target, witnessed by the set it
    returns; ``separator`` reads ``members`` as they stand, ``v`` still in.
    Returns whether a member was dropped."""
    dropped = False
    for v in sorted(members - keep):
        sep = separator(v)
        if sep is not None:
            members.discard(v)
            witness[v] = sep
            dropped = True
    return dropped


def _shrink(members, target, cfg, test, witness, walked) -> None:
    """Drop members independent of the target given the rest, to fixpoint.
    A member whose rest is its ``walked`` set, the latest it tested
    dependent given, is kept untested; each dependent test replaces it."""
    def given_rest(v):
        if walked.get(v) != (rest := _frozen(members - {v})):
            if test.test(target, v, rest).independent:
                return rest
            walked[v] = rest
        return None

    while _eliminate(members, cfg.whitelist, witness, given_rest):
        pass


def _backward(members, target, cfg, test, witness, walked) -> None:
    """Drop, in one pass, the members some subset of the rest separates.
    Each search walks the current members' shared order and skips the
    subsets that hold the member tested, and those inside ``walked[v]``:
    the forward phase tested an admitted member dependent given each of
    them. A seed has no entry and is searched in full, the empty set
    included. A drop starts a new order."""
    order_of = _orders(cfg.max_condition_size)
    _eliminate(
        members,
        cfg.whitelist,
        witness,
        lambda v: order_of(frozenset(members)).first(test, target, v, v, asked=walked.get(v)),
    )


_MB_STEPS = {
    "gs": _grow,
    "iamb": partial(_iamb, interleave=False),
    "inter-iamb": partial(_iamb, interleave=True),
}
_NBR_STEPS = {"mmpc": _mmpc, "si-hiton-pc": _si_hiton_pc}
