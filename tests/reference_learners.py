"""Test-only reference learners, written from the published pseudocode.

This module imports nothing from ``bnsl``: it restates the algorithms and
bnsl's documented conventions (README, "Design notes") on its own, so a
test can compare the two implementations request by request.

- :func:`si_hiton_pc`: semi-interleaved HITON-PC (Aliferis, Statnikov,
  Tsamardinos, Mani & Koutsoukos, JMLR 2010, Part I), with bnsl's
  conventions.
- :func:`mmpc`: max-min parents and children (Tsamardinos, Brown &
  Aliferis, Machine Learning 2006, Algorithms 1-2), with its running
  minimum association and bnsl's conventions.
- :func:`gs`: grow-shrink (Margaritis & Thrun, NIPS 2000), and
  :func:`iamb`: IAMB and Inter-IAMB (Tsamardinos, Aliferis & Statnikov,
  FLAIRS 2003), with bnsl's conventions, Markov blanket learners that ask
  no test whose answer the call already holds.
- :class:`ScriptedAnswers`: a deterministic test whose answers come from a
  hash, mixed with d-separation in a random DAG by a knob, so answers run
  from faithful to arbitrary.

A ``test`` here is any callable ``test(x, y, z)`` that returns an object
with ``p_value``, ``statistic`` and ``independent``.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations
from typing import Callable, NamedTuple

EMPTY: frozenset[str] = frozenset()


class Answer(NamedTuple):
    p_value: float
    statistic: float
    independent: bool


def si_hiton_pc(
    names,
    target: str,
    test: Callable,
    start=(),
    whitelist=(),
    blacklist=(),
    cap: int | None = None,
) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """Parents and children of ``target`` and the separating set of every
    variable left out, by semi-interleaved HITON-PC.

    Steps (Aliferis et al. 2010), with bnsl's conventions:

    1. The candidates are every variable but the target and the blacklist,
       in name order. TPC starts as the whitelist and the start set.
    2. Test every candidate outside TPC against the target given the empty
       set, in name order. The independent ones leave OPEN, separated by
       the empty set; the rest make OPEN, ranked by p-value ascending, then
       statistic magnitude descending, then name.
    3. Take OPEN's variables in rank order. Admit one to TPC unless the
       target and it test independent given some subset of TPC as it
       stands. The empty set was tested in step 2, so the search starts at
       subsets of size one. Subsets come by increasing size, then name
       order within a size, up to ``cap`` elements; the first that
       separates is the variable's separating set.
    4. One backward pass, as :func:`_backward` states it. A variable
       admitted in step 3 was tested dependent given the empty set and
       each subset of TPC at its admission, so those are skipped.
    """
    blacklist = set(blacklist)
    tpc = set(whitelist) | set(start)
    sepsets: dict[str, frozenset[str]] = {}
    admitted_at: dict[str, frozenset[str]] = {}
    candidates = sorted(v for v in names if v != target and v not in blacklist)

    open_ = []
    for v in candidates:
        if v in tpc:
            continue
        out = test(target, v, EMPTY)
        if out.independent:
            sepsets[v] = EMPTY
        else:
            open_.append(((out.p_value, -abs(out.statistic), v), v))

    for _, v in sorted(open_):
        sep = _first_separator(test, target, v, tpc, cap, smallest=1)
        if sep is None:
            admitted_at[v] = frozenset(tpc)
            tpc.add(v)
        else:
            sepsets[v] = sep

    _backward(test, target, tpc, whitelist, cap, admitted_at, sepsets)
    return frozenset(tpc), {v: s for v, s in sepsets.items() if v not in tpc}


def mmpc(
    names,
    target: str,
    test: Callable,
    start=(),
    whitelist=(),
    blacklist=(),
    cap: int | None = None,
) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """Parents and children of ``target`` and the separating set of every
    variable left out, by max-min parents and children.

    Steps (Tsamardinos et al. 2006), with bnsl's conventions:

    1. The candidates are every variable but the target, the blacklist and
       CPC, in name order. CPC starts as the whitelist and the start set.
    2. Each candidate keeps its minimum association with the target: its
       weakest answer over the subsets of CPC tested so far, the one of
       largest p-value, and on equal p-values the one given the subset
       that comes first by size, then name order. It starts over the
       subsets of CPC of at most ``cap`` elements, taken in that order,
       each tested against every candidate in name order.
    3. Max-min heuristic: take the candidate whose weakest answer ranks
       first, by p-value ascending, then statistic magnitude descending,
       then name. If that answer is independent, stop: every candidate
       left is separated by the subset of its weakest answer. Otherwise
       admit it to CPC and update the candidates left over the subsets of
       the new CPC of at most ``cap`` elements that hold it, in the same
       order. Repeat.
    4. One backward pass, as :func:`_backward` states it. A variable
       admitted in step 3 was tested dependent given each subset of CPC at
       its admission, so those are skipped.
    """
    cpc, sepsets, admitted_at = mmpc_forward(names, target, test, start, whitelist, blacklist, cap)
    _backward(test, target, cpc, whitelist, cap, admitted_at, sepsets)
    return frozenset(cpc), {v: s for v, s in sepsets.items() if v not in cpc}


def mmpc_forward(names, target, test, start=(), whitelist=(), blacklist=(), cap=None):
    """Steps 1-3 of :func:`mmpc`: CPC, the separating set of each candidate
    left out, and the CPC each admitted variable joined."""
    blacklist = set(blacklist)
    cpc = set(whitelist) | set(start)
    candidates = sorted(v for v in names if v != target and v not in blacklist and v not in cpc)
    weakest: dict[str, tuple[Answer, frozenset[str]]] = {}
    admitted_at: dict[str, frozenset[str]] = {}

    def update(subsets):
        for subset in subsets:
            for v in candidates:
                out = test(target, v, subset)
                held = weakest.get(v)
                if held is None or out.p_value > held[0].p_value or (
                    out.p_value == held[0].p_value and _order(subset) < _order(held[1])
                ):
                    weakest[v] = out, subset

    update(_subsets(cpc, cap))
    while candidates:
        best = min(candidates, key=lambda v: (weakest[v][0].p_value, -abs(weakest[v][0].statistic), v))
        if weakest[best][0].independent:
            break
        admitted_at[best] = frozenset(cpc)
        cpc.add(best)
        candidates.remove(best)
        update(subset for subset in _subsets(cpc, cap) if best in subset)

    return cpc, {v: weakest[v][1] for v in candidates}, admitted_at


def _backward(test, target, members, whitelist, cap, admitted_at, sepsets) -> None:
    """One backward pass: for each member outside the whitelist, in name
    order, search the subsets of the other current members (from the
    empty set, by size, then name order, up to ``cap`` elements) and drop
    the member at the first that separates. A member in ``admitted_at``
    skips every subset of its set there, which its forward phase asked; a
    seed from the start set has no entry and is searched in full."""
    for v in sorted(members - set(whitelist)):
        sep = _first_separator(test, target, v, members - {v}, cap, smallest=0, asked=admitted_at.get(v))
        if sep is not None:
            members.discard(v)
            sepsets[v] = sep


def gs(
    names,
    target: str,
    test: Callable,
    start=(),
    whitelist=(),
    blacklist=(),
) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """Markov blanket of ``target`` and the separating set of every
    variable left out, by grow-shrink.

    Steps (Margaritis & Thrun 2000), with bnsl's conventions:

    1. The candidates are every variable but the target and the blacklist,
       in name order. S starts as the whitelist and the start set.
    2. Grow: take the candidates outside S in name order and test each
       against the target given S as it stands; a dependent one joins S at
       once. Repeat until a pass adds nothing. A candidate already tested
       independent given the current S is not tested again: S separates
       it.
    3. Shrink, as :func:`_shrink` states it. A member joined S after a
       dependent test given S as it stood then.
    """
    s = set(whitelist) | set(start)
    candidates = _candidates(names, target, blacklist)
    sepsets: dict[str, frozenset[str]] = {}
    dependent: dict[str, frozenset[str]] = {}
    grown = True
    while grown:
        grown = False
        for v in candidates:
            given = frozenset(s)
            if v in s or sepsets.get(v) == given:
                continue
            if test(target, v, given).independent:
                sepsets[v] = given
            else:
                dependent[v] = given
                s.add(v)
                grown = True
    _shrink(test, target, s, whitelist, dependent, sepsets)
    return frozenset(s), {v: z for v, z in sepsets.items() if v not in s}


def iamb(
    names,
    target: str,
    test: Callable,
    start=(),
    whitelist=(),
    blacklist=(),
    interleaved: bool = False,
) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """Markov blanket of ``target`` and the separating set of every
    variable left out, by IAMB, or by Inter-IAMB when ``interleaved``.

    Steps (Tsamardinos, Aliferis & Statnikov 2003), with bnsl's
    conventions:

    1. The candidates are every variable but the target and the blacklist,
       in name order. CMB starts as the whitelist and the start set.
    2. Test each candidate outside CMB against the target given CMB, in
       name order, except those already tested independent given this
       very CMB (it separates them). Each independent one is separated by
       CMB. If no candidate was tested, stop.
    3. Take the tested candidate whose answer ranks first, by p-value
       ascending, then statistic magnitude descending, then name. If it is
       independent, stop; otherwise it joins CMB. Inter-IAMB then shrinks
       CMB, as :func:`_shrink` states it. If CMB is now a set it has been
       before (the answers need not be consistent), stop; otherwise go to
       step 2.
    4. Shrink, as :func:`_shrink` states it. Every shrink of one call
       shares one record of the last set each member tested dependent
       given, its admission first.
    """
    cmb = set(whitelist) | set(start)
    candidates = _candidates(names, target, blacklist)
    sepsets: dict[str, frozenset[str]] = {}
    dependent: dict[str, frozenset[str]] = {}
    seen = {frozenset(cmb)}
    while True:
        given = frozenset(cmb)
        answers = [(test(target, v, given), v) for v in candidates if v not in cmb and sepsets.get(v) != given]
        for out, v in answers:
            if out.independent:
                sepsets[v] = given
        if not answers:
            break
        out, best = min(answers, key=lambda a: (a[0].p_value, -abs(a[0].statistic), a[1]))
        if out.independent:
            break
        dependent[best] = given
        cmb.add(best)
        if interleaved:
            _shrink(test, target, cmb, whitelist, dependent, sepsets)
        if frozenset(cmb) in seen:
            break
        seen.add(frozenset(cmb))
    _shrink(test, target, cmb, whitelist, dependent, sepsets)
    return frozenset(cmb), {v: z for v, z in sepsets.items() if v not in cmb}


def _candidates(names, target, blacklist) -> list[str]:
    """Every variable but the target and the blacklist, in name order."""
    blacklist = set(blacklist)
    return sorted(v for v in names if v != target and v not in blacklist)


def _shrink(test, target, members, whitelist, dependent, sepsets) -> None:
    """Shrink to a fixpoint: take the members outside the whitelist in
    name order and test each against the target given the other members
    as they stand; an independent one leaves at once, separated by that
    set. Repeat until a pass drops nothing. A member whose last dependent
    answer (``dependent``) was given exactly that set is kept untested;
    each dependent answer here replaces its entry."""
    dropped = True
    while dropped:
        dropped = False
        for v in sorted(members - set(whitelist)):
            rest = frozenset(members - {v})
            if dependent.get(v) == rest:
                continue
            if test(target, v, rest).independent:
                members.discard(v)
                sepsets[v] = rest
                dropped = True
            else:
                dependent[v] = rest


def _subsets(pool, cap):
    """Every subset of ``pool`` of at most ``cap`` elements, by size, then
    name order."""
    pool = sorted(pool)
    top = len(pool) if cap is None else min(cap, len(pool))
    for size in range(top + 1):
        for subset in combinations(pool, size):
            yield frozenset(subset)


def _order(subset):
    """Sort key of a subset in :func:`_subsets` order."""
    return len(subset), sorted(subset)


def _first_separator(test, x, y, pool, cap, smallest, asked=None):
    """The first subset of ``pool`` of ``smallest`` to ``cap`` elements,
    by size, then name order, and not inside ``asked``, given which ``x``
    and ``y`` test independent; ``None`` when none does."""
    for subset in _subsets(pool, cap):
        if len(subset) >= smallest and not (asked is not None and subset <= asked):
            if test(x, y, subset).independent:
                return subset
    return None


def random_dag(names, seed: int, edge_prob: float) -> dict[str, frozenset[str]]:
    """Parents of each node of a random DAG over ``names``: each pair is an
    arc, from the earlier node in a shuffled order, with ``edge_prob``."""
    rng = random.Random(seed)
    order = list(names)
    rng.shuffle(order)
    parents = {v: set() for v in names}
    for i, child in enumerate(order):
        for parent in order[:i]:
            if rng.random() < edge_prob:
                parents[child].add(parent)
    return {v: frozenset(p) for v, p in parents.items()}


def d_separated(parents, x: str, y: str, z) -> bool:
    """Whether ``z`` d-separates ``x`` and ``y``: ``y`` is unreachable from
    ``x`` in the moral graph of the ancestors of ``{x, y} | z``, with ``z``
    removed (Lauritzen, Dawid, Larsen & Leimer 1990)."""
    z = set(z)
    ancestors, stack = set(), [x, y, *z]
    while stack:
        v = stack.pop()
        if v not in ancestors:
            ancestors.add(v)
            stack.extend(parents[v])
    moral = {v: set() for v in ancestors}
    for child in ancestors:
        family = list(parents[child])
        for p in family:
            moral[p].add(child)
            moral[child].add(p)
        for a, b in combinations(family, 2):
            moral[a].add(b)
            moral[b].add(a)
    seen, stack = {x}, [x]
    while stack:
        for w in moral[stack.pop()] - z - seen:
            if w == y:
                return False
            seen.add(w)
            stack.append(w)
    return True


class ScriptedAnswers:
    """Deterministic answers: ``test(x, y, z)`` from a sha256 of the sorted
    pair, the sorted ``z`` and ``seed``, so the same question always gets
    the same answer, whichever way round the pair is asked.

    p-values take one of 20 levels, ``(k / 20) ** 3``: eight lie below
    ``alpha`` = 0.05, so exact p ties are common. Statistics take one of
    five values in -2..2, so magnitude ties are common too. With a DAG's
    ``parents``, a share ``faithful`` of the questions is answered by
    d-separation: a dependent level when ``x`` and ``y`` are d-connected
    given ``z``, an independent one when they are d-separated.
    """

    alpha = 0.05

    def __init__(self, seed: int, parents=None, faithful: float = 0.0):
        self.seed = seed
        self.parents = parents
        self.faithful = faithful

    def __call__(self, x: str, y: str, z) -> Answer:
        a, b = sorted((x, y))
        key = f"{a}|{b}|{','.join(sorted(z))}|{self.seed}".encode()
        h = hashlib.sha256(key).digest()
        level = h[0] % 20
        if self.parents is not None and int.from_bytes(h[1:5], "big") < self.faithful * 2**32:
            level = 8 + h[0] % 12 if d_separated(self.parents, a, b, z) else h[0] % 8
        p = (level / 20) ** 3
        return Answer(p, float(h[5] % 5 - 2), p > self.alpha)
