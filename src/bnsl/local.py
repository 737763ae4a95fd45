"""Per-node learners: Markov blanket and neighbourhood backends.

Markov blanket backends (``gs``, ``iamb``, ``inter-iamb``) grow a candidate
set and shrink away false positives; neighbourhood backends (``mmpc``,
``si-hiton-pc``) search for separating subsets and keep only candidates no
subset can separate.

All heuristic choices are deterministic: candidates are scanned in name
order, association ranking breaks ties by statistic magnitude then name,
and separating subsets are enumerated by increasing size and name-
lexicographically within a size. :func:`first_separator` is the single
search for the first separating subset: SI-HITON-PC's forward and backward
steps and the pipeline's pair-separation and v-structure phases all use it.
Whitelisted nodes are forced members and never tested for removal;
blacklisted nodes are never tested at all; start nodes seed the candidate
set but remain removable.

A scan that tests every remaining candidate against the target given one
conditioning set asks the engine for the whole batch (``test_many``):
IAMB's grow scan, MMPC's scan of each subset, SI-HITON-PC's z = {}
ranking. Engines that only implement ``test`` get one call per candidate.
GS's grow scan, :func:`_shrink` and :func:`first_separator` stay one test
at a time: each outcome changes the next conditioning set or ends the
search, so batching them would run tests the learner never requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Iterable, Iterator

from .citests import CiTest
from .graph import _pair

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
        if self.max_condition_size is not None and self.max_condition_size < 0:
            raise ValueError("max_condition_size must be non-negative")


class SepsetTable:
    """Separating sets found during learning, keyed by unordered pair.

    A value of ``None`` marks a pair for which an exhaustive search found no
    separating set ("none found"); any recorded set witnessed an independent
    test outcome for its pair.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], frozenset[str] | None] = {}

    def record(self, x: str, y: str, sepset: frozenset[str] | None) -> None:
        self._entries[_pair(x, y)] = sepset

    def has(self, x: str, y: str) -> bool:
        return _pair(x, y) in self._entries

    def get(self, x: str, y: str) -> frozenset[str] | None:
        return self._entries[_pair(x, y)]

    def merge_first_wins(self, other: "SepsetTable") -> None:
        """Adopt entries from ``other`` for pairs not already present."""
        for pair, sepset in other._entries.items():
            self._entries.setdefault(pair, sepset)

    def items(self) -> Iterator[tuple[tuple[str, str], frozenset[str] | None]]:
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self):
        return f"SepsetTable({len(self._entries)} pairs)"


def subsets_in_order(pool: Iterable[str], cap: int | None = None) -> Iterator[frozenset[str]]:
    """All subsets of ``pool`` by increasing size, name-lexicographic within
    a size, optionally capped at ``cap`` elements. Includes the empty set."""
    pool = sorted(pool)
    top = len(pool) if cap is None else min(cap, len(pool))
    for size in range(top + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


def first_separator(
    test: CiTest, x: str, y: str, pool: Iterable[str], cap: int | None = None
) -> frozenset[str] | None:
    """The first subset of ``pool``, in :func:`subsets_in_order` order, given
    which ``x`` and ``y`` test independent, or ``None`` when none does."""
    for s in subsets_in_order(pool, cap):
        if test.test(x, y, s).independent:
            return s
    return None


def _test_all(test: CiTest, target: str, candidates: list[str], z: frozenset[str]) -> list:
    """``test.test(target, v, z)`` for each candidate ``v``: one batched
    ``test_many`` call on engines that have it, one ``test`` call each on
    engines (proxies, fakes) that only implement ``test``."""
    many = getattr(test, "test_many", None)
    if many is not None:
        return many(target, candidates, z)
    return [test.test(target, v, z) for v in candidates]


def learn_mb(
    data, target: str, cfg: LocalLearnConfig, test: CiTest
) -> tuple[frozenset[str], SepsetTable]:
    """Learn the Markov blanket of ``target`` with a grow-shrink backend.

    Returns the candidate blanket and the separating sets recorded for
    excluded candidates.
    """
    return _learn(_MB_STEPS, "Markov blankets", data, target, cfg, test)


def learn_nbr(
    data,
    target: str,
    cfg: LocalLearnConfig,
    test: CiTest,
    mb: Iterable[str] | None = None,
) -> tuple[frozenset[str], SepsetTable]:
    """Learn the neighbourhood (parents and children) of ``target``.

    ``mb`` optionally restricts the candidate pool to a precomputed Markov
    blanket. Returns the candidate neighbourhood and, for every rejected
    candidate, the separating set that excluded it.
    """
    return _learn(_NBR_STEPS, "neighbourhoods", data, target, cfg, test, mb)


def _learn(steps, kind, data, target, cfg, test, within=None):
    """Run the backend ``steps[cfg.backend]`` for ``target``. The backend
    notes in ``witness`` the latest separating set of each candidate it
    rejected; those left out of the result form the sepset fragment."""
    cfg.validate(target)
    if cfg.backend not in steps:
        raise ValueError(f"backend {cfg.backend!r} does not learn {kind}")
    names = _resolve_names(data, target, cfg, within)
    witness: dict[str, frozenset[str]] = {}
    members = frozenset(steps[cfg.backend](names, target, cfg, test, witness))
    fragment = SepsetTable()
    for v, sepset in witness.items():
        if v not in members:
            fragment.record(target, v, sepset)
    return members, fragment


def _resolve_names(data, target: str, cfg: LocalLearnConfig, within=None) -> list[str]:
    """Eligible candidate names in canonical (name) order."""
    all_names = set(data.names)
    for name in (target, *cfg.start, *cfg.whitelist, *cfg.blacklist):
        if name not in all_names:
            raise ValueError(f"unknown variable: {name!r}")
    pool = all_names if within is None else set(within) & all_names
    pool = pool - {target} - cfg.blacklist
    # Forced and seeded members take part even when outside the restriction.
    pool |= cfg.start | cfg.whitelist
    return sorted(pool)


def _grow_shrink(names, target, cfg, test, witness) -> set[str]:
    cmb = set(cfg.whitelist) | set(cfg.start)
    changed = True
    while changed:
        changed = False
        for v in names:
            if v in cmb:
                continue
            cond = frozenset(cmb)
            out = test.test(target, v, cond)
            if out.independent:
                witness[v] = cond
            else:
                cmb.add(v)
                changed = True
    _shrink(cmb, target, cfg, test, witness)
    return cmb


def _iamb(names, target, cfg, test, witness, interleave: bool) -> set[str]:
    cmb = set(cfg.whitelist) | set(cfg.start)
    seen_states = {frozenset(cmb)}
    while True:
        best_key = None
        best_v = None
        best_out = None
        cond = frozenset(cmb)
        candidates = [v for v in names if v not in cmb]
        for v, out in zip(candidates, _test_all(test, target, candidates, cond)):
            if out.independent:
                witness[v] = cond
            key = out.ranking_key(v)
            if best_key is None or key < best_key:
                best_key, best_v, best_out = key, v, out
        if best_v is None or best_out.independent:
            break
        cmb.add(best_v)
        if interleave:
            _shrink(cmb, target, cfg, test, witness)
        state = frozenset(cmb)
        if state in seen_states:
            break  # oscillation guard on inconsistent test answers
        seen_states.add(state)
    _shrink(cmb, target, cfg, test, witness)
    return cmb


def _shrink(cmb: set[str], target, cfg, test, witness) -> None:
    """Remove members independent of the target given the rest, to fixpoint."""
    changed = True
    while changed:
        changed = False
        for v in sorted(cmb):
            if v in cfg.whitelist or v not in cmb:
                continue
            rest = frozenset(cmb - {v})
            out = test.test(target, v, rest)
            if out.independent:
                cmb.discard(v)
                witness[v] = rest
                changed = True


def _mmpc(names, target, cfg, test, witness) -> set[str]:
    cpc = set(cfg.whitelist) | set(cfg.start)
    candidates = [v for v in names if v not in cpc]
    while candidates:
        # Minimum association over separating subsets = maximum p-value; the
        # first subset in order wins ties.
        max_out: dict[str, tuple] = {}
        for s in subsets_in_order(cpc, cfg.max_condition_size):
            for v, out in zip(candidates, _test_all(test, target, candidates, s)):
                if v not in max_out or out.p_value > max_out[v][0].p_value:
                    max_out[v] = out, s
        best_key = None
        best_v = None
        best_out = None
        for v in candidates:
            out, subset = max_out[v]
            if out.independent:
                witness[v] = subset
            key = out.ranking_key(v)
            if best_key is None or key < best_key:
                best_key, best_v, best_out = key, v, out
        if best_out.independent:
            break
        cpc.add(best_v)
        candidates.remove(best_v)
    _backward(cpc, target, cfg, test, witness)
    return cpc


def _si_hiton_pc(names, target, cfg, test, witness) -> set[str]:
    pc = set(cfg.whitelist) | set(cfg.start)
    ranked = []
    candidates = [v for v in names if v not in pc]
    for v, out in zip(candidates, _test_all(test, target, candidates, frozenset())):
        if out.independent:
            witness[v] = frozenset()
        ranked.append((out.ranking_key(v), v))
    ranked.sort()
    for _, v in ranked:
        sep = first_separator(test, target, v, pc, cfg.max_condition_size)
        if sep is None:
            pc.add(v)
        else:
            witness[v] = sep
    _backward(pc, target, cfg, test, witness)
    return pc


def _backward(pc: set[str], target, cfg, test, witness) -> None:
    """One elimination pass: drop members some remaining subset separates."""
    for v in sorted(pc):
        if v in cfg.whitelist:
            continue
        sep = first_separator(test, target, v, pc - {v}, cfg.max_condition_size)
        if sep is not None:
            pc.discard(v)
            witness[v] = sep


_MB_STEPS = {
    "gs": _grow_shrink,
    "iamb": partial(_iamb, interleave=False),
    "inter-iamb": partial(_iamb, interleave=True),
}
_NBR_STEPS = {"mmpc": _mmpc, "si-hiton-pc": _si_hiton_pc}
