"""bnsl's SI-HITON-PC and MMPC against the test-only references in
``reference_learners``, which share no code with ``bnsl``.

Both implementations are answered by the same scripted test, so every
learner branch is reached, not only those a faithful oracle reaches: the
answers mix d-separation in a random DAG with hashed p-values whose exact
ties exercise the ranking's tie-breaks and MMPC's choice among equally
weak subsets. For each node, the members, the separating sets and the
full sequence of requested (x, y, z) tests must be equal. Variable names
sort differently from their column order and from their numbers ("V10" <
"V2"), so a rule that ranks or walks by position, or by anything but
name, shows.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import reference_learners as ref
from bnsl import citests
from bnsl.data import DiscreteDataset
from bnsl.local import LocalLearnConfig, learn_nbr

MODES = ("none", "start-set", "legacy")
CAPS = (None, 0, 1, 2)
CASES = range(300)
# A fixed quarter of the cases keeps this file at a few seconds; the
# comparison over all of them takes about 7 s on a 2-core host.
TIER1_CASES = CASES[::4]


class ScriptedEngine(citests.CiEngine):
    """A bnsl engine whose kernel is :class:`ref.ScriptedAnswers`, and which
    logs every requested test as (x, y, z), one entry per candidate of a
    ``test_many`` batch, memo hits included."""

    name = "scripted"

    def __init__(self, answers: ref.ScriptedAnswers):
        super().__init__(answers.alpha)
        self.answers = answers
        self.requests = []

    def test(self, x, y, z):
        self.requests.append((x, y, frozenset(z)))
        return super().test(x, y, z)

    def test_many(self, target, candidates, z):
        self.requests.extend((target, v, frozenset(z)) for v in candidates)
        return super().test_many(target, candidates, z)

    def _kernel_many(self, target, candidates, z):
        answers = (self.answers(target, v, z) for v in candidates)
        return [citests.TestOutcome(a.statistic, 1.0, a.p_value, a.independent) for a in answers]


def case(index: int):
    """Names, in column order, and the scripted answers of one (DAG, seed)
    case: 4 to 9 nodes, three densities, four shares of faithful answers."""
    rng = random.Random(index)
    names = rng.sample([f"V{i}" for i in range(12)], rng.randint(4, 9))
    parents = ref.random_dag(names, index, edge_prob=rng.choice((0.2, 0.35, 0.5)))
    return names, ref.ScriptedAnswers(index, parents, faithful=(0.0, 0.5, 0.9, 1.0)[index % 4])


def seeds(names, target, mode, rng) -> dict[str, frozenset[str]]:
    """The seed sets a backtracking mode gives a node: start-set seeds and
    blacklists, legacy whitelists and blacklists."""
    if mode == "none":
        return {}
    others = sorted(set(names) - {target})
    rng.shuffle(others)
    a, b = rng.randint(0, 3), rng.randint(0, 2)
    chose, rest = frozenset(others[:a]), frozenset(others[a:a + b])
    return {"whitelist" if mode == "legacy" else "start": chose, "blacklist": rest}


REFERENCES = {"si-hiton-pc": ref.si_hiton_pc, "mmpc": ref.mmpc}


def run_both(index: int, mode: str, cap, backend: str = "si-hiton-pc"):
    """(bnsl, reference) results per node: members, sepsets and requests."""
    names, answers = case(index)
    data = DiscreteDataset([(v, ["0", "1"]) for v in names], np.zeros((1, len(names)), dtype=int))
    rng = random.Random(f"{index} {mode} {cap}")
    ours, theirs = {}, {}
    for target in names:
        kw = seeds(names, target, mode, rng)
        engine = ScriptedEngine(answers)
        members, table = learn_nbr(data, target, LocalLearnConfig(backend, max_condition_size=cap, **kw), engine)
        ours[target] = members, {b if a == target else a: s for (a, b), s in table.items()}, engine.requests

        requests = []

        def logged(x, y, z):
            requests.append((x, y, frozenset(z)))
            return answers(x, y, z)

        theirs[target] = *REFERENCES[backend](names, target, logged, cap=cap, **kw), requests
    return ours, theirs


@pytest.mark.parametrize("cap", CAPS, ids=str)
@pytest.mark.parametrize("mode", MODES)
def test_si_hiton_pc_matches_the_reference(mode, cap):
    for index in TIER1_CASES:
        ours, theirs = run_both(index, mode, cap)
        for target in ours:
            assert ours[target] == theirs[target], (index, target)


@pytest.mark.parametrize("cap", CAPS, ids=str)
@pytest.mark.parametrize("mode", MODES)
def test_mmpc_matches_the_reference(mode, cap):
    for index in TIER1_CASES:
        ours, theirs = run_both(index, mode, cap, "mmpc")
        for target in ours:
            assert ours[target] == theirs[target], (index, target)


def test_the_cases_reach_every_branch():
    """The tier-1 cases reach what the comparison is there to check: exact
    p ties decided by the statistic and by the name, walks that separate
    and walks that admit, and members the backward pass drops."""
    seen = set()
    for index in TIER1_CASES:
        names, answers = case(index)
        for target in names:
            rows = [answers(target, v, ref.EMPTY) for v in names if v != target]
            dependent = [(a.p_value, abs(a.statistic)) for a in rows if not a.independent]
            if len({p for p, _ in dependent}) < len(dependent):
                seen.add("p tie")
            if len(set(dependent)) < len(dependent):
                seen.add("p and statistic tie")
            given = set()
            tpc, sepsets = ref.si_hiton_pc(names, target, lambda x, y, z: given.update(z) or answers(x, y, z))
            if any(sepsets.values()):
                seen.add("separated given a non-empty set")
            if len(tpc) >= 2:
                seen.add("two or more admitted")
            # Without seeds, only members are conditioned on.
            if given & sepsets.keys():
                seen.add("dropped by the backward pass")
    assert len(seen) == 5, seen


def test_the_mmpc_cases_reach_a_tie_a_later_scan_decides():
    """In some tier-1 forward phase, a variable's largest p is reached
    given two or more subsets, and the one first in subset order is asked
    after another: the scan after an admission must then replace the
    weakest subset held, as a scan of every subset in order would have."""
    decided = 0
    for index in TIER1_CASES:
        names, answers = case(index)
        for target in names:
            asked = {}

            def logged(x, y, z):
                out = answers(x, y, z)
                asked.setdefault(y, []).append((out.p_value, z))
                return out

            ref.mmpc_forward(names, target, logged)
            for rows in asked.values():
                top = max(p for p, _ in rows)
                tied = [z for p, z in rows if p == top]
                decided += min(tied, key=lambda z: (len(z), sorted(z))) != tied[0]
    assert decided > 0
