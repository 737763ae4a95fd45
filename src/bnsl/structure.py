"""The full constraint-based learning pipeline.

Four algorithms share one template. Markov-blanket algorithms (``gs``,
``inter-iamb``) first learn each node's blanket, enforce blanket symmetry
by intersection, then decide adjacency for each in-blanket pair by
searching separating subsets inside the smaller blanket. Neighbourhood
algorithms (``mmpc``, ``si-hiton-pc``) learn each node's neighbour set
directly. Either way, neighbour symmetry is enforced by intersection,
unshielded colliders are oriented from the recorded separating sets, and
Meek's three orientation-propagation rules run to fixpoint.

Each skeleton phase runs one node step, ``step(node, earlier, engine) ->
(members, sepset table)``, for every node, and merges the tables first-wins
in name order. The backtracking mode only decides what ``earlier`` holds. In
mode ``none`` it is empty: the steps are independent, run in parallel
across nodes, and the result does not depend on the column order; the
coordinator synchronises only at the symmetry barriers and for the final
propagation.

Backtracking trades tests for order dependence and therefore requires a
single worker: the phase runs through the executor as one task over the
column-ordered names, and ``earlier`` maps each node already processed to
the members it chose. A node that an earlier node chose is seeded into the
learner (``start-set``) or forced in (``legacy``, through the whitelist);
an earlier node that did not choose it is blacklisted. Pair separation
ignores ``earlier``: each in-blanket pair is searched once, by its
name-smaller endpoint, and the symmetry barrier decides the other's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .citests import CiEngine, make_engine
from .data import Dataset
from .graph import Dag, Pdag, Skeleton, VStructure, _pair, _reaches, apply_meek_rules
from .local import MB_BACKENDS, LocalLearnConfig, SepsetTable, first_separator, learn_mb, learn_nbr
from .local import _eliminate, _orders, _sepsets
from .parallel import ParallelExecutor

ALGORITHMS = ("gs", "inter-iamb", "mmpc", "si-hiton-pc")
BACKTRACKING_MODES = ("none", "start-set", "legacy")

__all__ = [
    "ALGORITHMS",
    "BACKTRACKING_MODES",
    "GlobalLearnConfig",
    "VStructureResult",
    "apply_meek_rules",
    "learn_cpdag",
    "learn_skeleton",
    "orient_v_structures",
]


@dataclass(frozen=True)
class GlobalLearnConfig:
    """Settings for one full structure-learning run."""

    algorithm: str
    test: str = "mi"
    alpha: float = 0.01
    backtracking: str = "none"
    workers: int = 1
    schedule: str = "static"
    max_condition_size: int | None = None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if self.backtracking not in BACKTRACKING_MODES:
            raise ValueError(f"unknown backtracking mode: {self.backtracking!r}")
        ParallelExecutor(self.workers, self.schedule)  # raises on a bad worker count or schedule
        if self.backtracking != "none" and self.workers != 1:
            raise ValueError(
                "backtracking is inherently sequential and requires workers = 1"
            )
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.local().validate(target="")  # empty sets: checks the shared fields

    def local(
        self, backend: str | None = None, start=frozenset(), whitelist=frozenset(), blacklist=frozenset()
    ) -> LocalLearnConfig:
        """The per-node config; ``backend`` defaults to the algorithm."""
        return LocalLearnConfig(
            backend=self.algorithm if backend is None else backend,
            start=frozenset(start),
            whitelist=frozenset(whitelist),
            blacklist=frozenset(blacklist),
            max_condition_size=self.max_condition_size,
        )


def learn_skeleton(
    data: Dataset,
    cfg: GlobalLearnConfig,
    executor: ParallelExecutor | None = None,
    truth: Dag | None = None,
) -> tuple[Skeleton, SepsetTable]:
    """Learn the undirected skeleton and the separating sets found.

    ``truth`` supplies the true DAG when ``cfg.test`` is ``oracle``.
    """
    cfg.validate()
    if executor is None:
        executor = ParallelExecutor(cfg.workers, cfg.schedule)
    engine = make_engine(cfg.test, data, cfg.alpha, truth=truth)
    names = list(data.names)
    sepsets = SepsetTable()

    learner = learn_mb if cfg.algorithm in MB_BACKENDS else learn_nbr

    def node_step(node, earlier, worker_engine):
        return learner(data, node, _seeded(cfg, node, earlier), worker_engine)

    def pair_step(node, _earlier, worker_engine):
        # Each pair is searched once, by its name-smaller endpoint, whatever
        # the mode; the symmetry barrier decides it for the other endpoint.
        # The pools drawn from one blanket share one subset order.
        members, witness = set(blankets[node]), {}
        order_of = _orders(cfg.max_condition_size)

        def separator(j):
            blanket, skip = _pair_pool(blankets, node, j)
            return order_of(blanket).first(worker_engine, node, j, skip)

        _eliminate(members, {j for j in members if j < node}, witness, separator)
        return members, _sepsets(node, members, witness)

    if learner is learn_mb:
        blankets = _node_phase("markov-blankets", names, node_step, cfg, executor, engine, sepsets)
        neighbours = _node_phase("pair-separation", names, pair_step, cfg, executor, engine, sepsets)
    else:
        neighbours = _node_phase("neighbours", names, node_step, cfg, executor, engine, sepsets)
    edges = [(i, j) for i in names for j in sorted(neighbours[i]) if i < j]
    return Skeleton(names, edges), sepsets


def _node_phase(phase, names, step, cfg, executor, engine, sepsets):
    """Run ``step(node, earlier, engine) -> (members, sepset table)`` for
    every node, merge the tables first-wins in name order and return the
    symmetrised member sets.

    Mode ``none`` maps the nodes in parallel with ``earlier = {}``.
    Backtracking runs one task over the column-ordered names and folds each
    node's members into ``earlier`` before the next node's step.
    """
    if cfg.backtracking == "none":
        def task(node, worker_engine):
            return step(node, {}, worker_engine)

        results = dict(zip(names, executor.run_phase(phase, names, task, engine.spawn).results))
    else:
        def task(order, worker_engine):
            earlier, results = {}, {}
            for node in order:
                results[node] = step(node, earlier, worker_engine)
                earlier[node] = results[node][0]
            return results

        results = executor.run_phase(phase, [tuple(names)], task, engine.spawn).results[0]
    for node in sorted(names):
        sepsets.merge_first_wins(results[node][1])
    return _symmetrize(names, {node: results[node][0] for node in names})


def _seeded(cfg, node, earlier) -> LocalLearnConfig:
    """The local config of ``node`` given the earlier nodes' members: the
    nodes that chose ``node`` are seeds (``start``, or ``whitelist`` in
    legacy mode) and the rest are blacklisted."""
    chose = frozenset(i for i, members in earlier.items() if node in members)
    others = frozenset(earlier) - chose
    if cfg.backtracking == "legacy":
        return cfg.local(whitelist=chose, blacklist=others)
    return cfg.local(start=chose, blacklist=others)


def _symmetrize(names, candidate_sets):
    """Drop asymmetric members: false positives under the symmetry check."""
    return {
        i: frozenset(j for j in candidate_sets[i] if i in candidate_sets[j])
        for i in names
    }


def _pair_pool(blankets, i, j):
    """Search pool for the pair (i, j) with i the name-smaller endpoint: the
    smaller blanket, minus the pair, as ``(blanket, endpoint to leave out)``.
    The blankets are symmetric, so each holds the other endpoint. A tie on
    size takes ``i``'s: ties break by name, so the pool is deterministic."""
    return (blankets[i], j) if len(blankets[i]) <= len(blankets[j]) else (blankets[j], i)


class VStructureResult(NamedTuple):
    pdag: Pdag
    v_structures: list[VStructure]
    conflicts: int


def orient_v_structures(
    skel: Skeleton,
    sepsets: SepsetTable,
    data: Dataset,
    test: CiEngine,
    executor: ParallelExecutor | None = None,
    max_condition_size: int | None = None,
) -> VStructureResult:
    """Direct unshielded triples whose collider is outside the separating set.

    For each triple i - k - j with i, j non-adjacent, the recorded
    separating set of (i, j) is consulted. Each pair without an entry is
    searched once, in parallel across pairs, over subsets of the two
    endpoint neighbourhoods (increasing size, first independence wins), and
    the outcome is recorded. The triple becomes a v-structure iff k is not
    in the set (vacuously so when no set exists).

    Conflicting orientations are resolved first-wins in canonical triple
    order; a triple that would reverse an existing arc or close a directed
    cycle is skipped and counted as a conflict.
    """
    if executor is None:
        executor = ParallelExecutor(1)
    if not set(skel.nodes) <= set(data.names):
        raise ValueError("skeleton nodes are not all present in the dataset")
    names = skel.nodes
    triples = skel.unshielded_triples()
    missing = sorted({(a, b) for a, _, b in triples if not sepsets.has(a, b)})

    def task(pair, worker_engine):
        return _on_demand_sepset(skel, *pair, worker_engine, max_condition_size)

    searched = executor.run_phase("v-structures", missing, task, test.spawn)
    for (a, b), sep in zip(missing, searched.results):
        sepsets.record(a, b, sep)

    directed: set[tuple[str, str]] = set()
    out: dict[str, set[str]] = {n: set() for n in names}
    conflicts = 0
    accepted = []
    for a, k, b in triples:
        sep = sepsets.get(a, b)
        if sep is not None and k in sep:
            continue
        wanted = [(a, k), (b, k)]
        if any((c, p) in directed for p, c in wanted):
            conflicts += 1
            continue
        if any((p, c) not in directed and _reaches(out, c, p) for p, c in wanted):
            conflicts += 1
            continue
        for p, c in wanted:
            if (p, c) not in directed:
                directed.add((p, c))
                out[p].add(c)
        accepted.append(VStructure(a, k, b))

    dir_pairs = {_pair(p, c) for p, c in directed}
    undirected = [e for e in sorted(skel.edges) if e not in dir_pairs]
    pdag = Pdag(names, directed, undirected)
    return VStructureResult(pdag, accepted, conflicts)


def _on_demand_sepset(skel, a, b, engine, cap):
    """Search N(a) \\ {b} then N(b) \\ {a} for a separating set."""
    for pool in (skel.neighbours(a) - {b}, skel.neighbours(b) - {a}):
        sep = first_separator(engine, a, b, pool, cap)
        if sep is not None:
            return sep
    return None


def learn_cpdag(
    data: Dataset,
    cfg: GlobalLearnConfig,
    executor: ParallelExecutor | None = None,
    truth: Dag | None = None,
) -> Pdag:
    """Full pipeline: skeleton, v-structures, then orientation propagation."""
    cfg.validate()
    if executor is None:
        executor = ParallelExecutor(cfg.workers, cfg.schedule)
    skel, sepsets = learn_skeleton(data, cfg, executor, truth=truth)
    engine = make_engine(cfg.test, data, cfg.alpha, truth=truth)
    oriented = orient_v_structures(
        skel, sepsets, data, engine, executor, cfg.max_condition_size
    )
    return apply_meek_rules(oriented.pdag)
