"""The full constraint-based learning pipeline.

Four algorithms share one template. Markov-blanket algorithms (``gs``,
``inter-iamb``) first learn each node's blanket, enforce blanket symmetry
by intersection, then decide adjacency for each in-blanket pair by
searching separating subsets inside the smaller blanket. Neighbourhood
algorithms (``mmpc``, ``si-hiton-pc``) learn each node's neighbour set
directly. Either way, neighbour symmetry is enforced by intersection,
unshielded colliders are oriented from the recorded separating sets, and
the two orientation-propagation rules run to fixpoint.

Per-node (and per-triple) work is embarrassingly parallel; the coordinator
synchronises only at the symmetry barriers and for the final propagation.

Backtracking modes trade tests for order dependence and therefore require a
single worker. In ``start-set`` mode, nodes are processed sequentially in
dataset column order: once an earlier node decided that a later node is (or
is not) in its blanket or neighbour set, the later node's learner is seeded
with (or never considers) the earlier node. ``legacy`` mode instead forces
the decision through hard whitelists and blacklists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from .citests import CiTest, make_engine
from .data import Dataset
from .graph import Dag, Pdag, Skeleton, VStructure, _pair, apply_meek_rules
from .local import LocalLearnConfig, SepsetTable, learn_mb, learn_nbr, subsets_in_order
from .parallel import ParallelExecutor, PhaseTelemetry, WorkerReport

ALGORITHMS = ("gs", "inter-iamb", "mmpc", "si-hiton-pc")
BACKTRACKING_MODES = ("none", "start-set", "legacy")
MB_ALGORITHMS = {"gs": "gs", "inter-iamb": "inter-iamb"}

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
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.backtracking != "none" and self.workers != 1:
            raise ValueError(
                "backtracking is inherently sequential and requires workers = 1"
            )
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")

    def local(self, backend: str, start=frozenset(), whitelist=frozenset(), blacklist=frozenset()) -> LocalLearnConfig:
        return LocalLearnConfig(
            backend=backend,
            alpha=self.alpha,
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

    if cfg.algorithm in MB_ALGORITHMS:
        backend = MB_ALGORITHMS[cfg.algorithm]
        candidates = _learn_node_sets(data, names, backend, cfg, executor, engine, learn_mb, "markov-blankets", sepsets)
        blankets = _symmetrize(names, candidates)
        nbr_candidates = _pairwise_within_blankets(data, names, blankets, cfg, executor, engine, sepsets)
    else:
        nbr_candidates = _learn_node_sets(data, names, cfg.algorithm, cfg, executor, engine, learn_nbr, "neighbours", sepsets)

    neighbours = _symmetrize(names, nbr_candidates)
    edges = [(i, j) for i in names for j in sorted(neighbours[i]) if i < j]
    return Skeleton(names, edges), sepsets


def _learn_node_sets(data, names, backend, cfg, executor, engine, learner, phase, sepsets):
    """Phase 1 or 3: one candidate set per node, parallel or backtracking."""
    if cfg.backtracking == "none":
        def task(node, worker_engine):
            return learner(data, node, cfg.local(backend), worker_engine)

        phase_result = executor.run_phase(phase, names, task, engine.spawn)
        results = dict(zip(names, phase_result.results))
    else:
        results = {}
        t0 = time.perf_counter()
        before = engine.counter.count, engine.counter.executed
        for j, node in enumerate(names):
            earlier = names[:j]
            seeds = frozenset(i for i in earlier if node in results[i][0])
            excluded = frozenset(i for i in earlier if node not in results[i][0])
            if cfg.backtracking == "start-set":
                local = cfg.local(backend, start=seeds, blacklist=excluded)
            else:
                local = cfg.local(backend, whitelist=seeds, blacklist=excluded)
            results[node] = learner(data, node, local, engine)
        executor.telemetry.append(
            PhaseTelemetry(
                phase,
                time.perf_counter() - t0,
                [_sequential_report(names, engine, before)],
            )
        )
    for node in names:
        sepsets.merge_first_wins(results[node][1])
    return {node: frozenset(results[node][0]) for node in names}


def _symmetrize(names, candidate_sets):
    """Drop asymmetric members: false positives under the symmetry check."""
    return {
        i: frozenset(j for j in candidate_sets[i] if i in candidate_sets[j])
        for i in names
    }


def _pair_pool(blankets, i, j):
    """Search pool for the pair (i, j): the smaller blanket, minus the pair.

    Ties on size resolve to the name-smaller endpoint's blanket so both
    endpoints search the same pool.
    """
    pool_i = blankets[i] - {j}
    pool_j = blankets[j] - {i}
    if len(pool_i) != len(pool_j):
        return pool_i if len(pool_i) < len(pool_j) else pool_j
    return pool_i if i < j else pool_j


def _pairwise_within_blankets(data, names, blankets, cfg, executor, engine, sepsets):
    """Phase 3 for blanket-based algorithms: adjacency of in-blanket pairs.

    A pair is adjacent when no subset of the pair's search pool separates
    it. Both endpoints run the identical search, so the outcome is
    symmetric by construction; backtracking skips the second evaluation.
    """

    def decide_pair(i, j, worker_engine):
        for s in subsets_in_order(_pair_pool(blankets, i, j), cfg.max_condition_size):
            out = worker_engine.test(i, j, s)
            if out.independent:
                return s
        return False  # adjacent: no separating subset found

    if cfg.backtracking == "none":
        def task(node, worker_engine):
            kept = set()
            found = {}
            for j in sorted(blankets[node]):
                sep = decide_pair(node, j, worker_engine)
                if sep is False:
                    kept.add(j)
                else:
                    found[j] = sep
            return kept, found

        phase_result = executor.run_phase("pair-separation", names, task, engine.spawn)
        results = dict(zip(names, phase_result.results))
        for node in names:
            kept, found = results[node]
            for j, sep in sorted(found.items()):
                if not sepsets.has(node, j):
                    sepsets.record(node, j, sep)
        return {node: frozenset(results[node][0]) for node in names}

    # Sequential with pair reuse: the pair (i, j), i before j in column
    # order, is decided once while processing i.
    t0 = time.perf_counter()
    before = engine.counter.count, engine.counter.executed
    order = {n: pos for pos, n in enumerate(names)}
    kept_sets: dict[str, set[str]] = {n: set() for n in names}
    for node in names:
        for j in sorted(blankets[node]):
            if order[j] < order[node]:
                if node in kept_sets[j]:
                    kept_sets[node].add(j)
                continue
            sep = decide_pair(node, j, engine)
            if sep is False:
                kept_sets[node].add(j)
            else:
                if not sepsets.has(node, j):
                    sepsets.record(node, j, sep)
    executor.telemetry.append(
        PhaseTelemetry(
            "pair-separation",
            time.perf_counter() - t0,
            [_sequential_report(names, engine, before)],
        )
    )
    return {node: frozenset(kept_sets[node]) for node in names}


def _sequential_report(names, engine, before) -> WorkerReport:
    """The one worker's share of a backtracking phase run on ``engine``."""
    count, executed = before
    return WorkerReport(0, tuple(names), engine.counter.count - count, engine.counter.executed - executed)


class VStructureResult(NamedTuple):
    pdag: Pdag
    v_structures: list[VStructure]
    conflicts: int


def orient_v_structures(
    skel: Skeleton,
    sepsets: SepsetTable,
    data: Dataset,
    test: CiTest,
    executor: ParallelExecutor | None = None,
    max_condition_size: int | None = None,
) -> VStructureResult:
    """Direct unshielded triples whose collider is outside the separating set.

    For each triple i - k - j with i, j non-adjacent, the recorded
    separating set of (i, j) is consulted; a missing entry is searched on
    demand over subsets of the two endpoint neighbourhoods (increasing
    size, first independence wins). The triple becomes a v-structure iff k
    is not in the set (vacuously so when no set exists).

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

    def task(triple, worker_engine):
        a, k, b = triple
        if sepsets.has(a, b):
            sep = sepsets.get(a, b)
            searched = False
        else:
            sep = _on_demand_sepset(skel, a, b, worker_engine, max_condition_size)
            searched = True
        return sep, searched

    phase_result = executor.run_phase("v-structures", triples, task, test.spawn)

    directed: set[tuple[str, str]] = set()
    out: dict[str, set[str]] = {n: set() for n in names}

    def creates_cycle(p, c):
        seen = set()
        stack = list(out[c])
        while stack:
            v = stack.pop()
            if v == p:
                return True
            if v not in seen:
                seen.add(v)
                stack.extend(out[v])
        return False

    conflicts = 0
    accepted = []
    for (a, k, b), (sep, searched) in zip(triples, phase_result.results):
        if searched and not sepsets.has(a, b):
            sepsets.record(a, b, sep)
        if sep is not None and k in sep:
            continue
        wanted = [(a, k), (b, k)]
        if any((c, p) in directed for p, c in wanted):
            conflicts += 1
            continue
        if any((p, c) not in directed and creates_cycle(p, c) for p, c in wanted):
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
        for s in subsets_in_order(pool, cap):
            out = engine.test(a, b, s)
            if out.independent:
                return s
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
