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
in name order. The backtracking mode only decides what ``earlier`` holds in
the first phase. In mode ``none`` it is empty: the steps are independent,
run in parallel across nodes, and the result does not depend on the column
order; the coordinator synchronises only at the symmetry barriers and for
the final propagation.

Backtracking trades tests for order dependence and therefore requires a
single worker: the first phase runs through the executor as one task over
the column-ordered names, and ``earlier`` maps each node already processed
to the members it chose. A node that an earlier node chose is seeded into
the learner (``start-set``) or forced in (``legacy``, through the
whitelist); an earlier node that did not choose it is blacklisted. Pair
separation reads no ``earlier`` and runs one task per node in every mode:
each in-blanket pair is searched once, by the endpoint that owns the
smaller blanket (the name-smaller one on a tie), over its own blanket
minus the pair, and the symmetry barrier decides it for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .citests import CiEngine, make_engine
from .data import Dataset
from .graph import Dag, Pdag, Skeleton, VStructure, _pair, _reaches, apply_meek_rules
from .local import MB_BACKENDS, LocalLearnConfig, SepsetTable, first_separator, learn_mb, learn_nbr
from .local import _SubsetOrder, _check_cap, _eliminate, _sepsets
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
    return _skeleton(data, cfg, executor, make_engine(cfg.test, data, cfg.alpha, truth=truth))


def _skeleton(data, cfg, executor, engine) -> tuple[Skeleton, SepsetTable]:
    """:func:`learn_skeleton` on a validated config and a built engine."""
    names = list(data.names)
    sepsets = SepsetTable()
    sequential = cfg.backtracking != "none"

    learner = learn_mb if cfg.algorithm in MB_BACKENDS else learn_nbr

    def node_step(node, earlier, worker_engine):
        return learner(data, node, _seeded(cfg, node, earlier), worker_engine)

    def pair_step(node, _earlier, worker_engine):
        # The node searches each pair it owns: those whose other endpoint has
        # a larger blanket, or an equal one and a larger name. Its pool is
        # its own blanket minus the pair, one subset order for all of them.
        blanket, rank = blankets[node], (len(blankets[node]), node)
        members, witness, order = set(blanket), {}, _SubsetOrder(blanket, cfg.max_condition_size)
        others = {j for j in blanket if (len(blankets[j]), j) < rank}
        _eliminate(members, others, witness, lambda j: order.first(worker_engine, node, j, j))
        return members, _sepsets(node, members, witness)

    if learner is learn_mb:
        blankets = _node_phase("markov-blankets", names, node_step, sequential, executor, engine, sepsets)
        neighbours = _node_phase("pair-separation", names, pair_step, False, executor, engine, sepsets)
    else:
        neighbours = _node_phase("neighbours", names, node_step, sequential, executor, engine, sepsets)
    edges = [(i, j) for i in names for j in sorted(neighbours[i]) if i < j]
    return Skeleton(names, edges), sepsets


def _node_phase(phase, names, step, sequential, executor, engine, sepsets):
    """Run ``step(node, earlier, engine) -> (members, sepset table)`` for
    every node, merge the tables first-wins in name order and return the
    symmetrised member sets.

    By default the nodes are mapped in parallel, one task each, with
    ``earlier = {}``. A ``sequential`` phase runs one task over the
    column-ordered names and folds each node's members into ``earlier``
    before the next node's step.
    """
    if not sequential:
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
    _check_cap(max_condition_size)
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
    """Search N(a) \\ {b}, then N(b) \\ {a}, for a separating set. The second
    search skips the subsets of the first pool: the first tested each."""
    first = skel.neighbours(a) - {b}
    sep = first_separator(engine, a, b, first, cap)
    if sep is None:
        sep = _SubsetOrder(skel.neighbours(b) - {a}, cap).first(engine, a, b, asked=first)
    return sep


def learn_cpdag(
    data: Dataset,
    cfg: GlobalLearnConfig,
    executor: ParallelExecutor | None = None,
    truth: Dag | None = None,
) -> Pdag:
    """Full pipeline: skeleton, v-structures, then orientation propagation.
    Both searches run on one engine."""
    cfg.validate()
    if executor is None:
        executor = ParallelExecutor(cfg.workers, cfg.schedule)
    engine = make_engine(cfg.test, data, cfg.alpha, truth=truth)
    skel, sepsets = _skeleton(data, cfg, executor, engine)
    oriented = orient_v_structures(
        skel, sepsets, data, engine, executor, cfg.max_condition_size
    )
    return apply_meek_rules(oriented.pdag)
