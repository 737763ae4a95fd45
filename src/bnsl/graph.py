"""Graph representations and graph-theoretic primitives.

One validated core, :class:`Pdag`, holds directed arcs and undirected edges
over named variables. A DAG is a PDAG with no undirected edges and a
skeleton is one with no arcs (Chickering 1995), so :class:`Dag` and
:class:`Skeleton` subclass it and only add names for the side they use.
The module also provides d-separation, Markov blankets, equivalence-class
(CPDAG) conversion and the skeleton Hamming distance.

Each input check exists once:

- :func:`_check_nodes`: node names are distinct non-empty strings (the
  datasets apply the same rule to their variable names);
- :func:`_check_edges`: both endpoints of every arc and edge are nodes,
  and differ;
- ``Pdag.__init__``: a pair of nodes carries at most one edge;
- :func:`_lookup`: every accessor and query rejects an unknown node by
  name;
- ``Dag.__init__``: the arcs contain no directed cycle.

Graphs compare equal only within one class: a ``Dag`` never equals the
``Pdag`` of its arcs, nor a ``Skeleton`` the ``Pdag`` of its edges.

Node order inside a graph follows the order in which nodes were supplied
(normally the dataset column order). All algorithmic tie-breaking elsewhere
in the package is by node *name*, so graphs built from column-permuted data
compare equal edge-wise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable


def _pair(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair: sorted by name."""
    return (a, b) if a <= b else (b, a)


def _check_nodes(nodes: Iterable[str]) -> tuple[str, ...]:
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node names")
    for n in nodes:
        if not isinstance(n, str) or not n:
            raise ValueError(f"invalid node name: {n!r}")
    return nodes


def _check_edges(nodes: tuple[str, ...], pairs: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    """The ordered pairs in ``pairs``; each endpoint must be a node, and
    the two must differ."""
    node_set = set(nodes)
    checked = set()
    for a, b in pairs:
        for n in (a, b):
            if n not in node_set:
                raise ValueError(f"unknown node: {n!r}")
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        checked.add((a, b))
    return checked


def _lookup(side: dict[str, set[str]], x: str) -> frozenset[str]:
    """``side[x]``, or a ``ValueError`` naming ``x`` if it is not a node."""
    if x not in side:
        raise ValueError(f"unknown node: {x!r}")
    return frozenset(side[x])


_NO_NODES: frozenset[str] = frozenset()


def _adjacency(nodes: tuple[str, ...], pairs) -> dict[str, set[str] | frozenset[str]]:
    """Each node's set of ``b`` over its pairs ``(node, b)``. Nodes without
    a pair share one empty frozenset, so a side a graph does not use (a
    Dag's undirected one, a Skeleton's directed ones) costs one dict."""
    heads: dict[str, set[str]] = {}
    for a, b in pairs:
        heads.setdefault(a, set()).add(b)
    return {n: heads.get(n, _NO_NODES) for n in nodes}


class Pdag:
    """Partially directed graph: directed arcs plus undirected edges.

    The two edge sets are disjoint as unordered pairs and each pair of nodes
    carries at most one edge. ``_out``/``_in`` map each node to its
    successors/predecessors and ``_und`` to its undirected neighbours.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
    ):
        self.nodes = _check_nodes(nodes)
        dir_set = _check_edges(self.nodes, directed)
        und_set = {_pair(a, b) for a, b in _check_edges(self.nodes, undirected)}
        dir_pairs = {_pair(p, c) for p, c in dir_set}
        if len(dir_pairs) != len(dir_set):
            raise ValueError("a pair carries arcs in both directions")
        if dir_pairs & und_set:
            raise ValueError("a pair is both directed and undirected")
        self.directed_arcs: frozenset[tuple[str, str]] = frozenset(dir_set)
        self.undirected_edges: frozenset[tuple[str, str]] = frozenset(und_set)
        self._out = _adjacency(self.nodes, self.directed_arcs)
        self._in = _adjacency(self.nodes, [(c, p) for p, c in self.directed_arcs])
        self._und = _adjacency(self.nodes, [e for a, b in self.undirected_edges for e in ((a, b), (b, a))])

    def successors(self, x: str) -> frozenset[str]:
        return _lookup(self._out, x)

    def predecessors(self, x: str) -> frozenset[str]:
        return _lookup(self._in, x)

    def undirected_neighbours(self, x: str) -> frozenset[str]:
        return _lookup(self._und, x)

    def adjacent(self, a: str, b: str) -> bool:
        return (
            _pair(a, b) in self.undirected_edges
            or (a, b) in self.directed_arcs
            or (b, a) in self.directed_arcs
        )

    def skeleton(self) -> Skeleton:
        return Skeleton(self.nodes, self.directed_arcs | self.undirected_edges)

    def __eq__(self, other) -> bool:
        # A Dag, a Skeleton and a Pdag never compare equal, even over the
        # same edges.
        if type(other) is not type(self):
            return NotImplemented
        return (
            set(self.nodes) == set(other.nodes)
            and self.directed_arcs == other.directed_arcs
            and self.undirected_edges == other.undirected_edges
        )

    def __hash__(self):
        return hash((frozenset(self.nodes), self.directed_arcs, self.undirected_edges))

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self.nodes)} nodes, {len(self.directed_arcs)} directed, "
            f"{len(self.undirected_edges)} undirected)"
        )


class Dag(Pdag):
    """Directed acyclic graph over named nodes: a PDAG without undirected
    edges.

    Arcs are (parent, child) pairs. ``arcs``, ``parents``/``_parents`` and
    ``children``/``_children`` name the core's directed side. Construction
    also rejects a directed cycle.
    """

    def __init__(self, nodes: Iterable[str], arcs: Iterable[tuple[str, str]] = ()):
        super().__init__(nodes, arcs)
        self.arcs = self.directed_arcs
        self._parents, self._children = self._in, self._out
        order = _kahn(self.nodes, self._out)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a directed cycle")
        self.topological_order = tuple(order)

    parents = Pdag.predecessors
    children = Pdag.successors


class Skeleton(Pdag):
    """Undirected graph, such as the arcs of a DAG with directions dropped:
    a PDAG without arcs. ``edges``, ``neighbours`` and ``_adj`` name the
    core's undirected side."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        super().__init__(nodes, (), edges)
        self.edges = self.undirected_edges
        self._adj = self._und

    neighbours = Pdag.undirected_neighbours
    has_edge = Pdag.adjacent

    def unshielded_triples(self) -> list[tuple[str, str, str]]:
        """Sorted triples ``(a, k, b)``, a < b, with a - k - b and a, b
        non-adjacent; built from each middle node's neighbour pairs, so the
        cost is O(sum of squared degrees)."""
        triples = []
        for k, adj in self._adj.items():
            nbrs = sorted(adj)
            for i, a in enumerate(nbrs):
                triples.extend((a, k, b) for b in nbrs[i + 1:] if b not in self._adj[a])
        triples.sort()
        return triples


@dataclass(frozen=True, order=True)
class VStructure:
    """Unshielded collider left -> collider <- right, left < right by name."""

    left: str
    collider: str
    right: str

    def __post_init__(self):
        if self.left == self.right:
            raise ValueError("v-structure endpoints must differ")
        if self.left > self.right:
            raise ValueError("v-structure endpoints must be name-ordered")


def d_separated(dag: Dag, x: str, y: str, z: Iterable[str]) -> bool:
    """Test whether ``x`` and ``y`` are d-separated by ``z`` in ``dag``.

    Uses the linear-time reachability formulation: a ball starting at ``x``
    travels along arcs, passing through chains and forks unless the middle
    node is conditioned on, and through colliders only when the collider has
    a descendant in ``z``. Returns True iff ``y`` is unreachable.
    """
    z = set(z)
    # z in name order: the error names the name-smallest unknown, whatever
    # the set's iteration order.
    for n in (x, y, *sorted(z, key=str)):
        _lookup(dag._in, n)
    if x == y:
        raise ValueError("x and y must differ")
    if x in z or y in z:
        raise ValueError("x and y must not be conditioned on")

    # Nodes with a descendant in z (including z itself): ancestors of z.
    anc = set()
    stack = list(z)
    while stack:
        v = stack.pop()
        if v in anc:
            continue
        anc.add(v)
        stack.extend(dag._parents[v])

    # (node, direction) states; "up" = entered against arc direction.
    visited = set()
    queue = deque([(x, "up")])
    while queue:
        v, direction = queue.popleft()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        if v == y and v not in z:
            return False
        if direction == "up" and v not in z:
            for p in dag._parents[v]:
                queue.append((p, "up"))
            for c in dag._children[v]:
                queue.append((c, "down"))
        elif direction == "down":
            if v not in z:
                for c in dag._children[v]:
                    queue.append((c, "down"))
            if v in anc:
                for p in dag._parents[v]:
                    queue.append((p, "up"))
    return True


def markov_blanket_of(dag: Dag, x: str) -> frozenset[str]:
    """Parents, children and spouses (co-parents of children) of ``x``."""
    blanket = set(dag.parents(x)) | set(dag.children(x))
    for c in dag.children(x):
        blanket |= dag.parents(c)
    blanket.discard(x)
    return frozenset(blanket)


def unshielded_colliders(dag: Dag) -> list[VStructure]:
    """All v-structures of ``dag``: a -> c <- b with a, b non-adjacent."""
    out = []
    for c in dag.nodes:
        for a, b in combinations(sorted(dag.parents(c)), 2):
            if (a, b) not in dag.arcs and (b, a) not in dag.arcs:
                out.append(VStructure(a, c, b))
    return sorted(out)


def has_strictly_directed_path(pdag: Pdag, start: str, end: str) -> bool:
    """True iff ``end`` is reachable from ``start`` using directed arcs only.

    Paths have at least one arc; undirected edges are never traversed.
    """
    for n in (start, end):
        _lookup(pdag._out, n)
    return _reaches(pdag._out, start, end)


def _reaches(out: dict[str, set[str]], src: str, dst: str) -> bool:
    """True iff a path of at least one arc of ``out`` leads from ``src`` to
    ``dst``; ``out`` maps each node to its children."""
    seen = set()
    stack = list(out[src])
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        if v not in seen:
            seen.add(v)
            stack.extend(out[v])
    return False


def _kahn(nodes: Iterable[str], out: dict[str, set[str]]) -> list[str]:
    """Kahn's algorithm over the arcs in ``out``: roots in ``nodes`` order,
    children in name order. The order is shorter than ``nodes`` iff the
    arcs contain a directed cycle."""
    indeg = dict.fromkeys(nodes, 0)
    for n in indeg:
        for c in out[n]:
            indeg[c] += 1
    queue = deque(n for n, d in indeg.items() if d == 0)
    order = []
    while queue:
        n = queue.popleft()
        order.append(n)
        for c in sorted(out[n]):
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return order


def apply_meek_rules(pdag: Pdag) -> Pdag:
    """Propagate compelled arc directions until no rule applies.

    Three rules (Meek 1995), each sweep applying (a), (b), then (c) over
    name-ordered edges:
      (a) orient a - b as a -> b when a strictly directed path a ~> b exists
          (Meek's R2, and longer paths);
      (b) orient k - j as k -> j when some i -> k exists with i, j
          non-adjacent (orienting j -> k would create a new v-structure; R1);
      (c) orient k - j as k -> j when k - i -> j and k - l -> j exist with
          i, l non-adjacent (j -> k would force a cycle or a new
          v-structure at k; R3).

    Rules (b) and (c) are skipped when a directed path j ~> k already exists
    (rule (a) picks the edge up on the next sweep instead), so an acyclic
    directed part stays acyclic after every sweep. R4 is needed only with
    background knowledge.
    """
    directed = set(pdag.directed_arcs)
    undirected = set(pdag.undirected_edges)
    out = {n: set(c) for n, c in pdag._out.items()}
    in_ = {n: set(p) for n, p in pdag._in.items()}
    adj = {n: pdag._out[n] | pdag._in[n] | pdag._und[n] for n in pdag.nodes}

    def orient(p: str, c: str) -> None:
        undirected.discard(_pair(p, c))
        directed.add((p, c))
        out[p].add(c)
        in_[c].add(p)

    changed = True
    while changed:
        changed = False
        # Rule (a): strictly directed path between adjacent nodes.
        for a, b in sorted(undirected):
            if _reaches(out, a, b):
                orient(a, b)
                changed = True
            elif _reaches(out, b, a):
                orient(b, a)
                changed = True
        # Rule (b): i -> k, k - j, i and j non-adjacent.
        for a, b in sorted(undirected):
            for k, j in ((a, b), (b, a)):
                if any(i for i in in_[k] if j not in adj[i] and i != j):
                    if not _reaches(out, j, k):
                        orient(k, j)
                        changed = True
                    break
        # Rule (c): k - i -> j and k - l -> j, i and l non-adjacent; k - j.
        for a, b in sorted(undirected):
            for k, j in ((a, b), (b, a)):
                mids = [i for i in in_[j] if _pair(i, k) in undirected]
                if any(l not in adj[i] for i, l in combinations(mids, 2)) and not _reaches(out, j, k):
                    orient(k, j)
                    changed = True
                    break
        assert len(_kahn(pdag.nodes, out)) == len(pdag.nodes), "orientation sweep introduced a directed cycle"
    return Pdag(pdag.nodes, directed, undirected)


def dag_to_cpdag(dag: Dag) -> Pdag:
    """Completed partially directed graph of ``dag``'s equivalence class.

    Keeps the skeleton, directs the unshielded colliders, then propagates
    with :func:`apply_meek_rules`; everything else stays undirected.
    """
    vstructs = unshielded_colliders(dag)
    directed = set()
    for v in vstructs:
        directed.add((v.left, v.collider))
        directed.add((v.right, v.collider))
    return apply_meek_rules(Pdag(dag.nodes, directed, dag.arcs - directed))


def hamming_skeleton(a: Skeleton, b: Skeleton) -> int:
    """Size of the symmetric difference of two undirected edge sets."""
    if set(a.nodes) != set(b.nodes):
        raise ValueError("skeletons must share the same node set")
    return len(a.edges ^ b.edges)
