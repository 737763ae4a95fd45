"""Graph representations and graph-theoretic primitives.

Directed acyclic graphs, partially directed graphs and undirected skeletons
over named variables, plus d-separation, Markov blankets, equivalence-class
(CPDAG) conversion and the skeleton Hamming distance.

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


class Skeleton:
    """Undirected graph: the arcs of a DAG with directions dropped."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.nodes = _check_nodes(nodes)
        node_set = set(self.nodes)
        canon = set()
        for a, b in edges:
            if a not in node_set:
                raise ValueError(f"unknown node: {a!r}")
            if b not in node_set:
                raise ValueError(f"unknown node: {b!r}")
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            canon.add(_pair(a, b))
        self.edges: frozenset[tuple[str, str]] = frozenset(canon)
        self._adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            self._adj[a].add(b)
            self._adj[b].add(a)

    def neighbours(self, x: str) -> frozenset[str]:
        if x not in self._adj:
            raise ValueError(f"unknown node: {x!r}")
        return frozenset(self._adj[x])

    def has_edge(self, a: str, b: str) -> bool:
        return _pair(a, b) in self.edges

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Skeleton):
            return NotImplemented
        return set(self.nodes) == set(other.nodes) and self.edges == other.edges

    def __hash__(self):
        return hash((frozenset(self.nodes), self.edges))

    def __repr__(self):
        return f"Skeleton({len(self.nodes)} nodes, {len(self.edges)} edges)"


class Dag:
    """Directed acyclic graph over named nodes.

    Arcs are (parent, child) pairs. Construction validates acyclicity and
    rejects self-loops and unknown endpoints.
    """

    def __init__(self, nodes: Iterable[str], arcs: Iterable[tuple[str, str]] = ()):
        self.nodes = _check_nodes(nodes)
        node_set = set(self.nodes)
        arc_set = set()
        for p, c in arcs:
            if p not in node_set:
                raise ValueError(f"unknown node: {p!r}")
            if c not in node_set:
                raise ValueError(f"unknown node: {c!r}")
            if p == c:
                raise ValueError(f"self-loop on {p!r}")
            arc_set.add((p, c))
        self.arcs: frozenset[tuple[str, str]] = frozenset(arc_set)
        self._parents: dict[str, set[str]] = {n: set() for n in self.nodes}
        self._children: dict[str, set[str]] = {n: set() for n in self.nodes}
        for p, c in self.arcs:
            self._parents[c].add(p)
            self._children[p].add(c)
        order = _kahn(self.nodes, self._children)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a directed cycle")
        self._topo = tuple(order)

    @property
    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def parents(self, x: str) -> frozenset[str]:
        if x not in self._parents:
            raise ValueError(f"unknown node: {x!r}")
        return frozenset(self._parents[x])

    def children(self, x: str) -> frozenset[str]:
        if x not in self._children:
            raise ValueError(f"unknown node: {x!r}")
        return frozenset(self._children[x])

    def skeleton(self) -> Skeleton:
        return Skeleton(self.nodes, self.arcs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return set(self.nodes) == set(other.nodes) and self.arcs == other.arcs

    def __hash__(self):
        return hash((frozenset(self.nodes), self.arcs))

    def __repr__(self):
        return f"Dag({len(self.nodes)} nodes, {len(self.arcs)} arcs)"


class Pdag:
    """Partially directed graph: directed arcs plus undirected edges.

    The two edge sets are disjoint as unordered pairs and each pair of nodes
    carries at most one edge.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
    ):
        self.nodes = _check_nodes(nodes)
        node_set = set(self.nodes)
        dir_set = set()
        for p, c in directed:
            if p not in node_set or c not in node_set:
                raise ValueError(f"unknown node in arc ({p!r}, {c!r})")
            if p == c:
                raise ValueError(f"self-loop on {p!r}")
            dir_set.add((p, c))
        und_set = set()
        for a, b in undirected:
            if a not in node_set or b not in node_set:
                raise ValueError(f"unknown node in edge ({a!r}, {b!r})")
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            und_set.add(_pair(a, b))
        dir_pairs = {_pair(p, c) for p, c in dir_set}
        if len(dir_pairs) != len(dir_set):
            raise ValueError("a pair carries arcs in both directions")
        if dir_pairs & und_set:
            raise ValueError("a pair is both directed and undirected")
        self.directed_arcs: frozenset[tuple[str, str]] = frozenset(dir_set)
        self.undirected_edges: frozenset[tuple[str, str]] = frozenset(und_set)
        self._out: dict[str, set[str]] = {n: set() for n in self.nodes}
        self._in: dict[str, set[str]] = {n: set() for n in self.nodes}
        self._und: dict[str, set[str]] = {n: set() for n in self.nodes}
        for p, c in self.directed_arcs:
            self._out[p].add(c)
            self._in[c].add(p)
        for a, b in self.undirected_edges:
            self._und[a].add(b)
            self._und[b].add(a)

    def successors(self, x: str) -> frozenset[str]:
        if x not in self._out:
            raise ValueError(f"unknown node: {x!r}")
        return frozenset(self._out[x])

    def predecessors(self, x: str) -> frozenset[str]:
        if x not in self._in:
            raise ValueError(f"unknown node: {x!r}")
        return frozenset(self._in[x])

    def undirected_neighbours(self, x: str) -> frozenset[str]:
        if x not in self._und:
            raise ValueError(f"unknown node: {x!r}")
        return frozenset(self._und[x])

    def adjacent(self, a: str, b: str) -> bool:
        return (
            _pair(a, b) in self.undirected_edges
            or (a, b) in self.directed_arcs
            or (b, a) in self.directed_arcs
        )

    def skeleton(self) -> Skeleton:
        pairs = [_pair(p, c) for p, c in self.directed_arcs]
        pairs.extend(self.undirected_edges)
        return Skeleton(self.nodes, pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pdag):
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
            f"Pdag({len(self.nodes)} nodes, {len(self.directed_arcs)} directed, "
            f"{len(self.undirected_edges)} undirected)"
        )


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
    for n in (x, y, *z):
        if n not in dag._parents:
            raise ValueError(f"unknown node: {n!r}")
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
        if n not in pdag._out:
            raise ValueError(f"unknown node: {n!r}")
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

    Two rules, each sweep applying (a) before (b) over name-ordered edges:
      (a) orient a - b as a -> b when a strictly directed path a ~> b exists;
      (b) orient k - j as k -> j when some i -> k exists with i, j
          non-adjacent (orienting j -> k would create a new v-structure).

    Rule (b) is skipped when a directed path j ~> k already exists (rule (a)
    picks the edge up on the next sweep instead), so an acyclic directed part
    stays acyclic after every sweep.
    """
    directed = set(pdag.directed_arcs)
    undirected = set(pdag.undirected_edges)
    out: dict[str, set[str]] = {n: set() for n in pdag.nodes}
    in_: dict[str, set[str]] = {n: set() for n in pdag.nodes}
    adj: dict[str, set[str]] = {n: set() for n in pdag.nodes}
    for p, c in directed:
        out[p].add(c)
        in_[c].add(p)
        adj[p].add(c)
        adj[c].add(p)
    for a, b in undirected:
        adj[a].add(b)
        adj[b].add(a)

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
    dir_pairs = {_pair(p, c) for p, c in directed}
    undirected = [
        _pair(p, c) for p, c in dag.arcs if _pair(p, c) not in dir_pairs
    ]
    return apply_meek_rules(Pdag(dag.nodes, directed, undirected))


def hamming_skeleton(a: Skeleton, b: Skeleton) -> int:
    """Size of the symmetric difference of two undirected edge sets."""
    if set(a.nodes) != set(b.nodes):
        raise ValueError("skeletons must share the same node set")
    return len(a.edges ^ b.edges)
