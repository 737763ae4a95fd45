"""Graph-core tests.

The d-separation oracle used here is written independently of the package:
it moralises the ancestral subgraph of the query variables and checks
undirected reachability after deleting the conditioning set. It was written
before the reachability implementation and is kept deliberately naive.
"""

import random
from itertools import combinations

import pytest

from bnsl.graph import (
    Dag,
    Pdag,
    Skeleton,
    VStructure,
    apply_meek_rules,
    d_separated,
    dag_to_cpdag,
    hamming_skeleton,
    has_strictly_directed_path,
    markov_blanket_of,
    unshielded_colliders,
)
from bnsl.synth import random_dag


def moral_oracle_d_separated(dag, x, y, z):
    """Moralised-ancestral-graph reachability, the textbook definition."""
    z = set(z)
    # ancestral set of {x, y} | z
    anc = set()
    frontier = {x, y} | z
    while frontier:
        v = frontier.pop()
        if v in anc:
            continue
        anc.add(v)
        frontier |= set(dag.parents(v))
    # moralise: undirected edges for arcs and for co-parents
    adj = {v: set() for v in anc}
    for v in anc:
        for p in dag.parents(v):
            if p in anc:
                adj[v].add(p)
                adj[p].add(v)
        for a, b in combinations(sorted(dag.parents(v)), 2):
            if a in anc and b in anc:
                adj[a].add(b)
                adj[b].add(a)
    # delete z, check connectivity
    seen = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w == y:
                return False
            if w not in seen and w not in z:
                seen.add(w)
                stack.append(w)
    return True


def all_queries(dag, max_z=2):
    names = list(dag.nodes)
    for x, y in combinations(names, 2):
        rest = [v for v in names if v not in (x, y)]
        for size in range(min(max_z, len(rest)) + 1):
            for z in combinations(rest, size):
                yield x, y, set(z)


class TestDSeparation:
    def test_chain_blocked(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert d_separated(dag, "A", "C", {"B"})
        assert not d_separated(dag, "A", "C", set())

    def test_collider(self):
        dag = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        assert d_separated(dag, "A", "B", set())
        assert not d_separated(dag, "A", "B", {"C"})

    def test_collider_descendant_opens(self):
        dag = Dag(["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")])
        assert not d_separated(dag, "A", "B", {"D"})

    def test_unknown_node_named_in_error(self):
        dag = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(ValueError, match="Q"):
            d_separated(dag, "A", "Q", set())

    def test_argument_validation(self):
        dag = Dag(["A", "B", "C"], [("A", "B")])
        with pytest.raises(ValueError):
            d_separated(dag, "A", "A", set())
        with pytest.raises(ValueError):
            d_separated(dag, "A", "B", {"A"})

    def test_matches_moralization_oracle_on_random_dags(self):
        rng = random.Random(0)
        for trial in range(40):
            dag = random_dag(8, trial, edge_prob=rng.uniform(0.1, 0.5))
            for x, y, z in all_queries(dag, max_z=2):
                expected = moral_oracle_d_separated(dag, x, y, z)
                assert d_separated(dag, x, y, z) == expected, (trial, x, y, z)


class TestMarkovBlanket:
    def test_chain(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert markov_blanket_of(dag, "B") == {"A", "C"}

    def test_spouse(self):
        dag = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        assert markov_blanket_of(dag, "A") == {"B", "C"}

    def test_blanket_separates_everything_else(self):
        for trial in range(30):
            dag = random_dag(10, 1000 + trial, edge_prob=0.25)
            for x in dag.nodes:
                mb = markov_blanket_of(dag, x)
                for w in dag.nodes:
                    if w == x or w in mb:
                        continue
                    assert d_separated(dag, x, w, mb), (trial, x, w, mb)

    def test_unknown_node(self):
        dag = Dag(["A"], [])
        with pytest.raises(ValueError):
            markov_blanket_of(dag, "Z")


def dags_equivalent_by_dsep(d1, d2):
    """Exhaustive d-separation-statement comparison (the slow ground truth)."""
    if set(d1.nodes) != set(d2.nodes):
        return False
    for x, y, z in all_queries(d1, max_z=len(d1.nodes)):
        if d_separated(d1, x, y, z) != d_separated(d2, x, y, z):
            return False
    return True


class TestDagToCpdag:
    def test_single_arc_becomes_undirected(self):
        dag = Dag(["A", "B"], [("A", "B")])
        cpdag = dag_to_cpdag(dag)
        assert cpdag.directed_arcs == frozenset()
        assert cpdag.undirected_edges == {("A", "B")}

    def test_v_structure_stays_directed(self):
        dag = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        cpdag = dag_to_cpdag(dag)
        assert cpdag.directed_arcs == {("A", "C"), ("B", "C")}
        assert cpdag.undirected_edges == frozenset()

    def test_same_cpdag_iff_same_dsep_statements(self):
        # All DAGs on 4 nodes over a few random edge sets, grouped by CPDAG,
        # must match the exhaustive d-separation equivalence oracle.
        rng = random.Random(7)
        names = ["A", "B", "C", "D"]
        dags = []
        for _ in range(60):
            arcs = []
            perm = rng.sample(names, len(names))
            for i, j in combinations(range(len(names)), 2):
                if rng.random() < 0.4:
                    arcs.append((perm[i], perm[j]))
            dags.append(Dag(names, arcs))
        for d1, d2 in combinations(dags, 2):
            same_class = dag_to_cpdag(d1) == dag_to_cpdag(d2)
            assert same_class == dags_equivalent_by_dsep(d1, d2)

    def test_extension_maps_back(self):
        # Any DAG sharing skeleton and v-structures with d maps to the same CPDAG.
        for trial in range(20):
            dag = random_dag(6, 500 + trial, edge_prob=0.4)
            cpdag = dag_to_cpdag(dag)
            flipped = _flip_one_undirected(dag, cpdag)
            if flipped is None:
                continue
            assert dag_to_cpdag(flipped) == cpdag


def _flip_one_undirected(dag, cpdag):
    """Reverse one reversible arc without creating cycles or v-structures."""
    for a, b in sorted(cpdag.undirected_edges):
        for p, c in ((a, b), (b, a)):
            if (p, c) in dag.arcs:
                arcs = set(dag.arcs) - {(p, c)} | {(c, p)}
                try:
                    cand = Dag(dag.nodes, arcs)
                except ValueError:
                    continue
                if unshielded_colliders(cand) == unshielded_colliders(dag):
                    return cand
    return None


class TestStrictlyDirectedPath:
    def test_two_step_path(self):
        pdag = Pdag(["A", "B", "C"], directed=[("A", "B"), ("B", "C")])
        assert has_strictly_directed_path(pdag, "A", "C")
        assert not has_strictly_directed_path(pdag, "C", "A")

    def test_undirected_edges_do_not_count(self):
        pdag = Pdag(["A", "B"], undirected=[("A", "B")])
        assert not has_strictly_directed_path(pdag, "A", "B")

    def test_agrees_with_path_enumeration(self):
        rng = random.Random(3)
        names = [f"N{i}" for i in range(8)]
        for _ in range(25):
            directed, undirected = set(), set()
            for i, j in combinations(range(8), 2):
                roll = rng.random()
                if roll < 0.15:
                    directed.add((names[i], names[j]))
                elif roll < 0.3:
                    undirected.add((names[i], names[j]))
            pdag = Pdag(names, directed, undirected)
            reach = {n: _directed_closure(directed, n) for n in names}
            for a in names:
                for b in names:
                    if a != b:
                        assert has_strictly_directed_path(pdag, a, b) == (b in reach[a])

    def test_transitive(self):
        pdag = Pdag(["A", "B", "C", "D"], directed=[("A", "B"), ("B", "C"), ("C", "D")])
        assert has_strictly_directed_path(pdag, "A", "D")

    def test_unknown_node(self):
        pdag = Pdag(["A"], [])
        with pytest.raises(ValueError):
            has_strictly_directed_path(pdag, "A", "Z")


def _directed_closure(arcs, start):
    out = {}
    for p, c in arcs:
        out.setdefault(p, set()).add(c)
    seen = set()
    stack = list(out.get(start, ()))
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(out.get(v, ()))
    return seen


class TestMeekRules:
    def test_rule_b_orients_away_from_collider(self):
        pdag = Pdag(["A", "B", "C"], directed=[("A", "C")], undirected=[("B", "C")])
        result = apply_meek_rules(pdag)
        assert ("C", "B") in result.directed_arcs

    def test_rule_a_uses_directed_path(self):
        pdag = Pdag(
            ["A", "B", "C"], directed=[("A", "B"), ("B", "C")], undirected=[("A", "C")]
        )
        result = apply_meek_rules(pdag)
        assert ("A", "C") in result.directed_arcs

    def test_fixpoint_when_no_rule_applies(self):
        pdag = Pdag(["A", "B", "C"], undirected=[("A", "B"), ("B", "C")])
        result = apply_meek_rules(pdag)
        assert result == pdag

    def test_never_creates_cycles(self):
        for trial in range(30):
            dag = random_dag(8, 900 + trial, edge_prob=0.35)
            cpdag = dag_to_cpdag(dag)  # runs the acyclicity assertion internally
            closure = Dag(cpdag.nodes, cpdag.directed_arcs)  # raises on a cycle
            assert closure is not None


    def test_rule_c_orients_into_a_two_parent_collider(self):
        # i - j -> k and i - l -> k with j, l non-adjacent: k -> i would
        # force a cycle or the new collider j -> i <- l, so i -> k.
        pdag = Pdag(
            list("ijkl"), directed=[("j", "k"), ("l", "k")], undirected=[("i", "j"), ("i", "l"), ("i", "k")]
        )
        result = apply_meek_rules(pdag)
        assert result.directed_arcs == {("i", "k"), ("j", "k"), ("l", "k")}
        assert result.undirected_edges == {("i", "j"), ("i", "l")}


def acyclic(nodes, arcs):
    """True iff repeatedly removing the nodes without a remaining parent
    empties the graph."""
    remaining = set(nodes)
    while remaining:
        roots = {n for n in remaining if not any(c == n and p in remaining for p, c in arcs)}
        if not roots:
            return False
        remaining -= roots
    return True


def cpdag_by_enumeration(nodes, arcs):
    """The compelled arcs and the reversible edges of the DAG ``arcs``.

    The members of a DAG's equivalence class are the acyclic orientations
    of its skeleton with its v-structures (Verma & Pearl 1990); an arc is
    compelled iff every member has it. This enumerates the orientations
    edge by edge: an arc of one of the DAG's v-structures keeps its
    direction, and a branch is dropped as soon as it has a v-structure the
    DAG lacks. Written from the definition alone, it shares no code with
    ``bnsl.graph``.
    """
    edges = sorted(tuple(sorted(arc)) for arc in arcs)
    adjacent = {frozenset(e) for e in edges}
    parents = {n: set() for n in nodes}

    def colliders():
        return {
            (a, c, b)
            for c, ps in parents.items()
            for a, b in combinations(sorted(ps), 2)
            if frozenset((a, b)) not in adjacent
        }

    for p, c in arcs:
        parents[c].add(p)
    wanted = colliders()
    kept = {(a, c) for a, c, _ in wanted} | {(b, c) for _, c, b in wanted}
    for ps in parents.values():
        ps.clear()
    members = []

    def extend(i, oriented):
        if i == len(edges):
            if acyclic(nodes, oriented):
                assert colliders() == wanted
                members.append(set(oriented))
            return
        for p, c in (edges[i], edges[i][::-1]):
            new_collider = any(
                frozenset((q, p)) not in adjacent and (min(p, q), c, max(p, q)) not in wanted for q in parents[c]
            )
            if (c, p) in kept or new_collider:
                continue
            parents[c].add(p)
            extend(i + 1, oriented + [(p, c)])
            parents[c].discard(p)

    extend(0, [])
    compelled = set.intersection(*members)
    return compelled, set(edges) - {tuple(sorted(arc)) for arc in compelled}


class TestCpdagAgainstEnumeration:
    def test_two_parent_collider_compels_the_third_arc(self):
        # Meek's rule 3: i - j -> k <- l - i with i -> k compelled.
        dag = Dag(list("ijkl"), [("i", "j"), ("i", "l"), ("i", "k"), ("j", "k"), ("l", "k")])
        compelled, reversible = cpdag_by_enumeration(dag.nodes, dag.arcs)
        assert compelled == {("i", "k"), ("j", "k"), ("l", "k")}
        cpdag = dag_to_cpdag(dag)
        assert (cpdag.directed_arcs, cpdag.undirected_edges) == (compelled, reversible)

    @pytest.mark.parametrize("m, first_seed, count, edge_prob", [(7, 0, 200, 0.3), (8, 1000, 325, 0.5)])
    def test_dag_to_cpdag_matches_enumeration(self, m, first_seed, count, edge_prob):
        # Random DAGs of at most 16 arcs; before rule (c) some 8-node ones
        # left a compelled arc undirected.
        seed, checked = first_seed, 0
        while checked < count:
            dag = random_dag(m, seed, edge_prob)
            seed += 1
            if len(dag.arcs) > 16:
                continue
            compelled, reversible = cpdag_by_enumeration(dag.nodes, dag.arcs)
            cpdag = dag_to_cpdag(dag)
            assert (cpdag.directed_arcs, cpdag.undirected_edges) == (compelled, reversible), seed - 1
            checked += 1


class TestHammingSkeleton:
    def test_identical_is_zero(self):
        s = Skeleton(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert hamming_skeleton(s, s) == 0

    def test_single_edge_difference(self):
        a = Skeleton(["A", "B"], [("A", "B")])
        b = Skeleton(["A", "B"], [])
        assert hamming_skeleton(a, b) == 1

    def test_two_sided_difference(self):
        a = Skeleton(["A", "B", "C"], [("A", "B"), ("B", "C")])
        b = Skeleton(["A", "B", "C"], [("A", "B"), ("A", "C")])
        assert hamming_skeleton(a, b) == 2

    def test_mismatched_nodes_rejected(self):
        with pytest.raises(ValueError):
            hamming_skeleton(Skeleton(["A"], []), Skeleton(["B"], []))

    def test_metric_properties_on_random_triples(self):
        rng = random.Random(11)
        names = [f"V{i}" for i in range(6)]
        pairs = list(combinations(names, 2))

        def random_skeleton():
            return Skeleton(names, [p for p in pairs if rng.random() < 0.4])

        for _ in range(50):
            a, b, c = random_skeleton(), random_skeleton(), random_skeleton()
            assert hamming_skeleton(a, b) == hamming_skeleton(b, a)
            assert (hamming_skeleton(a, b) == 0) == (a.edges == b.edges)
            assert hamming_skeleton(a, c) <= hamming_skeleton(a, b) + hamming_skeleton(b, c)


class TestUnshieldedTriples:
    def test_matches_brute_force_on_random_skeletons(self):
        rng = random.Random(29)
        for trial in range(60):
            m = rng.randint(1, 12)
            names = [f"N{i:02d}" for i in range(m)]
            rng.shuffle(names)  # name order differs from node order
            density = rng.choice([0.1, 0.3, 0.6, 0.9])
            skel = Skeleton(names, [p for p in combinations(names, 2) if rng.random() < density])
            expected = sorted(
                (a, k, b)
                for a, b in combinations(sorted(names), 2)
                for k in names
                if not skel.has_edge(a, b) and skel.has_edge(a, k) and skel.has_edge(k, b)
            )
            assert skel.unshielded_triples() == expected, trial


class TestGraphTypes:
    def test_dag_rejects_cycles(self):
        with pytest.raises(ValueError):
            Dag(["A", "B"], [("A", "B"), ("B", "A")])

    def test_dag_rejects_a_longer_directed_cycle(self):
        # Each pair has one arc, so only the acyclicity check catches it.
        with pytest.raises(ValueError, match="directed cycle"):
            Dag(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])

    def test_dag_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Dag(["A"], [("A", "A")])

    def test_pdag_rejects_double_edges(self):
        with pytest.raises(ValueError):
            Pdag(["A", "B"], directed=[("A", "B")], undirected=[("A", "B")])
        with pytest.raises(ValueError):
            Pdag(["A", "B"], directed=[("A", "B"), ("B", "A")])

    def test_skeleton_deduplicates_orientations(self):
        s = Skeleton(["A", "B"], [("A", "B"), ("B", "A")])
        assert len(s.edges) == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Dag(["A", "A"], [])

    def test_vstructure_canonical(self):
        v = VStructure("A", "C", "B")
        assert (v.left, v.right) == ("A", "B")
        with pytest.raises(ValueError):
            VStructure("B", "C", "A")
        with pytest.raises(ValueError):
            VStructure("A", "C", "A")


class TestOneCore:
    """Dag and Skeleton are Pdag special cases; these pin what they keep
    from the separate classes they replaced."""

    def test_classes_never_compare_equal(self):
        nodes = ["A", "B", "C"]
        arcs = [("A", "B"), ("B", "C")]
        assert Pdag(nodes, arcs) != Dag(nodes, arcs)
        assert Dag(nodes, arcs) != Pdag(nodes, arcs)
        assert Skeleton(nodes, arcs) != Pdag(nodes, (), arcs)
        assert Pdag(nodes, (), arcs) != Skeleton(nodes, arcs)
        assert Dag(nodes, arcs) == Dag(list(reversed(nodes)), arcs)
        assert Skeleton(nodes, arcs) == Skeleton(nodes, [(b, a) for a, b in arcs])
        assert len({Dag(nodes, arcs), Dag(nodes, arcs), Skeleton(nodes, arcs)}) == 2

    def test_graph_to_dict_of_each_class(self):
        from bnsl.formats import graph_to_dict

        assert graph_to_dict(Dag(["B", "A", "C"], [("B", "C"), ("A", "B")])) == {
            "nodes": ["B", "A", "C"],
            "edges": [
                {"from": "A", "to": "B", "directed": True},
                {"from": "B", "to": "C", "directed": True},
            ],
        }
        assert graph_to_dict(Pdag(["C", "B", "A"], [("B", "A")], [("C", "B")])) == {
            "nodes": ["C", "B", "A"],
            "edges": [
                {"from": "B", "to": "A", "directed": True},
                {"from": "B", "to": "C", "directed": False},
            ],
        }
        assert graph_to_dict(Skeleton(["A", "B", "C"], [("C", "A"), ("B", "A")])) == {
            "nodes": ["A", "B", "C"],
            "edges": [
                {"from": "A", "to": "B", "directed": False},
                {"from": "A", "to": "C", "directed": False},
            ],
        }
        with pytest.raises(TypeError):
            graph_to_dict({"nodes": []})

    def test_two_cycle_dag_rejected(self):
        with pytest.raises(ValueError):
            Dag(["A", "B"], [("A", "B"), ("B", "A")])

    def test_unknown_node_named_by_every_accessor(self):
        dag = Dag(["A", "B"], [("A", "B")])
        skel = Skeleton(["A", "B"], [("A", "B")])
        pdag = Pdag(["A", "B", "C"], [("A", "B")], [("B", "C")])
        accessors = [dag.parents, dag.children, skel.neighbours]
        for graph in (dag, skel, pdag):
            accessors += [graph.successors, graph.predecessors, graph.undirected_neighbours]
        for accessor in accessors:
            with pytest.raises(ValueError, match="Qx"):
                accessor("Qx")
        for bad in (lambda: Dag(["A"], [("A", "Qx")]), lambda: Skeleton(["A"], [("Qx", "A")]),
                    lambda: Pdag(["A"], (), [("A", "Qx")])):
            with pytest.raises(ValueError, match="Qx"):
                bad()

    def test_subclasses_alias_the_core(self):
        dag = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        assert dag.arcs is dag.directed_arcs and dag.undirected_edges == frozenset()
        assert dag._parents is dag._in and dag._children is dag._out
        assert dag.parents("C") == dag.predecessors("C") == {"A", "B"}
        skel = dag.skeleton()
        assert skel.edges is skel.undirected_edges and skel.directed_arcs == frozenset()
        assert skel._adj is skel._und and skel.neighbours("C") == {"A", "B"}
        assert skel == Pdag(dag.nodes, (), dag.arcs).skeleton()
