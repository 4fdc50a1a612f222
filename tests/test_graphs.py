import itertools
import random
import re
import time

import pytest

from pcgroups import (
    InputError,
    ParseError,
    SimpleGraph,
    clique_number,
    embeds_in,
    explicit_catalog,
    complete_decomposition,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    find_induced_p3,
    format_graph,
    graphs,
    induced_subgraph,
    join,
    parse_graph,
    path_graph,
    reflexive_closure_is_transitive,
    relabel,
)
from oracles import (
    all_labeled_graphs,
    bfs_components,
    brute_induced_embedding_exists,
    clique_oracle,
    graph_text_outcome,
)
from bytecodes import opcodes


def P3():
    return SimpleGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])


def C4():
    return SimpleGraph(("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])


class TestSimpleGraph:
    def test_canonical_edges(self):
        g = SimpleGraph(("b", "a"), [("b", "a")])
        assert g.vertices == ("a", "b")
        assert g.edges == frozenset({("a", "b")})
        assert g == SimpleGraph(("a", "b"), [("a", "b")])

    def test_equal_needs_equal_edges_too(self):
        g = SimpleGraph(("a", "b", "c"), [("a", "b")])
        assert g != SimpleGraph(("a", "b", "c"), [("b", "c")])
        assert g != SimpleGraph(("a", "b", "c"))
        assert g != SimpleGraph(("a", "b"), [("a", "b")])

    def test_loop_rejected(self):
        with pytest.raises(InputError):
            SimpleGraph(("a",), [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InputError, match="'c'"):
            SimpleGraph(("a", "b"), [("a", "c")])
        with pytest.raises(InputError, match="^edge endpoint 'z' is not a vertex$"):
            SimpleGraph(["a"], [("a", "z")])
        # an unknown first endpoint is named, also when both are unknown
        for edge in (("z", "a"), ("z", "y")):
            with pytest.raises(InputError, match="^edge endpoint 'z' is not a vertex$"):
                SimpleGraph(["a", "b"], [edge])

    def test_malformed_edge_named(self):
        for edge in ((["a"], "b"), "ab c", ("a",), None):
            with pytest.raises(InputError, match="is not a pair of vertex names") as err:
                SimpleGraph(("a", "b"), [edge])
            assert repr(edge) in str(err.value)

    def test_adjacency(self):
        g = P3()
        assert g.adjacent("a", "b") and g.adjacent("b", "a")
        assert not g.adjacent("a", "c")
        assert g.neighbors("b") == frozenset({"a", "c"})
        with pytest.raises(InputError):
            g.adjacent("a", "z")
        for call in (lambda: g.adjacent("q", "a"), lambda: g.neighbors("q")):
            with pytest.raises(InputError, match="^unknown vertex 'q'$"):
                call()

    def test_empty_graph(self):
        g = SimpleGraph(())
        assert g.vertices == ()
        assert find_induced_p3(g) is None
        assert reflexive_closure_is_transitive(g)
        assert complete_decomposition(g) == ()
        assert clique_number(g) == 0


def canonical_pairs(pairs):
    return frozenset((u, v) if u < v else (v, u) for u, v in pairs)


class TestDerivedEdges:
    """Every constructor stores neighbour sets only; ``edges`` is derived
    from them, and equality and hashing agree with the canonical pairs."""

    def check(self, g, vertices, pairs):
        reference = SimpleGraph(vertices, pairs)
        assert g.vertices == tuple(sorted(vertices))
        assert g.edges == canonical_pairs(pairs)
        assert g == reference and hash(g) == hash(reference)
        assert repr(g) == repr(reference)
        for v in g.vertices:
            assert g.neighbors(v) == {w for p in g.edges if v in p for w in p if w != v}

    def test_every_constructor(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(0, 9)
            names = [f"n{i}" for i in range(n)]
            pairs = [p[:: rng.choice((1, -1))] for p in itertools.combinations(names, 2) if rng.random() < 0.4]
            self.check(SimpleGraph(names, pairs), names, pairs)
            adj = {v: frozenset(w for p in pairs if v in p for w in p if w != v) for v in names}
            self.check(SimpleGraph._trusted(adj), names, pairs)
            text = " ".join(names) + "\n" + "".join(f"{u} {v}\n" for u, v in pairs)
            self.check(parse_graph(text), names, pairs)
            g = SimpleGraph(names, pairs)
            ys = [v for v in names if rng.random() < 0.6]
            self.check(induced_subgraph(g, ys), ys, [p for p in pairs if set(p) <= set(ys)])
            h = relabel(g, {v: "r" + v for v in names})
            rnames = ["r" + v for v in names]
            renamed = [("r" + u, "r" + v) for u, v in pairs]
            self.check(h, rnames, renamed)
            self.check(disjoint_union(g, h), names + rnames, pairs + renamed)
            across = [(u, r) for u in names for r in rnames]
            self.check(join(g, h), names + rnames, pairs + renamed + across)
            self.check(join(h, g), names + rnames, pairs + renamed + across)

    def test_names_the_text_format_cannot_hold(self):
        # format_graph would write each of these as text that parse_graph
        # refuses or reads as other vertices
        for name in ("a b", "a#", "x^2", "a\nb", ""):
            with pytest.raises(InputError, match="non-empty strings without"):
                SimpleGraph([name, "c"], [(name, "c")])
            with pytest.raises(InputError, match="non-empty strings without"):
                relabel(complete_graph(("a", "c")), {"a": name, "c": "c"})
        # a name that is not a string is refused before names are sorted or
        # hashed
        for name in (3, ("a",), ["a"]):
            with pytest.raises(InputError, match="non-empty strings without"):
                SimpleGraph(["c", name])
            with pytest.raises(InputError, match="non-empty strings without"):
                relabel(complete_graph(("a", "c")), {"a": name, "c": "c"})

    def test_relabel_checks_new_names(self):
        g = complete_graph(("a", "b"))
        with pytest.raises(InputError, match="non-empty strings"):
            relabel(g, {"a": "x", "b": ""})
        with pytest.raises(InputError, match="non-empty strings"):
            relabel(g, {"a": "x", "b": 7})


class TestInducedSubgraph:
    def test_path_endpoints(self):
        assert induced_subgraph(P3(), {"a", "c"}) == edgeless_graph(("a", "c"))

    def test_identity(self):
        g = C4()
        assert induced_subgraph(g, g.vertices) == g

    def test_complete_hereditary(self):
        k4 = complete_graph(("a", "b", "c", "d"))
        assert induced_subgraph(k4, {"a", "b", "c"}) == complete_graph(("a", "b", "c"))

    def test_unknown_vertex_named(self):
        with pytest.raises(InputError, match="'z'"):
            induced_subgraph(P3(), {"a", "z"})
        with pytest.raises(InputError, match=r"unknown vertex \['a'\]"):
            induced_subgraph(P3(), [["a"]])


class TestConnectedComponents:
    def test_edgeless(self):
        assert connected_components(edgeless_graph(("a", "b", "c"))) == (("a",), ("b",), ("c",))

    def test_two_cliques(self):
        g = SimpleGraph(("a", "b", "c", "d", "e"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")])
        assert connected_components(g) == (("a", "b", "c"), ("d", "e"))

    def test_path(self):
        assert connected_components(P3()) == (("a", "b", "c"),)

    def test_matches_breadth_first_search(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(0, 40)
            names = [f"v{i:02d}" for i in range(n)]
            rng.shuffle(names)
            p = rng.choice((0.0, 0.02, 0.05, 0.1, 0.3))
            g = SimpleGraph(names, (q for q in itertools.combinations(names, 2) if rng.random() < p))
            assert connected_components(g) == bfs_components(g)


class TestFindInducedP3:
    def test_path_itself(self):
        assert find_induced_p3(P3()) == ("a", "b", "c")

    def test_union_of_cliques_is_free(self):
        g = disjoint_union(complete_graph(3, prefix="x"), complete_graph(5, prefix="y"))
        assert find_induced_p3(g) is None

    def test_c4_least_witness(self):
        # frozen from exhaustive ordered-triple enumeration: (a,b,c) is the
        # first triple with edges ab, bc and no ac
        assert find_induced_p3(C4()) == ("a", "b", "c")

    def test_witness_valid_and_least_exhaustive(self):
        for g in itertools.chain.from_iterable(all_labeled_graphs(n) for n in (4, 5, 6)):
            wit = find_induced_p3(g)
            triples = [
                (x, y, z)
                for x, y, z in itertools.permutations(g.vertices, 3)
                if g.adjacent(x, y) and g.adjacent(y, z) and not g.adjacent(x, z)
            ]
            if wit is None:
                assert not triples
            else:
                assert wit == min(triples)

    def test_reads_neighbourhoods_with_no_component_search(self, monkeypatch):
        searched = []
        components = graphs._components
        monkeypatch.setattr(graphs, "_components", lambda *args: searched.append(args) or components(*args))
        star = SimpleGraph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
        cliques = disjoint_union(complete_graph(3, prefix="x"), complete_graph(5, prefix="y"))
        late = disjoint_union(cliques, path_graph(3, prefix="z"))
        assert [find_induced_p3(g) for g in (star, cliques, late, cycle_graph(40))] == [
            ("b", "a", "c"), None, ("z1", "z2", "z3"), ("v1", "v2", "v3")]
        assert searched == []


class TestTransitivity:
    def test_path_not_transitive(self):
        assert not reflexive_closure_is_transitive(P3())

    def test_complete_transitive(self):
        for n in range(1, 6):
            assert reflexive_closure_is_transitive(complete_graph(n))

    def test_union_of_cliques(self):
        g = disjoint_union(complete_graph(2, prefix="x"), complete_graph(3, prefix="y"))
        assert reflexive_closure_is_transitive(g)

    def test_matches_triple_scan(self):
        for g in all_labeled_graphs(4):
            expected = all(
                g.adjacent(x, z)
                for x, y, z in itertools.permutations(g.vertices, 3)
                if g.adjacent(x, y) and g.adjacent(y, z)
            )
            assert reflexive_closure_is_transitive(g) == expected

    def test_matches_the_brute_p3_oracle(self):
        # the closure is transitive exactly when no three vertices induce a
        # path, which the oracle decides by trying every vertex assignment
        p3 = path_graph(3, prefix="p")
        hosts = [g for n in range(6) for g in all_labeled_graphs(n)]
        rng = random.Random(43)
        for i in range(300):
            n = rng.randint(6, 10)
            if i % 2:
                names = [f"v{k}" for k in range(n)]
                p = rng.random()
                hosts.append(SimpleGraph(names, [e for e in itertools.combinations(names, 2) if rng.random() < p]))
            else:
                hosts.append(clique_union_with_toggles(rng, n, rng.randint(0, 2)))
        verdicts = [reflexive_closure_is_transitive(g) for g in hosts]
        assert verdicts == [not brute_induced_embedding_exists(p3, g) for g in hosts]
        assert 50 < sum(verdicts[-300:]) < 250  # both verdicts among the random graphs


def decomposition_referee(g):
    """Component sizes, descending, if every component is complete, read off
    ``connected_components``."""
    blocks = connected_components(g)
    if any(g.degree(v) != len(block) - 1 for block in blocks for v in block):
        return None
    return tuple(sorted(map(len, blocks), reverse=True))


def clique_union_with_toggles(rng, n, toggles):
    """A disjoint union of cliques on n shuffled names with ``toggles``
    random pairs flipped between edge and non-edge."""
    names = [f"v{i:02d}" for i in range(n)]
    rng.shuffle(names)
    edges, at = set(), 0
    while at < n:
        k = rng.randint(1, n - at)
        edges.update(itertools.combinations(sorted(names[at : at + k]), 2))
        at += k
    for _ in range(toggles):
        if n >= 2:
            edges ^= {tuple(sorted(rng.sample(names, 2)))}
    return SimpleGraph(names, edges)


class TestCompleteDecomposition:
    def test_agrees_with_component_referee(self):
        for n in range(7):
            for g in all_labeled_graphs(n):
                assert complete_decomposition(g) == decomposition_referee(g), g
        rng = random.Random(77)
        complete = 0
        for _ in range(500):
            g = clique_union_with_toggles(rng, rng.randint(1, 60), rng.randint(0, 2))
            ranks = complete_decomposition(g)
            assert ranks == decomposition_referee(g), g
            complete += ranks is not None
        assert 50 < complete < 450  # both verdicts were exercised

    def test_clique_union(self):
        g = disjoint_union(complete_graph(3, prefix="x"), edgeless_graph(("p", "q")))
        assert complete_decomposition(g) == (3, 1, 1)

    def test_path_absent(self):
        assert complete_decomposition(P3()) is None

    def test_edgeless(self):
        assert complete_decomposition(edgeless_graph(5)) == (1, 1, 1, 1, 1)

    def test_sum_and_part_count(self):
        for g in all_labeled_graphs(5):
            ranks = complete_decomposition(g)
            if ranks is not None:
                assert sum(ranks) == len(g.vertices)
                assert len(ranks) == len(connected_components(g))
                assert list(ranks) == sorted(ranks, reverse=True)


def test_lemma_equivalence_small():
    # the three conditions agree on every labeled graph with <= 4 vertices;
    # the acceptance suite sweeps 5 and 6
    for n in range(5):
        for g in all_labeled_graphs(n):
            a = find_induced_p3(g) is None
            b = reflexive_closure_is_transitive(g)
            c = complete_decomposition(g) is not None
            assert a == b == c


def test_p3_freeness_is_hereditary():
    rng = random.Random(42)
    free = [g for g in all_labeled_graphs(4) if find_induced_p3(g) is None]
    for g in free:
        for r in range(len(g.vertices) + 1):
            for ys in itertools.combinations(g.vertices, r):
                assert find_induced_p3(induced_subgraph(g, ys)) is None
    # spot-check some larger ones
    for _ in range(50):
        sizes = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        g = edgeless_graph(0)
        for i, s in enumerate(sizes):
            g = disjoint_union(g, complete_graph(s, prefix=f"c{i}_"))
        ys = [v for v in g.vertices if rng.random() < 0.5]
        assert find_induced_p3(induced_subgraph(g, ys)) is None


class TestUnionAndJoin:
    def test_join_presents_zm_x_fn(self):
        m, n = 2, 3
        g = join(complete_graph(m, prefix="z"), edgeless_graph(n, prefix="f"))
        assert len(g.vertices) == m + n
        assert len(g.edges) == m * (m - 1) // 2 + m * n
        # the free part stays mutually non-adjacent
        assert not any(g.adjacent(f"f{i}", f"f{j}") for i in range(1, n + 1) for j in range(i + 1, n + 1))

    def test_trivial_cases(self):
        a, b = complete_graph(("a",)), complete_graph(("b",))
        assert disjoint_union(a, b) == edgeless_graph(("a", "b"))
        assert join(a, b) == complete_graph(("a", "b"))
        assert join(b, a) == complete_graph(("a", "b"))  # the cross edge comes out as (b, a)

    def test_name_clash_rejected(self):
        with pytest.raises(InputError, match="a"):
            disjoint_union(complete_graph(("a", "b")), complete_graph(("a",)))
        with pytest.raises(InputError):
            join(complete_graph(("a",)), complete_graph(("a",)))

    def test_relabel_resolves_clash(self):
        g = complete_graph(("a", "b"))
        h = relabel(g, {"a": "x", "b": "y"})
        assert disjoint_union(g, h).vertices == ("a", "b", "x", "y")

    def test_relabel_validates(self):
        g = complete_graph(("a", "b"))
        with pytest.raises(InputError):
            relabel(g, {"a": "x"})
        with pytest.raises(InputError):
            relabel(g, {"a": "x", "b": "x"})


class TestCliqueNumber:
    def test_small_examples(self):
        assert clique_number(complete_graph(5)) == 5
        assert clique_number(C4()) == 2
        g = join(complete_graph(3, prefix="x"), edgeless_graph(2, prefix="y"))
        assert clique_number(g) == 4  # frozen from subset brute force
        # deeper than the interpreter's recursion limit
        assert clique_number(complete_graph(1200)) == 1200

    def test_against_subset_oracle(self):
        for n in range(6):
            for g in all_labeled_graphs(n):
                assert clique_number(g) == clique_oracle(g)
        rng = random.Random(12)
        for _ in range(400):
            n = rng.randrange(7, 13)
            p = rng.random()
            names = [f"v{i}" for i in range(n)]
            g = SimpleGraph(names, (q for q in itertools.combinations(names, 2) if rng.random() < p))
            assert clique_number(g) == clique_oracle(g)

    def test_complement_of_union_of_paths_cycles_cliques(self):
        # the complement of a disjoint union is the join of the parts'
        # complements, so omega is the sum of the parts' independence numbers:
        # ceil(k/2) for a path, floor(k/2) for a cycle and 1 for a clique
        rng = random.Random(20)
        for _ in range(5):
            pool = [f"v{i:02d}" for i in range(88)]
            rng.shuffle(pool)  # so that no part is a run of the vertex order
            names, union, alpha = [], set(), 0
            while len(names) < 80:
                kind, k = rng.choice(("path", "cycle", "clique")), rng.randrange(3, 9)
                block = pool[len(names) : len(names) + k]
                names += block
                if kind == "clique":
                    union.update(itertools.combinations(block, 2))
                    alpha += 1
                else:
                    union.update(zip(block, block[1:]))
                    if kind == "cycle":
                        union.add((block[0], block[-1]))
                    alpha += k // 2 if kind == "cycle" else (k + 1) // 2
            g = SimpleGraph(names, (
                (u, v) for u, v in itertools.combinations(names, 2)
                if (u, v) not in union and (v, u) not in union
            ))
            assert clique_number(g) == alpha

    def test_join_and_union_arithmetic(self):
        rng = random.Random(9)
        for _ in range(100):
            pairs1 = list(itertools.combinations("abcd", 2))
            pairs2 = list(itertools.combinations("wxyz", 2))
            g1 = SimpleGraph("abcd", (p for p in pairs1 if rng.random() < 0.5))
            g2 = SimpleGraph("wxyz", (p for p in pairs2 if rng.random() < 0.5))
            assert clique_number(join(g1, g2)) == clique_number(g1) + clique_number(g2)
            assert clique_number(disjoint_union(g1, g2)) == max(clique_number(g1), clique_number(g2))


def union_of_cliques(rng, names):
    """The names cut into runs of random lengths, each run a clique."""
    edges, at = [], 0
    while at < len(names):
        k = rng.randint(1, len(names) - at)
        edges += itertools.combinations(names[at : at + k], 2)
        at += k
    return edges


def join_of_unions(rng, names):
    """The names cut into runs, often of one vertex, each a union of
    cliques, with every pair from two runs adjacent."""
    edges, runs, at = [], [], 0
    while at < len(names):
        k = rng.choice((1, 1, rng.randint(1, len(names) - at)))
        runs.append(names[at : at + k])
        edges += union_of_cliques(rng, runs[-1])
        at += k
    edges += ((u, v) for a, b in itertools.combinations(runs, 2) for u in a for v in b)
    return edges


def cut_names(rng, n):
    names = [f"v{i:02d}" for i in range(n)]
    rng.shuffle(names)  # so that no part is a run of the vertex order
    return names


class TestUnionsAndJoinsOfCliques:
    # a union of cliques is answered from its decomposition, and a clique
    # part of the split is valued by its size
    PATTERNS = {entry.name: entry.pattern for entry in explicit_catalog() if entry.name in ("P3", "P4", "C4")}

    @pytest.mark.parametrize("build", [union_of_cliques, join_of_unions])
    def test_match_the_brute_searches(self, build):
        rng = random.Random(47)
        for _ in range(150):
            names = list("abcdefg"[: rng.randint(0, 7)])
            rng.shuffle(names)
            g = SimpleGraph(names, build(rng, names))
            omega = clique_oracle(g)
            assert clique_number(g) == omega
            for n in range(1, 9):
                assert embeds_in(f"K_{n}", g) == (n <= omega)
            for name, pattern in self.PATTERNS.items():
                assert embeds_in(name, g) == brute_induced_embedding_exists(pattern, g), name

    def test_large_ones_add_up(self):
        # omega of a union is its largest clique; of a join, the sum over runs
        rng = random.Random(53)
        for _ in range(40):
            names = cut_names(rng, rng.randint(1, 120))
            union = SimpleGraph(names, union_of_cliques(rng, names))
            omega = max(complete_decomposition(union))
            assert clique_number(union) == omega
            assert embeds_in(f"K_{omega}", union) and not embeds_in(f"K_{omega + 1}", union)
            assert not any(embeds_in(p, union) for p in ("P3", "P4", "C4"))
            joined = join(union, complete_graph(rng.randint(1, 30), prefix="w"))
            assert clique_number(joined) == omega + len(joined.vertices) - len(names)

    def test_unions_of_cliques_build_no_bitsets(self, monkeypatch):
        built = []
        bitsets = graphs._bitsets
        monkeypatch.setattr(graphs, "_bitsets", lambda *args: built.append(args) or bitsets(*args))
        host = edgeless_graph(0)
        for k, prefix in ((61, "x"), (30, "y"), (5, "z"), (1, "u")):
            host = disjoint_union(host, complete_graph(k, prefix=prefix))
        assert embeds_in("K_61", host) and not embeds_in("K_62", host)
        assert not embeds_in("P4", host) and not embeds_in("C4", host)
        assert built == []
        # the split runs on adjacency sets: a cograph builds none, the P4
        # test none at all, and the C4 test none on a join of two non-edges
        assert clique_number(join(host, complete_graph(7, prefix="w"))) == 68
        assert embeds_in("P4", path_graph(4))
        assert embeds_in("C4", cycle_graph(4))
        assert built == []
        # a prime part gets bitsets of its own vertices (the counter counts)
        assert not embeds_in("C4", cycle_graph(6))
        assert [sorted(part) for _, part in built] == [list(cycle_graph(6).vertices)]
        # and a graph that splits hands no call its whole vertex set
        built.clear()
        for g in (disjoint_union(cycle_graph(5, prefix="a"), path_graph(4, prefix="b")),
                  join(cycle_graph(5, prefix="a"), path_graph(4, prefix="b"))):
            clique_number(g), embeds_in("K_3", g), embeds_in("C4", g)
            assert built and all(len(part) < len(g.vertices) for _, part in built), built
            built.clear()

    def test_a_clique_is_valued_by_its_size(self):
        # the bytecodes clique_number runs on K_300, the graph built beforehand;
        # with a frame and a clique search per vertex it ran 150,857 on
        # CPython 3.11.7, and valuing single-vertex co-components without a
        # frame brings that to 44,378
        g = complete_graph(300)
        count, omega = opcodes(lambda: clique_number(g))
        assert omega == 300 and 0 < count <= 150_857 // 2, count


class TestFactories:
    def test_shapes(self):
        assert len(path_graph(4).edges) == 3
        assert len(cycle_graph(4).edges) == 4
        assert len(complete_graph(4).edges) == 6
        assert edgeless_graph(4).edges == frozenset()

    def test_complete_graph_is_every_pair_checked(self):
        for n in range(41):
            names = [f"v{i}" for i in range(1, n + 1)]
            assert complete_graph(n) == SimpleGraph(names, itertools.combinations(names, 2))
        for names in (["b", "a"], ("x", "y", "z"), "pqrs", ["q2", "q10", "q1"]):
            assert complete_graph(iter(names)) == SimpleGraph(names, itertools.combinations(names, 2))

    @pytest.mark.parametrize("names, message", [
        (["a", "b c"], "vertex names must be non-empty strings without whitespace, '^' or '#', got 'b c'"),
        (["a", 3], "vertex names must be non-empty strings without whitespace, '^' or '#', got 3"),
        # the repeated name that occurs first, as the pair of it with itself is met first
        (["a", "b", "b", "a"], "loop edge at 'a' is not allowed"),
        (["b", "a", "a"], "loop edge at 'a' is not allowed"),
        ("xyzy", "loop edge at 'y' is not allowed"),
    ])
    def test_complete_graph_refuses_as_the_checked_construction(self, names, message):
        for build in (complete_graph, lambda names: SimpleGraph(names, itertools.combinations(names, 2))):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                build(names)

    def test_complete_graph_takes_no_step_per_pair(self):
        # every pair through the checked constructor ran 1,858,032 bytecodes
        # on CPython 3.11.7; one set difference per vertex runs about 22,000
        count, g = opcodes(lambda: complete_graph(300))
        assert len(g.edges) == 300 * 299 // 2 and count <= 100_000, count

    def test_cycle_needs_three(self):
        with pytest.raises(InputError):
            cycle_graph(2)
        assert cycle_graph(3) == complete_graph(3)
        assert cycle_graph("xyz").edges == frozenset({("x", "y"), ("y", "z"), ("x", "z")})

    def test_count_not_negative(self):
        with pytest.raises(InputError, match="^vertex count must be >= 0$"):
            complete_graph(-1)

    @pytest.mark.parametrize("build", [complete_graph, path_graph, cycle_graph, edgeless_graph])
    def test_huge_count_refused_at_once(self, build):
        start = time.perf_counter()
        with pytest.raises(InputError, match="^the graph would have more than 1000000 vertices and edges$"):
            build(10**30)
        assert time.perf_counter() - start < 0.01

    def test_size_limit_counts_vertices_and_edges(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", 10)
        # the most vertices each builder may make when vertices + edges <= 10
        for build, largest in ((complete_graph, 4), (path_graph, 5), (cycle_graph, 5), (edgeless_graph, 10)):
            for given in (largest, [f"n{i}" for i in range(largest)]):
                assert len(build(given).vertices) == largest
            for given in (largest + 1, [f"n{i}" for i in range(largest + 1)], itertools.count()):
                with pytest.raises(InputError, match="more than 10 vertices and edges"):
                    build(given)


class TestTextFormat:
    def test_roundtrip(self):
        g = C4()
        assert parse_graph(format_graph(g)) == g
        assert parse_graph(format_graph(edgeless_graph(0))) == edgeless_graph(0)

    def test_comments_blanks_duplicates(self):
        text = "# a square\na b c d\n\na b\nb c\nb c  # twice is fine\nc d\nd a\n"
        assert parse_graph(text) == C4()

    def test_tabs_crlf_and_comments(self):
        text = "# a square\r\na\tb c\td  # names\r\n\r\na\tb\r\nb c\r\n\t# only a comment\r\nc d\r\nd\ta\r\n"
        assert parse_graph(text) == C4()

    def test_edge_reaches_both_endpoints(self):
        g = parse_graph("a b c\nc a\n")
        assert g.neighbors("a") == {"c"} and g.neighbors("c") == {"a"}
        assert g.edges == {("a", "c")}

    def test_loop_is_line_numbered(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("a b\na b\na a\n")

    def test_edge_arity(self):
        with pytest.raises(ParseError, match="two vertex names"):
            parse_graph("a b c\na b c\n")

    def test_unknown_vertex(self):
        with pytest.raises(ParseError, match="'z'"):
            parse_graph("a b\na z\n")
        with pytest.raises(ParseError, match="line 3: unknown vertex 'y'"):
            parse_graph("a b\na b\ny z\n")

    def test_duplicate_vertex_name(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("a b a\n")

    def test_caret_banned(self):
        with pytest.raises(ParseError, match="'x\\^2'"):
            parse_graph("a x^2\n")

    def test_matches_the_line_by_line_referee(self):
        # random texts in every spelling the format allows, most with one or
        # two faults planted; the first fault in line order is the one named
        rng = random.Random(61)
        pool = ["a", "b", "c", "d", "e", "x1", "x2", "long_name"]
        messages = set()
        for _ in range(800):
            names = rng.sample(pool, rng.randint(0, 6))
            header = names + [rng.choice(names)] if names and rng.random() < 0.1 else names[:]
            if rng.random() < 0.08:
                header.insert(rng.randint(0, len(header)), "x^2")
            lines = [" ".join(header)]
            for _ in range(rng.randint(0, 12)):
                pair = rng.sample(names, 2) if len(names) >= 2 else ["a", "b"]
                fault = rng.random()
                if fault < 0.03:
                    pair = pair[:1] * 2  # a loop
                elif fault < 0.06:
                    pair[rng.randrange(2)] = rng.choice(("zz", "a^1", "a#"))  # unknown, or cut by '#'
                elif fault < 0.09:
                    pair = pair[:1] if rng.random() < 0.5 else pair + ["c"]  # one name or three
                lines.append(rng.choice((" ", "\t", "  ", " \t ")).join(pair))
            for _ in range(rng.randint(0, 4)):  # blank, whitespace-only and comment lines
                lines.insert(rng.randint(0, len(lines)), rng.choice(("", "  ", "\t", "# note", " # a b")))
            lines = [line + " # c d" if rng.random() < 0.1 else line for line in lines]
            end = rng.choice(("\n", "\r\n"))
            text = end.join(lines) + end * (rng.random() < 0.8)
            expected = graph_text_outcome(text)
            try:
                g = parse_graph(text)
            except ParseError as error:
                assert ("error", str(error)) == expected, text
                messages.add(str(error).split(": ")[1].split()[0])
            else:
                assert ("graph", g.vertices, set(g.edges)) == expected, text
        # every kind of fault was met: duplicate, '^' name, count, loop, unknown
        assert messages == {"duplicate", "vertex", "edge", "loop", "unknown"}, messages
