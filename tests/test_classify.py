import itertools
import json
import random
import sys
import time

import pytest

from pcgroups import (
    ExplicitCatalogEntry,
    InputError,
    SimpleGraph,
    catalog_entry,
    classify,
    clique_number,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    embeds_in,
    explicit_catalog,
    join,
    max_abelian_rank,
    path_graph,
)
from bytecodes import opcodes, peak_allocation
from oracles import all_labeled_graphs, brute_induced_embedding_exists, clique_oracle, iso_representatives


def P3():
    return path_graph(("a", "b", "c"))


class TestClassify:
    def test_p3_is_not_howson(self):
        report = classify(P3())
        assert not report.howson
        assert report.contains_z_cross_f2
        assert not report.fully_residually_free
        assert not report.free_product_of_free_abelian
        assert report.p3_witness == ("a", "b", "c")
        assert report.factor_ranks is None
        assert report.max_abelian_rank == 2

    def test_clique_union_is_howson(self):
        g = disjoint_union(complete_graph(3, prefix="x"), complete_graph(("q",)))
        report = classify(g)
        assert report.howson and report.fully_residually_free
        assert report.factor_ranks == (3, 1)
        assert report.p3_witness is None
        assert report.max_abelian_rank == 3
        report = classify(complete_graph(1200))
        assert report.factor_ranks == (1200,) and report.max_abelian_rank == 1200
        g = disjoint_union(complete_graph(300, prefix="x"), complete_graph(300, prefix="y"))
        report = classify(g)
        assert report.howson and report.p3_witness is None
        assert report.factor_ranks == (300, 300) and report.max_abelian_rank == 300

    def test_z_cross_f2_itself(self):
        g = join(complete_graph(1, prefix="t"), edgeless_graph(2, prefix="f"))
        report = classify(g)
        assert not report.howson
        assert report.contains_z_cross_f2

    def test_empty_graph(self):
        report = classify(edgeless_graph(0))
        assert report.howson
        assert report.factor_ranks == ()
        assert report.max_abelian_rank == 0

    def test_fix_and_per_track_main_verdict(self):
        for g in (P3(), complete_graph(4), cycle_graph(5)):
            report = classify(g)
            assert report.fix_points_fg == report.howson
            assert report.per_points_fg == report.howson

    def test_equality_chain_exhaustive(self):
        for g in all_labeled_graphs(4):
            r = classify(g)
            assert (
                r.p3_free
                == r.fully_residually_free
                == r.howson
                == r.free_product_of_free_abelian
                == (not r.contains_z_cross_f2)
            )
            assert (r.factor_ranks is None) != (r.p3_witness is None)
            if r.p3_witness is not None:
                x, y, z = r.p3_witness
                assert g.adjacent(x, y) and g.adjacent(y, z) and not g.adjacent(x, z)
            else:
                assert sum(r.factor_ranks) == len(g.vertices)
                assert r.max_abelian_rank == (max(r.factor_ranks) if r.factor_ranks else 0)

    def test_verdict_monotone_under_embedding(self):
        rng = random.Random(61)
        hosts = [g for g in all_labeled_graphs(5) if rng.random() < 0.05]
        patterns = list(all_labeled_graphs(3))
        for host in hosts:
            for pattern in patterns:
                if not brute_induced_embedding_exists(pattern, host):
                    continue
                if not classify(pattern).howson:
                    assert not classify(host).howson


class TestReportJson:
    def test_key_order_and_values(self):
        d = classify(P3()).to_json_dict()
        assert list(d.keys()) == [
            "p3_free",
            "fully_residually_free",
            "howson",
            "contains_z_cross_f2",
            "free_product_of_free_abelian",
            "factor_ranks",
            "p3_witness",
            "fix_points_fg",
            "per_points_fg",
            "max_abelian_rank",
        ]
        assert d["p3_witness"] == ["a", "b", "c"]
        assert d["factor_ranks"] is None

    def test_ranks_as_descending_array(self):
        g = disjoint_union(complete_graph(2, prefix="x"), complete_graph(3, prefix="y"))
        d = json.loads(classify(g).to_json())
        assert d["factor_ranks"] == [3, 2]
        assert d["p3_witness"] is None


class TestCatalog:
    def test_entries_have_patterns_and_provenance(self):
        for entry in explicit_catalog():
            assert isinstance(entry, ExplicitCatalogEntry)
            assert isinstance(entry.pattern, SimpleGraph)
            assert entry.provenance

    def test_k_n(self):
        # K_n is decided from n alone: no entry or decision builds a graph
        # sized by n, so a 10^12-vertex name costs what its text costs
        entry = catalog_entry("K_4")
        assert entry.pattern is None and entry.provenance
        name = "K_" + "9" * 12
        for run, expected in ((lambda: catalog_entry(name).pattern, None),
                              (lambda: embeds_in(name, cycle_graph(4)), False)):
            start = time.perf_counter()
            assert run() is expected
            assert time.perf_counter() - start < 0.05

    def test_entries_are_frozen_values(self):
        for name in ("K_5", "P3", "P4", "C4", "edgeless_0", "edgeless_1", "edgeless_2"):
            a, b = catalog_entry(name), catalog_entry(name)
            assert a == b and hash(a) == hash(b)
        assert catalog_entry("K_3") != catalog_entry("K_4")
        assert catalog_entry("P3") != catalog_entry("P4")
        entry = catalog_entry("K_3")
        with pytest.raises(AttributeError):
            entry.name = "K_4"
        with pytest.raises(AttributeError):
            entry.pattern = path_graph(3)
        assert entry._fields == ("name", "pattern", "provenance")
        assert catalog_entry("P3")._asdict()["name"] == "P3"

    def test_names_in_table_order(self):
        assert [entry.name for entry in explicit_catalog()] == [
            "edgeless_0", "edgeless_1", "edgeless_2", "P3", "P4", "C4",
        ]

    def test_unknown_names_rejected(self):
        # embeds_in refuses every name catalog_entry refuses, with its text
        for refuse in (catalog_entry, lambda name: embeds_in(name, P3())):
            with pytest.raises(InputError, match="not in the explicit catalog"):
                refuse("Q7")
            with pytest.raises(InputError, match="not in the explicit catalog"):
                refuse("pentagon")
            with pytest.raises(InputError, match="F3"):
                refuse("edgeless_3")
            with pytest.raises(InputError, match="bad complete-graph name"):
                refuse("K_0")

    def test_k_n_spelling(self):
        # n >= 1 in ASCII decimal digits with no leading zero; any other
        # spelling is refused for its name, before any embedding question
        for name in ("K_1", "K_5", "K_10", "K_1000"):
            assert catalog_entry(name).name == name
        for name in ("K_05", "K_+5", "K_ 5", "K_5 ", "K_1_0", "K_-1", "K_0", "K_",
                     "K_\u0665", "K_\uff15", "K_\u00b2"):
            with pytest.raises(InputError, match="bad complete-graph name"):
                catalog_entry(name)
            with pytest.raises(InputError, match="bad complete-graph name"):
                embeds_in(name, P3())
        cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap
        if cap:
            digits = cap + 1
            with pytest.raises(InputError, match=f"{digits} digits, too many"):
                catalog_entry("K_" + "1" * digits)


class TestEmbedsIn:
    def test_p3_into_c4(self):
        assert embeds_in("P3", cycle_graph(4))

    def test_k3_not_into_c4(self):
        assert not embeds_in("K_3", cycle_graph(4))

    def test_f2_never_into_abelian(self):
        for n in range(1, 6):
            assert not embeds_in("edgeless_2", complete_graph(n))

    def test_trivial_group_embeds_everywhere(self):
        assert embeds_in("edgeless_0", edgeless_graph(0))
        assert embeds_in("edgeless_0", cycle_graph(4))

    def test_z_embeds_in_nontrivial(self):
        assert not embeds_in("edgeless_1", edgeless_graph(0))
        assert embeds_in("edgeless_1", complete_graph(1))

    def test_p4_and_c4(self):
        assert embeds_in("P4", path_graph(5))
        assert not embeds_in("P4", cycle_graph(4))
        assert embeds_in("C4", cycle_graph(4))
        assert not embeds_in("C4", complete_graph(4))

    def test_k_n_matches_clique_number(self):
        for g in all_labeled_graphs(4):
            k = clique_number(g)
            for n in range(1, 6):
                assert embeds_in(f"K_{n}", g) == (n <= k)
        # the K_n test stops at the first n-clique: true at omega, false above
        rng = random.Random(31)
        for _ in range(300):
            size = rng.randrange(1, 13)
            p = rng.random()
            names = [f"v{i}" for i in range(size)]
            g = SimpleGraph(names, (q for q in itertools.combinations(names, 2) if rng.random() < p))
            k = clique_number(g)
            assert embeds_in(f"K_{k}", g)
            assert not embeds_in(f"K_{k + 1}", g)

    def test_agrees_with_induced_search(self):
        # the brute-force search is the referee for every direct decision
        patterns = {entry.name: entry.pattern for entry in explicit_catalog()}
        patterns.update((f"K_{n}", complete_graph(n, prefix="k")) for n in range(1, 7))
        hosts = [g for n in range(6) for g in all_labeled_graphs(n)] + iso_representatives(6)
        for host in hosts:
            for name, pattern in patterns.items():
                expected = brute_induced_embedding_exists(pattern, host)
                assert embeds_in(name, host) == expected, (name, host)

    def test_p4_absent_from_complete_multipartite(self):
        # K_{40,40,40} is a join of edgeless graphs, so a cograph: no P4, but
        # squares, P3s and triangles
        parts = [edgeless_graph(40, prefix=f"p{i}_") for i in range(3)]
        host = join(join(parts[0], parts[1]), parts[2])
        assert not embeds_in("P4", host)
        assert embeds_in("C4", host)
        assert embeds_in("P3", host)
        assert embeds_in("K_3", host)
        assert not embeds_in("K_4", host)

    def test_split_graphs_and_planted_patterns(self):
        # a clique plus an independent side (a split graph) never holds an
        # induced C4: two non-adjacent vertices of a square cannot both be
        # in the clique, and two adjacent ones cannot both be on the side
        rng = random.Random(90)
        clique = [f"k{i:02d}" for i in range(45)]
        side = [f"s{i:02d}" for i in range(45)]
        within = list(itertools.combinations(clique, 2))
        random_split = SimpleGraph(clique + side, within + [(s, k) for s in side for k in clique if rng.random() < 0.5])
        assert not embeds_in("C4", random_split)
        # with nested side neighbourhoods (s_j sees k_0 .. k_j) it is a
        # threshold graph, free of P4 as well
        nested = [(s, clique[i]) for j, s in enumerate(side) for i in range(j + 1)]
        threshold = SimpleGraph(clique + side, within + nested)
        assert not embeds_in("C4", threshold)
        assert not embeds_in("P4", threshold)
        # s00 - k44 - k01 - s01 becomes an induced P4
        planted_p4 = SimpleGraph(clique + side, within + nested + [("s00", "k44")])
        assert embeds_in("P4", planted_p4)
        # without the edge k00 k01, s01 - k00 - s02 - k01 is an induced square
        planted_c4 = SimpleGraph(clique + side, [e for e in within if e != ("k00", "k01")] + nested)
        assert embeds_in("C4", planted_c4)

    def test_c4_on_the_component_split(self):
        # vertex i sees every earlier vertex when i is odd: a threshold graph,
        # so a cograph that splits down to single vertices and has no square
        names = [f"t{i:03d}" for i in range(300)]
        nested = [(names[j], names[i]) for i in range(1, 300, 2) for j in range(i)]
        assert not embeds_in("C4", SimpleGraph(names, nested))
        # without the edge t003 t005, t000 - t003 - t002 - t005 is a square
        planted = SimpleGraph(names, [e for e in nested if e != ("t003", "t005")])
        square = ("t000", "t003", "t002", "t005")
        assert all(planted.adjacent(square[i - 1], square[i]) for i in range(4))
        assert not planted.adjacent("t000", "t002") and not planted.adjacent("t003", "t005")
        assert embeds_in("C4", planted)
        # a join of two non-cliques holds a square with a non-adjacent pair
        # from each side, although neither side holds one
        for left, right in ((path_graph(3, prefix="x"), path_graph(3, prefix="y")),
                            (path_graph(4, prefix="x"), edgeless_graph(2, prefix="y"))):
            assert not embeds_in("C4", left) and not embeds_in("C4", right)
            assert embeds_in("C4", join(left, right))
        # a clique side adds no non-adjacent pair, and a pentagon has no square
        assert not embeds_in("C4", join(complete_graph(5, prefix="x"), cycle_graph(5, prefix="y")))

    def test_square_search_grows_with_the_path(self):
        # the bytecodes of the C4 test on paths of 500, 1,000 and 2,000
        # vertices: trying every non-adjacent pair of the split's parts ran
        # 3.9-4.0 times more per doubling on CPython 3.11.7, walking 2-paths
        # down from each vertex runs 2.0 times more
        counts = []
        for n in (500, 1000, 2000):
            g = path_graph(n)
            count, found = opcodes(lambda: embeds_in("C4", g))
            assert not found
            counts.append(count)
        assert all(0 < a and b <= 2.5 * a for a, b in zip(counts, counts[1:])), counts

    def test_p4_search_memory_grows_with_the_path(self):
        # the peak allocation of the P4 test on paths of 2,000 and 8,000
        # vertices: splitting on adjacency sets holds 4.0 times more on
        # CPython 3.11.7, and whole-graph bitsets, n bits per vertex, held
        # 11.2 times more
        peaks = []
        for n in (2000, 8000):
            g = path_graph(n)
            peak, found = peak_allocation(lambda: embeds_in("P4", g))
            assert found
            peaks.append(peak)
        assert 0 < peaks[1] <= 6 * peaks[0], peaks

    def test_split_tree_memory_grows_with_a_deep_cotree(self):
        # vertex i sees every earlier vertex when i is odd: a threshold
        # graph, whose split tree is a path of about n unions and joins.
        # The peak allocation of the P4 test and of the clique number at 400
        # vertices held 1.8-2.3 times that at 200 on CPython 3.11.7; a tree
        # that kept the vertex list of every part held 3.5 times more
        for decide in (lambda g: embeds_in("P4", g), clique_number):
            peaks = []
            for n in (200, 400):
                names = [f"t{i:03d}" for i in range(n)]
                g = SimpleGraph(names, [(names[j], names[i]) for i in range(1, n, 2) for j in range(i)])
                peak, _ = peak_allocation(lambda: decide(g))
                peaks.append(peak)
            assert 0 < peaks[1] <= 3 * peaks[0], peaks

    def test_p3_detects_non_howson(self):
        # mirror of the acceptance criterion at small scale
        for g in all_labeled_graphs(4):
            assert embeds_in("P3", g) == (not classify(g).howson)


class TestMaxAbelianRank:
    def test_examples(self):
        assert max_abelian_rank(edgeless_graph(4)) == 1
        assert max_abelian_rank(complete_graph(6)) == 6
        for m in (1, 2, 3):
            for n in (1, 2):
                g = join(complete_graph(m, prefix="z"), edgeless_graph(n, prefix="f"))
                assert max_abelian_rank(g) == m + 1

    def test_against_subset_oracle(self):
        for g in all_labeled_graphs(5):
            assert max_abelian_rank(g) == clique_oracle(g)
