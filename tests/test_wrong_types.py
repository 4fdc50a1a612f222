"""Every public entry point refuses an argument of the wrong type with
``InputError``, whose text names the expected type and the one it got; a
graph's vertex queries refuse a value that is no vertex, hashable or not,
naming it."""

import re

import pytest

from pcgroups import (
    InputError,
    SimpleGraph,
    StallingsGraph,
    VertexRestriction,
    Word,
    alpha_include,
    are_equal,
    catalog_entry,
    classify,
    clique_number,
    commutator,
    complete_decomposition,
    complete_graph,
    cycle_graph,
    connected_components,
    disjoint_union,
    edgeless_graph,
    embeds_in,
    find_induced_p3,
    format_graph,
    free_reduce,
    from_generators,
    induced_subgraph,
    is_in_visible,
    join,
    max_abelian_rank,
    normal_form,
    parse_graph,
    parse_stallings,
    parse_word,
    path_graph,
    reflexive_closure_is_transitive,
    relabel,
    rewrite_in_visible,
    rho_retract,
    support,
)

G = path_graph(3)
WORD = parse_word("v1 v2")
COUNT = "an int vertex count or vertex names"

CALLS = {
    'classify("x")': (lambda: classify("x"), "a SimpleGraph, got str"),
    'clique_number("x")': (lambda: clique_number("x"), "a SimpleGraph, got str"),
    "max_abelian_rank(None)": (lambda: max_abelian_rank(None), "a SimpleGraph, got NoneType"),
    "find_induced_p3(None)": (lambda: find_induced_p3(None), "a SimpleGraph, got NoneType"),
    "complete_decomposition(None)": (
        lambda: complete_decomposition(None), "a SimpleGraph, got NoneType"),
    "connected_components(None)": (
        lambda: connected_components(None), "a SimpleGraph, got NoneType"),
    "reflexive_closure_is_transitive(None)": (
        lambda: reflexive_closure_is_transitive(None), "a SimpleGraph, got NoneType"),
    'induced_subgraph("x", [])': (lambda: induced_subgraph("x", []), "a SimpleGraph, got str"),
    "induced_subgraph(g, None)": (lambda: induced_subgraph(G, None), "an Iterable, got NoneType"),
    "SimpleGraph(None)": (lambda: SimpleGraph(None), "an Iterable, got NoneType"),
    'SimpleGraph("ab", None)': (lambda: SimpleGraph("ab", None), "an Iterable, got NoneType"),
    "relabel(g, None)": (lambda: relabel(G, None), "a Mapping, got NoneType"),
    'join("x", g)': (lambda: join("x", G), "a SimpleGraph, got str"),
    "disjoint_union(g, None)": (lambda: disjoint_union(G, None), "a SimpleGraph, got NoneType"),
    "format_graph(None)": (lambda: format_graph(None), "a SimpleGraph, got NoneType"),
    "normal_form(w, None)": (lambda: normal_form(WORD, None), "a SimpleGraph, got NoneType"),
    'embeds_in(entry, "x")': (lambda: embeds_in("P3", "x"), "a SimpleGraph, got str"),
    'embeds_in(edgeless_0, "x")': (lambda: embeds_in("edgeless_0", "x"), "a SimpleGraph, got str"),
    'embeds_in(K_3, "x")': (lambda: embeds_in("K_3", "x"), "a SimpleGraph, got str"),
    'embeds_in("P3", None)': (lambda: embeds_in("P3", None), "a SimpleGraph, got NoneType"),
    "embeds_in(None, g)": (lambda: embeds_in(None, G), "a str, got NoneType"),
    'VertexRestriction("x", [])': (lambda: VertexRestriction("x", []), "a SimpleGraph, got str"),
    "VertexRestriction(g, None)": (lambda: VertexRestriction(G, None), "an Iterable, got NoneType"),
    'alpha_include(w, "x")': (lambda: alpha_include(WORD, "x"), "a VertexRestriction, got str"),
    "rho_retract(w, None)": (lambda: rho_retract(WORD, None), "a VertexRestriction, got NoneType"),
    "is_in_visible(w, g)": (lambda: is_in_visible(WORD, G), "a VertexRestriction, got SimpleGraph"),
    "rewrite_in_visible(w, g)": (
        lambda: rewrite_in_visible(WORD, G), "a VertexRestriction, got SimpleGraph"),
    "catalog_entry(None)": (lambda: catalog_entry(None), "a str, got NoneType"),
    "parse_graph(None)": (lambda: parse_graph(None), "a str, got NoneType"),
    "parse_word(None)": (lambda: parse_word(None), "a str, got NoneType"),
    'parse_word(b"a")': (lambda: parse_word(b"a"), "a str, got bytes"),
    "parse_stallings(None)": (lambda: parse_stallings(None), "a str, got NoneType"),
    "Word(None)": (lambda: Word(None), "an Iterable, got NoneType"),
    "Word(5)": (lambda: Word(5), "an Iterable, got int"),
    "Word(w)": (lambda: Word(WORD), "an Iterable, got Word"),
    "free_reduce(w, None)": (lambda: free_reduce(WORD, None), "a Collection, got NoneType"),
    'free_reduce(w, b"ab")': (lambda: free_reduce(WORD, b"ab"), "a Collection of str, got bytes"),
    'from_generators(None, "ab")': (lambda: from_generators(None, "ab"), "an Iterable, got NoneType"),
    "from_generators([], None)": (lambda: from_generators([], None), "an Iterable, got NoneType"),
    "StallingsGraph(None, 1, {})": (
        lambda: StallingsGraph(None, 1, {}), "an Iterable, got NoneType"),
    'commutator(["a"], "b")': (lambda: commutator(["a"], "b"), "a Word, got list"),
    'commutator(None, "b")': (lambda: commutator(None, "b"), "a Word, got NoneType"),
    'commutator("a", 3)': (lambda: commutator("a", 3), "a Word, got int"),
    "complete_graph(2.5)": (lambda: complete_graph(2.5), f"{COUNT}, got float"),
    "complete_graph(None)": (lambda: complete_graph(None), f"{COUNT}, got NoneType"),
    "path_graph(True)": (lambda: path_graph(True), f"{COUNT}, got bool"),
    "edgeless_graph(None)": (lambda: edgeless_graph(None), f"{COUNT}, got NoneType"),
    "cycle_graph(4.0)": (lambda: cycle_graph(4.0), f"{COUNT}, got float"),
    "complete_graph(2, None)": (lambda: complete_graph(2, None), "a str, got NoneType"),
    "edgeless_graph(2, 1)": (lambda: edgeless_graph(2, 1), "a str, got int"),
    "path_graph(2, 10**9)": (lambda: path_graph(2, 10**9), "a str, got int"),
    'cycle_graph(["x", "y", "z"], b"v")': (
        lambda: cycle_graph(["x", "y", "z"], b"v"), "a str, got bytes"),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_wrong_type_raises_input_error(call):
    run, expected = CALLS[call]
    with pytest.raises(InputError, match=f"^expected {re.escape(expected)}$"):
        run()


# With two arguments of the wrong type, the first in argument order is
# named; the types are checked before any letter of a word
TWO_WRONG = {
    "are_equal(None, 3, g)": (lambda: are_equal(None, 3, G), "a Word, got NoneType"),
    "are_equal(w, 3, None)": (lambda: are_equal(WORD, 3, None), "a Word, got int"),
    "are_equal(w, None, None)": (lambda: are_equal(WORD, None, None), "a Word, got NoneType"),
    'are_equal(unknown, 3, g)': (lambda: are_equal(parse_word("zz"), 3, G), "a Word, got int"),
    'are_equal(unknown, w, None)': (
        lambda: are_equal(parse_word("zz"), WORD, None), "a SimpleGraph, got NoneType"),
    "alpha_include(None, None)": (lambda: alpha_include(None, None), "a Word, got NoneType"),
    "rho_retract(None, None)": (lambda: rho_retract(None, None), "a Word, got NoneType"),
    "is_in_visible(None, None)": (lambda: is_in_visible(None, None), "a Word, got NoneType"),
    "rewrite_in_visible(None, None)": (lambda: rewrite_in_visible(None, None), "a Word, got NoneType"),
    "free_reduce(None, None)": (lambda: free_reduce(None, None), "a Word, got NoneType"),
    'free_reduce(None, b"ab")': (lambda: free_reduce(None, b"ab"), "a Word, got NoneType"),
    "normal_form(None, None)": (lambda: normal_form(None, None), "a Word, got NoneType"),
    "support(None, None)": (lambda: support(None, None), "a Word, got NoneType"),
}


@pytest.mark.parametrize("call", sorted(TWO_WRONG))
def test_first_wrong_argument_is_named(call):
    run, expected = TWO_WRONG[call]
    with pytest.raises(InputError, match=f"^expected {re.escape(expected)}$"):
        run()


def test_values_differ_from_a_value_of_another_type():
    # each __eq__ leaves a foreign type to Python, which falls back to identity
    for value in (G, from_generators([parse_word("a b")], "ab"), WORD):
        for other in ("v1 v2", None, (), 0):
            assert not value == other
            assert value != other


@pytest.mark.parametrize("bad", [[1], {}, 3], ids=repr)
def test_vertex_queries_refuse_what_is_not_a_vertex(bad):
    # an unhashable value is no vertex either: it is named as an unknown one
    named = f"^unknown vertex {re.escape(repr(bad))}$"
    for query in (G.neighbors, G.degree, lambda v: G.adjacent(v, "v1"),
                  lambda v: G.adjacent("v1", v), lambda v: G.adjacent(v, [2])):
        with pytest.raises(InputError, match=named):
            query(bad)
    with pytest.raises(InputError, match="^unknown vertex 'x'$"):
        G.adjacent("x", bad)  # the first argument is checked first
    assert bad not in G
