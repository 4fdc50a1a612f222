"""Every public entry point refuses an argument of the wrong type with
``InputError``, whose text names the expected type and the one it got."""

import re

import pytest

from pcgroups import (
    InputError,
    SimpleGraph,
    StallingsGraph,
    VertexRestriction,
    Word,
    alpha_include,
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
)

G = path_graph(3)
WORD = parse_word("v1 v2")
ENTRY = catalog_entry("P3")
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
    "induced_subgraph(g, None)": (lambda: induced_subgraph(G, None), "a Iterable, got NoneType"),
    "SimpleGraph(None)": (lambda: SimpleGraph(None), "a Iterable, got NoneType"),
    'SimpleGraph("ab", None)': (lambda: SimpleGraph("ab", None), "a Iterable, got NoneType"),
    "relabel(g, None)": (lambda: relabel(G, None), "a Mapping, got NoneType"),
    'join("x", g)': (lambda: join("x", G), "a SimpleGraph, got str"),
    "disjoint_union(g, None)": (lambda: disjoint_union(G, None), "a SimpleGraph, got NoneType"),
    "format_graph(None)": (lambda: format_graph(None), "a SimpleGraph, got NoneType"),
    "normal_form(w, None)": (lambda: normal_form(WORD, None), "a SimpleGraph, got NoneType"),
    'embeds_in(entry, "x")': (lambda: embeds_in(ENTRY, "x"), "a SimpleGraph, got str"),
    'embeds_in(edgeless_0, "x")': (
        lambda: embeds_in(catalog_entry("edgeless_0"), "x"), "a SimpleGraph, got str"),
    'embeds_in(K_3, "x")': (lambda: embeds_in(catalog_entry("K_3"), "x"), "a SimpleGraph, got str"),
    'embeds_in("P3", g)': (lambda: embeds_in("P3", G), "a ExplicitCatalogEntry, got str"),
    'VertexRestriction("x", [])': (lambda: VertexRestriction("x", []), "a SimpleGraph, got str"),
    "VertexRestriction(g, None)": (lambda: VertexRestriction(G, None), "a Iterable, got NoneType"),
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
    "Word(None)": (lambda: Word(None), "a Iterable, got NoneType"),
    "Word(5)": (lambda: Word(5), "a Iterable, got int"),
    "Word(w)": (lambda: Word(WORD), "a Iterable, got Word"),
    "free_reduce(w, None)": (lambda: free_reduce(WORD, None), "a Collection, got NoneType"),
    'from_generators(None, "ab")': (lambda: from_generators(None, "ab"), "a Iterable, got NoneType"),
    "from_generators([], None)": (lambda: from_generators([], None), "a Iterable, got NoneType"),
    "StallingsGraph(None, 1, {})": (
        lambda: StallingsGraph(None, 1, {}), "a Iterable, got NoneType"),
    'commutator(["a"], "b")': (lambda: commutator(["a"], "b"), "a Word, got list"),
    'commutator(None, "b")': (lambda: commutator(None, "b"), "a Word, got NoneType"),
    'commutator("a", 3)': (lambda: commutator("a", 3), "a Word, got int"),
    "complete_graph(2.5)": (lambda: complete_graph(2.5), f"{COUNT}, got float"),
    "complete_graph(None)": (lambda: complete_graph(None), f"{COUNT}, got NoneType"),
    "path_graph(True)": (lambda: path_graph(True), f"{COUNT}, got bool"),
    "edgeless_graph(None)": (lambda: edgeless_graph(None), f"{COUNT}, got NoneType"),
    "cycle_graph(4.0)": (lambda: cycle_graph(4.0), f"{COUNT}, got float"),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_wrong_type_raises_input_error(call):
    run, expected = CALLS[call]
    with pytest.raises(InputError, match=f"^expected {re.escape(expected)}$"):
        run()
