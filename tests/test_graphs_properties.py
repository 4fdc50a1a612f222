"""Property tests for the graph searches, with the brute-force oracles as
judges.

The examples are fixed by the profile in ``conftest.py``."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from pcgroups import SimpleGraph, clique_number, complete_graph, embeds_in, explicit_catalog
from oracles import brute_induced_embedding_exists, clique_oracle

NAMES = ("a", "b", "c", "d", "e", "f", "g")
PAIRS = list(itertools.combinations(NAMES, 2))
PATTERNS = {entry.name: entry.pattern for entry in explicit_catalog()}
PATTERNS.update((f"K_{n}", complete_graph(n, prefix="k")) for n in range(1, 7))


@st.composite
def graphs(draw):
    """A graph on at most seven vertices, each possible edge drawn."""
    n = draw(st.integers(0, len(NAMES)))
    names = NAMES[:n]
    return SimpleGraph(names, [p for p in PAIRS if p[1] in names and draw(st.booleans())])


@given(graphs())
def test_clique_number_matches_the_subset_oracle(g):
    assert clique_number(g) == clique_oracle(g)


@given(graphs())
def test_embeds_in_matches_the_brute_search(host):
    for name, pattern in PATTERNS.items():
        assert embeds_in(name, host) == brute_induced_embedding_exists(pattern, host), name
