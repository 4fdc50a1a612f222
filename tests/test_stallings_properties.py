"""Property tests for Stallings automata and the graph text format, with the
bouquet-fold and product oracles as judges.

The examples are fixed by the profile in ``conftest.py``."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcgroups import (
    InputError,
    SimpleGraph,
    StallingsGraph,
    Word,
    format_graph,
    format_stallings,
    from_generators,
    parse_graph,
    parse_stallings,
    relabel,
)
from oracles import bouquet_automaton, intersection_automaton, letters_of

ALPHABETS = (("a",), ("a", "b"), ("a", "b", "c"))


@st.composite
def words(draw, alphabet, max_syllables=5):
    """Letters in runs of up to three, unreduced on purpose."""
    letters = []
    for gen, k in draw(st.lists(st.tuples(st.sampled_from(alphabet), st.integers(-3, 3).filter(bool)),
                                max_size=max_syllables)):
        letters += [(gen, 1 if k > 0 else -1)] * abs(k)
    return Word(letters)


@st.composite
def subgroup_pairs(draw):
    """An alphabet and two lists of generator words over it."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    gens = st.lists(words(alphabet), max_size=4)
    return alphabet, draw(gens), draw(gens)


@st.composite
def automata(draw):
    alphabet, gens, _ = draw(subgroup_pairs())
    return from_generators(gens, alphabet)


@given(subgroup_pairs())
def test_intersect_matches_the_product_oracle(case):
    alphabet, gens1, gens2 = case
    meet = from_generators(gens1, alphabet).intersect(from_generators(gens2, alphabet))
    expected = intersection_automaton(
        bouquet_automaton(map(letters_of, gens1), alphabet),
        bouquet_automaton(map(letters_of, gens2), alphabet),
        alphabet,
    )
    assert format_stallings(meet) == expected


@given(subgroup_pairs(), st.data())
def test_intersect_members_are_members_of_both(case, data):
    alphabet, gens1, gens2 = case
    sg1, sg2 = from_generators(gens1, alphabet), from_generators(gens2, alphabet)
    meet = sg1.intersect(sg2)
    # products of the generators reach members; random words mostly do not
    candidates = [data.draw(words(alphabet, 8)) for _ in range(4)]
    for u, v in itertools.product(gens1 + gens2, repeat=2):
        candidates.append(u * v)
    for w in candidates:
        assert meet.member(w) == (sg1.member(w) and sg2.member(w))


@given(automata())
def test_stallings_format_parses_back(sg):
    assert parse_stallings(format_stallings(sg)) == sg


@given(automata(), st.data())
def test_renamed_and_shuffled_serialization_parses_back(sg, data):
    ids = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=sg.num_states,
                             max_size=sg.num_states, unique=True))
    lines = [f"{ids[u]} {g} {ids[v]}" for u, g, v in sg.edges()]
    lines = data.draw(st.permutations(lines))
    text = "\n".join([" ".join((str(ids[0]),) + sg.alphabet)] + lines) + "\n"
    assert parse_stallings(text) == sg


@given(automata(), st.data())
def test_constructor_canonicalises_any_numbering(sg, data):
    # the same automaton with its non-base states renamed, its alphabet
    # reordered and its arcs listed in any order
    rename = [0] + data.draw(st.permutations(range(1, sg.num_states)))
    alphabet = data.draw(st.permutations(sg.alphabet))
    arcs = data.draw(st.permutations(sg.edges()))
    rebuilt = StallingsGraph(alphabet, sg.num_states, {(rename[u], g): rename[v] for u, g, v in arcs})
    assert rebuilt == sg and hash(rebuilt) == hash(sg)
    assert parse_stallings(format_stallings(rebuilt)) == rebuilt
    assert rebuilt.intersect(sg) == sg


NAMES = st.text(st.characters(categories=("L", "N"), include_characters="_'-"), min_size=1, max_size=3)
# names the text format cannot hold: empty, or with whitespace (including
# line breaks), '^' or '#' somewhere
REFUSED = st.one_of(
    st.just(""),
    st.tuples(st.text(st.characters(categories=("L", "N")), max_size=2),
              st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\u2028\u3000^#"),
              st.text(st.characters(categories=("L", "N")), max_size=2)).map("".join),
)


@st.composite
def graphs(draw):
    names = draw(st.lists(NAMES, max_size=7, unique=True))
    pairs = list(itertools.combinations(names, 2))
    edges = [p for p in pairs if draw(st.booleans())]
    return SimpleGraph(names, edges)


@given(graphs(), REFUSED, st.data())
def test_graph_format_parses_back(g, refused, data):
    assert parse_graph(format_graph(g)) == g
    # a name the format cannot hold is refused, as a vertex or as a new name
    with pytest.raises(InputError, match="non-empty strings without"):
        SimpleGraph(g.vertices + (refused,), g.edges)
    if g.vertices:
        renamed = data.draw(st.sampled_from(g.vertices))
        with pytest.raises(InputError, match="non-empty strings without"):
            relabel(g, {v: refused if v == renamed else v for v in g.vertices})
