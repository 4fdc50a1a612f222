"""Property tests for the words layer, with the insertion referee as judge.

The examples are fixed by the profile in ``conftest.py``."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from pcgroups import SimpleGraph, Word, are_equal, format_word, normal_form, parse_word
from oracles import insertion_normal_form

NAMES = ("a", "b", "c", "d", "e")
PAIRS = list(itertools.combinations(NAMES, 2))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, len(NAMES)))
    names = NAMES[:n]
    edges = [p for p in PAIRS if p[1] in names and draw(st.booleans())]
    return SimpleGraph(names, edges)


@st.composite
def words(draw, g):
    """Letters in runs of up to six, so that syllables merge and overshoot."""
    letters = []
    for gen, k in draw(st.lists(st.tuples(st.sampled_from(g.vertices), st.integers(-6, 6).filter(bool)),
                                max_size=12)):
        letters += [(gen, 1 if k > 0 else -1)] * abs(k)
    return tuple(letters)


@st.composite
def graph_and_words(draw, count):
    g = draw(graphs())
    return (g,) + tuple(draw(words(g)) for _ in range(count))


@given(graph_and_words(1))
def test_normal_form_is_idempotent(case):
    g, letters = case
    nf = normal_form(Word(letters), g)
    assert normal_form(nf, g) == nf


@given(graph_and_words(1), st.data())
def test_swapping_commuting_neighbours_keeps_the_normal_form(case, data):
    g, letters = case
    spots = [j for j in range(len(letters) - 1) if letters[j + 1][0] in g.neighbors(letters[j][0])]
    if not spots:
        return
    j = data.draw(st.sampled_from(spots))
    swapped = letters[:j] + (letters[j + 1], letters[j]) + letters[j + 2:]
    assert normal_form(Word(swapped), g) == normal_form(Word(letters), g)


@given(graph_and_words(2))
def test_are_equal_agrees_with_the_referee(case):
    g, u, v = case
    referee = insertion_normal_form(u, g.edges) == insertion_normal_form(v, g.edges)
    assert are_equal(Word(u), Word(v), g) == referee
    # random pairs are seldom equal; a word and its normal form always are
    assert are_equal(Word(u), Word(insertion_normal_form(u, g.edges)), g)


@given(graph_and_words(1))
def test_format_parses_back(case):
    _, letters = case
    word = Word(letters)
    assert parse_word(format_word(word)) == word
