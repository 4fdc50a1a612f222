"""Property tests for the words layer, with the insertion referee as judge.

The examples are fixed by the profile in ``conftest.py``."""

import io
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcgroups import (
    InputError,
    SimpleGraph,
    VertexRestriction,
    Word,
    are_equal,
    format_word,
    is_in_visible,
    normal_form,
    parse_word,
    rewrite_in_visible,
    support,
)
from pcgroups import visible, words as words_module
from pcgroups.cli import run
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


GOOD_TAILS = ("", "", "", "^-1", "^2", "^-3", "^333334", "^-1000001")
BAD_TOKENS = ("^2", "a#", "b^0", "c^x", "d^+1", "e^", "a^-0")


@st.composite
def token_lists(draw):
    """A graph and tokens over its names and two unknown ones, with bad
    tokens in about half the lists; the long powers can pass the letter cap
    alone or together."""
    g = draw(graphs())
    good = st.tuples(st.sampled_from(NAMES + ("q", "z")), st.sampled_from(GOOD_TAILS)).map("".join)
    token = st.one_of(good, st.sampled_from(BAD_TOKENS)) if draw(st.booleans()) else good
    return g, draw(st.lists(token, max_size=10))


@given(token_lists())
def test_tallied_fails_or_sums_as_parse_word_and_generators_do(case):
    g, tokens = case
    made = {}
    try:
        w = parse_word(" ".join(tokens))
        words_module._generators(w, g)
    except InputError as expected:
        with pytest.raises(InputError) as caught:
            words_module._tallied(tokens, made, g)
        assert (type(caught.value), str(caught.value)) == (type(expected), str(expected))
        return
    sums = {}
    for gen, k in w.syllables:
        sums[gen] = sums.get(gen, 0) + k
    assert words_module._tallied(tokens, made, g) == {gen: total for gen, total in sums.items() if total}
    assert made.keys() == set(tokens) and words_module._parsed(tokens, made) == w


# The heap decisions: ``are_equal``, ``support`` and ``rewrite_in_visible``
# answer from the piling alone, and must agree with the read-off.

BIG_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
BIG_PAIRS = list(itertools.combinations(BIG_NAMES, 2))


@st.composite
def big_graphs(draw):
    n = draw(st.integers(1, len(BIG_NAMES)))
    names = BIG_NAMES[:n]
    edges = [p for p in BIG_PAIRS if p[1] in names and draw(st.booleans())]
    return SimpleGraph(names, edges)


def power(gen, k):
    return Word([(gen, 1 if k > 0 else -1)] * abs(k))


@st.composite
def heap_cases(draw):
    """A graph and a word whose heap tends to empty out: a random word, one
    times the inverse of a second (``w w^-1`` when they agree), or the
    product with a run that cancels the last syllable only partway."""
    g = draw(big_graphs())
    w = Word(draw(words(g)))
    shape = draw(st.sampled_from(("plain", "w w^-1", "u w^-1", "partway")))
    if shape == "w w^-1":
        w = w * Word(draw(words(g))) * w.inverse()
    elif shape == "u w^-1":
        w = w * Word(draw(words(g))).inverse()
    elif shape == "partway" and w.syllables:
        gen, k = w.syllables[-1]
        w = w * power(gen, draw(st.sampled_from((-2, -1, 1, 2))) - k)
    return g, w


@st.composite
def equal_cases(draw):
    """A graph and two words that are equal, nearly equal or unrelated."""
    g = draw(big_graphs())
    u = Word(draw(words(g)))
    shape = draw(st.sampled_from(("unrelated", "same", "normal form", "padded", "partway")))
    if shape == "unrelated":
        v = Word(draw(words(g)))
    elif shape == "same":
        v = u
    elif shape == "normal form":
        v = normal_form(u, g)
    elif shape == "padded":
        z = Word(draw(words(g)))
        v = z * z.inverse() * u
    else:
        # u and v differ by one run, so u v^-1 cancels all but part of it
        gen = draw(st.sampled_from(g.vertices))
        v = u * power(gen, draw(st.sampled_from((-2, -1, 1, 2))))
    return g, u, v


@given(equal_cases())
def test_are_equal_is_the_read_off_comparison(case):
    g, u, v = case
    assert are_equal(u, v, g) == (normal_form(u, g) == normal_form(v, g))
    assert are_equal(v, u, g) == are_equal(u, v, g)


@given(heap_cases())
def test_support_is_the_generators_of_the_normal_form(case):
    g, w = case
    assert support(w, g) == {gen for gen, _ in normal_form(w, g).syllables}


@given(heap_cases(), st.data())
def test_rewrite_in_visible_is_the_normal_form_of_members(case, data):
    g, w = case
    ys = data.draw(st.sets(st.sampled_from(g.vertices)))
    r = VertexRestriction(g, ys)
    nf = normal_form(w, g)
    member = {gen for gen, _ in nf.syllables} <= ys
    assert rewrite_in_visible(w, r) == (nf if member else None)
    assert is_in_visible(w, r) == member


def test_decisions_do_not_read_off(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("the decision must not read off a normal form")

    for module in (words_module, visible):
        monkeypatch.setattr(module, "_read_off", refuse, raising=False)
    g = SimpleGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
    u, v = parse_word("a c a^-1 b^2"), parse_word("c b^2")
    assert not are_equal(u, v, g)
    assert are_equal(u * parse_word("a c^-1 a^-1"), parse_word("b^2"), g)
    assert support(u, g) == {"a", "b", "c"}
    r = VertexRestriction(g, ("b", "c"))
    assert not is_in_visible(u, r)
    assert is_in_visible(parse_word("a b a^-1"), r)
    assert rewrite_in_visible(u, r) is None
    graph = tmp_path / "p3.graph"
    graph.write_text("a b c\na b\nb c\n")
    for word2, verdict in (("b a", "true"), ("a b a", "false")):
        out, err = io.StringIO(), io.StringIO()
        assert run(["equal", str(graph), "a b", word2], stdout=out, stderr=err) == 0
        assert (out.getvalue(), err.getvalue()) == (verdict + "\n", "")
