"""Property tests for Stallings automata and the graph text format, with the
bouquet-fold and product oracles as judges.

The examples are fixed by the profile in ``conftest.py``."""

import io
import itertools
import json

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
from pcgroups.stallings import _search
from oracles import (
    bouquet_automaton,
    dot_text,
    expanded_edges,
    intersection_automaton,
    letters_of,
    stallings_text,
)
from test_stallings import LONG_ARC_FAMILIES

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


@st.composite
def long_arc_automata(draw):
    """An operand of a pair from the long-arc families, or their
    intersection."""
    family = draw(st.sampled_from(sorted(LONG_ARC_FAMILIES)))
    alphabet, gens1, gens2 = LONG_ARC_FAMILIES[family](draw(st.randoms(use_true_random=False)))
    sg1, sg2 = from_generators(gens1, alphabet), from_generators(gens2, alphabet)
    return draw(st.sampled_from((sg1, sg2, sg1.intersect(sg2))))


@st.composite
def long_arc_products(draw):
    """The intersection of a pair from the long-arc families."""
    family = draw(st.sampled_from(sorted(LONG_ARC_FAMILIES)))
    alphabet, gens1, gens2 = LONG_ARC_FAMILIES[family](draw(st.randoms(use_true_random=False)))
    return from_generators(gens1, alphabet).intersect(from_generators(gens2, alphabet))


@given(st.one_of(automata(), long_arc_automata(), long_arc_products()))
def test_written_out_as_spelled_out_one_state_per_letter(sg):
    # the arcs and both text forms are read off the stored shape, the long
    # arcs' states numbered in lockstep; the referee spells every long arc
    # out letter by letter and renumbers all states breadth-first
    edges = expanded_edges(sg)
    assert sg.edges() == edges
    assert format_stallings(sg) == stallings_text(sg.alphabet, edges)
    assert sg.to_dot() == dot_text(sg.num_states, edges)


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


@given(st.one_of(automata(), long_arc_automata()), st.data())
def test_equal_exactly_when_written_out_alike(x, data):
    # == reads the stored shape; the text form spells out a state per letter.
    # The second automaton is drawn apart, or is the first one rebuilt, or
    # the first with its letters swapped: of the same size, and mostly not
    # equal to it.
    swap = dict(zip(x.alphabet, reversed(x.alphabet)))
    swapped = StallingsGraph(x.alphabet, x.num_states, {(u, swap[g]): v for u, g, v in x.edges()})
    y = data.draw(st.one_of(
        automata(), long_arc_automata(),
        st.sampled_from((x.intersect(x), parse_stallings(format_stallings(x)), swapped))))
    assert (x == y) == (format_stallings(x) == format_stallings(y))
    assert x != y or hash(x) == hash(y)


@given(subgroup_pairs())
def test_row_r_xor_1_reads_row_r_backwards(case):
    # the stored arcs, (row, source, target, length), are closed under
    # reading them backwards: a long arc's reverse has the same length.  The
    # stored states are the base and the branch states, numbered in the order
    # the canonical search reaches them, and a length is stored for exactly
    # the long arcs.  The derived forward row of each letter, one state per
    # letter, is a partial injection, and together they hold every arc
    alphabet, gens1, gens2 = case
    sg1, sg2 = from_generators(gens1, alphabet), from_generators(gens2, alphabet)
    built = StallingsGraph(alphabet, sg2.num_states, {(u, g): v for u, g, v in sg2.edges()})
    for sg in (sg1, sg1.intersect(sg2), parse_stallings(format_stallings(sg1)), built):
        assert len(sg._rows) == len(sg._lengths) == 2 * len(sg.alphabet)
        stored = len(sg._rows[0]) if sg._rows else 1
        assert all(len(row) == stored for row in sg._rows)
        plain = [[t if t >= -1 else -2 - t for t in row] for row in sg._rows]
        assert _search(plain, stored) == list(range(stored))
        arcs = {(r, s, t, 1) if t >= 0 else (r, s, -2 - t, sg._lengths[r][s])
                for r, row in enumerate(sg._rows) for s, t in enumerate(row) if t != -1}
        assert arcs == {(r ^ 1, t, s, length) for r, s, t, length in arcs}
        assert {(r, s) for r, s, _, length in arcs if length > 1} == {
            (r, s) for r, lengths in enumerate(sg._lengths) for s in lengths}
        for s, row_arcs in enumerate(zip(*sg._rows)):
            held = [(r, t) for r, t in enumerate(row_arcs) if t != -1]
            interior = len(held) == 2 and held[0][0] + 1 == held[1][0] and held[0][0] % 2 == 0
            assert s == 0 or not interior
        assert stored + sum(length - 1 for r, _, _, length in arcs if r % 2 == 0) == sg.num_states
        rows = sg._spelled_out()
        assert len(rows) == len(sg.alphabet)
        assert all(len(row) == sg.num_states for row in rows)
        targets = [[t for t in row if t >= 0] for row in rows]
        assert all(len(set(row)) == len(row) for row in targets)
        assert sum(map(len, targets)) == sg.num_edges


TOKENS = st.tuples(st.sampled_from("abc"), st.integers(-3, 3).filter(bool)).map(
    lambda s: s[0] if s[1] == 1 else f"{s[0]}^{s[1]}")
# a generator file's lines: words of unreduced runs and powers, some with a
# trailing comment, blank lines and comment lines
LINES = st.one_of(
    st.lists(TOKENS, max_size=8).map(" ".join),
    st.lists(TOKENS, min_size=1, max_size=4).map(lambda toks: " ".join(toks) + " # a^0 d"),
    st.sampled_from(["", " \t", "# b^x c", "  # a a"]),
)


@given(st.lists(LINES, max_size=8).map(lambda lines: "".join(line + "\n" for line in lines)))
def test_command_line_builds_what_the_word_path_builds(tmp_path_factory, text):
    # the command line reads a file's tokens straight into the build; the
    # public path through Word and from_generators is the referee.  A
    # subgroup met with itself is itself
    from pcgroups import parse_word
    from pcgroups.cli import run

    folder = tmp_path_factory.mktemp("words")
    gens, meet = folder / "h.words", folder / "meet.stallings"
    gens.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    code = run(["intersect-free", "--alphabet", "a b c", str(gens), str(gens), "--out", str(meet)],
               stdout=out, stderr=err)
    sg = from_generators([parse_word(line.split("#")[0]) for line in text.splitlines()], "abc")
    assert (code, err.getvalue()) == (0, "")
    assert json.loads(out.getvalue()) == {"rank": sg.rank(), "states": sg.num_states, "edges": sg.num_edges}
    assert meet.read_text() == format_stallings(sg)


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
