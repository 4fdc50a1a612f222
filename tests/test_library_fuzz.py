"""Every public callable returns or raises ``InputError``, and soon.

Each example calls one callable in ``pcgroups.__all__`` with as many
positional arguments as it takes, each drawn from a small pool of odd and
ordinary values.  The pool holds no object of the caller's own whose
``__hash__`` or ``__iter__`` raises: such an exception is the caller's, not
the package's.  Its automata are small, because building one costs a step
per letter of its generators, and the text and DOT forms spell out one
state per letter: the product of ``<a^p>`` and ``<a^q>`` is one long loop,
but it has p·q states to write.  One such product, of 8,633 states, is in
the pool, so that ``==``, ``hash`` and the counts meet a long arc."""

import inspect
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import pcgroups
from pcgroups import (
    InputError,
    VertexRestriction,
    Word,
    complete_graph,
    edgeless_graph,
    from_generators,
    parse_word,
    path_graph,
)

P3 = path_graph(("a", "b", "c"))
WORDS = (parse_word("a b a^-1"), parse_word("c^5"), Word())

POOL = (
    None, 0, 3, -1, 10**9, 10**30, 2.5, True, b"ab",
    # names that break the name rule
    "", "a b", "x^2", "a#", "\x00", "\ud800",
    # names, words, graph and automaton texts, catalog names
    "a", "b", "a b^2 a^-1", "a^99999999999", "a b c\na b\n", "0 a b\n0 a 0\n",
    "K_3", "K_999999999999", "P3", "C4",
    ("a", "b"), ["a", "b", "a"], {"a": "x", "b": "y", "c": "z"}, {"a": "b"}, WORDS,
    P3, edgeless_graph(0), complete_graph(("a", "b")),
    *WORDS,
    from_generators([parse_word("a^2"), parse_word("b")], ("a", "b")),
    from_generators([parse_word("a^3 b a^-1")], ("a", "b", "c")),
    from_generators([parse_word("a^97")], ("a",)).intersect(from_generators([parse_word("a^89")], ("a",))),
    VertexRestriction(P3, ["a", "c"]),
)


def _arity(fn):
    """The least and most positional arguments ``fn`` takes (at most three
    for ``*args``)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # an exception class: one message argument, or none
        return 0, 1
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    most = 3 if any(p.kind is p.VAR_POSITIONAL for p in params) else len(positional)
    return sum(p.default is p.empty for p in positional), most


CALLABLES = {name: _arity(getattr(pcgroups, name)) for name in pcgroups.__all__
             if callable(getattr(pcgroups, name))}


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(CALLABLES)))
    least, most = CALLABLES[name]
    return name, draw(st.lists(st.sampled_from(POOL), min_size=least, max_size=most))


@settings(max_examples=1000)
@given(calls())
def test_a_public_call_returns_or_raises_input_error_in_time(call):
    name, args = call
    start = time.perf_counter()
    try:
        getattr(pcgroups, name)(*args)
    except InputError:
        pass
    assert time.perf_counter() - start < 2
