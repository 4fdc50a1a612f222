"""Stallings automata for finitely generated subgroups of free groups.

A subgroup generated by finitely many words is represented by a rooted,
folded, core automaton over the positive generators.  It is stored with its
branch states only.  A chain interior is a non-base state whose only two
arcs carry one letter x, one entering and one leaving, and which is not a
loop; a chain of such states between two branch states is stored as one arc
labelled x^L.  The stored shape is one state array, a row, per signed
letter, over the branch states.  ``rows[2i][s]`` is the target of the arc
labelled a power of ``alphabet[i]`` at state ``s`` and ``rows[2i + 1][s]``
the source of the one entering ``s``, or -1 where there is none.  A unit
arc (L = 1) is stored as its target ``t``; a long arc (L >= 2) as
``-2 - t``, with L in ``lengths[r][s]``, so that every test for a missing
arc, ``t < 0``, also catches a long one and a unit step reads exactly as it
would with one state per letter.  In a folded automaton row ``r ^ 1`` is
row ``r`` read backwards, and a long arc's reverse has the same length.
The automaton has the branch states plus L - 1 states per long arc, and L
arcs per long arc; the rank of the subgroup is ``edges - states + 1``.
Every construction step reads plain targets, a long arc's too, with its
length beside it in ``lengths``; ``_stored`` writes the stored shape, and it
alone writes ``-2 - t``, once the states are numbered.  Only
``StallingsGraph``'s methods and ``_walk_pair`` read the encoding.
Membership traces the free reduction of a word from the base, a whole arc
at a time.

``from_generators`` reduces each generator freely in one stack pass, straight
into ``(row, letters)`` pairs (``_reduced``); the command line reads a
generator file's tokens straight into the same build, as syllables, with no
``Word`` between.  It reads each reduced generator from the base along
per-letter rows, one state per letter, from both ends, and adds only its
unread middle; each fresh state appends one -1 to every row.  Where an
arc's label is already taken at a state, the pair of states to identify is
queued, and one union-find fold merges the queued pairs on the rows; the
arcs are resolved to their roots only when something merged.  Until
that fold a row only gains arcs: an arc is written only where its row holds
-1.  So a walk once followed along a row stays a walk of that row, and the
reads keep, per row and start state, the states such a walk has met: a
syllable ``x^k`` jumps to the k-th of them and steps only past the end of
what was walked before.  Reading costs a step per syllable plus one per
state first met, and the 2m+1 conjugates ``a^-k b a^k`` are read in O(m)
steps, not O(m^2).  One pass at the end contracts the chains (``_stored``).

The public constructor and ``parse_stallings`` write per-letter rows once
and check them in ``_checked``: folded as written, connected, and core, in
the caller's own state ids; then they contract the chains in the same pass.

Every automaton is canonical, whichever way it was built: the alphabet is
sorted, and the stored states are numbered breadth-first from the base
along the stored rows in their order (generators in order, forward before
backward), a long arc taken as one step.  Without a long arc that is the
order of the per-letter rows.  A core automaton is unique up to
isomorphism of based graphs (Kapovich & Myasnikov 2002), and so is its
stored shape, so two automata compare equal exactly when they represent
the same subgroup over the same alphabet: ``==`` and ``hash`` read the
stored rows, and isomorphism checks in tests are plain ``==``.

``edges`` and the text and DOT forms write one state per letter, numbered
breadth-first along the per-letter rows.  They write at most
``MAX_WRITTEN_ARCS`` (4 * 10**6) arcs: past it they raise ``InputError``
from ``num_edges``, before anything is built per state.  ``_spelled_out``
computes that numbering on the stored shape: the states inside the long arcs
are numbered many levels at once, as arithmetic progressions written by
slice assignment, so it costs a step per stored state and per walk that
ends, not per state.  The lines are joined a letter at a time in C.

``intersect`` searches the product automaton based at the pair of bases in
exactly that order, keying each pair of stored states by one int, and
appends every product arc to the rows as it goes, as a plain target.  Two
unit arcs make a unit product arc, in one step.  Where either arc is long,
the two walks go on along the row from stored state to stored state until
both stand on one at once (folding with arcs labelled by group elements,
Kapovich, Weidmann & Miasnikov 2005), so ``<a^p> ∩ <a^q>`` takes p + q
steps, not lcm(p, q); the product arc's length goes to ``lengths``.  A walk
that runs out first leads into a tree, and no arc is written.  The trees
are then cut, and ``_stored`` contracts the chains left, numbers the core
and writes its stored shape.  Two subgroups of finite index over two or
more letters have a unit arc of every letter at every stored state, and
so does their product: it is searched with no test for a missing or long
arc and stored as searched.  Its pairs are claimed in a flat list indexed
by the pair's key while the grid of pairs has at most ``_CLAIM_TABLE``
(2**14) entries, and in a dict past that, where the list could dwarf the
pairs reached.

Text serialization: the base state (always 0) followed by the alphabet on
the first line, then one line ``state_from generator state_to`` per
positively-labeled transition, one state per letter.
"""

from __future__ import annotations

from itertools import chain, compress, cycle, repeat
from operator import eq, itemgetter, le, mul
from typing import Iterable, Optional

from .errors import InputError, ParseError, _instance
from .graphs import _check_names, _is_name, _uncommented_lines
from .words import Word, _decimal

__all__ = [
    "MAX_WRITTEN_ARCS",
    "StallingsGraph",
    "from_generators",
    "parse_stallings",
    "format_stallings",
]

MAX_WRITTEN_ARCS = 4 * 10**6


class StallingsGraph:
    """Folded core automaton; instances are immutable once built.

    ``_rows[2i][s]`` is the target of the arc labelled a power of
    ``alphabet[i]`` at stored state ``s`` and ``_rows[2i + 1][s]`` the
    source of the one entering ``s``, or -1.  A long arc to ``t`` is stored
    as ``-2 - t`` and its length in ``_lengths[r][s]``.  The stored states
    are the base 0 and the branch states, numbered breadth-first along the
    stored rows; ``num_states`` also counts the chain interiors.

    The constructor sorts the alphabet and numbers the states canonically,
    so the automaton equals any other of the same subgroup.  It raises
    ``InputError`` unless ``transitions`` maps ``(state, label)`` pairs to
    states, every label is a non-empty string without whitespace, ``^`` or
    ``#``, the alphabet repeats no label, every state lies in
    ``range(num_states)``, every label is in the alphabet, no two arcs with
    one label enter one state, every state is connected to the base and
    every non-base state has degree at least two (a core automaton).
    """

    __slots__ = ("alphabet", "_rows", "_lengths")

    base = 0

    def __init__(self, alphabet: Iterable[str], num_states: int, transitions: dict):
        alphabet = _labels(alphabet)
        known = set(alphabet)
        if len(known) != len(alphabet):
            raise InputError(f"alphabet {alphabet!r} repeats a label")
        alphabet = tuple(sorted(alphabet))
        if type(num_states) is not int or num_states < 1:
            raise InputError(f"num_states must be a positive int, got {num_states!r}")
        try:
            items = dict(transitions).items()
        except (TypeError, ValueError):
            raise InputError(f"transitions must map (state, label) pairs to states, "
                             f"got {transitions!r}") from None
        arcs = []
        for key, v in items:
            try:
                u, g = key
            except (TypeError, ValueError):
                raise InputError(f"transition key {key!r} is not a (state, label) pair") from None
            if g not in known:
                raise InputError(f"transition label {g!r} is not in the alphabet")
            for s in (u, v):
                if type(s) is not int or not 0 <= s < num_states:
                    raise InputError(f"state {s!r} is outside 0 .. {num_states - 1}")
            arcs.append((u, g, v, None))
        if num_states > len(arcs) + 1:  # connected needs n - 1 arcs; refused before allocating
            raise InputError(f"{num_states} states are not connected to the base by "
                             f"{len(arcs)} transitions; that needs at least {num_states - 1}")
        self.alphabet = alphabet
        self._rows, self._lengths = _checked(
            alphabet, range(num_states), arcs, lambda message, _: InputError(message))

    @classmethod
    def _trusted(cls, alphabet: tuple[str, ...], rows: list, lengths: list) -> "StallingsGraph":
        """Wrap the stored shape of a folded core automaton that the library
        built, unchecked and uncopied."""
        sg = object.__new__(cls)
        sg.alphabet = alphabet
        sg._rows = rows
        sg._lengths = lengths
        return sg

    @property
    def num_states(self) -> int:
        return _stored_count(self._rows) + sum(
            length - 1 for lengths in self._lengths[::2] for length in lengths.values())

    @property
    def num_edges(self) -> int:
        # each chain interior adds one arc as it adds one state
        return (self.num_states - _stored_count(self._rows)
                + sum(len(row) - row.count(-1) for row in self._rows[::2]))

    def edges(self) -> list[tuple[int, str, int]]:
        """Every arc, one per letter, as ``(source, generator, target)``, in
        sorted order; refused past ``MAX_WRITTEN_ARCS`` arcs."""
        return self._arcs(self._written_states(), lambda g, pairs: [(u, g, v) for u, v in pairs])

    def _written_states(self) -> range:
        """The states a writer numbers, ``range(num_states)``; raises
        ``InputError``, before anything is built per state, when the
        automaton has more than ``MAX_WRITTEN_ARCS`` arcs."""
        arcs = self.num_edges
        if arcs > MAX_WRITTEN_ARCS:
            raise InputError(f"the automaton has {arcs} arcs; at most {MAX_WRITTEN_ARCS} are written")
        return range(self.num_states)

    def _arcs(self, ends: list | range, items) -> list:
        """One item per arc, one state per letter, in sorted order: by
        source, then generator.  ``items(g, pairs)`` makes generator
        ``g``'s items from the ``(ends[source], ends[target])`` pairs of its
        arcs, in order of source.

        Each letter's items are made apart, with no step per state, and
        dealt out in order: a flag per (state, letter) slot says whether
        the slot holds an arc, and each flagged slot takes the next item
        of its letter."""
        rows = self._spelled_out()
        k = len(rows)
        kept = [False] * (k * self.num_states)
        letters = []
        for i, (g, row) in enumerate(zip(self.alphabet, rows)):
            held = list(map(le, repeat(0), row))
            kept[i::k] = held
            letters.append(iter(items(g, compress(zip(ends, map(ends.__getitem__, row)), held))))
        return list(map(next, compress(cycle(letters), kept)))

    def _spelled_out(self) -> list:
        """The forward row of each generator with one state per letter,
        numbered canonically.  Without a long arc that is ``_rows[::2]``.

        The canonical search runs on the stored shape, a level of its
        breadth-first queue at a time.  A queue item is a stored state or a
        front: a long arc spelled out from one of its ends (``_Front``).  A
        front step meets at most one state, so while a level holds j fronts
        and nothing else, the next levels repeat it.  The ``rounds`` levels
        before a front reaches the far end or its partner are numbered at
        once: the i-th front takes ``nxt + i``, ``nxt + i + j``, ... and
        writes its arcs with one slice assignment per row.  So the steps
        follow the stored states and these events, not the states spelled
        out.  Both rows of a letter are written, so that the two ends of a
        long arc walk alike."""
        rows, lengths = self._rows, self._lengths
        if not any(lengths):
            return rows[::2]
        out = [[-1] * self.num_states for _ in rows]
        fronts = [{} for _ in rows]  # per row: the front of each long arc leaving along it
        pairs = []  # a long arc's two fronts, each with the other's index in it
        for r in range(0, len(rows), 2):
            for s, length in lengths[r].items():
                t = -2 - rows[r][s]
                fronts[r][s] = _Front(out[r], out[r + 1], t, length, len(pairs) + 1)
                fronts[r + 1][t] = _Front(out[r + 1], out[r], s, length, len(pairs))
                pairs += fronts[r][s], fronts[r + 1][t]
        steps = list(zip(rows, out, fronts))
        number = [-1] * _stored_count(rows)
        number[0] = 0
        nxt = 1
        level = [0]

        def reach(s: int) -> int:
            """The number of stored state ``s``, given when first met."""
            nonlocal nxt
            if number[s] < 0:
                number[s] = nxt
                nxt += 1
                ahead.append(s)
            return number[s]

        def step(f: _Front) -> None:
            """One level of ``f``'s walk: the next state along its row."""
            nonlocal nxt
            partner = pairs[f.partner]
            if f.walked + partner.walked < f.length - 1:  # a fresh state inside the arc
                f.row[f.at], f.back[nxt] = nxt, f.at
                f.walked += 1
                f.at = nxt
                nxt += 1
                ahead.append(f)
            else:  # the far end, or where the partner stands
                t = reach(f.end) if f.walked == f.length - 1 else partner.at
                f.row[f.at], f.back[t] = t, f.at
                f.walking = False

        while level:
            if all(type(item) is not int for item in level):  # fronts only: number the levels that repeat it
                rounds = min((f.length - 1 - f.walked - pairs[f.partner].walked)
                             // (1 + pairs[f.partner].walking) for f in level)
                if rounds:
                    j = len(level)
                    for a, f in enumerate(level, nxt):
                        last = a + (rounds - 1) * j
                        f.row[f.at], f.back[a] = a, f.at
                        f.row[a:last:j] = range(a + j, last + j, j)
                        f.back[a + j:last + j:j] = range(a, last, j)
                        f.walked += rounds
                        f.at = last
                    nxt += rounds * j
            ahead = []
            for item in level:
                if type(item) is not int:
                    step(item)
                    continue
                s = number[item]  # a stored state: its arcs in row order
                for row, ex, row_fronts in steps:
                    t = row[item]
                    if t >= 0:
                        ex[s] = reach(t)
                    elif t != -1:  # a long arc: walk it from here
                        f = row_fronts[item]
                        f.at, f.walking = s, True
                        step(f)
            level = ahead
        return out[::2]

    def member(self, w: Word) -> bool:
        """Does the free reduction of ``w`` trace a closed path at the base?

        Folded, each label's arcs are a partial injection, so a walk along one
        label either leaves the automaton or returns to its start; a syllable
        ``x^k`` whose walk returns after L letters walks only ``|k| mod L``
        more.  A syllable that ends inside a long arc ends at a chain
        interior, where only its own letter goes on: the next syllable, or
        the end of the word, finds no way."""
        index = {g: 2 * i for i, g in enumerate(self.alphabet)}
        rows, lengths = self._rows, self._lengths
        state = 0
        for r, c in _reduced(_instance(w, Word).syllables, index):
            row = rows[r]
            start, left = state, c
            while left:
                t = row[state]
                if t < 0:  # no arc, or a long one
                    if t == -1 or lengths[r][state] > left:
                        return False
                    left -= lengths[r][state] - 1
                    t = -2 - t
                state = t
                left -= 1
                if state == start:  # one lap done: skip the whole laps left
                    left %= c - left
        return state == 0

    def rank(self) -> int:
        """Rank of the represented subgroup: edges - states + 1 on the core."""
        return self.num_edges - self.num_states + 1

    def intersect(self, other: "StallingsGraph") -> "StallingsGraph":
        """Automaton of the subgroup intersection: the core of the product
        automaton based at the pair of bases.

        The product is searched breadth-first from the pair of bases over
        the stored states; a pair ``(s1, s2)`` is keyed by the int
        ``s1 * width + s2``, ``width`` being the other's stored states, and
        numbered when first reached; the key alone is queued, and the search
        reads it back with ``divmod``, as ``_full_product``'s does.  Each
        visited state appends its product target (or -1) to every row, in
        the rows' order, so the rows are complete when the search ends.  Two
        unit arcs give a unit arc in one step, as with one state per letter.
        Where either arc is long, ``_walk_pair`` goes on to the first pair of
        stored states, and the product arc is long; if one walk runs out
        first, the product walks into a tree and gets no arc.  The rows hold
        plain targets, a long arc's with its length in ``lengths``, so every
        arc is claimed in one place.

        Trimming (``_trim``) cuts the trees.  ``_stored`` then contracts
        each chain through pairs of stored states left with two arcs of one
        letter, numbers the core and writes the long arcs as stored.

        When both operands are over two or more letters and every row holds
        a unit arc at every stored state, which is when both subgroups have
        finite index, there is no tree, no chain and no long arc:
        ``_full_product`` runs the search without the tests, and its rows
        are stored as searched.  The rows alone select it, one ``min`` per
        row; the size of the grid of pairs, ``w1 * w2`` for operands of
        ``w1`` and ``w2`` stored states, then selects how it claims them: a
        flat list of the whole grid up to ``_CLAIM_TABLE`` entries, else a
        dict of the pairs reached.
        """
        if self.alphabet != _instance(other, StallingsGraph).alphabet:
            raise InputError("cannot intersect subgroups over different alphabets")
        if len(self._rows) > 2 and all(min(row) >= 0 for row in chain(self._rows, other._rows)):
            return StallingsGraph._trusted(self.alphabet, _full_product(self._rows, other._rows),
                                           [{} for _ in self._rows])
        width = _stored_count(other._rows)
        rows: list = [[] for _ in self._rows]
        lengths: list = [{} for _ in self._rows]
        steps = list(zip(self._rows, other._rows, [row.append for row in rows],
                         zip(self._lengths, other._lengths, lengths, rows)))
        keys = [0]
        claim = {0: 0}.setdefault
        n = 1
        # keys grows while map walks it: each state is visited once
        for s1, s2 in map(divmod, keys, repeat(width)):
            for row1, row2, add, long in steps:
                t1 = row1[s1]
                t2 = row2[s2]
                if t1 < 0 or t2 < 0:
                    walk = t1 != -1 and t2 != -1 and _walk_pair(row1, row2, long, s1, s2, t1, t2)
                    if not walk:
                        add(-1)
                        continue
                    t1, t2, long[2][len(long[3])] = walk
                key = t1 * width + t2
                t = claim(key, n)
                if t == n:
                    n += 1
                    keys.append(key)
                add(t)

        degree = _trim(rows, lengths, n)
        return StallingsGraph._trusted(self.alphabet, *_stored(rows, lengths, n, _interiors(rows, n, degree)))

    def to_dot(self) -> str:
        """Plain DOT text; the base state is drawn as a double circle.  A
        backslash or a double quote in a label is escaped with a backslash.
        Refused past ``MAX_WRITTEN_ARCS`` arcs."""
        ids = list(map(str, self._written_states()))  # each state id made once
        states = map("".join, zip(repeat("  "), ids[1:], repeat(' [shape=circle, label="'), ids[1:],
                                  repeat('"];')))

        def arcs(g, pairs):
            label = g.replace("\\", "\\\\").replace('"', '\\"')
            return map("".join, zip(repeat("  "), map(" -> ".join, pairs), repeat(f' [label="{label}"];')))
        return "\n".join(["digraph stallings {", "  rankdir=LR;", '  0 [shape=doublecircle, label="0"];',
                          *states, *self._arcs(ids, arcs), "}\n"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, StallingsGraph):
            return NotImplemented
        return (self.alphabet, self._rows, self._lengths) == (other.alphabet, other._rows, other._lengths)

    def __hash__(self) -> int:
        return hash((self.alphabet, tuple(map(tuple, self._rows))))

    def __repr__(self) -> str:
        return (
            f"StallingsGraph(alphabet={self.alphabet!r}, states={self.num_states}, "
            f"edges={self.num_edges})"
        )


class _Front:
    """One end of a long arc ``x^L`` as ``_spelled_out`` numbers the L - 1
    states inside it: ``walked`` of them are numbered from this end, along
    ``row`` (``back`` is the reverse row), the last one ``at``, and
    ``walking`` says whether the walk goes on.  ``end`` is the stored state
    at the far end.  ``partner`` indexes the front from there in a list,
    so that no reference cycle keeps the rows alive."""

    __slots__ = ("row", "back", "end", "length", "partner", "walked", "at", "walking")

    def __init__(self, row: list, back: list, end: int, length: int, partner: int):
        self.row, self.back, self.end, self.length, self.partner = row, back, end, length, partner
        self.walked = self.at = 0
        self.walking = False


def _labels(alphabet: Iterable[str]) -> tuple[str, ...]:
    """The alphabet as a tuple; raises ``InputError`` on a label that is not
    a generator name, the rule ``Word`` applies to its letters."""
    alphabet = tuple(_instance(alphabet, Iterable))
    _check_names(alphabet, "alphabet label must be a non-empty string")
    return alphabet


def _stored_count(rows: list) -> int:
    """The number of stored states; an automaton over no letters has one."""
    return len(rows[0]) if rows else 1


def _walk_pair(row1: list, row2: list, long: tuple, s1: int, s2: int, t1: int, t2: int):
    """The first pair of stored states that walks along ``row1`` from
    ``s1`` and ``row2`` from ``s2`` reach together, and the letters walked;
    ``t1``, ``t2`` are the stored arcs at ``s1``, ``s2``, and one of them is
    long.  None when one walk runs out first.

    Each walk heads for a stored state, ``a1`` (``a2``) letters from the
    start; the walk that is behind takes its next arc, until both stand on
    stored states at once.  Each walk is a partial injection, so the
    product walk either runs out or comes back to ``(s1, s2)``, a pair of
    stored states: it ends.  It steps once per stored state either walk
    passes, so two cycles of lengths p and q meet in p + q steps."""
    lengths1, lengths2 = long[0], long[1]
    a1 = 1 if t1 >= 0 else lengths1[s1]
    a2 = 1 if t2 >= 0 else lengths2[s2]
    t1 = t1 if t1 >= 0 else -2 - t1
    t2 = t2 if t2 >= 0 else -2 - t2
    while a1 != a2:
        if a1 < a2:  # the first walk is behind: it takes its next arc
            t = row1[t1]
            if t == -1:
                return None
            a1 += 1 if t >= 0 else lengths1[t1]
            t1 = t if t >= 0 else -2 - t
        else:
            t = row2[t2]
            if t == -1:
                return None
            a2 += 1 if t >= 0 else lengths2[t2]
            t2 = t if t >= 0 else -2 - t
    return t1, t2, a1


# The most pairs of stored states ``_full_product`` claims in a list: 2**14
# entries, 128 KB.  A list costs a step per pair of the grid, the dict only
# per pair reached, and the pairs reached can be as few as the square root of
# the grid (a subgroup met with itself).  On CPython 3.11, with the list,
# K_128 met with itself took 1.15 times the dict's time (0.03 ms more) and
# K_256 with itself 1.5 times; products that reach their whole grid, K_80
# with K_81 up to K_150 with K_151, took 0.70-0.75 times.
_CLAIM_TABLE = 1 << 14


def _full_product(rows1: list, rows2: list) -> list:
    """The rows of the product of two automata over two or more letters
    whose every stored state has a unit arc of every signed letter: two
    subgroups of finite index.

    The search is the one ``intersect`` runs, with nothing missing and
    nothing long to test for.  Every product state has a unit arc of every
    signed letter too, so its degree is at least four: no tree hangs off
    the core and no state is a chain interior, and the search's numbering
    is the canonical one.  The first operand's rows are scaled by the
    second's width once, so a pair's key is one sum.  A grid of at most
    ``_CLAIM_TABLE`` pairs claims them in a list indexed by the key, -1
    for a pair not reached; a larger one, in a dict that holds only the
    pairs reached."""
    width = len(rows2[0])
    rows: list = [[] for _ in rows1]
    steps = [(list(map(mul, row1, repeat(width))), row2, row.append)
             for row1, row2, row in zip(rows1, rows2, rows)]
    keys = [0]
    n = 1
    grid = len(rows1[0]) * width
    if grid <= _CLAIM_TABLE:
        claimed = [-1] * grid
        claimed[0] = 0
        # keys grows while map walks it: each state is visited once
        for s1, s2 in map(divmod, keys, repeat(width)):
            for row1, row2, add in steps:
                key = row1[s1] + row2[s2]
                t = claimed[key]
                if t < 0:
                    t = claimed[key] = n
                    n += 1
                    keys.append(key)
                add(t)
        return rows
    claim = {0: 0}.setdefault
    for s1, s2 in map(divmod, keys, repeat(width)):
        for row1, row2, add in steps:
            key = row1[s1] + row2[s2]
            t = claim(key, n)
            if t == n:
                n += 1
                keys.append(key)
            add(t)
    return rows


def _search(rows: list, n: int) -> list[int]:
    """States reached from the base 0 in canonical order: breadth-first,
    along the rows in their order, a long arc one step.  The rows hold
    plain targets, as its callers ``_stored`` and ``_checked`` pass
    them, not the stored shape."""
    seen = [False] * n + [True]  # seen[-1]: a missing arc, -1, is never followed
    seen[0] = True
    order = [0]
    for s in order:  # grows while it is walked
        for row in rows:
            t = row[s]
            if not seen[t]:
                seen[t] = True
                order.append(t)
    return order


def _trim(rows: list, lengths: list, n: int) -> list[int]:
    """Cut the trees that hang off the core in place, and return each
    state's degree, -1 for a state cut: a non-base state of degree at most
    one goes, with the arcs into it, until none is left.  The rows hold
    plain targets; an arc cut loses its length in ``lengths``."""
    degree = [len(arcs) - arcs.count(-1) for arcs in zip(*rows)] if rows else [0] * n
    trim = [s for s in range(1, n) if degree[s] <= 1]
    ends = [(row, rows[r ^ 1], lengths[r ^ 1]) for r, row in enumerate(rows)]
    for s in trim:  # grows as trimming exposes new leaves
        degree[s] = -1
        for row, back, back_lengths in ends:
            t = row[s]
            if t >= 0:
                back[t] = -1
                back_lengths.pop(t, None)  # a long arc's reverse has a length too
                degree[t] -= 1
                if t and degree[t] == 1:
                    trim.append(t)
    return degree


def _interiors(rows: list, n: int, degree: list[int]) -> list[tuple[int, int]]:
    """The chain interiors, each with the row its arcs leave along: the
    non-base states whose two arcs are a leaving and an entering one of one
    letter.  That is all there is to check: a non-base state whose two arcs
    are one loop is not connected to the base.  The states of degree two are
    picked out first, so with none there is nothing more to read."""
    found = []
    for s in [s for s in range(1, n) if degree[s] == 2]:
        for r in range(0, len(rows), 2):
            if rows[r][s] != -1:
                break
        if rows[r][s] != -1 and rows[r + 1][s] != -1:
            found.append((s, r))
    return found


def _stored(rows: list, lengths: list, n: int, interiors: list) -> tuple:
    """The stored shape, rows and lengths, of the automaton on the plain
    ``rows`` and ``lengths`` over states ``0 .. n - 1``, given its chain
    ``interiors``, each with a row of its letter.  Each chain is written in
    place as one arc, which leaves its interiors unreached, and the states
    reached from the base are searched (``_search``), numbered canonically
    and renamed, -1 for the others.  Only then is each long arc to ``t``
    written as ``-2 - t``: no step before reads the encoding."""
    inner = [False] * n
    for s, _ in interiors:
        inner[s] = True
    for c, r in interiors:
        r &= -2  # the row its arcs leave along
        p = rows[r + 1][c]
        if inner[p]:  # not the first interior of its chain
            continue
        row, arcs = rows[r], lengths[r]
        length, t = arcs.get(p, 1), c
        while inner[t]:
            length += arcs.get(t, 1)
            t = row[t]
        row[p] = t
        rows[r + 1][t] = p
        arcs[p] = lengths[r + 1][t] = length
    order = _search(rows, n)
    number = [-1] * (n + 1)  # number[-1] stays -1 for a missing arc
    for new, s in enumerate(order):
        number[s] = new
    renamed = [[number[row[s]] for s in order] for row in rows]
    # a length moves with its arc's source; most rows hold no long arc
    lengths = [{number[s]: length for s, length in arcs.items() if number[s] >= 0} if arcs else {}
               for arcs in lengths]
    for row, arcs in zip(renamed, lengths):
        for s in arcs:
            row[s] = -2 - row[s]
    return renamed, lengths


def _checked(alphabet: tuple[str, ...], ids, arcs: list, error) -> tuple:
    """The stored shape of ``arcs``, each ``(u, g, v, line)`` between states
    ``0 .. len(ids) - 1`` over the sorted ``alphabet``, as ``_stored``
    returns it.  Raises ``error(message, line)`` unless the arcs are
    folded, connected to the base 0 and core; the message names state
    ``s`` by ``ids[s]``."""
    n = len(ids)
    index = {g: 2 * i for i, g in enumerate(alphabet)}
    rows = [[-1] * n for _ in range(2 * len(alphabet))]
    for u, g, v, line in arcs:
        r = index[g]
        for row, s, t, way in ((rows[r], u, v, "leave"), (rows[r + 1], v, u, "enter")):
            if row[s] not in (-1, t):
                raise error(f"two {g!r} transitions {way} state {ids[s]}: not folded", line)
            row[s] = t
    order = _search(rows, n)
    if len(order) < n:
        lost = sorted(ids[s] for s in set(range(n)).difference(order))
        raise error(f"states {lost} are not connected to the base", None)
    lengths = [{} for _ in rows]
    degree = _trim(rows, lengths, n)
    if -1 in degree:
        gone = sorted(ids[s] for s in range(n) if degree[s] < 0)
        raise error(f"states {gone} hang off the core in trees (not a core automaton)", None)
    return _stored(rows, lengths, n, _interiors(rows, n, degree))


def _walk(row: list, walked: dict, s: int, k: int) -> tuple[int, int]:
    """The state ``k`` steps along ``row`` from ``s``, or the last one before
    the row runs out, and the number of steps taken: the build's one reader
    of a syllable of more than one letter.

    ``walked[s]`` lists the states met so far on the walk from ``s``, ``s``
    first; a call it reaches returns at once, and any other only extends
    it past its end.  The row is a function, so a walk that returns to
    ``s`` repeats from there: it is not extended again, and ``k`` steps end
    where ``k`` mod its length do.  So a walk holds no more states than the
    steps asked of it."""
    met = walked.get(s) or walked.setdefault(s, [s])  # a walk holds s: never empty
    t = met[-1]
    while len(met) <= k:
        if t == s and len(met) > 1:  # one lap closed
            return met[k % (len(met) - 1)], k
        t = row[t]
        if t < 0:
            return met[-1], len(met) - 1
        met.append(t)
    return met[k], k


def _reduced(syllables: Iterable, index: dict) -> list:
    """The free reduction of ``syllables`` as ``(row, letters)`` pairs, in
    one stack pass: ``x^k`` is ``|k|`` letters along row ``index[x]``, or
    the row after it when ``k < 0``, and a syllable over the top's
    generator lands on the top.  Neighbours on the stack have different
    generators.  Raises ``InputError`` on the first letter over a
    generator that is not a key of ``index``."""
    out: list = []
    top = -1  # the even row of the top's generator; -1 for none
    for gen, k in syllables:
        try:
            g = index[gen]
        except KeyError:
            raise InputError(f"letter over unknown generator {gen!r}") from None
        if g == top:  # lands on the top
            r, c = out.pop()
            k += c if r == g else -c
            if not k:
                top = out[-1][0] & -2 if out else -1
                continue
        out.append((g + 1, -k) if k < 0 else (g, k))
        top = g
    return out


def from_generators(ws: Iterable[Word], alphabet: Iterable[str]) -> StallingsGraph:
    """Build the subgroup's automaton from generator words.

    Each freely reduced word is read forward from the base along the
    arcs added so far, for at most all but its last letter, then
    backward from the base for its suffix, never past what the prefix read.
    The unread middle, at least one letter, becomes a fresh path between the
    two states reached.  A fresh path between existing states adds exactly
    the loop spelling the word to the fundamental group, just as a bouquet
    loop would, so the subgroup is the one the words generate.  One fold at
    the end makes the automaton deterministic.

    A word is read a syllable ``x^k`` at a time.  A single letter steps
    along its row; a longer syllable jumps along the walk already followed
    on its row from the same state, through ``_walk``, which extends that
    walk only past its end.  The remembered walks stay true while words are
    read: an arc is written only where its row holds -1, and a clash queues
    a merge instead, so a row only gains arcs until the fold.  Only the
    unread middle is spelled out letter by letter, so the 2m+1 conjugates
    ``a^-k b a^k`` take O(m) steps, not O(m^2).

    A fresh state between two letters of one row is a run.  It has one
    arc in and one out of one letter, and only a run can be a chain
    interior: a state's arcs only add up until the end.  A run left with
    exactly its two arcs is one, and ``_stored`` contracts the chains while
    it numbers the states.

    Words may be unreduced or trivial; the trivial subgroup comes out as a
    single base state with no transitions.
    """
    return _from_syllables(_syllables(ws), alphabet)


def _syllables(ws: Iterable[Word]):
    """Each word's syllables, the word checked as the build takes it."""
    for w in _instance(ws, Iterable):
        yield _instance(w, Word).syllables


def _from_syllables(words: Iterable, alphabet: Iterable[str]) -> StallingsGraph:
    """The build of ``from_generators`` over words given as iterables of
    ``(gen, k != 0)`` syllables, not necessarily maximal; the command line
    hands it a generator file's lines as their tokens' syllables.  The
    alphabet is checked before the first word is taken, and each word is
    freely reduced as it is taken (``_reduced``)."""
    alpha = tuple(sorted(set(_labels(alphabet))))
    index = {g: 2 * i for i, g in enumerate(alpha)}
    rows: list = [[-1] for _ in range(2 * len(alpha))]
    walked = [{} for _ in rows]  # per row: start state -> the walk's states
    n = 1
    # the first arc with a label at a state is the one words are read along;
    # a later one with the same label asks for its other end to be merged
    merges = []
    runs = []
    for syllables in words:
        word = _reduced(syllables, index)
        if not word:
            continue
        # forward: word[:p] whole and a letters of word[p], never the last letter
        last = len(word) - 1
        head = a = 0
        for p, (r, c) in enumerate(word):
            if p == last:
                c -= 1
            if c == 1:
                t = rows[r][head]
                if t < 0:
                    a = 0
                    break
                head = t
            elif c:
                head, a = _walk(rows[r], walked[r], head, c)
                if a < c:
                    break
        else:  # read up to the last letter
            a = c
        # backward: word[q + 1:] whole and b letters off the end of word[q],
        # leaving at least one letter after the forward read
        tail, q, b = 0, last, 0
        while q > p:
            r, c = word[q]
            r ^= 1
            if c == 1:
                t = rows[r][tail]
                if t < 0:
                    break
                tail = t
            else:
                tail, b = _walk(rows[r], walked[r], tail, c)
                if b < c:
                    break
                b = 0
            q -= 1
        else:  # at the syllable the forward read stopped in: all it left but a letter
            r, c = word[p]
            c -= a + 1
            if c:
                r ^= 1
                tail, b = _walk(rows[r], walked[r], tail, c)
        # the unread middle, letter by letter
        r, c = word[p]
        if p == q:
            middle = [r] * (c - a - b)
        else:
            middle = [r] * (c - a)
            for r, c in word[p + 1:q]:
                middle += [r] * c
            r, c = word[q]
            middle += [r] * (c - b)
        fresh = len(middle) - 1
        if fresh:
            pad = [-1] * fresh
            for row in rows:
                row += pad
            # the runs, fresh states between two letters of one row, with that row
            runs += compress(zip(range(n, n + fresh), middle), map(eq, middle, middle[1:]))
        state = head
        for r, t in zip(middle, [*range(n, n + fresh), tail]):
            row = rows[r]
            held = row[state]
            if held < 0:
                row[state] = t
            elif held != t:
                merges.append((held, t))
            row = rows[r ^ 1]
            held = row[t]
            if held < 0:
                row[t] = state
            elif held != state:
                merges.append((held, state))
            state = t
        n += fresh

    # Union-find fold: the larger number of a pair is merged into the
    # smaller, so the base stays 0.  The merged state's arcs move to the kept
    # one, and wherever both have an arc with one label the two far ends are
    # queued to merge in turn.  At the end only the states merged away are
    # pointed at their roots, and ``parent`` is the root map of every state;
    # the arcs are resolved through it only when something merged.
    parent = list(range(n))
    merged = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while merges:
        a, b = merges.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        parent[b] = a
        merged.append(b)
        for row in rows:
            t = row[b]
            if t >= 0:
                row[b] = -1
                held = row[a]
                if held < 0:
                    row[a] = t
                elif held != t:
                    merges.append((held, t))
    if merged:
        for b in merged:
            parent[b] = find(b)
        parent.append(-1)  # parent[-1] is -1 for a missing arc
        for row in rows:
            row[:] = [parent[t] for t in row]

    # nothing to trim: a fresh state lies on its word's reduced loop at the base,
    # so it keeps two distinct arcs, and a state merged away is not reached.
    # The chain interiors are the runs that kept exactly their two arcs; the
    # arcs at the runs are read off the rows a row at a time
    at_runs = zip(*[map(row.__getitem__, map(itemgetter(0), runs)) for row in rows])
    kept_two = map(eq, map(tuple.count, at_runs, repeat(-1)), repeat(len(rows) - 2))
    interiors = list(compress(runs, kept_two))
    return StallingsGraph._trusted(alpha, *_stored(rows, [{} for _ in rows], n, interiors))


def format_stallings(sg: StallingsGraph) -> str:
    """Serialize: base state (and the alphabet, so a trivial subgroup keeps
    its generators) on line 1, then sorted transition lines; refused past
    ``MAX_WRITTEN_ARCS`` arcs."""
    head = " ".join((str(_instance(sg, StallingsGraph).base),) + sg.alphabet)
    ids = list(map(str, sg._written_states()))  # each state id made once
    lines = sg._arcs(ids, lambda g, pairs: map(f" {g} ".join, pairs))
    return "\n".join([head, *lines, ""])


def _state_id(tok: str, lineno: int) -> int:
    """A state id: ASCII decimal digits after an optional ``-``."""
    state = _decimal(tok)
    if state is None:
        raise ParseError(f"state id {tok!r} is not an ASCII decimal integer", line=lineno)
    return state


def _label(tok: str, lineno: int) -> str:
    """A label token, held to the name rule that graphs and words share."""
    if not _is_name(tok):
        raise ParseError(f"generator name {tok!r} may not contain '^' or '#'", line=lineno)
    return tok


def parse_stallings(text: str) -> StallingsGraph:
    """Parse and validate the text serialization.

    The input must already be deterministic (folded) and core; violations are
    reported with their line number or the file's own state ids.  States are
    renumbered canonically, so parse(format(sg)) == sg.
    """
    index: dict = {}  # state id -> state, in order of first mention
    states: dict = {}  # state-id token -> state: each distinct token is read once
    labels: set = set()  # the label tokens accepted so far
    declared: Optional[list] = None
    arcs = []
    for lineno, tokens in enumerate(map(str.split, _uncommented_lines(_instance(text, str))), start=1):
        if not tokens:
            continue
        if declared is None:
            index[_state_id(tokens[0], lineno)] = states[tokens[0]] = 0
            declared = [_label(g, lineno) for g in tokens[1:]]
            labels.update(declared)
            continue
        if len(tokens) != 3:
            raise ParseError("transition lines need 'state generator state'", line=lineno)
        u, g, v = tokens
        if u not in states or v not in states:
            for tok in (u, v):
                if tok not in states:
                    states[tok] = index.setdefault(_state_id(tok, lineno), len(index))
        if g not in labels:
            _label(g, lineno)
            if declared:
                raise ParseError(f"generator {g!r} is not in the declared alphabet", line=lineno)
            labels.add(g)
        arcs.append((states[u], g, states[v], lineno))
    if declared is None:
        raise ParseError("empty input: the first line must name the base state", line=1)

    alphabet = tuple(sorted(labels))  # the declared labels, or else every label read
    ids = list(index)
    return StallingsGraph._trusted(alphabet, *_checked(alphabet, ids, arcs, ParseError))
