"""Stallings automata for finitely generated subgroups of free groups.

A subgroup generated by finitely many words is represented by a rooted,
folded, core automaton over the positive generators.  While it is built,
an automaton is held in one shape only: per-state label maps, ``out[s]``
from a generator to the target of the arc it labels at ``s`` and ``inc[s]``
from a generator to the source of the arc it labels into ``s``.  Each freely
reduced generator is read from the base along these maps, from both ends,
and only its unread middle is added as fresh arcs; where an arc's label is
already taken at a state, the pair of states to identify is queued.  One
fold then merges the queued pairs with union-find, folding the smaller maps
into the larger, until no two equal labels leave or enter one state.  The
core (no non-base state of degree one) is trimmed on the same maps.
Membership is tracing the free reduction of a word from the base; the rank
of the subgroup is ``edges - states + 1``; intersections come from the
product automaton based at the pair of base states, whose maps are written
as it is searched.

States are renumbered by breadth-first search from the base with a fixed
generator order, so equal automata compare equal and isomorphism checks in
tests are plain ``==``.

Text serialization: the base state (always 0) followed by the alphabet on
the first line, then one line ``state_from generator state_to`` per
positively-labeled transition.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InputError, ParseError
from .words import Word, free_reduce

__all__ = [
    "StallingsGraph",
    "from_generators",
    "parse_stallings",
    "format_stallings",
]


class StallingsGraph:
    """Folded core automaton; instances are immutable once built.

    ``transitions`` maps ``(state, generator) -> state`` for the positive
    direction only; the inverse transition is implied.  The base state is 0.
    The constructor raises ``InputError`` unless every state lies in
    ``range(num_states)``, every label is in the alphabet and no two arcs
    with one label enter one state.
    """

    __slots__ = ("alphabet", "num_states", "transitions", "_inverse")

    base = 0

    def __init__(self, alphabet: tuple[str, ...], num_states: int, transitions: dict):
        if type(num_states) is not int or num_states < 1:
            raise InputError(f"num_states must be a positive int, got {num_states!r}")
        transitions = dict(transitions)
        known = set(alphabet)
        inverse = {}
        for (u, g), v in transitions.items():
            if g not in known:
                raise InputError(f"transition label {g!r} is not in the alphabet")
            for s in (u, v):
                if type(s) is not int or not 0 <= s < num_states:
                    raise InputError(f"state {s!r} is outside 0 .. {num_states - 1}")
            if (v, g) in inverse:
                raise InputError(f"two {g!r} transitions enter state {v}: not folded")
            inverse[v, g] = u
        self.alphabet = alphabet
        self.num_states = num_states
        self.transitions = transitions
        self._inverse = inverse

    @classmethod
    def _trusted(cls, alphabet: tuple[str, ...], num_states: int, transitions: dict,
                 inverse: dict) -> "StallingsGraph":
        """Wrap maps that ``_assemble`` built from a folded automaton, unchecked."""
        sg = object.__new__(cls)
        sg.alphabet = alphabet
        sg.num_states = num_states
        sg.transitions = transitions
        sg._inverse = inverse
        return sg

    def states(self) -> range:
        return range(self.num_states)

    def edges(self) -> list[tuple[int, str, int]]:
        return sorted((u, g, v) for (u, g), v in self.transitions.items())

    def member(self, w: Word) -> bool:
        """Does the free reduction of ``w`` trace a closed path at the base?"""
        reduced = free_reduce(w, self.alphabet)
        state = 0
        for gen, sign in reduced.letters:
            if sign > 0:
                state = self.transitions.get((state, gen))
            else:
                state = self._inverse.get((state, gen))
            if state is None:
                return False
        return state == 0

    def rank(self) -> int:
        """Rank of the represented subgroup: edges - states + 1 on the core."""
        return len(self.transitions) - self.num_states + 1

    def intersect(self, other: "StallingsGraph") -> "StallingsGraph":
        """Automaton of the subgroup intersection, via the product based at
        the pair of bases (searched from there, then cored)."""
        if self.alphabet != other.alphabet:
            raise InputError("cannot intersect subgroups over different alphabets")
        index = {(0, 0): 0}
        pairs = [(0, 0)]
        out: dict = {0: {}}
        inc: dict = {0: {}}

        def reach(pair) -> int:
            state = index.get(pair)
            if state is None:
                state = index[pair] = len(pairs)
                pairs.append(pair)
                out[state] = {}
                inc[state] = {}
            return state

        # each arc is recorded from its source; backward arcs only reach states
        for here, (s1, s2) in enumerate(pairs):
            for g in self.alphabet:
                t1 = self.transitions.get((s1, g))
                t2 = other.transitions.get((s2, g))
                if t1 is not None and t2 is not None:
                    there = reach((t1, t2))
                    out[here][g] = there
                    inc[there][g] = here
                u1 = self._inverse.get((s1, g))
                u2 = other._inverse.get((s2, g))
                if u1 is not None and u2 is not None:
                    reach((u1, u2))
        return _assemble(self.alphabet, 0, out, inc)

    def to_dot(self) -> str:
        """Plain DOT text; the base state is drawn as a double circle."""
        lines = ["digraph stallings {", "  rankdir=LR;", '  0 [shape=doublecircle, label="0"];']
        for s in range(1, self.num_states):
            lines.append(f'  {s} [shape=circle, label="{s}"];')
        for u, g, v in self.edges():
            lines.append(f'  {u} -> {v} [label="{g}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, StallingsGraph):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.num_states == other.num_states
            and self.transitions == other.transitions
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.num_states, frozenset(self.transitions.items())))

    def __repr__(self) -> str:
        return (
            f"StallingsGraph(alphabet={self.alphabet!r}, states={self.num_states}, "
            f"edges={self.edges()!r})"
        )


def _fold(out: dict, inc: dict, merges: list) -> int:
    """Fold the label maps in place and return the base's state.

    ``out[s]`` maps a generator to the target of the arc it labels at ``s``
    and ``inc[s]`` to the source of the arc it labels into ``s``; states are
    ``0 .. len(out) - 1`` and 0 is the base.  ``merges`` lists pairs of states
    to identify.  Union-find merges each pair, folding the smaller maps into
    the larger; wherever both give one label, the two ends it leads to are
    identified in turn.  Merged-away states leave the maps, and the targets
    of the remaining ones are resolved to their roots."""
    parent = list(range(len(out)))

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
        if len(out[a]) + len(inc[a]) < len(out[b]) + len(inc[b]):
            a, b = b, a
        parent[b] = a
        for kept, gone in ((out[a], out.pop(b)), (inc[a], inc.pop(b))):
            for g, t in gone.items():
                held = kept.setdefault(g, t)
                if held != t:
                    merges.append((held, t))
    for maps in (out, inc):
        for arcs in maps.values():
            for g, t in arcs.items():
                arcs[g] = find(t)
    return find(0)


def _assemble(alphabet: tuple[str, ...], base, out: dict, inc: dict) -> StallingsGraph:
    """Cored, canonically renumbered automaton from folded label maps
    (``out[s]``: generator -> target and ``inc[s]``: generator -> source,
    both keyed by every state).  Every state must be connected to the
    base: ``intersect`` searches from the base, ``from_generators`` hangs each
    arc off a reached state (folding keeps that) and ``parse_stallings``
    rejects disconnected input.  The core is trimmed on the maps themselves:
    a non-base state of degree ``len(out[s]) + len(inc[s]) <= 1`` goes, with
    its one entry at its neighbour, until none is left."""
    trim = [s for s in out if s != base and len(out[s]) + len(inc[s]) <= 1]
    while trim:
        s = trim.pop()
        for arcs, back in ((out, inc), (inc, out)):
            for g, t in arcs.pop(s).items():
                del back[t][g]
                if t != base and len(out[t]) + len(inc[t]) == 1:
                    trim.append(t)

    # canonical numbering: breadth-first from the base, generators in order,
    # forward transition before backward at each label
    order = {base: 0}
    queue = [base]
    for s in queue:
        forward, backward = out[s], inc[s]
        for g in alphabet:
            for t in (forward.get(g), backward.get(g)):
                if t is not None and t not in order:
                    order[t] = len(order)
                    queue.append(t)

    transitions: dict = {}
    inverse: dict = {}
    for u, arcs in out.items():
        here = order[u]
        for g, v in arcs.items():
            there = order[v]
            transitions[here, g] = there
            inverse[there, g] = here
    return StallingsGraph._trusted(alphabet, len(order), transitions, inverse)


def from_generators(ws: Iterable[Word], alphabet: Iterable[str]) -> StallingsGraph:
    """Build the subgroup's automaton from generator words.

    Each freely reduced word is read forward from the base along the
    transitions added so far, for at most all but its last letter, then
    backward from the base for its suffix, never past what the prefix read.
    The unread middle, at least one letter, becomes a fresh arc between the
    two states reached.  A fresh arc between existing states adds exactly
    the loop spelling the word to the fundamental group, just as a bouquet
    loop would, so the subgroup is the one the words generate.  One fold at
    the end makes the automaton deterministic.

    Words may be unreduced or trivial; the trivial subgroup comes out as a
    single base state with no transitions.
    """
    alpha = tuple(sorted(set(alphabet)))
    known = frozenset(alpha)
    # the first arc with a label at a state is the one words are read along;
    # a later one with the same label asks for its other end to be merged
    out: dict = {0: {}}
    inc: dict = {0: {}}
    merges = []
    for w in ws:
        letters = free_reduce(w, known).letters
        n = len(letters)
        if not n:
            continue
        head, i = 0, 0
        while i < n - 1:
            gen, sign = letters[i]
            nxt = (out if sign > 0 else inc)[head].get(gen)
            if nxt is None:
                break
            head, i = nxt, i + 1
        tail, j = 0, n
        while j - 1 > i:
            gen, sign = letters[j - 1]
            prev = (inc if sign > 0 else out)[tail].get(gen)
            if prev is None:
                break
            tail, j = prev, j - 1
        state = head
        for k in range(i, j):
            gen, sign = letters[k]
            if k == j - 1:
                nxt = tail
            else:
                nxt = len(out)
                out[nxt] = {}
                inc[nxt] = {}
            u, v = (state, nxt) if sign > 0 else (nxt, state)
            held = out[u].setdefault(gen, v)
            if held != v:
                merges.append((held, v))
            held = inc[v].setdefault(gen, u)
            if held != u:
                merges.append((held, u))
            state = nxt
    base = _fold(out, inc, merges)
    return _assemble(alpha, base, out, inc)


def format_stallings(sg: StallingsGraph) -> str:
    """Serialize: base state (and the alphabet, so a trivial subgroup keeps
    its generators) on line 1, then sorted transition lines."""
    lines = [" ".join((str(sg.base),) + sg.alphabet)]
    lines.extend(f"{u} {g} {v}" for u, g, v in sg.edges())
    return "\n".join(lines) + "\n"


def parse_stallings(text: str) -> StallingsGraph:
    """Parse and validate the text serialization.

    The input must already be deterministic (folded) and core; violations are
    reported with their line number.  States are renumbered canonically, so
    parse(format(sg)) == sg.
    """
    base: Optional[int] = None
    declared: tuple[str, ...] = ()
    raw: list[tuple[int, str, int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if base is None:
            head = stripped.split()
            try:
                base = int(head[0])
            except ValueError:
                raise ParseError(f"expected the base state id, got {head[0]!r}", line=lineno) from None
            declared = tuple(head[1:])
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise ParseError("transition lines need 'state generator state'", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[2])
        except ValueError:
            raise ParseError(f"state ids must be integers in {stripped!r}", line=lineno) from None
        if "^" in tokens[1]:
            raise ParseError(f"generator name {tokens[1]!r} may not contain '^'", line=lineno)
        if declared and tokens[1] not in declared:
            raise ParseError(
                f"generator {tokens[1]!r} is not in the declared alphabet", line=lineno
            )
        raw.append((u, tokens[1], v, lineno))
    if base is None:
        raise ParseError("empty input: the first line must name the base state", line=1)

    out: dict = {base: {}}
    inc: dict = {base: {}}
    for u, g, v, lineno in raw:
        for s in (u, v):
            if s not in out:
                out[s] = {}
                inc[s] = {}
        if out[u].setdefault(g, v) != v:
            raise ParseError(f"two '{g}' transitions leave state {u}: not folded", line=lineno)
        if inc[v].setdefault(g, u) != u:
            raise ParseError(f"two '{g}' transitions enter state {v}: not folded", line=lineno)

    reach = {base}
    stack = [base]
    while stack:
        s = stack.pop()
        for t in (*out[s].values(), *inc[s].values()):
            if t not in reach:
                reach.add(t)
                stack.append(t)
    if len(reach) != len(out):
        raise ParseError(f"states {sorted(set(out) - reach)} are not connected to the base")
    bad = sorted(s for s in out if s != base and len(out[s]) + len(inc[s]) <= 1)
    if bad:
        raise ParseError(f"non-base states of degree <= 1: {bad} (not a core automaton)")

    alphabet = tuple(sorted(set(declared) | {g for arcs in out.values() for g in arcs}))
    return _assemble(alphabet, base, out, inc)
