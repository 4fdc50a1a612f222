"""Stallings automata for finitely generated subgroups of free groups.

A subgroup generated by finitely many words is represented by a rooted,
folded, core automaton over the positive generators.  A built automaton
holds its arcs as per-generator state arrays: ``_fwd[i][s]`` is the target
of the arc labelled ``alphabet[i]`` at state ``s`` and ``_bwd[i][s]`` the
source of the one entering ``s``, or -1 where there is none.  Membership
traces the free reduction of a word along these arrays from the base; the
rank of the subgroup is ``edges - states + 1``.

``from_generators`` builds on per-state label maps, ``out[s]`` from a
generator to the target of the arc it labels at ``s`` and ``inc[s]`` from a
generator to the source of the arc it labels into ``s``.  Each freely
reduced generator is read from the base along these maps, from both ends,
and only its unread middle is added as fresh arcs; where an arc's label is
already taken at a state, the pair of states to identify is queued.  One
fold then merges the queued pairs with union-find, folding the smaller maps
into the larger, until no two equal labels leave or enter one state.  The
core (no non-base state of degree one) is trimmed on the same maps, and the
arrays are written as the states are numbered.

States are numbered canonically: breadth-first from the base, generators in
order, the forward arc before the backward one at each label.  So equal
automata compare equal and isomorphism checks in tests are plain ``==``.
``intersect`` searches the product automaton based at the pair of bases in
exactly that order, keying each pair of states by one int, and appends
every product arc to the arrays as it goes.  A tree that hangs off the core
is entered only through its root, so it never precedes that root and never
discovers a core state: the search's numbering, restricted to the core, is
already canonical, and trimming the trees only closes the gaps they leave.

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

    ``_fwd[i][s]`` is the target of the arc labelled ``alphabet[i]`` at state
    ``s`` and ``_bwd[i][s]`` the source of the one entering ``s``, or -1.
    ``transitions`` is the same automaton as a ``(state, generator) -> state``
    dict over the positive direction, derived when first read; the inverse
    transition is implied.  The base state is 0.

    The constructor keeps the state numbers it is given.  It raises
    ``InputError`` unless the alphabet repeats no label, every state lies in
    ``range(num_states)``, every label is in the alphabet, no two arcs with
    one label enter one state, every state is connected to the base and
    every non-base state has degree at least two (a core automaton).
    """

    __slots__ = ("alphabet", "num_states", "num_edges", "_fwd", "_bwd", "_transitions")

    base = 0

    def __init__(self, alphabet: Iterable[str], num_states: int, transitions: dict):
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise InputError(f"alphabet {alphabet!r} repeats a label")
        if type(num_states) is not int or num_states < 1:
            raise InputError(f"num_states must be a positive int, got {num_states!r}")
        transitions = dict(transitions)
        known = set(alphabet)
        out: dict = {s: {} for s in range(num_states)}
        inc: dict = {s: {} for s in range(num_states)}
        for (u, g), v in transitions.items():
            if g not in known:
                raise InputError(f"transition label {g!r} is not in the alphabet")
            for s in (u, v):
                if type(s) is not int or not 0 <= s < num_states:
                    raise InputError(f"state {s!r} is outside 0 .. {num_states - 1}")
            if inc[v].setdefault(g, u) != u:
                raise InputError(f"two {g!r} transitions enter state {v}: not folded")
            out[u][g] = v
        problem = _core_problem(out, inc, 0)
        if problem:
            raise InputError(problem)
        fwd = [[-1] * num_states for _ in alphabet]
        bwd = [[-1] * num_states for _ in alphabet]
        column = {g: i for i, g in enumerate(alphabet)}
        for (u, g), v in transitions.items():
            fwd[column[g]][u] = v
            bwd[column[g]][v] = u
        self._set(alphabet, num_states, fwd, bwd, len(transitions))

    @classmethod
    def _trusted(cls, alphabet: tuple[str, ...], num_states: int, fwd: list, bwd: list,
                 num_edges: int) -> "StallingsGraph":
        """Wrap arrays that the library built from a folded core automaton,
        unchecked and uncopied."""
        sg = object.__new__(cls)
        sg._set(alphabet, num_states, fwd, bwd, num_edges)
        return sg

    def _set(self, alphabet, num_states, fwd, bwd, num_edges) -> None:
        self.alphabet = alphabet
        self.num_states = num_states
        self.num_edges = num_edges
        self._fwd = fwd
        self._bwd = bwd
        self._transitions = None

    @property
    def transitions(self) -> dict:
        """``(state, generator) -> state`` over the positive arcs, built from
        the arrays on first read and kept."""
        if self._transitions is None:
            self._transitions = {
                (u, g): v
                for g, targets in zip(self.alphabet, self._fwd)
                for u, v in enumerate(targets)
                if v >= 0
            }
        return self._transitions

    def states(self) -> range:
        return range(self.num_states)

    def edges(self) -> list[tuple[int, str, int]]:
        """Every arc as ``(source, generator, target)``, in sorted order."""
        rows = sorted(zip(self.alphabet, self._fwd))
        return [
            (u, g, v) for u in range(self.num_states) for g, targets in rows if (v := targets[u]) >= 0
        ]

    def member(self, w: Word) -> bool:
        """Does the free reduction of ``w`` trace a closed path at the base?"""
        reduced = free_reduce(w, self.alphabet)
        forward = dict(zip(self.alphabet, self._fwd))
        backward = dict(zip(self.alphabet, self._bwd))
        state = 0
        for gen, k in reduced.syllables:
            row = (forward if k > 0 else backward)[gen]
            for _ in range(abs(k)):
                state = row[state]
                if state < 0:
                    return False
        return state == 0

    def rank(self) -> int:
        """Rank of the represented subgroup: edges - states + 1 on the core."""
        return self.num_edges - self.num_states + 1

    def intersect(self, other: "StallingsGraph") -> "StallingsGraph":
        """Automaton of the subgroup intersection: the core of the product
        automaton based at the pair of bases.

        The product is searched breadth-first from the pair of bases; a pair
        ``(s1, s2)`` is keyed by the int ``s1 * other.num_states + s2`` and
        numbered when first reached.  Each visited state appends, per
        generator in order, its forward and then its backward product target
        (or -1) to that generator's arrays, so the arrays are complete when
        the search ends.  That is the canonical order: breadth-first from the
        base, generators in order, forward before backward.

        The core drops the trees hanging off it.  Such a tree meets the rest
        only in its root, a core state, so the search enters it only through
        that root: every tree state is numbered after its root, and no tree
        state is the first to reach a core state.  Core states are therefore
        reached by core states alone, in the order a search of the core alone
        would reach them, and the product numbering restricted to the core is
        canonical.  Trimming the trees leaf by leaf then only closes up the
        survivors' numbers in order; no renumbering search is needed.
        """
        if self.alphabet != other.alphabet:
            raise InputError("cannot intersect subgroups over different alphabets")
        width = other.num_states
        fwd: list = [[] for _ in self.alphabet]
        bwd: list = [[] for _ in self.alphabet]
        steps = []
        for i in range(len(self.alphabet)):
            steps.append((self._fwd[i], other._fwd[i], fwd[i].append))
            steps.append((self._bwd[i], other._bwd[i], bwd[i].append))
        firsts, seconds = [0], [0]
        claim = {0: 0}.setdefault
        n = 1
        # the lists grow while zip walks them: each state is visited once
        for s1, s2 in zip(firsts, seconds):
            for row1, row2, add in steps:
                t1 = row1[s1]
                t2 = row2[s2]
                if t1 < 0 or t2 < 0:
                    add(-1)
                    continue
                t = claim(t1 * width + t2, n)
                if t == n:
                    n += 1
                    firsts.append(t1)
                    seconds.append(t2)
                add(t)

        rows = fwd + bwd
        degree = [len(arcs) - arcs.count(-1) for arcs in zip(*rows)]
        trim = [s for s in range(1, n) if degree[s] <= 1]
        if trim:
            ends = list(zip(rows, bwd + fwd))
            for s in trim:  # grows as trimming exposes new leaves
                degree[s] = -1
                for row, back in ends:
                    t = row[s]
                    if t >= 0:
                        back[t] = -1
                        degree[t] -= 1
                        if t and degree[t] == 1:
                            trim.append(t)
            keep = [s for s in range(n) if degree[s] >= 0]
            number = [-1] * (n + 1)  # number[-1] stays -1 for a missing arc
            for new, s in enumerate(keep):
                number[s] = new
            fwd = [[number[row[s]] for s in keep] for row in fwd]
            bwd = [[number[row[s]] for s in keep] for row in bwd]
            n = len(keep)
        num_edges = sum(len(row) - row.count(-1) for row in fwd)
        return StallingsGraph._trusted(self.alphabet, n, fwd, bwd, num_edges)

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
            and self._fwd == other._fwd
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.num_states, tuple(map(tuple, self._fwd))))

    def __repr__(self) -> str:
        return (
            f"StallingsGraph(alphabet={self.alphabet!r}, states={self.num_states}, "
            f"edges={self.edges()!r})"
        )


def _core_problem(out: dict, inc: dict, base) -> Optional[str]:
    """What keeps folded label maps from being a core automaton connected to
    the base, or None.  ``out[s]`` and ``inc[s]`` map a generator to the
    target and the source of the arcs it labels at ``s``; both are keyed by
    every state."""
    reach = {base}
    stack = [base]
    while stack:
        s = stack.pop()
        for t in (*out[s].values(), *inc[s].values()):
            if t not in reach:
                reach.add(t)
                stack.append(t)
    if len(reach) != len(out):
        return f"states {sorted(set(out) - reach)} are not connected to the base"
    bad = sorted(s for s in out if s != base and len(out[s]) + len(inc[s]) <= 1)
    if bad:
        return f"non-base states of degree <= 1: {bad} (not a core automaton)"
    return None


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
    """Cored, canonically numbered automaton from folded label maps
    (``out[s]``: generator -> target and ``inc[s]``: generator -> source,
    both keyed by every state).  Every state must be connected to the
    base: ``from_generators`` hangs each arc off a reached state (folding
    keeps that) and ``parse_stallings`` rejects disconnected input.  The core
    is trimmed on the maps themselves: a non-base state of degree
    ``len(out[s]) + len(inc[s]) <= 1`` goes, with its one entry at its
    neighbour, until none is left.  The state arrays are then written while
    the states are numbered breadth-first from the base."""
    trim = [s for s in out if s != base and len(out[s]) + len(inc[s]) <= 1]
    while trim:
        s = trim.pop()
        for arcs, back in ((out, inc), (inc, out)):
            for g, t in arcs.pop(s).items():
                del back[t][g]
                if t != base and len(out[t]) + len(inc[t]) == 1:
                    trim.append(t)

    n = len(out)
    fwd = [[-1] * n for _ in alphabet]
    bwd = [[-1] * n for _ in alphabet]
    steps = [(g, fwd[i], bwd[i]) for i, g in enumerate(alphabet)]
    order = {base: 0}
    queue = [base]
    for here, s in enumerate(queue):
        forward, backward = out[s], inc[s]
        for g, targets, sources in steps:
            for arcs, row in ((forward, targets), (backward, sources)):
                t = arcs.get(g)
                if t is not None:
                    there = order.get(t)
                    if there is None:
                        there = order[t] = len(queue)
                        queue.append(t)
                    row[here] = there
    return StallingsGraph._trusted(alphabet, n, fwd, bwd, sum(map(len, out.values())))


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
    problem = _core_problem(out, inc, base)
    if problem:
        raise ParseError(problem)

    alphabet = tuple(sorted(set(declared) | {g for arcs in out.values() for g in arcs}))
    return _assemble(alphabet, base, out, inc)
