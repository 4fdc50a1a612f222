"""Stallings automata for finitely generated subgroups of free groups.

A subgroup generated by finitely many words is represented by a rooted,
folded, core automaton over the positive generators.  Each freely reduced
generator is read from the base along the transitions already built, from
both ends, and only its unread middle is added as a fresh arc; the result is
folded to determinism once (merging states with union-find until no two
equal labels leave or enter one state), then pruned to its core (no non-base
state of degree one).  Membership is tracing the free reduction of a word
from the base; the rank of the subgroup is ``edges - states + 1``;
intersections come from the product automaton based at the pair of base
states.

States are renumbered by breadth-first search from the base with a fixed
generator order, so equal automata compare equal and isomorphism checks in
tests are plain ``==``.

Text serialization: the base state (always 0) followed by the alphabet on
the first line, then one line ``state_from generator state_to`` per
positively-labeled transition.
"""

from __future__ import annotations

from collections import deque
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
    """

    __slots__ = ("alphabet", "num_states", "transitions", "_inverse")

    base = 0

    def __init__(self, alphabet: tuple[str, ...], num_states: int, transitions: dict):
        self.alphabet = alphabet
        self.num_states = num_states
        self.transitions = dict(transitions)
        inverse = {}
        for (u, g), v in self.transitions.items():
            key = (v, g)
            if key in inverse:  # pragma: no cover - construction guarantees folded
                raise AssertionError("automaton is not folded")
            inverse[key] = u
        self._inverse = inverse

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
        the pair of bases (restricted to its component, then cored)."""
        if self.alphabet != other.alphabet:
            raise InputError("cannot intersect subgroups over different alphabets")
        index = {(0, 0): 0}
        queue = deque([(0, 0)])
        edges = set()
        while queue:
            pair = queue.popleft()
            s1, s2 = pair
            here = index[pair]
            for g in self.alphabet:
                t1 = self.transitions.get((s1, g))
                t2 = other.transitions.get((s2, g))
                if t1 is not None and t2 is not None:
                    target = (t1, t2)
                    if target not in index:
                        index[target] = len(index)
                        queue.append(target)
                    edges.add((here, g, index[target]))
                u1 = self._inverse.get((s1, g))
                u2 = other._inverse.get((s2, g))
                if u1 is not None and u2 is not None:
                    source = (u1, u2)
                    if source not in index:
                        index[source] = len(index)
                        queue.append(source)
                    edges.add((index[source], g, here))
        return _assemble(self.alphabet, 0, edges)

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


def _fold(num_states: int, edges: Iterable[tuple[int, str, int]]):
    """Union-find folding: process edges, merging states whenever two equal
    labels leave (or enter) one state, until the edge set is deterministic.
    Returns (root of state 0, folded edge set over root states)."""
    parent = list(range(num_states))
    size = [1] * num_states

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out: list[dict] = [dict() for _ in range(num_states)]
    inc: list[dict] = [dict() for _ in range(num_states)]
    pending = deque(edges)

    def merge(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        # the loser's transitions get replayed so conflicts surface at the winner
        for g, t in out[b].items():
            pending.append((b, g, t))
        for g, s in inc[b].items():
            pending.append((s, g, b))
        out[b] = {}
        inc[b] = {}

    while pending:
        u, g, v = pending.popleft()
        u, v = find(u), find(v)
        t = out[u].get(g)
        if t is not None:
            t = find(t)
            if t != v:
                merge(t, v)
                pending.append((u, g, v))
                continue
            s = inc[v].get(g)
            if s is None:
                inc[v][g] = u
                continue
            s = find(s)
            if s != u:
                merge(s, u)
                pending.append((u, g, v))
            continue
        s = inc[v].get(g)
        if s is not None:
            s = find(s)
            if s == u:
                out[u][g] = v
                continue
            merge(s, u)
            pending.append((u, g, v))
            continue
        out[u][g] = v
        inc[v][g] = u

    folded = set()
    for u in range(num_states):
        if find(u) == u:
            for g, v in out[u].items():
                folded.add((u, g, find(v)))
    return find(0), folded


def _assemble(alphabet: tuple[str, ...], base, edges) -> StallingsGraph:
    """Cored, canonically renumbered automaton.  The edges must be connected
    to the base: ``intersect`` searches from the base, ``from_generators``
    hangs each arc off a reached state (folding keeps that) and
    ``parse_stallings`` rejects disconnected input."""
    edges = list(edges)
    incident: dict = {base: []}
    for idx, (u, g, v) in enumerate(edges):
        incident.setdefault(u, []).append(idx)
        incident.setdefault(v, []).append(idx)

    # core: repeatedly strip non-base states of degree <= 1
    degree = {s: len(ids) for s, ids in incident.items()}
    live_edge = [True] * len(edges)
    alive = set(incident)
    trim = deque(s for s in alive if s != base and degree[s] <= 1)
    while trim:
        s = trim.popleft()
        if s not in alive:
            continue
        alive.discard(s)
        for idx in incident[s]:
            if not live_edge[idx]:
                continue
            live_edge[idx] = False
            u, _, v = edges[idx]
            other = v if u == s else u
            degree[other] -= 1
            if other != base and other in alive and degree[other] <= 1:
                trim.append(other)

    out = {}
    inc = {}
    for idx, (u, g, v) in enumerate(edges):
        if live_edge[idx]:
            out[(u, g)] = v
            inc[(v, g)] = u

    # canonical numbering: breadth-first from the base, generators in order,
    # forward transition before backward at each label
    order = {base: 0}
    queue = deque([base])
    while queue:
        s = queue.popleft()
        for g in alphabet:
            t = out.get((s, g))
            if t is not None and t not in order:
                order[t] = len(order)
                queue.append(t)
            t = inc.get((s, g))
            if t is not None and t not in order:
                order[t] = len(order)
                queue.append(t)

    transitions = {(order[u], g): order[v] for (u, g), v in out.items()}
    return StallingsGraph(alphabet, len(order), transitions)


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
    edges = []
    # one transition per (state, generator) in each direction, kept so words
    # can be read along what is built; the first one added wins
    out: dict = {}
    inc: dict = {}
    counter = 1
    for w in ws:
        letters = free_reduce(w, known).letters
        n = len(letters)
        if not n:
            continue
        head, i = 0, 0
        while i < n - 1:
            gen, sign = letters[i]
            nxt = (out if sign > 0 else inc).get((head, gen))
            if nxt is None:
                break
            head, i = nxt, i + 1
        tail, j = 0, n
        while j - 1 > i:
            gen, sign = letters[j - 1]
            prev = (inc if sign > 0 else out).get((tail, gen))
            if prev is None:
                break
            tail, j = prev, j - 1
        state = head
        for k in range(i, j):
            gen, sign = letters[k]
            if k == j - 1:
                nxt = tail
            else:
                nxt = counter
                counter += 1
            u, v = (state, nxt) if sign > 0 else (nxt, state)
            edges.append((u, gen, v))
            out.setdefault((u, gen), v)
            inc.setdefault((v, gen), u)
            state = nxt
    base, folded = _fold(counter, edges)
    return _assemble(alpha, base, folded)


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

    out = {}
    inc = {}
    states = {base}
    for u, g, v, lineno in raw:
        if (u, g) in out and out[(u, g)] != v:
            raise ParseError(f"two '{g}' transitions leave state {u}: not folded", line=lineno)
        if (v, g) in inc and inc[(v, g)] != u:
            raise ParseError(f"two '{g}' transitions enter state {v}: not folded", line=lineno)
        out[(u, g)] = v
        inc[(v, g)] = u
        states.add(u)
        states.add(v)

    degree: dict[int, int] = {s: 0 for s in states}
    reach = {base}
    adjacency: dict[int, set[int]] = {s: set() for s in states}
    for (u, g), v in out.items():
        degree[u] += 1
        degree[v] += 1
        adjacency[u].add(v)
        adjacency[v].add(u)
    stack = [base]
    while stack:
        for t in adjacency[stack.pop()]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    if reach != states:
        raise ParseError(f"states {sorted(states - reach)} are not connected to the base")
    bad = sorted(s for s in states if s != base and degree[s] <= 1)
    if bad:
        raise ParseError(f"non-base states of degree <= 1: {bad} (not a core automaton)")

    alphabet = tuple(sorted(set(declared) | {g for (_, g) in out}))
    return _assemble(alphabet, base, [(u, g, v) for (u, g), v in out.items()])
