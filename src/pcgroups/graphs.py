"""Finite simple graphs over string-named vertices.

Everywhere else in the package a graph doubles as a group presentation:
vertices are generators and an edge means the two generators commute.  This
module is purely combinatorial: induced subgraphs, connectivity, the
path-on-three-vertices search, joins and disjoint unions, the exact clique
number, and polynomial tests for an induced P4 or C4.

A graph stores its adjacency: each vertex name maps to the frozenset of its
neighbours.  Parsing, induced subgraphs, joins, unions and relabelling write
neighbour sets directly; the edge set is derived only when it is read.  The
decomposition into complete components reads closed neighbourhoods and
needs no search.

The clique number and the P4 and C4 tests work on adjacency bitmasks, one
Python int per vertex, which each of them builds from the adjacency.  All
three split the graph into components and co-components.  The clique number
counts a single-vertex co-component as 1, so it values a clique part by its
size, and runs a branch and bound cut by greedy colourings (Tomita & Seki's
MCQ) on each part that splits neither way; a P4 shows up when such a part has
two or more vertices (the graph is then not a cograph); a C4 shows up when a
join has two co-components of two or more vertices, or when such a part has
a non-adjacent pair whose common neighbourhood is not a clique.  A union of
cliques builds no bitmasks: its complete components answer all three.

Vertex names are opaque strings ordered lexicographically; every "least
witness" promise made by the search functions refers to that order.  A name
is non-empty and holds no whitespace, ``^`` or ``#``, so that every graph
``format_graph`` writes parses back; generator names in words and automata
follow the same rule.

The builders ``complete_graph``, ``edgeless_graph``, ``path_graph`` and
``cycle_graph`` make at most ``MAX_GRAPH_SIZE`` (10**6) vertices plus
edges, so ``complete_graph(1413)`` is the largest complete graph they
build; a larger count or name list raises ``InputError`` before any name
is made.

Text format (one graph per file): the first non-blank line lists the vertex
names separated by whitespace; every following non-blank line contains
exactly two names and declares an edge.  ``#`` starts a comment, repeating an
edge line is harmless, and a loop ``u u`` is an error.
"""

from __future__ import annotations

from itertools import combinations, islice
from operator import length_hint
from typing import Iterable, Mapping, Optional

from .errors import InputError, ParseError, _instance

__all__ = [
    "MAX_GRAPH_SIZE",
    "SimpleGraph",
    "induced_subgraph",
    "connected_components",
    "find_induced_p3",
    "reflexive_closure_is_transitive",
    "complete_decomposition",
    "disjoint_union",
    "join",
    "relabel",
    "clique_number",
    "complete_graph",
    "edgeless_graph",
    "path_graph",
    "cycle_graph",
    "parse_graph",
    "format_graph",
]

MAX_GRAPH_SIZE = 10**6


class SimpleGraph:
    """An immutable, undirected, loopless graph.

    ``vertices`` is a sorted tuple of names.  The stored shape is adjacency:
    each name maps to the frozenset of its neighbours.  ``edges``, the
    frozenset of pairs ``(u, v)`` with ``u < v``, is derived from it on every
    read; an edge given as ``(v, u)`` comes out as ``(u, v)``, so equality
    and hashing behave as expected.
    """

    __slots__ = ("vertices", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable = ()):
        vs = tuple(_instance(vertices, Iterable))
        _check_names(vs)  # before sorting, which a name of another type breaks
        vs = tuple(sorted(set(vs)))
        adj: dict[str, set[str]] = {v: set() for v in vs}
        for edge in _instance(edges, Iterable):
            try:
                u, v = edge
                u_known, v_known = u in adj, v in adj
            except (TypeError, ValueError):  # not a pair, or an unhashable endpoint
                raise InputError(f"edge {edge!r} is not a pair of vertex names") from None
            if u == v:
                raise InputError(f"loop edge at {u!r} is not allowed")
            if not u_known:
                raise InputError(f"edge endpoint {u!r} is not a vertex")
            if not v_known:
                raise InputError(f"edge endpoint {v!r} is not a vertex")
            adj[u].add(v)
            adj[v].add(u)
        self.vertices = vs
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

    @classmethod
    def _trusted(cls, adj: dict) -> "SimpleGraph":
        """Wrap a map from distinct non-empty names to the frozensets of their
        neighbours, symmetric and loopless, as this library builds it:
        unchecked and uncopied."""
        g = object.__new__(cls)
        g.vertices = tuple(sorted(adj))
        g._adj = adj
        return g

    @property
    def edges(self) -> frozenset:
        return frozenset((u, v) for u in self.vertices for v in self._adj[u] if u < v)

    def adjacent(self, u: str, v: str) -> bool:
        if u not in self._adj:
            raise InputError(f"unknown vertex {u!r}")
        if v not in self._adj:
            raise InputError(f"unknown vertex {v!r}")
        return v in self._adj[u]

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def __contains__(self, v) -> bool:
        return v in self._adj

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph({list(self.vertices)!r}, {sorted(self.edges)!r})"


def _is_name(name) -> bool:
    """A vertex or generator name is a non-empty ``str`` without whitespace,
    ``^`` or ``#``, so that the graph, word and automaton texts written with
    it parse back: whitespace separates tokens, ``^`` starts an exponent and
    ``#`` a comment."""
    return (isinstance(name, str) and name != "" and "^" not in name
            and "#" not in name and name.split() == [name])


def _uncommented_lines(text: str) -> list[str]:
    """The lines of ``text``, each cut at its first ``#``, which starts a
    comment in every text format of the package."""
    lines = text.splitlines()
    if "#" in text:  # most texts hold none
        lines = [line.split("#", 1)[0] for line in lines]
    return lines


def _check_names(names: Iterable) -> None:
    for v in names:
        if not _is_name(v):
            raise InputError(f"vertex names must be non-empty strings without "
                             f"whitespace, '^' or '#', got {v!r}")


def _subset(g: SimpleGraph, ys: Iterable[str]) -> frozenset[str]:
    """The vertex subset ``ys`` of ``g``; raises ``InputError`` naming the
    least item that is not a vertex."""
    adj = _instance(g, SimpleGraph)._adj
    ys = tuple(_instance(ys, Iterable))
    unknown = [y for y in ys if not (isinstance(y, str) and y in adj)]
    if unknown:
        raise InputError(f"unknown vertex {min(unknown, key=str)!r}")
    return frozenset(ys)


def induced_subgraph(g: SimpleGraph, ys: Iterable[str]) -> SimpleGraph:
    """The full subgraph of ``g`` spanned by ``ys``: those vertices and every
    edge of ``g`` with both ends among them."""
    keep = _subset(g, ys)
    adj = g._adj
    return SimpleGraph._trusted({v: adj[v] & keep for v in keep})


def connected_components(g: SimpleGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the vertices into maximal connected blocks.

    Blocks are sorted internally and listed by least member, so the output is
    deterministic.
    """
    seen: set[str] = set()
    blocks = []
    adj = _instance(g, SimpleGraph)._adj
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            new = adj[stack.pop()] - comp
            comp |= new
            stack += new
        seen |= comp
        blocks.append(tuple(sorted(comp)))
    return tuple(blocks)


def find_induced_p3(g: SimpleGraph) -> Optional[tuple[str, str, str]]:
    """Least ordered triple (x, y, z) with edges xy and yz but not xz.

    Returns None exactly when no three vertices induce a path, i.e. when the
    graph is a disjoint union of complete graphs.  Read off the components:
    x is the least vertex with deg(x) < |component(x)| - 1, i.e. whose closed
    neighbourhood N[x] misses part of its (connected) component; y is x's
    least neighbour with a neighbour outside N[x]; z is y's least such one.
    """
    adj = _instance(g, SimpleGraph)._adj
    x = min(
        (v for block in connected_components(g) for v in block if len(adj[v]) < len(block) - 1),
        default=None,
    )
    if x is None:
        return None
    closed = adj[x] | {x}
    y = next(v for v in sorted(adj[x]) if not adj[v] <= closed)
    return (x, y, min(adj[y] - closed))


def reflexive_closure_is_transitive(g: SimpleGraph) -> bool:
    """True iff adjacency-or-equality is a transitive relation on the vertices."""
    adj = _instance(g, SimpleGraph)._adj
    for y in g.vertices:
        for x, z in combinations(adj[y], 2):
            if z not in adj[x]:
                return False
    return True


def complete_decomposition(g: SimpleGraph) -> Optional[tuple[int, ...]]:
    """Component sizes, sorted descending, if every component is complete.

    Returns None as soon as some component misses an edge.  The empty graph
    decomposes into the empty multiset ``()``.  Read off closed
    neighbourhoods, with no search: for the least vertex v not yet placed,
    N[v] is a complete component iff every neighbour u of v has as many
    neighbours as v and all of them in N[v] (then N[u] = N[v]).  Otherwise
    the component of v is not complete.
    """
    adj = _instance(g, SimpleGraph)._adj
    placed: set[str] = set()
    sizes = []
    for v in g.vertices:
        if v in placed:
            continue
        near = adj[v]
        k = len(near)
        closed = near | {v}
        for u in near:
            around = adj[u]
            if len(around) != k or not around <= closed:
                return None
        placed |= near
        sizes.append(k + 1)
    sizes.sort(reverse=True)
    return tuple(sizes)


def _check_disjoint(g1: SimpleGraph, g2: SimpleGraph) -> None:
    clash = set(_instance(g1, SimpleGraph).vertices) & set(_instance(g2, SimpleGraph).vertices)
    if clash:
        raise InputError(
            "vertex names appear on both sides: "
            + ", ".join(sorted(clash))
            + " (rename one side first, e.g. with relabel())"
        )


def disjoint_union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Union of two graphs over disjoint vertex names."""
    _check_disjoint(g1, g2)
    return SimpleGraph._trusted({**g1._adj, **g2._adj})


def join(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus every edge from one side to the other."""
    _check_disjoint(g1, g2)
    side1, side2 = frozenset(g1.vertices), frozenset(g2.vertices)
    adj = {v: near | side2 for v, near in g1._adj.items()}
    adj.update((v, near | side1) for v, near in g2._adj.items())
    return SimpleGraph._trusted(adj)


def relabel(g: SimpleGraph, mapping: dict) -> SimpleGraph:
    """Copy of ``g`` with vertices renamed through an injective mapping."""
    g, mapping = _instance(g, SimpleGraph), _instance(mapping, Mapping)
    missing = [v for v in g.vertices if v not in mapping]
    if missing:
        raise InputError(f"mapping misses vertices: {missing}")
    _check_names(mapping[v] for v in g.vertices)
    if len(set(mapping[v] for v in g.vertices)) != len(g.vertices):
        raise InputError("mapping is not injective on the vertex set")
    adj = g._adj
    return SimpleGraph._trusted(
        {mapping[v]: frozenset(map(mapping.__getitem__, adj[v])) for v in g.vertices}
    )


def _bitsets(g: SimpleGraph) -> list[int]:
    """Adjacency bitmasks, built from the adjacency on every call.

    Vertex sets are Python ints.  Vertices are ranked by degree, highest
    first (ties by name), and the vertex of rank r is bit ``n - 1 - r``, so
    taking a set's highest bit first visits it in rank order.  ``masks[b]``
    is the set of neighbours of the vertex at bit ``b``."""
    adj = _instance(g, SimpleGraph)._adj
    by_bit = sorted(g.vertices, key=lambda v: (-len(adj[v]), v), reverse=True)
    bit = {v: 1 << b for b, v in enumerate(by_bit)}
    return [sum(map(bit.__getitem__, adj[v])) for v in by_bit]


def _components(masks: list[int], s: int, co: bool) -> list[int]:
    """Vertex sets of the components of the subgraph induced on ``s``, or of
    its complement when ``co``."""
    parts = []
    while s:
        top = 1 << (s.bit_length() - 1)
        part = frontier = top
        s ^= top
        while frontier:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            near = s & masks[v]
            new = s ^ near if co else near
            if new:
                s ^= new
                part |= new
                frontier |= new
        parts.append(part)
    return parts


def _split(masks: list[int], s: int) -> tuple[bool, list[int]]:
    """``(False, components)`` of the subgraph induced on ``s`` when it is
    disconnected, else ``(True, co-components)``: the parts of a join.  One
    part means ``s`` splits neither way."""
    parts = _components(masks, s, False)
    if len(parts) != 1:
        return False, parts
    return True, _components(masks, s, True)


def _colour(anti: list[int], bits: list[int], cands: int, floor: int) -> tuple[list, list, int]:
    """Greedy sequential colouring of the vertex set ``cands`` in rank order.

    Each colour class takes the highest uncoloured candidate, then every
    lower one adjacent to none taken so far (``anti[v]`` is every vertex but
    v and its neighbours).  A clique meets each class at most once, so a
    vertex of colour c starts no clique of more than c candidates.  Returns
    the vertices of colour above ``floor`` with their colours, in colour
    order, and the number of colours."""
    verts: list[int] = []
    colours: list[int] = []
    k = 0
    uncoloured = cands
    while uncoloured:
        k += 1
        free = uncoloured
        while free:
            v = free.bit_length() - 1
            free &= anti[v]
            uncoloured ^= bits[v]
            if k > floor:
                verts.append(v)
                colours.append(k)
    return verts, colours, k


def _clique_search(masks: list[int], anti: list[int], bits: list[int], cands: int,
                   best: int, stop: int) -> int:
    """Largest clique within ``cands`` if it exceeds ``best``, else ``best``;
    returns as soon as a clique of ``stop`` vertices is found.

    MCQ-style branch and bound (Tomita & Seki, DMTCS 2003) over bitsets, as
    in San Segundo et al.'s BBMC.  A frame holds a clique size, its
    candidates, and the candidates whose colour could beat the incumbent,
    expanded from the last, i.e. in reverse colour order.  Expanding v drops
    it from its frame's candidates and colours the candidates adjacent to v;
    a frame is abandoned once its clique size plus the next colour cannot
    beat the incumbent.  Candidates that take one colour each are a clique
    and end the branch.  The stack is explicit, so the depth is not bounded
    by the interpreter's recursion limit."""
    stack = []
    size = 0
    while True:
        verts, colours, k = _colour(anti, bits, cands, best - size)
        if k == cands.bit_count():
            if size + k > best:
                best = size + k
                if best >= stop:
                    return best
        elif verts:
            stack.append([size, cands, verts, colours])
        while stack:
            frame = stack[-1]
            size, cands, verts, colours = frame
            if verts and size + colours.pop() > best:
                v = verts.pop()
                frame[1] = cands ^ bits[v]
                size, cands = size + 1, cands & masks[v]
                break
            stack.pop()
        else:
            return best


def _clique_value(masks: list[int], best: int, stop: int) -> int:
    """The clique number if it exceeds ``best``, else ``best``; returns as
    soon as it reaches ``stop``.

    The clique number of a disconnected graph is the largest over its
    components, and that of a graph with a disconnected complement (a join)
    the sum over its co-components.  The vertex set is split that way as far
    as it goes, on an explicit stack of frames (join?, parts left, value so
    far, best, stop), and a part that splits neither way is handed to the
    clique search.  A component is searched with the value so far as its
    incumbent.  A co-component is valued exactly, up to what its join still
    needs to reach ``stop``; a single vertex counts 1 with no frame, so a
    clique is valued by its size."""
    n = len(masks)
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    anti = [full ^ m ^ bits[v] for v, m in enumerate(masks)]

    def frame(s: int, best: int, stop: int) -> list:
        join, parts = _split(masks, s)
        if len(parts) == 1:
            return [False, [], _clique_search(masks, anti, bits, s, best, stop), best, stop]
        if join:  # each single-vertex co-component adds one, with no frame
            big = [p for p in parts if p & (p - 1)]
            return [True, big, len(parts) - len(big), best, stop]
        return [False, parts, best, best, stop]

    stack = [frame(full, best, stop)]
    while True:
        join, parts, value, best, stop = stack[-1]
        if parts and value < stop:
            s = parts.pop()
            stack.append(frame(s, 0, stop - value) if join else frame(s, value, stop))
            continue
        stack.pop()
        value = max(value, best)
        if not stack:
            return value
        parent = stack[-1]
        parent[2] = parent[2] + value if parent[0] else value


def clique_number(g: SimpleGraph) -> int:
    """Size of a largest complete subgraph.

    The graph is split into components, whose largest clique number is the
    graph's, and co-components, whose clique numbers add up.  Each part
    that splits neither way is searched by branch and bound over adjacency
    bitsets with vertices ranked by degree: a greedy colouring of each
    branch's candidates bounds the clique it can reach, and vertices are
    expanded in reverse colour order (Tomita & Seki's MCQ).  Both the split
    and the search keep their own stacks, so the depth is not bounded by the
    interpreter's recursion limit."""
    masks = _bitsets(g)
    return _clique_value(masks, 0, len(masks))


def _has_clique(g: SimpleGraph, n: int) -> bool:
    """Does ``g`` contain n pairwise adjacent vertices?  On a union of
    cliques, read off its largest part; otherwise the clique number's
    computation with an incumbent of n - 1, stopped at the first n-clique."""
    ranks = complete_decomposition(g)
    if ranks is not None:
        return n <= max(ranks, default=0)
    return _clique_value(_bitsets(g), n - 1, n) >= n


def _split_nodes(masks: list[int]):
    """Each vertex set of four or more vertices that the split reaches, as
    ``(s, join, parts)`` from ``_split``: the whole vertex set first, then the
    parts of every set that splits, on an explicit stack.  A set that splits
    neither way (one part) is not split further."""
    stack = [(1 << len(masks)) - 1]
    while stack:
        s = stack.pop()
        if s.bit_count() >= 4:
            join, parts = _split(masks, s)
            yield s, join, parts
            if len(parts) > 1:
                stack.extend(parts)


def _has_induced_p4(g: SimpleGraph) -> bool:
    """Does ``g`` contain an induced path on four vertices?

    A graph is P4-free (a cograph) iff every induced subgraph on at least two
    vertices is disconnected or has a disconnected complement (Seinsche, JCT
    B 1974; Corneil, Lerchs & Stewart Burlingham, DAM 1981).  P4 is connected
    and self-complementary, so it lies in a graph iff it lies in one of its
    components, or in one of its co-components when the graph is connected.
    Sets of at most three vertices cannot hold a P4, and ``_split_nodes``
    skips them; the first set that splits neither way answers yes.  A union
    of cliques holds no induced P3, so no P4, and is not split."""
    return complete_decomposition(g) is None and any(
        len(parts) == 1 for _, _, parts in _split_nodes(_bitsets(g)))


def _has_induced_c4(g: SimpleGraph) -> bool:
    """Does ``g`` contain an induced cycle on four vertices?

    A square is connected, so it lies in one component.  Its complement is
    two disjoint edges, so in a join it lies in one co-component or takes a
    non-adjacent pair from each of two; a co-component of two or more
    vertices is connected in the complement, so it holds such a pair.  The
    graph is split that way, as for the P4 test; on a part that splits
    neither way, a square is a non-adjacent pair u, v with two non-adjacent
    common neighbours, i.e. a common neighbourhood that is not a clique.  A
    union of cliques holds no induced P3, so no square, and is not split."""
    if complete_decomposition(g) is not None:
        return False
    masks = _bitsets(g)
    return any(
        _pair_has_c4(masks, s) if len(parts) == 1
        else join and sum(p & (p - 1) != 0 for p in parts) >= 2
        for s, join, parts in _split_nodes(masks)
    )


def _pair_has_c4(masks: list[int], s: int) -> bool:
    """Does the subgraph induced on ``s`` hold a non-adjacent pair whose
    common neighbourhood is not a clique?"""
    rest_u = s
    while rest_u:
        u = rest_u.bit_length() - 1
        rest_u ^= 1 << u
        near_u = masks[u] & s
        far = rest_u & ~near_u
        while far:
            v = far.bit_length() - 1
            far ^= 1 << v
            rest = near_u & masks[v]
            while rest:
                w = rest.bit_length() - 1
                rest ^= 1 << w
                if rest & masks[w] != rest:
                    return True
    return False


def _names(n_or_names, prefix: str, edges) -> tuple[str, ...]:
    """The names a builder is given, or ``prefix1 .. prefixn`` for a count
    ``n``: an int, and not a bool.  ``edges(n)`` is the edge count of the
    builder's graph on n vertices; raises ``InputError``, before any name is
    made, unless ``prefix`` is a ``str``, and when n + edges(n) passes
    ``MAX_GRAPH_SIZE``."""
    _instance(prefix, str)
    if type(n_or_names) is int:
        if n_or_names < 0:
            raise InputError("vertex count must be >= 0")
        n = n_or_names
        names = (f"{prefix}{i}" for i in range(1, n + 1))  # made after the check below
    elif isinstance(n_or_names, Iterable):
        # one name past the limit already passes it
        names = tuple(islice(n_or_names, MAX_GRAPH_SIZE + 1))
        n = len(names)
    else:
        raise InputError(f"expected an int vertex count or vertex names, "
                         f"got {type(n_or_names).__name__}")
    if n + edges(n) > MAX_GRAPH_SIZE:
        raise InputError(f"the graph would have more than {MAX_GRAPH_SIZE} vertices and edges")
    return tuple(names)


def complete_graph(n_or_names, prefix: str = "v") -> SimpleGraph:
    """Every pair adjacent; at most ``MAX_GRAPH_SIZE`` vertices plus edges
    (n <= 1413)."""
    names = _names(n_or_names, prefix, lambda n: n * (n - 1) // 2)
    return SimpleGraph(names, combinations(names, 2))


def edgeless_graph(n_or_names, prefix: str = "v") -> SimpleGraph:
    """No pair adjacent; at most ``MAX_GRAPH_SIZE`` vertices."""
    return SimpleGraph(_names(n_or_names, prefix, lambda n: 0))


def path_graph(n_or_names, prefix: str = "v") -> SimpleGraph:
    """Path along the names in the order given (v1 - v2 - ... for counts);
    at most ``MAX_GRAPH_SIZE`` vertices plus edges."""
    names = _names(n_or_names, prefix, lambda n: max(n - 1, 0))
    return SimpleGraph(names, zip(names, names[1:]))


def cycle_graph(n_or_names, prefix: str = "v") -> SimpleGraph:
    """Cycle along the names in the order given, n >= 3; at most
    ``MAX_GRAPH_SIZE`` vertices plus edges."""
    names = _names(n_or_names, prefix, lambda n: n)
    if len(names) < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return SimpleGraph(names, list(zip(names, names[1:])) + [(names[-1], names[0])])


def parse_graph(text: str) -> SimpleGraph:
    """Parse the one-graph text format described in the module docstring.

    The text is read once: one loop appends each edge to both endpoints'
    neighbour lists while the text is good.  A fault (a duplicate or ``^``
    name, a line without two names, a loop, an unknown endpoint) stops the
    reading at its line, and the lines left unread give its number."""
    lines = _uncommented_lines(_instance(text, str))
    unread = iter(lines)  # map and filter read no line ahead
    rows = filter(None, map(str.split, unread))
    names = next(rows, ())
    adj: dict[str, list[str]] = {t: [] for t in names}
    header_ok = len(adj) == len(names) and "^" not in "".join(names)
    if header_ok:
        try:
            for u, v in rows:
                if u == v:
                    break
                adj[u].append(v)
                adj[v].append(u)
            else:
                return SimpleGraph._trusted({v: frozenset(near) for v, near in adj.items()})
        except (KeyError, ValueError):  # an unknown endpoint, or not two names
            pass
    line = len(lines) - length_hint(unread)  # the last line read, the bad one
    tokens = lines[line - 1].split()
    if not header_ok:
        seen: set[str] = set()  # add returns None: a name is picked if it holds ^ or repeats
        t = next(t for t in tokens if "^" in t or t in seen or seen.add(t))
        message = f"vertex name {t!r} may not contain '^'" if "^" in t else f"duplicate vertex name {t!r}"
    elif len(tokens) != 2:
        message = f"edge line needs exactly two vertex names, got {len(tokens)}"
    elif tokens[0] == tokens[1]:
        message = f"loop edge '{tokens[0]} {tokens[1]}' is not allowed"
    else:
        message = f"unknown vertex {next(t for t in tokens if t not in adj)!r} in edge"
    raise ParseError(message, line=line)


def format_graph(g: SimpleGraph) -> str:
    """Inverse of parse_graph, with edges listed in sorted order."""
    lines = [" ".join(_instance(g, SimpleGraph).vertices)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
