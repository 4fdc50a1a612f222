"""Finite simple graphs over string-named vertices.

Everywhere else in the package a graph doubles as a group presentation:
vertices are generators and an edge means the two generators commute.  This
module is purely combinatorial: induced subgraphs, connectivity, the
path-on-three-vertices search, joins and disjoint unions, the exact clique
number, and polynomial tests for an induced P4 or C4.

A graph stores its adjacency: each vertex name maps to the frozenset of its
neighbours.  Only this module reads or writes that layout, the ``self-check``
sweep (``_self_check``) included; other layers ask a graph's queries.
Parsing, induced subgraphs, joins, unions and relabelling write
neighbour sets directly; the edge set is derived only when it is read.  The
decomposition into complete components reads closed neighbourhoods and
needs no search.

The clique number and the P4 and C4 tests read one split tree, built per
call: the graph is split into components and co-components, by
breadth-first searches over the adjacency sets, and a part of a split is
split only the other way, down to single vertices and prime parts, which
split neither way.  The clique number adds up a join's parts and takes the
largest of a union's, values a clique part by its size, and runs a branch
and bound cut by greedy colourings (Tomita & Seki's MCQ) on each prime
part, over adjacency bitmasks, one Python int per vertex, built for that
part alone.  A P4 shows up exactly when the tree has a prime part (the
graph is then not a cograph); the P4 test builds no bitmasks.  A C4 shows
up at a join of two parts of two or more vertices each, or inside a prime
part, whose bitmasks the C4 test walks: the 2-paths u - w - v down from
each vertex u to a v that u does not see, and a square when the middles of
one such pair hold a non-adjacent pair.  A cograph builds no bitmasks.
``find_induced_p3`` reads closed neighbourhoods in name order, with no
search.

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

from collections import Counter, defaultdict
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
        self.neighbors(u)  # u is checked before v
        return u in self.neighbors(v)

    def neighbors(self, v: str) -> frozenset[str]:
        """The neighbours of ``v``; the one vertex lookup of the queries."""
        try:
            return self._adj[v]
        except (KeyError, TypeError):  # TypeError: an unhashable value is no vertex either
            raise InputError(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def __contains__(self, v) -> bool:
        try:
            return v in self._adj
        except TypeError:  # unhashable, so no vertex
            return False

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


def _check_names(names: Iterable, what: str = "vertex names must be non-empty strings") -> None:
    """Raises ``InputError`` on the first of ``names`` that is not a name;
    its message opens with ``what``, the rule as said of that kind of name."""
    for v in names:
        if not _is_name(v):
            raise InputError(f"{what} without whitespace, '^' or '#', got {v!r}")


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
    adj = _instance(g, SimpleGraph)._adj
    return tuple(sorted(tuple(sorted(block)) for block in _components(adj, adj)))


def find_induced_p3(g: SimpleGraph) -> Optional[tuple[str, str, str]]:
    """Least ordered triple (x, y, z) with edges xy and yz but not xz.

    Returns None exactly when no three vertices induce a path, i.e. when the
    graph is a disjoint union of complete graphs.  x is the least vertex
    with deg(x) < |component(x)| - 1, i.e. whose closed neighbourhood N[x]
    misses part of its (connected) component; y is x's least neighbour with
    a neighbour outside N[x]; z is y's least such one.  x is found from
    closed neighbourhoods in name order, with no search: the least vertex v
    of a component sees all of it exactly when every neighbour's neighbours
    lie in N[v], and N[v] is then the component; a later vertex of a
    component found so sees all of it exactly when its degree is the
    component's size minus 1.  x is the first vertex to fail either test.
    """
    adj = _instance(g, SimpleGraph)._adj
    size: dict[str, int] = {}  # each vertex of a component found so far -> its size
    for x in g.vertices:
        near = adj[x]
        if x not in size:  # the least vertex of its component
            closed = near | {x}
            if not all(adj[u] <= closed for u in near):
                break
            size.update(dict.fromkeys(closed, len(closed)))
        elif len(near) < size[x] - 1:
            break
    else:
        return None
    closed = adj[x] | {x}
    y = next(v for v in sorted(adj[x]) if not adj[v] <= closed)
    return (x, y, min(adj[y] - closed))


def reflexive_closure_is_transitive(g: SimpleGraph) -> bool:
    """True iff adjacency-or-equality is a transitive relation on the vertices.

    Read straight off the definition: x ~ y and y ~ z give x ~ z.  With x, y
    and z distinct, that says every neighbour x of y sees all of N(y) - {x}.
    A graph has no loops, so x sees that set exactly when N(x) & N(y) has
    |N(y)| - 1 members: one intersection per vertex and neighbour."""
    adj = _instance(g, SimpleGraph)._adj
    for y in g.vertices:
        near = adj[y]
        rest = len(near) - 1
        for x in near:
            if len(adj[x] & near) != rest:
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


def _self_check() -> tuple[int, int]:
    """The number of graphs on at most 5 vertices, a to e, and the number
    on which ``complete_decomposition`` and the independent referee
    ``reflexive_closure_is_transitive`` disagree."""
    checked = 0
    disagreements = 0
    for n in range(6):
        verts = ("a", "b", "c", "d", "e")[:n]
        pairs = list(combinations(verts, 2))
        # the 2^n neighbour sets over verts, built once; flip[w] maps each to
        # the shared copy with w toggled, so a step builds no set
        sets = [frozenset()]
        for v in verts:
            sets += [s | {v} for s in sets]
        shared = dict(zip(sets, sets))
        flip = {w: {s: shared[s ^ {w}] for s in sets} for w in verts}
        adj = dict.fromkeys(verts, sets[0])
        g = SimpleGraph._trusted(adj)  # flipped in place: it never leaves this sweep, no check keeps it
        checked += 1 << len(pairs)
        # reflected Gray code: graph i is graph i - 1 with one pair flipped,
        # the pair at the index of i's lowest set bit
        for i in range(1 << len(pairs)):
            if i:
                u, w = pairs[(i & -i).bit_length() - 1]
                adj[u] = flip[w][adj[u]]
                adj[w] = flip[u][adj[w]]
            if (complete_decomposition(g) is not None) != reflexive_closure_is_transitive(g):
                disagreements += 1
    return checked, disagreements


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


def _bitsets(adj: dict, part) -> list[int]:
    """Adjacency bitmasks of the subgraph induced on ``part``.

    Vertex sets are Python ints.  The vertices are ranked by their degree in
    the whole graph, highest first (ties by name), and the vertex of rank r
    is bit ``n - 1 - r``, so taking a set's highest bit first visits it in
    rank order.  ``masks[b]`` is the set of neighbours in ``part`` of the
    vertex at bit ``b``.  ``bit`` maps a neighbour outside ``part`` to 0 on
    its first lookup, so each lookup is a plain subscript (a ``get`` with a
    default costs 10-20% more)."""
    by_bit = sorted(part, key=lambda v: (-len(adj[v]), v), reverse=True)
    bit = defaultdict(int, {v: 1 << b for b, v in enumerate(by_bit)})
    return [sum(map(bit.__getitem__, adj[v])) for v in by_bit]


def _components(adj: dict, part, co: bool = False) -> list[list[str]]:
    """Vertex lists of the components of the subgraph induced on ``part``,
    or of its complement when ``co``: a breadth-first search that moves out
    of the set of vertices not yet reached, for each vertex it reaches, the
    ones it sees (with ``co``, the ones it does not see).  A step costs what
    it moves plus at most the vertex's degree, and the size of the table
    that holds ``left``: a set keeps its table as it empties, so ``left`` is
    built again once it has fallen below half the size it had when last
    built, and its table stays within a constant factor of what is left."""
    left = set(part)
    half = (len(left) + 1) >> 1
    parts = []
    while left:
        reached = [left.pop()]
        for v in reached:  # grows as it is walked
            new = left - adj[v] if co else left & adj[v]
            if new:
                left -= new
                reached += new
                if len(left) < half:
                    if not left:  # the rest of ``reached`` has nothing to move
                        break
                    left = set(left)
                    half = (len(left) + 1) >> 1
        parts.append(reached)
    return parts


def _split_tree(adj: dict) -> list:
    """The nodes of the split tree of the graph with adjacency ``adj`` (its
    cotree, where it is a cograph), the root first.

    The root is the union of the graph's components.  A component of two or
    more vertices is connected, so it is split into its co-components, the
    parts of a join; a co-component's complement is connected, so it is
    split into its components; a part is split only that other way.  A union
    or a join is a tuple ``(join?, ones, kids)``: ``ones`` counts its
    single-vertex parts, and ``kids`` holds the nodes of its larger parts.
    A part that splits neither way is prime: its node is the list of its
    vertices, four or more, since every graph on two or three vertices
    splits.  Parts wait on an explicit stack, so the depth is not bounded by
    the interpreter's recursion limit, and a part's vertex list is dropped
    once it is split, so the tree holds O(n) references.

    Each part is split by its own search, so a deep tree repeats that search
    once per level: a threshold graph (vertex i sees every earlier vertex
    when i is odd) of n vertices has about n levels, each searched over up
    to n vertices.  Its P4 test, clique number and C4 test each take about
    0.09, 0.35 and 1.4 s at n = 500, 1,000 and 2,000 (CPython 3.11, 2
    vCPUs), 4 times more per doubling.  A search set that kept its table
    size as it emptied made each step cost the whole part, and each took
    about 37 s at n = 2,000."""
    nodes: list = []
    stack = [(adj, False, [])]
    while stack:
        part, co, siblings = stack.pop()
        parts = _components(adj, part, co)
        if len(parts) == 1 and nodes:  # below the root, a part that splits neither way
            node = parts[0]
        else:
            big = [p for p in parts if len(p) > 1]
            node = (co, len(parts) - len(big), [])
            stack += [(p, not co, node[2]) for p in big]
        siblings.append(node)
        nodes.append(node)
    return nodes


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


def _clique_search(masks: list[int], best: int, stop: int) -> int:
    """Largest clique of the graph with adjacency bitmasks ``masks`` if it
    exceeds ``best``, else ``best``; returns as soon as a clique of ``stop``
    vertices is found.

    MCQ-style branch and bound (Tomita & Seki, DMTCS 2003) over bitsets, as
    in San Segundo et al.'s BBMC.  A frame holds a clique size, its
    candidates, and the candidates whose colour could beat the incumbent,
    expanded from the last, i.e. in reverse colour order.  Expanding v drops
    it from its frame's candidates and colours the candidates adjacent to v;
    a frame is abandoned once its clique size plus the next colour cannot
    beat the incumbent.  Candidates that take one colour each are a clique
    and end the branch.  The stack is explicit, so the depth is not bounded
    by the interpreter's recursion limit."""
    cands = (1 << len(masks)) - 1
    bits = [1 << v for v in range(len(masks))]
    anti = [cands ^ m ^ b for m, b in zip(masks, bits)]
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


def _clique_value(adj: dict, best: int, stop: int) -> int:
    """The clique number of the graph with adjacency ``adj`` if it exceeds
    ``best``, else ``best``; returns as soon as it reaches ``stop``.

    The clique number of a union is the largest over its parts, and that of
    a join the sum over its parts.  The split tree is folded on an explicit
    stack of frames (join?, kids left, value so far, best, stop), and only a
    prime part is handed, with its own bitmasks, to the clique search.  A
    part of a union is valued with the value so far as its incumbent.  A
    part of a join is valued exactly, up to what its join still needs to
    reach ``stop``.  A single vertex counts 1 with no frame, so a clique is
    valued by its size.  The frames pop the tree's kid lists, which belong
    to this call alone."""

    def frame(node, best: int, stop: int) -> list:
        if type(node) is list:  # a prime part
            return [False, [], _clique_search(_bitsets(adj, node), best, stop), best, stop]
        join, ones, kids = node
        if join:
            return [True, kids, ones, best, stop]
        return [False, kids, max(best, 1) if ones else best, best, stop]

    stack = [frame(_split_tree(adj)[0], best, stop)]
    while True:
        join, kids, value, best, stop = stack[-1]
        if kids and value < stop:
            node = kids.pop()
            stack.append(frame(node, 0, stop - value) if join else frame(node, value, stop))
            continue
        stack.pop()
        value = max(value, best)
        if not stack:
            return value
        parent = stack[-1]
        parent[2] = parent[2] + value if parent[0] else value


def clique_number(g: SimpleGraph) -> int:
    """Size of a largest complete subgraph.

    The graph is split, on its adjacency sets, into components, whose
    largest clique number is the graph's, and co-components, whose clique
    numbers add up.  Only a part that splits neither way gets adjacency
    bitsets, with its vertices ranked by degree, and is searched by branch
    and bound over them: a greedy colouring of each branch's candidates
    bounds the clique it can reach, and vertices are expanded in reverse
    colour order (Tomita & Seki's MCQ).  A cograph builds no bitsets.  Both
    the split and the search keep their own stacks, so the depth is not
    bounded by the interpreter's recursion limit."""
    adj = _instance(g, SimpleGraph)._adj
    return _clique_value(adj, 0, len(adj))


def _has_clique(g: SimpleGraph, n: int) -> bool:
    """Does ``g`` contain n pairwise adjacent vertices?  The clique number's
    computation with an incumbent of n - 1, stopped at the first n-clique;
    a union of cliques is a union of joins of single vertices, valued with
    no bitsets."""
    return _clique_value(g._adj, n - 1, n) >= n


def _has_induced_p4(g: SimpleGraph) -> bool:
    """Does ``g`` contain an induced path on four vertices?

    A graph is P4-free (a cograph) iff every induced subgraph on at least two
    vertices is disconnected or has a disconnected complement (Seinsche, JCT
    B 1974; Corneil, Lerchs & Stewart Burlingham, DAM 1981), i.e. iff its
    split tree has no prime part.  It builds no bitsets."""
    return any(type(node) is list for node in _split_tree(g._adj))


def _has_square(masks: list[int]) -> bool:
    """Does the graph with adjacency bitmasks ``masks`` contain an induced
    cycle on four vertices?

    A square is a non-adjacent pair u, v with two non-adjacent common
    neighbours.  It is found from its vertex u of highest bit: the other
    end v of u's diagonal and both middles sit at lower bits, so the square
    closes a 2-path u - w - v walked down from u (Chiba & Nishizeki, SIAM J.
    Comput. 1985).  Each u takes ``near``, its lower neighbours, and
    ``far``, the lower vertices it does not see.  A u that sees every lower
    vertex is passed over; otherwise ``far`` is cut to the vertices two
    steps away through ``near``, and a v left closes a square exactly when
    the vertices of ``near`` that it sees are not a clique."""
    for u, mask in enumerate(masks):
        lower = (1 << u) - 1
        near, far = mask & lower, lower & ~mask
        if far:  # else u sees every lower vertex
            reach, rest = 0, near
            while rest:
                w = rest.bit_length() - 1
                rest ^= 1 << w
                reach |= masks[w]
            far &= reach
        while far:
            v = far.bit_length() - 1
            far ^= 1 << v
            rest = near & masks[v]
            while rest:
                w = rest.bit_length() - 1
                rest ^= 1 << w
                if rest & masks[w] != rest:
                    return True
    return False


def _has_induced_c4(g: SimpleGraph) -> bool:
    """Does ``g`` contain an induced cycle on four vertices?

    A square is connected, so it lies in one part of a union.  Its
    complement, two disjoint edges, is not, so in a join it lies in one
    part or takes a non-adjacent pair from each of two parts; a part of two
    or more vertices always holds such a pair, as its complement is
    connected.  So the split tree answers yes at a join with two kids, and
    only a prime part gets bitsets, for the walk of ``_has_square``."""
    adj = g._adj
    return any(_has_square(_bitsets(adj, node)) if type(node) is list else node[0] and len(node[2]) > 1
               for node in _split_tree(adj))


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
    _check_names(names)
    full = frozenset(names)
    if len(full) < len(names):  # the pair of a repeated name with itself is a loop
        twice = next(v for v, count in Counter(names).items() if count > 1)
        raise InputError(f"loop edge at {twice!r} is not allowed")
    return SimpleGraph._trusted({v: full - {v} for v in sorted(full)})


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
