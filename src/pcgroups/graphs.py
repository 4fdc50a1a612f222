"""Finite simple graphs over string-named vertices.

Everywhere else in the package a graph doubles as a group presentation:
vertices are generators and an edge means the two generators commute.  This
module is purely combinatorial: induced subgraphs, connectivity, the
path-on-three-vertices search, joins and disjoint unions, induced-pattern
matching, and exact clique number.

Vertex names are opaque strings ordered lexicographically; every "least
witness" promise made by the search functions refers to that order.

Text format (one graph per file): the first non-blank line lists the vertex
names separated by whitespace; every following non-blank line contains
exactly two names and declares an edge.  ``#`` starts a comment, repeating an
edge line is harmless, and a loop ``u u`` is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import InputError, ParseError

__all__ = [
    "SimpleGraph",
    "InducedEmbedding",
    "induced_subgraph",
    "connected_components",
    "find_induced_p3",
    "reflexive_closure_is_transitive",
    "complete_decomposition",
    "disjoint_union",
    "join",
    "relabel",
    "find_induced_embedding",
    "clique_number",
    "complete_graph",
    "edgeless_graph",
    "path_graph",
    "cycle_graph",
    "parse_graph",
    "format_graph",
]


class SimpleGraph:
    """An immutable, undirected, loopless graph.

    ``vertices`` is a sorted tuple of names and ``edges`` a frozenset of
    pairs ``(u, v)`` with ``u < v``; the same edge given as ``(v, u)`` is
    stored canonically, so equality and hashing behave as expected.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable = ()):
        vs = tuple(sorted(set(vertices)))
        for v in vs:
            if not isinstance(v, str) or not v:
                raise InputError(f"vertex names must be non-empty strings, got {v!r}")
        adj: dict[str, set[str]] = {v: set() for v in vs}
        canon = set()
        for pair in edges:
            u, v = pair
            if u == v:
                raise InputError(f"loop edge at {u!r} is not allowed")
            if u not in adj:
                raise InputError(f"edge endpoint {u!r} is not a vertex")
            if v not in adj:
                raise InputError(f"edge endpoint {v!r} is not a vertex")
            canon.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        self.vertices = vs
        self.edges = frozenset(canon)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

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
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph({list(self.vertices)!r}, {sorted(self.edges)!r})"


def induced_subgraph(g: SimpleGraph, ys: Iterable[str]) -> SimpleGraph:
    """The full subgraph of ``g`` spanned by ``ys``: those vertices and every
    edge of ``g`` with both ends among them."""
    keep = set(ys)
    for y in sorted(keep):
        if y not in g._adj:
            raise InputError(f"unknown vertex {y!r}")
    return SimpleGraph(keep, (e for e in g.edges if e[0] in keep and e[1] in keep))


def connected_components(g: SimpleGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the vertices into maximal connected blocks.

    Blocks are sorted internally and listed by least member, so the output is
    deterministic.
    """
    seen: set[str] = set()
    blocks = []
    adj = g._adj
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
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
    adj = g._adj
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
    adj = g._adj
    for y in g.vertices:
        for x, z in combinations(adj[y], 2):
            if z not in adj[x]:
                return False
    return True


def complete_decomposition(g: SimpleGraph) -> Optional[tuple[int, ...]]:
    """Component sizes, sorted descending, if every component is complete.

    Returns None as soon as some component misses an edge.  The empty graph
    decomposes into the empty multiset ``()``.
    """
    adj = g._adj
    sizes = []
    for block in connected_components(g):
        k = len(block)
        if any(len(adj[v]) != k - 1 for v in block):
            return None
        sizes.append(k)
    return tuple(sorted(sizes, reverse=True))


def _check_disjoint(g1: SimpleGraph, g2: SimpleGraph) -> None:
    clash = set(g1.vertices) & set(g2.vertices)
    if clash:
        raise InputError(
            "vertex names appear on both sides: "
            + ", ".join(sorted(clash))
            + " (rename one side first, e.g. with relabel())"
        )


def disjoint_union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Union of two graphs over disjoint vertex names."""
    _check_disjoint(g1, g2)
    return SimpleGraph(g1.vertices + g2.vertices, list(g1.edges) + list(g2.edges))


def join(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus every edge from one side to the other."""
    _check_disjoint(g1, g2)
    edges = list(g1.edges) + list(g2.edges)
    edges.extend((u, v) for u in g1.vertices for v in g2.vertices)
    return SimpleGraph(g1.vertices + g2.vertices, edges)


def relabel(g: SimpleGraph, mapping: dict) -> SimpleGraph:
    """Copy of ``g`` with vertices renamed through an injective mapping."""
    missing = [v for v in g.vertices if v not in mapping]
    if missing:
        raise InputError(f"mapping misses vertices: {missing}")
    if len(set(mapping[v] for v in g.vertices)) != len(g.vertices):
        raise InputError("mapping is not injective on the vertex set")
    return SimpleGraph(
        (mapping[v] for v in g.vertices),
        ((mapping[u], mapping[v]) for u, v in g.edges),
    )


@dataclass(frozen=True)
class InducedEmbedding:
    """An injective map pattern-vertex -> host-vertex preserving both edges
    and non-edges, stored as pairs sorted by pattern vertex."""

    pairs: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def image(self) -> tuple[str, ...]:
        return tuple(sorted(h for _, h in self.pairs))


def find_induced_embedding(
    pattern: SimpleGraph, host: SimpleGraph
) -> Optional[InducedEmbedding]:
    """First injective edge-and-non-edge-preserving map found by backtracking.

    Pattern vertices are assigned in sorted order and host candidates tried in
    sorted order, so the returned witness is deterministic.  Candidates of too
    small degree are pruned.
    """
    pverts = pattern.vertices
    hverts = host.vertices
    if len(pverts) > len(hverts):
        return None
    padj = pattern._adj
    hadj = host._adj
    assigned: dict[str, str] = {}
    used: set[str] = set()

    def place(i: int) -> bool:
        if i == len(pverts):
            return True
        p = pverts[i]
        pn = padj[p]
        pdeg = len(pn)
        for h in hverts:
            if h in used or len(hadj[h]) < pdeg:
                continue
            hn = hadj[h]
            if all((q in pn) == (assigned[q] in hn) for q in assigned):
                assigned[p] = h
                used.add(h)
                if place(i + 1):
                    return True
                del assigned[p]
                used.discard(h)
        return False

    if not place(0):
        return None
    return InducedEmbedding(tuple((p, assigned[p]) for p in pverts))


def clique_number(g: SimpleGraph) -> int:
    """Size of a largest complete subgraph, by branch and bound.

    Vertices are expanded in degree-descending order and a branch is cut when
    even taking every remaining candidate cannot beat the incumbent.  The
    search keeps its own stack of (size, candidates, next index) frames, so
    its depth is not bounded by the interpreter's recursion limit.
    """
    adj = g._adj
    order = sorted(g.vertices, key=lambda v: (-len(adj[v]), v))
    best = 0
    stack = [(0, order, 0)]
    while stack:
        size, cands, i = stack.pop()
        if size + len(cands) - i <= best:
            continue
        nv = adj[cands[i]]
        stack.append((size, cands, i + 1))
        stack.append((size + 1, [u for u in cands[i + 1 :] if u in nv], 0))
        if size >= best:
            best = size + 1
    return best


def _names(n_or_names, prefix: str) -> tuple[str, ...]:
    if isinstance(n_or_names, int):
        if n_or_names < 0:
            raise InputError("vertex count must be >= 0")
        return tuple(f"{prefix}{i}" for i in range(1, n_or_names + 1))
    return tuple(n_or_names)


def complete_graph(n_or_names, prefix: str = "v") -> SimpleGraph:
    names = _names(n_or_names, prefix)
    return SimpleGraph(names, combinations(names, 2))


def edgeless_graph(n_or_names, prefix: str = "v") -> SimpleGraph:
    return SimpleGraph(_names(n_or_names, prefix))


def path_graph(n_or_names, prefix: str = "v") -> SimpleGraph:
    """Path along the names in the order given (v1 - v2 - ... for counts)."""
    names = _names(n_or_names, prefix)
    return SimpleGraph(names, zip(names, names[1:]))


def cycle_graph(n_or_names, prefix: str = "v") -> SimpleGraph:
    names = _names(n_or_names, prefix)
    if len(names) < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return SimpleGraph(names, list(zip(names, names[1:])) + [(names[-1], names[0])])


def parse_graph(text: str) -> SimpleGraph:
    """Parse the one-graph text format described in the module docstring."""
    vertices: Optional[list[str]] = None
    known: set[str] = set()
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if vertices is None:
            seen: set[str] = set()
            for t in tokens:
                if "^" in t:
                    raise ParseError(
                        f"vertex name {t!r} may not contain '^'", line=lineno
                    )
                if t in seen:
                    raise ParseError(f"duplicate vertex name {t!r}", line=lineno)
                seen.add(t)
            vertices = tokens
            known = seen
            continue
        if len(tokens) != 2:
            raise ParseError(
                f"edge line needs exactly two vertex names, got {len(tokens)}",
                line=lineno,
            )
        u, v = tokens
        if u == v:
            raise ParseError(f"loop edge '{u} {v}' is not allowed", line=lineno)
        for t in (u, v):
            if t not in known:
                raise ParseError(f"unknown vertex {t!r} in edge", line=lineno)
        edges.append((u, v))
    return SimpleGraph(vertices or (), edges)


def format_graph(g: SimpleGraph) -> str:
    """Inverse of parse_graph, with edges listed in sorted order."""
    lines = [" ".join(g.vertices)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
