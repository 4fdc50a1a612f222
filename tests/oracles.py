"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written from first principles (breadth-first
search over rewriting moves, exhaustive enumeration, bitmask subset scans)
so it shares no code path with the implementations it checks.
"""

import itertools
from collections import defaultdict
from functools import lru_cache

from pcgroups import SimpleGraph


def letters_of(word):
    """The ``(gen, sign)`` pairs a ``Word`` spells, one per letter."""
    return tuple((gen, 1 if k > 0 else -1) for gen, k in word.syllables for _ in range(abs(k)))


def letter_key(letter):
    gen, sign = letter
    return (gen, 0 if sign > 0 else 1)


def word_key(letters):
    return tuple(letter_key(l) for l in letters)


def bfs_reachable(letters, g):
    """All words reachable by deleting adjacent inverse pairs and swapping
    adjacent commuting letters."""
    letters = tuple((gen, sign) for gen, sign in letters)
    seen = {letters}
    frontier = [letters]
    while frontier:
        new = []
        for w in frontier:
            for i in range(len(w) - 1):
                (g1, s1), (g2, s2) = w[i], w[i + 1]
                if g1 == g2 and s1 == -s2:
                    cand = w[:i] + w[i + 2 :]
                    if cand not in seen:
                        seen.add(cand)
                        new.append(cand)
                elif g1 != g2 and g.adjacent(g1, g2):
                    cand = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                    if cand not in seen:
                        seen.add(cand)
                        new.append(cand)
        frontier = new
    return seen


def oracle_normal_form(letters, g):
    """Lexicographically least among the shortest reachable words."""
    reach = bfs_reachable(letters, g)
    shortest = min(len(w) for w in reach)
    return min((w for w in reach if len(w) == shortest), key=word_key)


def free_reduce(letters):
    """Stack-based free reduction over tuples of (gen, sign)."""
    out = []
    for gen, sign in letters:
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def insertion_normal_form(letters, edges):
    """Normal form by insertion, one letter at a time, for long words.

    The output so far is the normal form of the prefix read.  A new letter
    walks back over the suffix of letters whose generators it commutes
    with.  If the letter just before that suffix is its inverse, the two
    cancel: every letter between them commutes with it, so none was held
    in place by it.  Otherwise it goes in before the first letter of the
    suffix that is greater than it, the lexicographically least place it
    can take.  ``edges`` are pairs of commuting generators.
    """
    commute = {frozenset(e) for e in edges}
    out = []
    for gen, sign in letters:
        j = len(out)
        while j and out[j - 1][0] != gen and frozenset((gen, out[j - 1][0])) in commute:
            j -= 1
        if j and out[j - 1] == (gen, -sign):
            del out[j - 1]
            continue
        while j < len(out) and letter_key(out[j]) < letter_key((gen, sign)):
            j += 1
        out.insert(j, (gen, sign))
    return tuple(out)


def bouquet_automaton(generator_words, alphabet):
    """Stallings automaton of the subgroup of the free group on ``alphabet``
    generated by the words, as text in the Stallings serialization.

    A bouquet of one loop per freely reduced word is folded by repeatedly
    identifying the ends of two equally labelled edges that share a start or
    an end, then non-base states of degree one are stripped until none is
    left.  States are numbered breadth-first from the base, generators in
    alphabet order, the forward transition before the backward one.

    The fold is a worklist over an index of each state's edges by label,
    one index for the edges leaving and one for those entering: an edge
    whose label is already held at its end queues the two far ends to be
    identified, and identifying two states moves the larger one's edges to
    the smaller one's index.  No edge is looked at again but when one of
    its ends is identified.
    """
    edges = set()
    fresh = itertools.count(1)
    for w in generator_words:
        t = free_reduce(tuple((g, s) for g, s in w))
        if not t:
            continue
        path = [0] + [next(fresh) for _ in range(len(t) - 1)] + [0]
        for (gen, sign), u, v in zip(t, path, path[1:]):
            edges.add((u, gen, v) if sign > 0 else (v, gen, u))

    parent = {}

    def find(s):
        while s in parent:
            s = parent[s]
        return s

    leaving, entering = {}, {}  # state -> {label: state at the edge's other end}
    queue = []

    def index(by_state, s, g, t):
        held = by_state.setdefault(s, {}).setdefault(g, t)
        if find(held) != find(t):
            queue.append((held, t))

    for u, g, v in edges:
        index(leaving, u, g, v)
        index(entering, v, g, u)
    while queue:
        x, y = (find(s) for s in queue.pop())
        if x != y:
            keep, drop = min(x, y), max(x, y)
            parent[drop] = keep
            for by_state in (leaving, entering):
                for g, t in by_state.pop(drop, {}).items():
                    index(by_state, keep, g, t)
    edges = {(find(u), g, find(v)) for u, labels in leaving.items() for g, v in labels.items()}

    return _core_text(edges, 0, alphabet)


def intersection_automaton(text1, text2, alphabet):
    """Stallings automaton of the intersection of the subgroups that two
    automata in the Stallings serialization (base 0) represent, as text.

    The set product of their edge sets, pairing equal labels, is based at
    the pair of bases; its base component is cored and numbered as
    ``bouquet_automaton`` does.
    """
    edges = {
        ((u1, u2), g, (v1, v2))
        for u1, g, v1 in _text_edges(text1)
        for u2, h, v2 in _text_edges(text2)
        if g == h
    }
    return _core_text(edges, (0, 0), alphabet)


def expanded_rows(sg):
    """The forward row of each generator of a ``StallingsGraph`` with one
    state per letter, numbered canonically, read off its stored shape the
    slow way: every long arc ``x^L`` is spelled out by L - 1 fresh states,
    then all states are renumbered breadth-first from the base, along the
    rows in their order (generators in order, forward before backward)."""
    stored = len(sg._rows[0]) if sg._rows else 1
    pad = [-1] * (sg.num_states - stored)
    rows = [row + pad for row in sg._rows]
    fresh = stored
    for r in range(0, len(rows), 2):
        row, back = rows[r], rows[r + 1]
        for s, length in sg._lengths[r].items():
            path = [s, *range(fresh, fresh + length - 1), -2 - row[s]]
            fresh += length - 1
            for u, v in zip(path, path[1:]):
                row[u] = v
                back[v] = u
    number = {0: 0}
    queue = [0]
    for s in queue:
        for row in rows:
            if row[s] >= 0 and row[s] not in number:
                number[row[s]] = len(number)
                queue.append(row[s])
    renamed = []
    for row in rows[::2]:
        out = [-1] * fresh
        for s, t in enumerate(row):
            if t >= 0:
                out[number[s]] = number[t]
        renamed.append(out)
    return renamed


def expanded_edges(sg):
    """Every arc of a ``StallingsGraph``, one per letter, as ``(source,
    generator, target)`` in sorted order, from ``expanded_rows``."""
    rows = expanded_rows(sg)
    return [(u, g, row[u]) for u in range(sg.num_states) for g, row in zip(sg.alphabet, rows) if row[u] >= 0]


def stallings_text(alphabet, edges):
    """The Stallings text form of ``edges``, written a line at a time."""
    lines = [" ".join(("0",) + tuple(alphabet))]
    lines.extend(f"{u} {g} {v}" for u, g, v in edges)
    return "\n".join(lines) + "\n"


def dot_text(num_states, edges):
    """The DOT form of an automaton's ``edges``, written a line at a time:
    a backslash or a double quote in a label is escaped with a backslash."""
    lines = ["digraph stallings {", "  rankdir=LR;", '  0 [shape=doublecircle, label="0"];']
    for s in range(1, num_states):
        lines.append(f'  {s} [shape=circle, label="{s}"];')
    for u, g, v in edges:
        label = g.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {u} -> {v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _text_edges(text):
    return {(int(u), g, int(v)) for u, g, v in (line.split() for line in text.splitlines()[1:])}


def _core_text(edges, base, alphabet):
    """Strip non-base states of degree one until none is left, then number
    the base's component breadth-first from the base, generators in alphabet
    order, the forward transition before the backward one, and write that
    component in the Stallings serialization."""
    while True:
        degree = {}
        for u, _, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        leaves = {s for s, d in degree.items() if s != base and d == 1}
        if not leaves:
            break
        edges = {(u, g, v) for u, g, v in edges if u not in leaves and v not in leaves}

    # the far ends of each state's arcs per label, forward and backward, in
    # the order of the sorted edges
    ahead, behind = defaultdict(list), defaultdict(list)
    for u, g, v in sorted(edges):
        ahead[u, g].append(v)
        behind[v, g].append(u)
    order = {base: 0}
    queue = [base]
    for s in queue:
        for gen in alphabet:
            for far in (*ahead[s, gen], *behind[s, gen]):
                if far not in order:
                    order[far] = len(order)
                    queue.append(far)
    lines = [" ".join(("0",) + tuple(alphabet))]
    lines.extend(
        f"{u} {g} {v}"
        for u, g, v in sorted((order[u], g, order[v]) for u, g, v in edges if u in order)
    )
    return "\n".join(lines) + "\n"


def subgroup_ball(generator_words, depth):
    """Reduced forms of every product of at most ``depth`` factors drawn from
    the generators and their inverses."""
    gens = []
    for w in generator_words:
        t = free_reduce(tuple((g, s) for g, s in w))
        if t:
            gens.append(t)
            gens.append(tuple((g, -s) for g, s in reversed(t)))
    seen = {()}
    frontier = [()]
    for _ in range(depth):
        new = []
        for el in frontier:
            for gw in gens:
                prod = list(el)
                for l in gw:
                    if prod and prod[-1] == (l[0], -l[1]):
                        prod.pop()
                    else:
                        prod.append(l)
                prod = tuple(prod)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


def random_reduced_word(rng, alphabet, max_len):
    length = rng.randrange(max_len + 1)
    out = []
    while len(out) < length:
        cand = (rng.choice(alphabet), rng.choice((1, -1)))
        if out and out[-1] == (cand[0], -cand[1]):
            continue
        out.append(cand)
    return tuple(out)


def random_word(rng, alphabet, max_len):
    length = rng.randrange(max_len + 1)
    return tuple((rng.choice(alphabet), rng.choice((1, -1))) for _ in range(length))


NAMES = tuple("abcdefg")


def all_labeled_graphs(n):
    """Every labeled graph on the first n standard vertex names."""
    names = NAMES[:n]
    pairs = list(itertools.combinations(names, 2))
    for mask in range(1 << len(pairs)):
        yield SimpleGraph(names, (p for i, p in enumerate(pairs) if mask >> i & 1))


def graph_from_mask(n, mask):
    names = NAMES[:n]
    pairs = list(itertools.combinations(names, 2))
    return SimpleGraph(names, (p for i, p in enumerate(pairs) if mask >> i & 1))


@lru_cache(maxsize=None)
def _subset_clique_table(n):
    """(size, edge-bitmask) per vertex subset, largest subsets first."""
    pairs = list(itertools.combinations(range(n), 2))
    pidx = {p: i for i, p in enumerate(pairs)}
    table = []
    for smask in range(1 << n):
        members = [i for i in range(n) if smask >> i & 1]
        em = 0
        for p in itertools.combinations(members, 2):
            em |= 1 << pidx[p]
        table.append((len(members), em))
    table.sort(key=lambda t: -t[0])
    return tuple(table)


def clique_oracle_mask(n, gmask):
    """Exhaustive subset brute force for the clique number of an n-vertex
    graph given as an edge bitmask."""
    for size, em in _subset_clique_table(n):
        if gmask & em == em:
            return size
    return 0


def graph_to_mask(g):
    names = g.vertices
    pairs = list(itertools.combinations(names, 2))
    mask = 0
    for i, p in enumerate(pairs):
        if p in g.edges:
            mask |= 1 << i
    return mask


def clique_oracle(g):
    return clique_oracle_mask(len(g.vertices), graph_to_mask(g))


def graph_text_outcome(text):
    """What a graph text means, read one line at a time: ``("graph",
    vertices, edges)`` with the sorted names and the set of sorted pairs, or
    ``("error", message)`` with the message, prefixed by its line number,
    for the first fault in line order."""
    vertices, edges = None, set()
    for number, line in enumerate(text.splitlines(), start=1):
        tokens = line.partition("#")[0].split()
        if not tokens:
            continue
        if vertices is None:
            vertices = []
            for name in tokens:
                if "^" in name:
                    return "error", f"line {number}: vertex name {name!r} may not contain '^'"
                if name in vertices:
                    return "error", f"line {number}: duplicate vertex name {name!r}"
                vertices.append(name)
            continue
        if len(tokens) != 2:
            return "error", f"line {number}: edge line needs exactly two vertex names, got {len(tokens)}"
        u, v = tokens
        if u == v:
            return "error", f"line {number}: loop edge '{u} {v}' is not allowed"
        for name in (u, v):
            if name not in vertices:
                return "error", f"line {number}: unknown vertex {name!r} in edge"
        edges.add((min(u, v), max(u, v)))
    return "graph", tuple(sorted(vertices or ())), edges


def bfs_components(g):
    """The connected blocks of ``g`` by breadth-first search from each
    vertex not yet reached, in vertex order, each block sorted."""
    reached, blocks = set(), []
    for start in g.vertices:
        if start in reached:
            continue
        block, queue = [start], [start]
        reached.add(start)
        for v in queue:
            for u in g.vertices:
                if u not in reached and g.adjacent(u, v):
                    reached.add(u)
                    block.append(u)
                    queue.append(u)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def brute_induced_embedding_exists(pattern, host):
    """Try every injective vertex assignment."""
    pv = pattern.vertices
    for image in itertools.permutations(host.vertices, len(pv)):
        ok = True
        for i, j in itertools.combinations(range(len(pv)), 2):
            if pattern.adjacent(pv[i], pv[j]) != host.adjacent(image[i], image[j]):
                ok = False
                break
        if ok:
            return True
    return False


@lru_cache(maxsize=None)
def iso_representative_masks(n):
    """Canonical minimum edge bitmask of every isomorphism class of n-vertex
    graphs, enumerated with numpy; extended vertex by vertex above n=5."""
    import numpy as np

    if n <= 1:
        return (0,)
    pairs = list(itertools.combinations(range(n), 2))
    pidx = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    perms = list(itertools.permutations(range(n)))
    maps = np.empty((len(perms), m), dtype=np.int64)
    for k, p in enumerate(perms):
        for i, (u, v) in enumerate(pairs):
            a, b = p[u], p[v]
            maps[k, i] = pidx[(a, b) if a < b else (b, a)]
    if n <= 5:
        masks = np.arange(1 << m, dtype=np.int64)
    else:
        prev_pairs = list(itertools.combinations(range(n - 1), 2))
        cands = set()
        for rep in iso_representative_masks(n - 1):
            base = 0
            for i, p in enumerate(prev_pairs):
                if rep >> i & 1:
                    base |= 1 << pidx[p]
            for nb in range(1 << (n - 1)):
                mask = base
                for u in range(n - 1):
                    if nb >> u & 1:
                        mask |= 1 << pidx[(u, n - 1)]
                cands.add(mask)
        masks = np.array(sorted(cands), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m, dtype=np.int64)[None, :]) & 1
    powers = np.int64(1) << np.arange(m, dtype=np.int64)
    canon = np.full(len(masks), np.iinfo(np.int64).max, dtype=np.int64)
    for k in range(len(perms)):
        np.minimum(canon, (bits * powers[maps[k]]).sum(axis=1), out=canon)
    return tuple(sorted(set(canon.tolist())))


# graphs on n vertices up to isomorphism: OEIS A000088
ISO_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def iso_representatives(n):
    reps = [graph_from_mask(n, mask) for mask in iso_representative_masks(n)]
    assert len(reps) == ISO_CLASS_COUNTS[n]
    return reps
