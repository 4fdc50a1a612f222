"""Seeded inputs for the three benchmark workloads, each with its answer.

A workload is an endless sequence of rounds.  Round ``i`` of a workload is a
fixed list of command slots; the sizes in a slot step through a fixed grid
with ``i`` (see ``_pick``), and the seed draws labels and random structure.
Every grid length divides ``CYCLE``, so any ``CYCLE`` consecutive rounds
hold the same mix of command kinds and size classes for every seed, and a
run that stops at a cycle boundary is comparable across seeds.  Shapes that
drive the cost (near-equal clique sizes, the rank of a planted witness, the
components of a complement union, the number of random generators) and the
largest p and m, which set peak memory, are pinned or drawn from a stream
that does not depend on the seed (``_shape``), so that seeds change the
inputs far more than the work.  Each command carries what its construction guarantees about the
answer (see ``checker``).

``FAMILIES`` records why each input family is in the benchmark.  Sizes are
kept so that no command takes much over a second on the initial code: a long
run comes from many commands, not from a few huge ones.
"""

from __future__ import annotations

import math
import os
import random
from typing import NamedTuple

import checker
from checker import Expect
from oracles import free_reduce

WORKLOADS = ("classify-graphs", "word-problem", "free-subgroups")

FAMILIES = {
    "clique-union": "P3-free disjoint unions of cliques: the O(n*k*n) worst case of the "
    "induced-P3 search, and of the pattern backtracking for embed P3/P4/C4",
    "clique-union-minus-edge": "one deleted edge uv: the least P3 witness "
    "(min(u,v), least other vertex of its clique, max(u,v)) is known by construction",
    "complement-union": "complements of unions of paths, cycles and cliques: omega is the "
    "sum of the components' alpha, so the clique search dominates",
    "sparse-gnp": "sparse G(n,p) with a planted clique: the P3 search stops early and "
    "the clique search is cheap, the light end of classify",
    "self-check": "1,100 tiny graphs instead of a few large ones: per-call overhead of "
    "the graph layer",
    "word-long": "long words with x^k runs over graphs from sparse (many blockers per "
    "letter) to dense (heavy commutation): the normal-form pile and read-off",
    "word-equal": "a word against itself shuffled by commuting swaps with inserted "
    "inverse pairs (equal), or with one letter flipped (unequal by exponent sums)",
    "word-visible": "membership in a vertex subset's subgroup: three normal forms per "
    "member, two per non-member",
    "word-small": "words of at most eight letters, checked exactly against the BFS "
    "oracle in tests/oracles.py",
    "perm-pair": "stabilisers of random transitive permutation actions: the product "
    "orbit size s (own BFS) gives states s and rank s(r-1)+1",
    "power-pair": "<a^p,b> meet <a^q,b>: lcm(p,q) states and rank 2, long thin automata",
    "random-long": "random long generators, mostly meeting trivially: folding and the "
    "product search on near-bouquets",
    "demo-nonhowson": "the Z x F2 certificate at stage m: rank 2m+1 and not_member; free "
    "reduction over an edgeless graph",
}

CYCLE = 6

# Size grids per slot; round i takes grid[(i + offset) % len(grid)].
FULL = {
    "clique-union": (60, 84, 108, 132, 156, 180),
    "embed-pattern": (36, 48, 60),
    "complement-union": (20, 22, 24, 26, 27, 28),
    "sparse-gnp": (100, 200, 300),
    "word-graph": (20, 36, 52, 68, 84, 100),
    "word-density": (0.1, 0.3, 0.5, 0.7, 0.9, 0.2),
    "nf-letters": (100, 500, 2000, 5000, 10000, 20000),
    "equal-letters": (100, 500, 1500, 3000, 6000, 10000),
    "visible-letters": (100, 500, 1500, 3000, 5000, 8000),
    "perm-degree": (20, 32, 44, 56, 68, 80),
    "power": (20, 45, 70, 95, 120, 140),
    "random-long": (50, 100, 150, 200, 250, 300),
    "demo-m": (10, 40, 70, 100, 130, 150),
}
TINY = {
    "clique-union": (8, 12),
    "embed-pattern": (8, 10),
    "complement-union": (6, 9),
    "sparse-gnp": (12, 20),
    "word-graph": (5, 8),
    "word-density": (0.2, 0.6),
    "nf-letters": (10, 40),
    "equal-letters": (10, 30),
    "visible-letters": (10, 30),
    "perm-degree": (4, 6),
    "power": (2, 5),
    "random-long": (4, 8),
    "demo-m": (1, 3),
}


class Command(NamedTuple):
    workload: str
    family: str
    size: int
    argv: tuple[str, ...]
    files: dict  # path -> text, written before the command runs
    expect: Expect
    facts: dict  # what the construction planted, kept in the run records


def make_round(workload: str, seed: int, index: int, directory: str, tiny: bool = False) -> list[Command]:
    """Commands of round ``index``; input files go under ``directory``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    grids = TINY if tiny else FULL
    builder = {"classify-graphs": _classify_round, "word-problem": _word_round, "free-subgroups": _free_round}
    return builder[workload](rng, index, grids, _Files(directory, index))


class _Files:
    def __init__(self, directory, index):
        self.directory = directory
        self.prefix = f"r{index}"
        self.count = 0

    def path(self, suffix):
        self.count += 1
        return os.path.join(self.directory, f"{self.prefix}-{self.count}{suffix}")


def _shape(workload, index):
    """A random stream that depends on the round but not on the seed, for
    the choices that set a command's cost more than its answer."""
    return random.Random(f"{workload}/shape/{index}")


def _pick(grid, index, slot=0, fill=False):
    """The slot's grid value for this round.  With ``fill``, an integer size
    is taken from the 15% below it, stepping through that band by the golden
    ratio on each visit to the same grid value: latencies fill the gaps
    between grid sizes, so quantiles do not jump between them, and every seed
    gets the same sizes, so quantiles do not move with the seed."""
    k = index + slot
    value = grid[k % len(grid)]
    if not fill:
        return value
    return round(value * (1 - 0.15 * (k // len(grid) * 0.6180339887 % 1)))


def _pick_below_top(grid, index, slot):
    """``_pick`` with ``fill``, except that the grid's largest value stays
    exact: the largest automata set the peak memory."""
    value = _pick(grid, index, slot)
    return value if value == max(grid) else _pick(grid, index, slot, fill=True)


# ------------------------------------------------------- classify-graphs


class _Graph(NamedTuple):
    family: str
    vertices: list
    edges: set
    adj: dict
    omega: int
    facts: dict


def _labels(rng, n):
    names = [f"v{i:03d}" for i in range(n)]
    rng.shuffle(names)
    return names


def _parts(rng, n, lo, hi):
    parts = []
    while n > 0:
        k = min(n, rng.randint(lo, hi))
        parts.append(k)
        n -= k
    if len(parts) > 1 and parts[-1] < lo:
        parts[-2] += parts.pop()
    return parts


def _clique_union(rng, n) -> _Graph:
    names = _labels(rng, n)
    third = n // 3
    jitter = rng.randint(-(third // 8), third // 8)
    sizes = [third + jitter, third - jitter, n - 2 * third]
    cliques, edges, at = [], set(), 0
    for k in sizes:
        block = sorted(names[at : at + k])
        at += k
        cliques.append(block)
        edges.update((a, b) for i, a in enumerate(block) for b in block[i + 1 :])
    return _Graph("clique-union", names, edges, checker.adjacency(names, edges), max(sizes), {"cliques": sizes})


def _minus_edge(rng, n) -> _Graph:
    g = _clique_union(rng, n)
    adj = g.adj
    # the deleted edge runs from the middle vertex of the largest clique up to
    # a later one, so the P3 search always stops about halfway
    block = sorted(max(checker.components(adj), key=len))
    u = block[len(block) // 2]
    v = rng.choice(block[len(block) // 2 + 1 :])
    edges = g.edges - {(u, v)}
    others = [len(c) for c in checker.components(adj) if c[0] not in block]
    witness = [u, min(w for w in block if w not in (u, v)), v]
    adj = checker.adjacency(g.vertices, edges)
    if checker.least_p3(adj) != witness:  # the construction fact and the search must agree
        raise AssertionError("planted witness is not the least P3")
    omega = max(others + [len(block) - 1])
    return _Graph("clique-union-minus-edge", g.vertices, edges, adj, omega, {"deleted": [u, v], "witness": witness})


def _complement_union(rng, shape, n) -> _Graph:
    """The components' kinds and sizes come from ``shape``, the labels from
    ``rng``: the clique search's cost hangs on the components, hardly on the
    labels."""
    names = _labels(rng, n)
    union, parts, at, alpha = set(), [], 0, 0
    for k in _parts(shape, n, 1, 8):
        block = names[at : at + k]
        at += k
        kind = shape.choice(("path", "cycle", "clique")) if k >= 3 else "path"
        if kind == "clique":
            union.update(frozenset((a, b)) for i, a in enumerate(block) for b in block[i + 1 :])
            alpha += 1
        else:
            union.update(frozenset(p) for p in zip(block, block[1:]))
            if kind == "cycle":
                union.add(frozenset((block[-1], block[0])))
            alpha += k // 2 if kind == "cycle" else (k + 1) // 2
        parts.append([kind, k])
    order = sorted(names)
    edges = {(a, b) for i, a in enumerate(order) for b in order[i + 1 :] if frozenset((a, b)) not in union}
    return _Graph("complement-union", names, edges, checker.adjacency(names, edges), alpha, {"components": parts})


def _sparse(rng, n) -> _Graph:
    names = _labels(rng, n)
    p = 3.0 / n
    order = sorted(names)
    edges = {(a, b) for i, a in enumerate(order) for b in order[i + 1 :] if rng.random() < p}
    planted = sorted(rng.sample(names, 5))
    edges.update((a, b) for i, a in enumerate(planted) for b in planted[i + 1 :])
    adj = checker.adjacency(names, edges)
    return _Graph("sparse-gnp", names, edges, adj, checker.clique_number(adj), {"planted_clique": planted})


def _graph_file(files: _Files, vertices, edges):
    path = files.path(".graph")
    return path, {path: " ".join(vertices) + "\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))}


def _classify(files, g):
    path, text = _graph_file(files, g.vertices, g.edges)
    return Command("classify-graphs", g.family, len(g.vertices), ("classify", path), text,
                   Expect(checker.classify_report(g.adj, g.omega)), {**g.facts, "omega": g.omega})


def _embed(files, g, pattern, embeds):
    path, text = _graph_file(files, g.vertices, g.edges)
    return Command("classify-graphs", g.family, len(g.vertices), ("embed", pattern, path), text,
                   Expect({"pattern": pattern, "embeds": embeds}), {**g.facts, "omega": g.omega})


def _classify_round(rng, i, grids, files):
    shape = _shape("classify-graphs", i)
    union = _clique_union(rng, _pick(grids["clique-union"], i, 0, fill=True))
    minus = _minus_edge(rng, _pick(grids["clique-union"], i, 1, fill=True))
    compl = _complement_union(rng, shape, _pick(grids["complement-union"], i, 0, fill=True))
    compl2 = _complement_union(rng, shape, _pick(grids["complement-union"], i, 2, fill=True))
    sparse = _sparse(rng, _pick(grids["sparse-gnp"], i, 0, fill=True))
    small = (_clique_union if i % 2 else _minus_edge)(rng, _pick(grids["embed-pattern"], i, 0, fill=True))
    k = compl2.omega + i % 2
    return [
        _classify(files, union),
        _classify(files, minus),
        _classify(files, compl),
        _classify(files, sparse),
        _embed(files, compl2, f"K_{k}", compl2.omega >= k),
        _embed(files, union, f"K_{union.omega + 1 - i % 2}", i % 2 == 1),
        _embed(files, small, ("P3", "P4", "C4")[i % 3], i % 3 == 0 and small.family != "clique-union"),
        _embed(files, sparse, "P3", checker.least_p3(sparse.adj) is not None),
        Command("classify-graphs", "self-check", 1100, ("self-check",), {},
                Expect({"graphs_checked": 1100, "disagreements": 0, "ok": True}), {}),
    ]


# ---------------------------------------------------------- word-problem


def _word_graph(rng, n, p):
    names = [f"g{i:02d}" for i in range(n)]
    edges = {(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < p}
    return names, edges


def _letters(rng, gens, length):
    """Random letters drawn from a drifting window of six generators, so that
    inverse pairs meet often; about half the letters come in x^k runs."""
    order = list(gens)
    rng.shuffle(order)
    out = []
    while len(out) < length:
        start = (len(out) // 50) % len(order)
        gen = order[(start + rng.randrange(6)) % len(order)]
        run = 1
        if rng.random() < 0.002 and length - len(out) > 2:
            run = rng.randint(2, min(1000, length - len(out)))
        out.extend([(gen, rng.choice((1, -1)))] * run)
    return out


def _shuffled(rng, letters, adj_pairs, gens):
    """The same group element: random commuting swaps, then inserted x x^-1."""
    w = list(letters)
    for _ in range(len(w) if len(w) > 1 else 0):
        j = rng.randrange(len(w) - 1)
        if frozenset((w[j][0], w[j + 1][0])) in adj_pairs:
            w[j], w[j + 1] = w[j + 1], w[j]
    for _ in range(max(1, len(w) // 20)):
        j = rng.randrange(len(w) + 1)
        gen, sign = rng.choice(gens), rng.choice((1, -1))
        w[j:j] = [(gen, sign), (gen, -sign)]
    return w


def _word_cmd(family, size, argv, text, expect, names, edges):
    return Command("word-problem", family, size, argv, text, expect,
                   {"vertices": len(names), "edges": len(edges)})


def _word_round(rng, i, grids, files):
    def graph(slot):
        return _word_graph(rng, _pick(grids["word-graph"], i, slot, fill=True), _pick(grids["word-density"], i, 2 * slot + 1))

    cmds = []
    # normal form of a long word
    names, edges = graph(0)
    n_letters = _pick(grids["nf-letters"], i, 0, fill=True)
    w = _letters(rng, names, n_letters)
    path, text = _graph_file(files, names, edges)
    cmds.append(_word_cmd("word-long", len(w), ("normal-form", path, checker.format_word(w)), text,
                          Expect(word={"sums": checker.exponent_sums(w), "length": len(w)}), names, edges))
    # equal: shuffled copy (true) and flipped letter (false)
    for slot, flip in ((1, False), (2, True)):
        names, edges = graph(slot)
        pairs = {frozenset(e) for e in edges}
        w1 = _letters(rng, names, _pick(grids["equal-letters"], i, slot, fill=True))
        w2 = _shuffled(rng, w1, pairs, names)
        if flip:
            j = rng.randrange(len(w2))
            w2[j] = (w2[j][0], -w2[j][1])
        path, text = _graph_file(files, names, edges)
        cmds.append(_word_cmd("word-equal", len(w1) + len(w2),
                              ("equal", path, checker.format_word(w1), checker.format_word(w2)), text,
                              Expect(not flip), names, edges))
    # member-visible: a non-member and a member
    for slot, member in ((3, False), (4, True)):
        names, edges = graph(slot)
        pairs = {frozenset(e) for e in edges}
        ys = sorted(rng.sample(names, max(1, len(names) // 2)))
        outside = [z for z in names if z not in ys]
        n_letters = _pick(grids["visible-letters"], i, slot, fill=True)
        if member:
            # a word over the subset with z y z^-1 (= y, as z and y commute) or
            # z z^-1 spliced in between letters, never inside another splice
            w = []
            for letter in _letters(rng, ys, n_letters):
                if rng.random() < 0.1:
                    z = rng.choice(outside)
                    commuting = [y for y in ys if frozenset((y, z)) in pairs]
                    s = rng.choice((1, -1))
                    middle = [(rng.choice(commuting), rng.choice((1, -1)))] if commuting else []
                    w += [(z, s), *middle, (z, -s)]
                w.append(letter)
            expect = Expect(word={"sums": checker.exponent_sums(w), "length": len(w), "allowed": set(ys)})
        else:
            w = _letters(rng, names, n_letters)
            if not any(z in checker.exponent_sums(w) for z in outside):
                w.append((rng.choice(outside), 1))
            expect = Expect({"member": False, "rewritten": None})
        path, text = _graph_file(files, names, edges)
        cmds.append(_word_cmd("word-visible", len(w),
                              ("member-visible", path, " ".join(ys), checker.format_word(w)), text, expect,
                              names, edges))
    # words of at most eight letters, against the oracle
    names, edges = graph(5)
    gens = rng.sample(names, 3)
    pairs = [e for e in edges if e[0] in gens and e[1] in gens]
    w = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(4, 8))]
    nf = checker.oracle_normal_form(w, pairs)
    path, text = _graph_file(files, names, edges)
    cmds.append(_word_cmd("word-small", len(w), ("normal-form", path, checker.format_word(w)), text,
                          Expect({"normal_form": checker.format_word(nf), "length": len(nf),
                                  "support": sorted({g for g, _ in nf})}), names, edges))
    w1 = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(3, 6))]
    j = rng.randrange(len(w1) - 1)
    w2 = w1[:j] + [w1[j + 1], w1[j]] + w1[j + 2 :]
    if len(w2) <= 6:
        g = rng.choice(gens)
        w2[j:j] = [(g, 1), (g, -1)]
    same = checker.oracle_normal_form(w1, pairs) == checker.oracle_normal_form(w2, pairs)
    cmds.append(_word_cmd("word-small", len(w1) + len(w2),
                          ("equal", path, checker.format_word(w1), checker.format_word(w2)), {}, Expect(same),
                          names, edges))
    ys = sorted(gens[:2])
    w = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(4, 8))]
    ambient = checker.oracle_normal_form(w, pairs)
    if {g for g, _ in ambient} <= set(ys):
        rewritten = checker.format_word(checker.oracle_normal_form(ambient, [e for e in pairs if set(e) <= set(ys)]))
        value = {"member": True, "rewritten": rewritten}
    else:
        value = {"member": False, "rewritten": None}
    cmds.append(_word_cmd("word-small", len(w), ("member-visible", path, " ".join(ys), checker.format_word(w)),
                          {}, Expect(value), names, edges))
    return cmds


# -------------------------------------------------------- free-subgroups


def _transitive_action(rng, n, r):
    while True:
        perms = []
        for _ in range(r):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(p)
        if checker.orbit_size(perms, [[0]] * r) == n:  # orbit of 0 times a one-point action
            return perms


def _schreier_generators(perms, alphabet):
    """Words t_p g t_(pg)^-1 over a BFS spanning tree of the action: they
    generate the stabiliser of point 0."""
    n = len(perms[0])
    tree = {0: []}
    queue = [0]
    for p in queue:
        for gen, perm in zip(alphabet, perms):
            for q, letter in ((perm[p], (gen, 1)), (perm.index(p), (gen, -1))):
                if q not in tree:
                    tree[q] = tree[p] + [letter]
                    queue.append(q)
    words = []
    for p in range(n):
        for gen, perm in zip(alphabet, perms):
            q = perm[p]
            back = [(g, -s) for g, s in reversed(tree[q])]
            w = free_reduce(tree[p] + [(gen, 1)] + back)
            if w:
                words.append(list(w))
    return words


def _gens_file(files, words):
    path = files.path(".words")
    return path, {path: "".join(checker.format_word(w) + "\n" for w in words)}


def _intersect(files, family, size, alphabet, words1, words2, expect, facts, out=False):
    p1, t1 = _gens_file(files, words1)
    p2, t2 = _gens_file(files, words2)
    argv = ["intersect-free", "--alphabet", " ".join(alphabet), p1, p2]
    out_file = None
    if out:
        out_file = (files.path(".stallings"), tuple(alphabet))
        argv += ["--out", out_file[0]]
    return Command("free-subgroups", family, size, tuple(argv), {**t1, **t2}, Expect(expect, out_file=out_file), facts)


def _perm_pair(rng, files, n1, n2, alphabet, out):
    r = len(alphabet)
    a1 = _transitive_action(rng, n1, r)
    a2 = _transitive_action(rng, n2, r)
    s = checker.orbit_size(a1, a2)
    expect = {"rank": s * (r - 1) + 1, "states": s, "edges": s * r}
    facts = {"degrees": [n1, n2], "orbit": s, "actions": [a1, a2]}
    return _intersect(files, "perm-pair", s, alphabet, _schreier_generators(a1, alphabet),
                      _schreier_generators(a2, alphabet), expect, facts, out)


def _random_reduced(rng, alphabet, length):
    out = []
    while len(out) < length:
        letter = (rng.choice(alphabet), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out.append(letter)
    return out


def _demo(m):
    return Command("free-subgroups", "demo-nonhowson", m, ("demo-nonhowson", "--m", str(m)), {},
                   Expect({"m": m, "rank": 2 * m + 1, "element": f"a^-{m + 1} b a^{m + 1}", "verdict": "not_member"}),
                   {"m": m})


def _free_round(rng, i, grids, files):
    deg = grids["perm-degree"]
    p = _pick_below_top(grids["power"], i, 0)
    q = p + 3
    while math.gcd(p, q) != 1:
        q += 1
    lcm = p * q
    length = _pick(grids["random-long"], i, 0, fill=True)
    abc = ("a", "b", "c")
    shape = _shape("free-subgroups", i)
    words1 = [_random_reduced(rng, abc, length) for _ in range(shape.randint(2, 4))]
    words2 = [_random_reduced(rng, abc, length) for _ in range(shape.randint(2, 4))]
    return [
        _perm_pair(rng, files, _pick(deg, i, 0, fill=True), _pick(deg, i, 2, fill=True), ("a", "b"), out=False),
        _perm_pair(rng, files, _pick(deg, i, 1, fill=True), _pick(deg, i, 3, fill=True), ("a", "b", "c"), out=True),
        _intersect(files, "power-pair", lcm, ("a", "b"), [[("a", 1)] * p, [("b", 1)]],
                   [[("a", 1)] * q, [("b", 1)]], {"rank": 2, "states": lcm, "edges": lcm + 1},
                   {"p": p, "q": q, "lcm": lcm}, out=i % 2 == 1),
        _intersect(files, "random-long", length * (len(words1) + len(words2)), abc, words1, words2,
                   checker.intersection_counts(words1, words2, abc),
                   {"generators": [len(words1), len(words2)], "length": length}),
        _demo(_pick_below_top(grids["demo-m"], i, 0)),
        _demo(_pick_below_top(grids["demo-m"], i, 3)),
    ]
