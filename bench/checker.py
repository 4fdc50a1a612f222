"""Expected answers and output checks, written without any pcgroups code.

Every fact a command is checked against comes from one of three places: the
construction of its input (planted cliques, a deleted edge, alpha of each
complemented component, permutation actions, m), an independent computation
in this file (least induced P3 by the local distance-two rule, components,
Bron-Kerbosch clique search, permutation orbit BFS, a union-find Stallings
fold), or the brute-force oracles in ``tests/oracles.py`` for words of at
most eight letters.  Nothing here imports ``pcgroups``; the oracles receive
a small adjacency object of this module's own.
"""

from __future__ import annotations

import json
from collections import deque

import oracles

# ---------------------------------------------------------------- words


def parse_word(text: str) -> list[tuple[str, int]]:
    """Expand the CLI word syntax (``x``, ``x^k``) into signed letters."""
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        k = int(exp) if exp else 1
        out.extend([(name, 1 if k > 0 else -1)] * abs(k))
    return out


def format_word(letters) -> str:
    """Run-length tokens, the inverse of ``parse_word``."""
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        gen, sign = letters[i]
        k = sign * (j - i)
        parts.append(gen if k == 1 else f"{gen}^{k}")
        i = j
    return " ".join(parts)


def exponent_sums(letters) -> dict[str, int]:
    sums: dict[str, int] = {}
    for gen, sign in letters:
        sums[gen] = sums.get(gen, 0) + sign
    return {g: s for g, s in sums.items() if s}


class Adjacency:
    """Just enough of a graph for ``oracles.bfs_reachable``."""

    def __init__(self, edges):
        self._edges = {frozenset(e) for e in edges}

    def adjacent(self, u, v):
        return frozenset((u, v)) in self._edges


def oracle_normal_form(letters, edges) -> list[tuple[str, int]]:
    return list(oracles.oracle_normal_form(letters, Adjacency(edges)))


# ---------------------------------------------------------------- graphs


def adjacency(vertices, edges) -> dict[str, set[str]]:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(adj) -> list[list[str]]:
    seen: set[str] = set()
    out = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [start], deque([start])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(comp)
    return out


def least_p3(adj):
    """Least (x, y, z) with xy, yz edges and xz a non-edge.

    x is the least vertex with another vertex at distance exactly two, y its
    least neighbour that reaches outside N[x], z the least such vertex.
    """
    for x in sorted(adj):
        closed = adj[x] | {x}
        for y in sorted(adj[x]):
            outside = adj[y] - closed
            if outside:
                return [x, y, min(outside)]
    return None


def clique_number(adj) -> int:
    """Bron-Kerbosch with pivoting; fine for the sparse graphs it is used on."""
    best = 0

    def expand(size, cands, excluded):
        nonlocal best
        if not cands and not excluded:
            best = max(best, size)
            return
        if size + len(cands) <= best:
            return
        pivot = max(cands | excluded, key=lambda u: len(adj[u] & cands))
        for v in list(cands - adj[pivot]):
            expand(size + 1, cands & adj[v], excluded & adj[v])
            cands = cands - {v}
            excluded = excluded | {v}

    expand(0, set(adj), set())
    return best


def classify_report(adj, omega: int) -> dict:
    """The exact ``classify`` stdout object, given the clique number."""
    witness = least_p3(adj)
    good = witness is None
    ranks = sorted((len(c) for c in components(adj)), reverse=True) if good else None
    return {
        "p3_free": good,
        "fully_residually_free": good,
        "howson": good,
        "contains_z_cross_f2": not good,
        "free_product_of_free_abelian": good,
        "factor_ranks": ranks,
        "p3_witness": witness,
        "fix_points_fg": good,
        "per_points_fg": good,
        "max_abelian_rank": omega,
    }


# ---------------------------------------------------------- free groups


def orbit_size(actions1, actions2) -> int:
    """Size of the orbit of (0, 0) under the product of two actions, each a
    list of permutations (one per generator) given as image lists."""
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    inverses = [
        ([0] * len(p), [0] * len(q)) for p, q in zip(actions1, actions2)
    ]
    for (p, q), (pi, qi) in zip(zip(actions1, actions2), inverses):
        for i, j in enumerate(p):
            pi[j] = i
        for i, j in enumerate(q):
            qi[j] = i
    while queue:
        s, t = queue.popleft()
        for (p, q), (pi, qi) in zip(zip(actions1, actions2), inverses):
            for nxt in ((p[s], q[t]), (pi[s], qi[t])):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return len(seen)


def _core(base, edges):
    """Base component of an edge set (u, gen, v), with hanging trees cut."""
    edges = set(edges)
    incident: dict = {}
    for e in edges:
        incident.setdefault(e[0], set()).add(e)
        incident.setdefault(e[2], set()).add(e)
    reach = {base}
    stack = [base]
    while stack:
        for u, _, v in incident.get(stack.pop(), ()):
            for t in (u, v):
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
    edges = {e for e in edges if e[0] in reach}
    states = set(reach)

    def degree(s):
        return sum((e[0] == s) + (e[2] == s) for e in incident.get(s, ()) if e in edges)

    leaves = [s for s in states if s != base and degree(s) <= 1]
    while leaves:
        s = leaves.pop()
        if s not in states:
            continue
        states.discard(s)
        for e in incident.get(s, ()):
            if e in edges:
                edges.discard(e)
                other = e[2] if e[0] == s else e[0]
                if other != base and other in states and degree(other) <= 1:
                    leaves.append(other)
    return states, edges


def stallings(words):
    """Folded core automaton of the subgroup the words generate, as (states,
    positive transitions (u, gen, v)) with base state 0."""
    parent: list[int] = [0]
    nbrs: list[dict] = [{}]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_state():
        parent.append(len(parent))
        nbrs.append({})
        return len(parent) - 1

    merges: list[tuple[int, int]] = []

    def link(u, gen, sign, v):
        for a, s, b in ((u, sign, v), (v, -sign, u)):
            a = find(a)
            old = nbrs[a].get((gen, s))
            if old is None:
                nbrs[a][(gen, s)] = b
            elif find(old) != find(b):
                merges.append((old, b))

    for w in words:
        letters = list(oracles.free_reduce(w))
        if not letters:
            continue
        at = 0
        for i, (gen, sign) in enumerate(letters):
            nxt = 0 if i == len(letters) - 1 else new_state()
            link(at, gen, sign, nxt)
            at = nxt
        while merges:
            a, b = sorted(find(x) for x in merges.pop())
            if a == b:
                continue
            parent[b] = a  # the smaller root survives, so the base stays 0
            moved, nbrs[b] = nbrs[b], {}
            for (gen, s), t in moved.items():
                link(a, gen, s, t)
    edges = {
        (u, gen, find(t))
        for u in range(len(parent))
        if find(u) == u
        for (gen, s), t in nbrs[u].items()
        if s > 0
    }
    states, edges = _core(0, edges)
    return states, edges


def intersection_counts(words1, words2, alphabet) -> dict:
    """Rank, states and edges of the intersection of two subgroups, via the
    product of their automata based at the pair of bases."""
    _, e1 = stallings(words1)
    _, e2 = stallings(words2)
    fwd1 = {(u, g): v for u, g, v in e1}
    fwd2 = {(u, g): v for u, g, v in e2}
    back1 = {(v, g): u for u, g, v in e1}
    back2 = {(v, g): u for u, g, v in e2}
    edges = set()
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        s1, s2 = pair = stack.pop()
        for g in alphabet:
            for m1, m2, forward in ((fwd1, fwd2, True), (back1, back2, False)):
                t1, t2 = m1.get((s1, g)), m2.get((s2, g))
                if t1 is None or t2 is None:
                    continue
                other = (t1, t2)
                edges.add((pair, g, other) if forward else (other, g, pair))
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    states, edges = _core((0, 0), edges)
    return {"rank": len(edges) - len(states) + 1, "states": len(states), "edges": len(edges)}


def check_automaton_file(path, alphabet, states, edges) -> list[str]:
    """The ``--out`` file: header, then a deterministic, co-deterministic
    transition list over states 0..states-1 with the expected count."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return [f"--out file unreadable: {exc}"]
    problems = []
    if not lines or lines[0].split() != ["0", *alphabet]:
        problems.append(f"--out header {lines[:1]!r}")
    out, inc = set(), set()
    for line in lines[1:]:
        u, g, v = line.split()
        u, v = int(u), int(v)
        if not (0 <= u < states and 0 <= v < states) or g not in alphabet:
            problems.append(f"--out bad transition {line!r}")
        if (u, g) in out or (v, g) in inc:
            problems.append(f"--out not folded at {line!r}")
        out.add((u, g))
        inc.add((v, g))
    if len(lines) - 1 != edges:
        problems.append(f"--out has {len(lines) - 1} transitions, expected {edges}")
    return problems


# ---------------------------------------------------------------- checks


class Expect:
    """What one command must produce.  ``value`` is the exact JSON stdout
    object when the answer is known in full; ``word`` holds the facts that
    constrain a word-valued answer; ``out_file`` is (path, alphabet) of an
    automaton the command must write."""

    def __init__(self, value=None, *, word=None, out_file=None):
        self.value = value
        self.word = word
        self.out_file = out_file


def verdict(command: str, got) -> str:
    """One short word for the per-command record."""
    if command == "classify":
        return "howson" if got["howson"] else "not_howson"
    if command == "embed":
        return "embeds" if got["embeds"] else "no_embed"
    if command == "self-check":
        return "ok" if got["ok"] else "disagree"
    if command == "normal-form":
        return f"length={got['length']}"
    if command == "equal":
        return "equal" if got else "unequal"
    if command == "member-visible":
        return "member" if got["member"] else "not_member"
    if command == "intersect-free":
        return f"rank={got['rank']}"
    return got["verdict"]


def _word_problems(label, text, facts) -> list[str]:
    letters = parse_word(text)
    problems = []
    if exponent_sums(letters) != facts["sums"]:
        problems.append(f"{label} changed the exponent-sum vector")
    if len(letters) > facts["length"] or (facts["length"] - len(letters)) % 2:
        problems.append(f"{label} length {len(letters)} impossible from {facts['length']}")
    allowed = facts.get("allowed")
    if allowed is not None and not {g for g, _ in letters} <= allowed:
        problems.append(f"{label} uses generators outside the subset")
    oracle = facts.get("oracle")
    if oracle is not None and letters != oracle:
        problems.append(f"{label} {text!r} differs from the oracle {format_word(oracle)!r}")
    return problems


def check(command: str, expect: Expect, code: int, stdout: str, stderr: str) -> tuple[list[str], str]:
    """Compare one command's exit code and output with what it must be.

    Every command of the benchmark is valid input with a known verdict, so
    the exit code must be 0.  Returns (problems, verdict); no problems means
    the command is correct.
    """
    if "Traceback" in stderr:
        return ["traceback on stderr"], "crash"
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[:120]!r}"], "exit"
    if stdout.count("\n") != 1 or not stdout.endswith("\n"):
        return [f"stdout is not one line: {stdout[:80]!r}"], "garbled"
    try:
        got = json.loads(stdout)
        said = verdict(command, got)
    except (ValueError, KeyError, TypeError):
        return [f"stdout is not the command's JSON: {stdout[:80]!r}"], "garbled"
    if expect.value is not None and json.dumps(got, sort_keys=True) != json.dumps(expect.value, sort_keys=True):
        return [f"stdout {stdout.strip()[:120]!r} != expected {json.dumps(expect.value)[:120]!r}"], said
    facts = expect.word
    problems = []
    if facts is not None and command == "normal-form":
        letters = parse_word(got["normal_form"])
        if got["length"] != len(letters):
            problems.append("length disagrees with the normal form")
        if got["support"] != sorted({g for g, _ in letters}):
            problems.append("support disagrees with the normal form")
        problems += _word_problems("normal form", got["normal_form"], facts)
    elif facts is not None and command == "member-visible":
        if got["member"] is not True or not isinstance(got["rewritten"], str):
            return [f"expected a member, got {stdout.strip()[:80]!r}"], said
        problems += _word_problems("rewritten word", got["rewritten"], facts)
    if expect.out_file is not None:
        path, alphabet = expect.out_file
        problems += check_automaton_file(path, alphabet, got["states"], got["edges"])
    return problems, said
