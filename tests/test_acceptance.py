"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Where a criterion names graph families without the word "labeled" the sweep
runs over isomorphism-class representatives (matching the convention that
there are "4 graphs on 3 vertices"), since every property checked is
label-invariant; labeled sweeps are stated as such and run in full.
"""

import itertools
import random
import time

from pcgroups import (
    SimpleGraph,
    Word,
    certify_not_fg,
    classify,
    clique_number,
    complete_decomposition,
    complete_graph,
    disjoint_union,
    edgeless_graph,
    embeds_in,
    find_induced_p3,
    from_generators,
    induced_subgraph,
    join,
    normal_form,
    path_graph,
    cycle_graph,
    reflexive_closure_is_transitive,
    rho_retract,
    alpha_include,
    VertexRestriction,
)
from oracles import (
    NAMES,
    all_labeled_graphs,
    clique_oracle_mask,
    graph_from_mask,
    graph_to_mask,
    iso_representatives,
    letters_of,
    oracle_normal_form,
    random_reduced_word,
    random_word,
    subgroup_ball,
)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{description}]: {status}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def test_criterion_1_lemma_equivalence_sweep():
    start = time.time()
    mismatches = 0
    checked = 0
    for n in (5, 6):
        pairs = list(itertools.combinations(NAMES[:n], 2))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph(NAMES[:n], (p for i, p in enumerate(pairs) if mask >> i & 1))
            a = find_induced_p3(g) is None
            b = reflexive_closure_is_transitive(g)
            c = complete_decomposition(g) is not None
            checked += 1
            if not (a == b == c):
                mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        "P3-free == transitive closure == clique decomposition, all labeled graphs on 5 and 6 vertices",
        mismatches == 0 and checked == 2**10 + 2**15 and elapsed < 10.0,
        f"{checked} graphs, {mismatches} mismatches, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_classifier_catalog():
    cases = []  # (graph, expected_howson, expected_ranks or None)
    cases.append((path_graph(3), False, None))
    cases.append((cycle_graph(4), False, None))
    cases.append((path_graph(4), False, None))
    cases.append((join(complete_graph(1, prefix="t"), edgeless_graph(2, prefix="f")), False, None))
    for n in range(1, 6):
        cases.append((complete_graph(n), True, (n,)))
        cases.append((edgeless_graph(n), True, (1,) * n))
    for parts in range(1, 4):
        for sizes in itertools.combinations_with_replacement((1, 2, 3), parts):
            g = edgeless_graph(0)
            for i, s in enumerate(sizes):
                g = disjoint_union(g, complete_graph(s, prefix=f"u{i}_"))
            cases.append((g, True, tuple(sorted(sizes, reverse=True))))
    bad = []
    for g, expect_howson, expect_ranks in cases:
        r = classify(g)
        chain_ok = (
            r.p3_free
            == r.fully_residually_free
            == r.howson
            == r.free_product_of_free_abelian
            == r.fix_points_fg
            == r.per_points_fg
            == (not r.contains_z_cross_f2)
        )
        if not chain_ok or r.howson != expect_howson or r.factor_ranks != expect_ranks:
            bad.append(g)
    report(
        2,
        "classifier matches hand-derived verdicts on the named catalog",
        not bad,
        f"{len(cases)} graphs, {len(bad)} wrong",
    )


def test_criterion_3_word_problem_oracle():
    mismatches = 0
    checked = 0
    # exhaustive: every graph on three vertices (all 8 labeled forms cover
    # the 4 isomorphism classes), every word of length <= 4
    names = ("x", "y", "z")
    pairs = list(itertools.combinations(names, 2))
    alphabet = [(v, s) for v in names for s in (1, -1)]
    for mask in range(8):
        g = SimpleGraph(names, (p for i, p in enumerate(pairs) if mask >> i & 1))
        for length in range(5):
            for combo in itertools.product(alphabet, repeat=length):
                checked += 1
                if letters_of(normal_form(Word(combo), g)) != oracle_normal_form(combo, g):
                    mismatches += 1
    exhaustive = checked
    # randomized: 10^4 words of length <= 6 over graphs with <= 4 vertices
    rng = random.Random(2024)
    graphs4 = [g for n in range(1, 5) for g in all_labeled_graphs(n)]
    for _ in range(10_000):
        g = rng.choice(graphs4)
        combo = random_word(rng, g.vertices, 6)
        checked += 1
        mine = letters_of(normal_form(Word(combo), g))
        theirs = oracle_normal_form(combo, g)
        if mine != theirs:
            mismatches += 1
        else:
            # equality decisions match the oracle as a corollary; spot-check
            u = Word(random_word(rng, g.vertices, 6))
            if (letters_of(normal_form(u, g)) == mine) != (
                oracle_normal_form(letters_of(u), g) == theirs
            ):
                mismatches += 1
    report(
        3,
        "normal form and equality agree with the BFS rewriting oracle",
        mismatches == 0,
        f"{exhaustive} exhaustive + 10000 random words, {mismatches} mismatches",
    )


def test_criterion_4_retraction_identity():
    rng = random.Random(4)
    mismatches = 0
    pairs_checked = 0
    reps = [g for n in range(6) for g in iso_representatives(n)]
    for g in reps:
        verts = g.vertices
        for size in range(len(verts) + 1):
            for ys in itertools.combinations(verts, size):
                r = VertexRestriction(g, ys)
                sub = induced_subgraph(g, ys)
                pairs_checked += 1
                for _ in range(100):
                    word = Word(random_word(rng, ys, 8)) if ys else Word(())
                    back = rho_retract(alpha_include(word, r), r)
                    if normal_form(back, sub).syllables != normal_form(word, sub).syllables:
                        mismatches += 1
    report(
        4,
        "retraction after inclusion is the identity on every subset of every graph on <= 5 vertices",
        mismatches == 0,
        f"{pairs_checked} (graph, subset) pairs x 100 words, {mismatches} mismatches",
    )


def test_criterion_5_non_howson_certificates():
    start = time.time()
    failures = []
    for m in range(26):
        cert = certify_not_fg(m)
        if not (cert.verdict and cert.rank == 2 * m + 1):
            failures.append(m)
    elapsed = time.time() - start
    report(
        5,
        "stage-m certificates for m = 0..25: rank 2m+1 and the next conjugate rejected",
        not failures and elapsed < 5.0,
        f"26 certificates, {len(failures)} failures, {elapsed:.2f}s < 5s",
    )


def test_criterion_6_intersection_oracle():
    rng = random.Random(6)
    mismatches = 0
    infinite_ranks = 0
    positives = 0
    pairs = 0
    while pairs < 500:
        gens1 = [Word(random_reduced_word(rng, "ab", 5)) for _ in range(rng.randrange(1, 4))]
        gens2 = [Word(random_reduced_word(rng, "ab", 5)) for _ in range(rng.randrange(1, 4))]
        pairs += 1
        sg1 = from_generators(gens1, ("a", "b"))
        sg2 = from_generators(gens2, ("a", "b"))
        meet = sg1.intersect(sg2)
        if meet.rank() < 0:  # cannot happen for a finite core graph
            infinite_ranks += 1
        # every element certified by bounded product enumeration in both
        # subgroups must be accepted by the intersection automaton
        common = {
            el
            for el in subgroup_ball(map(letters_of, gens1), 6)
            & subgroup_ball(map(letters_of, gens2), 6)
            if len(el) <= 8
        }
        for el in common:
            positives += 1
            if not meet.member(Word(el)):
                mismatches += 1
        # and on arbitrary short words the pullback agrees with membership
        # in both factors
        for _ in range(20):
            word = Word(random_reduced_word(rng, "ab", 8))
            if meet.member(word) != (sg1.member(word) and sg2.member(word)):
                mismatches += 1
    report(
        6,
        "pullback membership matches product enumeration and both-factor membership on 500 random pairs",
        mismatches == 0 and infinite_ranks == 0,
        f"{positives} certified members + {500 * 20} random words, {mismatches} mismatches",
    )


def test_criterion_7_p3_is_explicit():
    mismatches = 0
    checked = 0
    for n in (5, 6):
        pairs = list(itertools.combinations(NAMES[:n], 2))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph(NAMES[:n], (p for i, p in enumerate(pairs) if mask >> i & 1))
            checked += 1
            if embeds_in("P3", g) != (not classify(g).howson):
                mismatches += 1
    report(
        7,
        "Z x F2 embeds exactly in the non-Howson groups across the criterion-1 sweep",
        mismatches == 0,
        f"{checked} graphs, {mismatches} mismatches",
    )


def test_criterion_8_clique_number_brute_force():
    mismatches = 0
    checked = 0
    # labeled-exhaustive through 6 vertices
    for n in range(7):
        m = n * (n - 1) // 2
        for mask in range(1 << m):
            g = graph_from_mask(n, mask)
            checked += 1
            if clique_number(g) != clique_oracle_mask(n, mask):
                mismatches += 1
    # all 1044 isomorphism classes on 7 vertices, plus random relabelings to
    # catch any vertex-order dependence
    rng = random.Random(8)
    perms = list(itertools.permutations(range(7)))
    pairs7 = list(itertools.combinations(range(7), 2))
    pidx = {p: i for i, p in enumerate(pairs7)}
    for g in iso_representatives(7):
        mask = graph_to_mask(g)
        variants = [mask]
        for _ in range(2):
            perm = rng.choice(perms)
            relabeled = 0
            for i, (u, v) in enumerate(pairs7):
                if mask >> i & 1:
                    a, b = perm[u], perm[v]
                    relabeled |= 1 << pidx[(a, b) if a < b else (b, a)]
            variants.append(relabeled)
        for variant in variants:
            checked += 1
            if clique_number(graph_from_mask(7, variant)) != clique_oracle_mask(7, variant):
                mismatches += 1
    report(
        8,
        "clique number equals exhaustive subset brute force on graphs up to 7 vertices",
        mismatches == 0,
        f"{checked} graphs, {mismatches} mismatches",
    )
