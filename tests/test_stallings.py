import random
import re
import time

import pytest

from pcgroups import (
    InputError,
    ParseError,
    StallingsGraph,
    Word,
    format_stallings,
    from_generators,
    parse_stallings,
    parse_word,
)
from oracles import (
    bouquet_automaton,
    free_reduce,
    intersection_automaton,
    letters_of,
    random_reduced_word,
    random_word,
    subgroup_ball,
)

AB = ("a", "b")


def w(text):
    return parse_word(text)


def transition_map(sg):
    """The automaton as a ``(state, generator) -> state`` dict over its
    positive arcs."""
    return {(u, g): v for u, g, v in sg.edges()}


# How a generator relates to the ones drawn before it; the read-along
# construction takes a different path for each.
GENERATOR_KINDS = (
    "reduced", "unreduced", "trivial", "duplicate", "prefix", "suffix",
    "inverse", "product", "conjugate",
)


def related_generators(rng, alphabet, count, kinds):
    """``count`` generators; after the first, each is of a kind drawn from
    ``kinds`` relative to the generators already drawn."""
    gens = [Word(random_reduced_word(rng, alphabet, 6))]
    while len(gens) < count:
        kind = rng.choice(kinds)
        earlier = rng.choice(gens)
        reduced = free_reduce(letters_of(earlier))
        cut = rng.randrange(len(reduced) + 1)
        if kind == "reduced":
            new = Word(random_reduced_word(rng, alphabet, 6))
        elif kind == "unreduced":
            new = Word(random_word(rng, alphabet, 8))
        elif kind == "trivial":
            around = Word(random_word(rng, alphabet, 3))
            new = around * earlier * ~earlier * ~around
        elif kind == "duplicate":
            new = earlier
        elif kind == "prefix":
            new = Word(reduced[:cut])
        elif kind == "suffix":
            new = Word(reduced[cut:])
        elif kind == "inverse":
            new = ~earlier
        elif kind == "product":
            new = earlier * ~rng.choice(gens) * rng.choice(gens)
        else:
            new = rng.choice(gens) * earlier * ~rng.choice(gens)
        gens.append(new)
    return gens


def product_size(sg1, sg2):
    """States of the product automaton reachable from the pair of bases,
    before any core trimming."""
    arcs = {}
    for sg in (sg1, sg2):
        for (u, g), v in transition_map(sg).items():
            arcs.setdefault((sg, u), []).append(((g, 1), v))
            arcs.setdefault((sg, v), []).append(((g, -1), u))
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        s1, s2 = stack.pop()
        for g, t1 in arcs.get((sg1, s1), ()):
            for h, t2 in arcs.get((sg2, s2), ()):
                if g == h and (t1, t2) not in seen:
                    seen.add((t1, t2))
                    stack.append((t1, t2))
    return len(seen)


def random_subgroup(rng, max_gens=3, max_len=5):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        gens.append(Word(random_reduced_word(rng, "ab", max_len)))
    return gens


class TestFromGenerators:
    def test_whole_f2(self):
        sg = from_generators([w("a"), w("b")], AB)
        assert sg.num_states == 1
        assert transition_map(sg) == {(0, "a"): 0, (0, "b"): 0}
        assert sg.rank() == 2

    def test_trivial_subgroup(self):
        sg = from_generators([], AB)
        assert sg.num_states == 1
        assert transition_map(sg) == {}
        assert sg.rank() == 0
        assert sg.member(w(""))
        assert not sg.member(w("a"))

    def test_unreduced_and_trivial_words_ok(self):
        sg1 = from_generators([w("a b b^-1"), w("a a^-1"), w("b")], AB)
        sg2 = from_generators([w("a"), w("b")], AB)
        assert sg1 == sg2

    def test_conjugate_family_is_a_line_of_loops(self):
        for m in (0, 1, 2, 5):
            gens = [w(f"a^{-k} b a^{k}") if k else w("b") for k in range(-m, m + 1)]
            sg = from_generators(gens, AB)
            assert sg.num_states == 2 * m + 1
            b_loops = [(u, v) for (u, g), v in transition_map(sg).items() if g == "b"]
            a_edges = [(u, v) for (u, g), v in transition_map(sg).items() if g == "a"]
            assert len(b_loops) == 2 * m + 1 and all(u == v for u, v in b_loops)
            assert len(a_edges) == 2 * m and all(u != v for u, v in a_edges)
            assert sg.rank() == 2 * m + 1

    def test_unknown_generator_rejected(self):
        with pytest.raises(InputError, match="'c'"):
            from_generators([w("c")], AB)
        # also when the letter would cancel, or follows a readable prefix
        with pytest.raises(InputError, match="'c'"):
            from_generators([w("a"), w("a c c^-1")], AB)

    @pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c")])
    def test_matches_bouquet_fold_oracle(self, alphabet):
        rng = random.Random(61 + len(alphabet))
        for trial in range(1000):
            kind = GENERATOR_KINDS[trial % len(GENERATOR_KINDS)]
            kinds = (kind, rng.choice(GENERATOR_KINDS))
            gens = related_generators(rng, alphabet, rng.randrange(2, 6), kinds)
            sg = from_generators(gens, alphabet)
            expected = bouquet_automaton(map(letters_of, gens), alphabet)
            assert format_stallings(sg) == expected, gens
            assert parse_stallings(format_stallings(sg)) == parse_stallings(expected) == sg

    def test_oracle_kinds_reach_their_cases(self):
        rng = random.Random(62)
        trivial = related_generators(rng, "ab", 5, ("trivial",))[1:]
        assert all(free_reduce(letters_of(g)) == () for g in trivial)
        # a generator already in the subgroup leaves the automaton unchanged
        for kind in ("duplicate", "inverse", "product", "conjugate"):
            gens = related_generators(rng, "ab", 4, (kind,))
            assert from_generators(gens, AB) == from_generators(gens[:1], AB)

    def test_folding_confluent_under_permutation(self):
        rng = random.Random(67)
        for _ in range(50):
            gens = random_subgroup(rng)
            reference = from_generators(gens, AB)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert from_generators(shuffled, AB) == reference
            # inverting a generator does not change the subgroup either
            flipped = [g.inverse() if rng.random() < 0.5 else g for g in gens]
            assert from_generators(flipped, AB) == reference

    def test_invariant_under_nielsen_moves(self):
        # <u, v>, <u, uv>, <uv, v>, <u^-1, v> ... all present the same
        # subgroup, so they must fold to the identical automaton
        rng = random.Random(68)
        for _ in range(60):
            u = Word(random_reduced_word(rng, "ab", 6))
            v = Word(random_reduced_word(rng, "ab", 6))
            reference = from_generators([u, v], AB)
            for gens in ([u, u * v], [u * v, v], [u, v * u], [~u, v], [u, ~u * v]):
                assert from_generators(gens, AB) == reference


def test_entry_points_refuse_what_is_not_a_word():
    # and what is not an automaton where one belongs
    sg = from_generators([w("a b")], AB)
    for thing in ("a b", ["a"], [("a", 1)]):
        with pytest.raises(InputError, match="^expected a Word, got "):
            from_generators([thing], AB)
        with pytest.raises(InputError, match="^expected a Word, got "):
            sg.member(thing)
        with pytest.raises(InputError, match="^expected a StallingsGraph, got "):
            sg.intersect(thing)
        with pytest.raises(InputError, match="^expected a StallingsGraph, got "):
            format_stallings(thing)


class TestMember:
    def test_empty_word_always(self):
        rng = random.Random(71)
        for _ in range(20):
            sg = from_generators(random_subgroup(rng), AB)
            assert sg.member(w(""))

    def test_cost_does_not_grow_with_the_alphabet(self):
        # a word of 10^5 letters over 1,000 generators, all in the subgroup:
        # each letter's generator is looked up, not searched for
        alphabet = [f"g{i:03d}" for i in range(1000)]
        sg = from_generators([w(g) for g in alphabet], alphabet)
        rng = random.Random(67)
        word = w(" ".join(rng.choice(alphabet) for _ in range(10**5)))
        start = time.perf_counter()
        assert sg.member(word)
        assert time.perf_counter() - start < 0.3

    def test_a_squared(self):
        sg = from_generators([w("a^2")], AB)
        assert sg.member(w("a^2")) and sg.member(w("a^-4"))
        assert not sg.member(w("a^3")) and not sg.member(w("a"))
        # matches enumeration of <a^2>: six factors reach a^(2j) for |j| <= 6
        ball = subgroup_ball([letters_of(w("a^2"))], 6)
        for k in range(-8, 9):
            word = w(f"a^{k}") if k else w("")
            in_ball = free_reduce(letters_of(word)) in ball
            assert in_ball == (k % 2 == 0)
            assert sg.member(word) == in_ball

    def test_excluded_conjugate(self):
        for m in (0, 1, 3):
            gens = [w(f"a^{-k} b a^{k}") if k else w("b") for k in range(-m, m + 1)]
            sg = from_generators(gens, AB)
            assert not sg.member(w(f"a^{m+1} b a^{-(m+1)}"))
            assert not sg.member(w(f"a^{-(m+1)} b a^{m+1}"))

    def test_generators_are_members(self):
        rng = random.Random(73)
        for _ in range(50):
            gens = random_subgroup(rng)
            sg = from_generators(gens, AB)
            for g in gens:
                assert sg.member(g)
                assert sg.member(g.inverse())

    def test_accepts_every_bounded_product(self):
        rng = random.Random(79)
        for _ in range(30):
            gens = random_subgroup(rng)
            sg = from_generators(gens, AB)
            for el in subgroup_ball(map(letters_of, gens), 6):
                assert sg.member(Word(el))

    def test_prefix_exponent_negatives(self):
        # independent necessary condition for the conjugate family: inside
        # <a^-k b a^k : |k| <= m> every prefix of a reduced member has
        # a-exponent sum within [-m, m]
        rng = random.Random(83)
        m = 2
        gens = [w(f"a^{-k} b a^{k}") if k else w("b") for k in range(-m, m + 1)]
        sg = from_generators(gens, AB)
        for _ in range(300):
            word = free_reduce(random_reduced_word(rng, "ab", 8))
            if sg.member(Word(word)):
                prefix_sums = [0]
                for gen, sign in word:
                    prefix_sums.append(prefix_sums[-1] + (sign if gen == "a" else 0))
                assert all(-m <= s <= m for s in prefix_sums)

    def test_unknown_letter_rejected(self):
        sg = from_generators([w("a")], AB)
        with pytest.raises(InputError):
            sg.member(w("q"))
        with pytest.raises(InputError, match="'q'"):
            sg.member(w("a q^-1 q"))


class TestRank:
    def test_examples(self):
        assert from_generators([w("a"), w("b")], AB).rank() == 2
        assert from_generators([], AB).rank() == 0
        assert from_generators([w("a^2"), w("b a b^-1")], AB).rank() == 2

    def test_at_most_generator_count(self):
        rng = random.Random(89)
        for _ in range(100):
            gens = random_subgroup(rng)
            assert from_generators(gens, AB).rank() <= len(gens)


class TestIntersect:
    def test_with_whole_group_is_identity(self):
        whole = from_generators([w("a"), w("b")], AB)
        rng = random.Random(97)
        for _ in range(30):
            sg = from_generators(random_subgroup(rng), AB)
            assert whole.intersect(sg) == sg
            assert sg.intersect(whole) == sg

    def test_self_intersection(self):
        rng = random.Random(101)
        for _ in range(30):
            sg = from_generators(random_subgroup(rng), AB)
            assert sg.intersect(sg) == sg

    def test_powers_of_a(self):
        sg1 = from_generators([w("a^2"), w("b")], AB)
        sg2 = from_generators([w("a^3"), w("b")], AB)
        meet = sg1.intersect(sg2)
        assert meet.member(w("a^6")) and meet.member(w("b"))
        assert not meet.member(w("a^2")) and not meet.member(w("a^3"))
        assert meet.rank() == 2

    @pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c")])
    def test_matches_product_oracle(self, alphabet):
        rng = random.Random(113 + len(alphabet))
        kind_pairs = [(k1, k2) for k1 in GENERATOR_KINDS for k2 in GENERATOR_KINDS]
        for trial in range(300):
            kind1, kind2 = kind_pairs[trial % len(kind_pairs)]
            gens1 = related_generators(rng, alphabet, rng.randrange(1, 5), (kind1,))
            gens2 = related_generators(rng, alphabet, rng.randrange(1, 5), (kind2,))
            meet = from_generators(gens1, alphabet).intersect(from_generators(gens2, alphabet))
            expected = intersection_automaton(
                bouquet_automaton(map(letters_of, gens1), alphabet),
                bouquet_automaton(map(letters_of, gens2), alphabet),
                alphabet,
            )
            assert format_stallings(meet) == expected, (gens1, gens2)

    def test_product_numbering_is_canonical_after_trimming(self):
        # the search numbers product states in canonical order, and trimming
        # the trees that hang off the core only closes up the numbers
        rng = random.Random(127)
        trimmed = 0
        for trial in range(600):
            alphabet = ("a", "b", "c")[: 1 + trial % 3]
            gens1 = related_generators(rng, alphabet, rng.randrange(1, 5), GENERATOR_KINDS)
            gens2 = related_generators(rng, alphabet, rng.randrange(1, 5), GENERATOR_KINDS)
            sg1, sg2 = from_generators(gens1, alphabet), from_generators(gens2, alphabet)
            meet = sg1.intersect(sg2)
            if product_size(sg1, sg2) > meet.num_states:
                trimmed += 1
            text = format_stallings(meet)
            assert parse_stallings(text) == meet, (gens1, gens2)
            expected = intersection_automaton(
                format_stallings(sg1), format_stallings(sg2), alphabet
            )
            assert text == expected, (gens1, gens2)
            assert StallingsGraph(meet.alphabet, meet.num_states, transition_map(meet)) == meet
            assert len(transition_map(meet)) == meet.num_edges
            assert meet.rank() == meet.num_edges - meet.num_states + 1
        assert trimmed >= 100

    def test_alphabet_mismatch(self):
        sg1 = from_generators([w("a")], AB)
        sg2 = from_generators([w("a")], ("a", "c"))
        with pytest.raises(InputError):
            sg1.intersect(sg2)

    def test_membership_against_both_sides(self):
        rng = random.Random(103)
        for _ in range(40):
            g1, g2 = random_subgroup(rng), random_subgroup(rng)
            sg1, sg2 = from_generators(g1, AB), from_generators(g2, AB)
            meet = sg1.intersect(sg2)
            assert meet.rank() >= 0
            for _ in range(40):
                word = Word(random_reduced_word(rng, "ab", 8))
                assert meet.member(word) == (sg1.member(word) and sg2.member(word))

    def test_bounded_products_in_both_are_members(self):
        rng = random.Random(107)
        for _ in range(20):
            g1, g2 = random_subgroup(rng), random_subgroup(rng)
            meet = from_generators(g1, AB).intersect(from_generators(g2, AB))
            common = subgroup_ball(map(letters_of, g1), 5) & subgroup_ball(map(letters_of, g2), 5)
            for el in common:
                assert meet.member(Word(el))


class TestSerialization:
    def test_roundtrip(self):
        rng = random.Random(109)
        for _ in range(40):
            sg = from_generators(random_subgroup(rng), AB)
            assert parse_stallings(format_stallings(sg)) == sg

    def test_base_on_first_line(self):
        sg = from_generators([w("a^2")], AB)
        lines = format_stallings(sg).splitlines()
        assert lines[0] == "0 a b"
        assert len(lines) == 1 + len(transition_map(sg))

    def test_bare_base_line_still_parses(self):
        back = parse_stallings("0\n0 a 0\n")
        assert back.alphabet == ("a",) and back.rank() == 1

    def test_parse_rejects_garbage_base(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_stallings("base\n0 a 1\n")

    def test_parse_rejects_bad_arity(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_stallings("0\n0 a\n")

    def test_parse_rejects_unfolded(self):
        with pytest.raises(ParseError, match="not folded"):
            parse_stallings("0\n0 a 1\n0 a 2\n1 b 1\n2 b 2\n")

    def test_parse_rejects_non_core(self):
        with pytest.raises(ParseError, match="core"):
            parse_stallings("0\n0 a 0\n0 b 1\n")

    def test_parse_rejects_disconnected(self):
        with pytest.raises(ParseError, match="connected"):
            parse_stallings("0\n0 a 0\n1 b 1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_stallings("")

    def test_parse_rejects_undeclared_generator(self):
        with pytest.raises(ParseError, match="^line 2: generator 'b' is not in the declared alphabet$"):
            parse_stallings("0 a\n0 b 0\n")

    def test_trivial_roundtrip(self):
        sg = from_generators([], AB)
        back = parse_stallings(format_stallings(sg))
        assert back.num_states == 1 and transition_map(back) == {}

    @pytest.mark.parametrize("bad", ["\u0663", "+1", "1_0", "1\u00b2", "--1", "-", "0x1"])
    def test_state_ids_are_ascii_decimal(self, bad):
        with pytest.raises(ParseError, match=re.escape(f"line 1: state id {bad!r}")):
            parse_stallings(f"{bad} a\n{bad} a {bad}\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_stallings(f"0 a\n0 a 0\n0 b {bad}\n")

    def test_negative_and_padded_state_ids(self):
        # 10 and 010 are one state; -4 is a state like any other
        back = parse_stallings("-4 a b\n-4 a 10\n010 b 010\n10 a -4\n")
        assert back == from_generators([w("a^2"), w("a b a^-1")], AB)

    def test_header_labels_may_not_contain_a_caret(self):
        with pytest.raises(ParseError, match="line 2: generator name 'a\\^2'"):
            parse_stallings("# comment\n0 a^2 b\n0 b 0\n")

    def test_errors_name_the_files_state_ids(self):
        # the base is 7 and the other ids are far from the internal numbers
        # 0, 1, 2, ... that the parser gives the states
        cases = [
            ("7 a b\n7 b 7\n7 a 12\n12 b 12\n12 a 30\n12 a 31\n",
             "line 6: two 'a' transitions leave state 12: not folded"),
            ("7 a b\n7 b 7\n7 a 12\n30 a 12\n",
             "line 4: two 'a' transitions enter state 12: not folded"),
            ("7 a b\n7 a 7\n40 b 40\n-3 a -3\n",
             "states [-3, 40] are not connected to the base"),
            ("7 a b\n7 a 7\n7 b 12\n12 b 30\n30 a 30\n12 a 50\n",
             "states [50] hang off the core in trees (not a core automaton)"),
            ("7 a b\n7 a 7\n7 b 12\n12 b 30\n",
             "states [12, 30] hang off the core in trees (not a core automaton)"),
        ]
        for text, message in cases:
            with pytest.raises(ParseError) as caught:
                parse_stallings(text)
            assert str(caught.value) == message


class TestConstructor:
    def test_accepts_a_folded_automaton(self):
        sg = from_generators([w("a^2"), w("b a b^-1")], AB)
        rebuilt = StallingsGraph(sg.alphabet, sg.num_states, transition_map(sg))
        assert rebuilt == sg
        assert rebuilt.member(w("b a^4 b^-1")) and not rebuilt.member(w("a"))

    def test_rejects_unfolded(self):
        with pytest.raises(InputError, match="not folded"):
            StallingsGraph(("a",), 2, {(0, "a"): 1, (1, "a"): 1})

    def test_rejects_states_outside_the_range(self):
        for transitions in ({(0, "a"): 5}, {(-1, "a"): 0}, {(0, "a"): "0"}):
            with pytest.raises(InputError, match="outside"):
                StallingsGraph(("a",), 1, transitions)
        with pytest.raises(InputError, match="positive"):
            StallingsGraph(("a",), 0, {})

    def test_rejects_labels_outside_the_alphabet(self):
        with pytest.raises(InputError, match="'b'"):
            StallingsGraph(("a",), 1, {(0, "b"): 0})

    def test_rejects_disconnected(self):
        with pytest.raises(InputError, match="not connected"):
            StallingsGraph(("a",), 2, {})
        with pytest.raises(InputError, match="not connected"):
            StallingsGraph(("a",), 2, {(1, "a"): 1})

    def test_rejects_non_core(self):
        with pytest.raises(InputError, match="core"):
            StallingsGraph(("a",), 2, {(0, "a"): 1})
        with pytest.raises(InputError, match="core"):
            StallingsGraph(("a", "b"), 2, {(0, "a"): 0, (0, "b"): 1})

    def test_rejects_keys_that_are_not_state_label_pairs(self):
        for key in ((0,), (0, "a", 1)):
            with pytest.raises(InputError, match=r"is not a \(state, label\) pair"):
                StallingsGraph(("a",), 1, {key: 0})
        with pytest.raises(InputError, match=r"must map \(state, label\) pairs to states"):
            StallingsGraph(("a",), 1, [1])

    def test_rejects_a_repeated_label(self):
        with pytest.raises(InputError, match="repeats"):
            StallingsGraph(("a", "a"), 1, {(0, "a"): 0})

    def test_errors_name_the_given_states(self):
        cases = [
            ({(0, "a"): 3, (2, "a"): 3, (3, "b"): 0}, "two 'a' transitions enter state 3: not folded"),
            ({(0, "a"): 0, (2, "b"): 3, (3, "b"): 2}, "states [1, 2, 3] are not connected to the base"),
            ({(0, "a"): 0, (0, "b"): 3, (3, "b"): 2, (2, "a"): 2, (3, "a"): 1},
             "states [1] hang off the core in trees (not a core automaton)"),
        ]
        for transitions, message in cases:
            with pytest.raises(InputError) as caught:
                StallingsGraph(AB, 4, transitions)
            assert str(caught.value) == message

    @pytest.mark.parametrize("label", [1, None, "", "a^2", "a b", " a", ("a",), "a#"])
    def test_rejects_labels_that_are_not_generator_names(self, label):
        with pytest.raises(InputError, match="alphabet label"):
            StallingsGraph(("a", label), 1, {(0, "a"): 0})
        with pytest.raises(InputError, match="alphabet label"):
            from_generators([Word.gen("a")], ["a", label])

    def test_a_hash_label_is_refused_before_it_is_written(self):
        # written out, the label 'a#' would be cut at the comment sign and
        # the file would not parse back
        with pytest.raises(InputError, match="without whitespace, '\\^' or '#'"):
            format_stallings(StallingsGraph(("a#",), 1, {(0, "a#"): 0}))

    def test_alphabet_is_kept_as_a_tuple(self):
        sg = StallingsGraph(["a", "b"], 1, {(0, "a"): 0})
        assert sg.alphabet == ("a", "b")
        assert hash(sg) == hash(StallingsGraph(("a", "b"), 1, {(0, "a"): 0}))
        assert sg == from_generators([w("a")], AB)

    def test_renumbers_canonically(self):
        # the base has a b-loop; the a-cycle 0 -> 2 -> 1 -> 0 is given off
        # the canonical order, and the constructor renumbers it breadth-first
        transitions = {(0, "a"): 2, (2, "a"): 1, (1, "a"): 0, (0, "b"): 0}
        sg = StallingsGraph(AB, 3, transitions)
        assert transition_map(sg) == {(0, "a"): 1, (1, "a"): 2, (2, "a"): 0, (0, "b"): 0}
        assert sg.num_edges == 4 and sg.rank() == 2
        assert sg.member(w("a^3")) and not sg.member(w("a"))
        assert sg == parse_stallings(format_stallings(sg))
        assert sg == from_generators([w("a^3"), w("b")], AB)

    def test_equals_the_automaton_of_its_subgroup(self):
        sg = StallingsGraph(("b", "a"), 2, {(0, "a"): 1, (1, "b"): 0})
        built = from_generators([w("a b")], AB)
        assert sg == built and hash(sg) == hash(built)
        assert sg.alphabet == AB
        assert parse_stallings(format_stallings(sg)) == sg
        assert sg.intersect(built) == built and built.intersect(sg) == built


def test_edges_sorted_whatever_the_alphabet_order():
    # the alphabet is sorted and the states renumbered: given 2 is 1, given 1 is 2
    given = {(0, "a"): 2, (2, "a"): 1, (1, "a"): 0, (0, "b"): 0, (1, "b"): 2}
    sg = StallingsGraph(("b", "a"), 3, given)
    assert sg.alphabet == AB
    assert sg.edges() == [(0, "a", 1), (0, "b", 0), (1, "a", 2), (2, "a", 0), (2, "b", 1)]
    assert format_stallings(sg).splitlines() == ["0 a b", "0 a 1", "0 b 0", "1 a 2", "2 a 0", "2 b 1"]


def test_to_dot_mentions_every_edge():
    sg = from_generators([w("a^2"), w("b")], AB)
    dot = sg.to_dot()
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    for u, g, v in sg.edges():
        assert f'{u} -> {v} [label="{g}"];' in dot
