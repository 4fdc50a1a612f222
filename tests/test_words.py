import itertools
import random
import sys
import time

import pytest

import pcgroups.words
from pcgroups import (
    InputError,
    NormalWord,
    ParseError,
    SimpleGraph,
    Word,
    are_equal,
    commutator,
    complete_graph,
    edgeless_graph,
    format_word,
    free_reduce,
    invert,
    multiply,
    normal_form,
    parse_word,
    support,
)
from oracles import (
    all_labeled_graphs,
    bfs_reachable,
    insertion_normal_form,
    letters_of,
    oracle_normal_form,
    random_word,
    word_key,
)
from oracles import free_reduce as oracle_free_reduce
from bytecodes import opcodes

XY_EDGE = SimpleGraph(("x", "y"), [("x", "y")])
XY_FREE = SimpleGraph(("x", "y"))
PATH_XYZ = SimpleGraph(("x", "y", "z"), [("x", "y"), ("y", "z")])


def w(text):
    return parse_word(text)


def random_word_of_length(rng, alphabet, length):
    return tuple((rng.choice(alphabet), rng.choice((1, -1))) for _ in range(length))


class TestParsing:
    def test_tokens(self):
        assert w("x y^-1 z^3").syllables == (("x", 1), ("y", -1), ("z", 3))

    def test_empty_is_identity(self):
        assert w("").syllables == ()
        assert w("   ").syllables == ()

    def test_negative_exponent(self):
        assert w("x^-2").syllables == (("x", -2),)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError, match="zero exponent"):
            w("x^0")

    def test_bad_exponent_rejected(self):
        with pytest.raises(ParseError):
            w("x^two")
        with pytest.raises(ParseError):
            w("^3")

    def test_exponent_is_ascii_decimal(self):
        # int() would read each of these as a number
        for text in ("x^1_0", "x^\u0663", "x^+3", "x^-+3", "x^ 3", "x^\u00b2", "x^3.0", "x^", "x^-", "x^--3"):
            with pytest.raises(ParseError, match="bad exponent"):
                w(text)
        assert w("x^007") == w("x^7") and w("x^-03") == w("x^-3")

    def test_tokens_merge_into_syllables(self):
        word = w("x x^2 y^-1 y^-1 x^-1 x y")
        assert word.syllables == (("x", 3), ("y", -2), ("x", -1), ("x", 1), ("y", 1))
        assert len(word) == 8
        assert w("").syllables == ()

    def test_letters_and_text_give_one_word(self):
        rng = random.Random(5)
        for _ in range(300):
            letters = random_word_of_length(rng, "xyz", rng.randrange(12))
            built = Word(letters)
            tokens = []
            for gen, sign in letters:  # runs split at random into tokens
                if tokens and tokens[-1][0] == gen and tokens[-1][1] * sign > 0 and rng.random() < 0.5:
                    tokens[-1][1] += sign
                else:
                    tokens.append([gen, sign])
            parsed = w(" ".join(f"{gen}^{k}" for gen, k in tokens))
            assert built == parsed and parsed == built
            assert hash(built) == hash(parsed)
            assert len(built) == len(parsed) == len(letters)
            assert letters_of(built) == letters_of(parsed) == tuple(letters)
            assert built.syllables == parsed.syllables

    def test_expansion_limit(self, monkeypatch):
        assert pcgroups.words.MAX_WORD_LETTERS == 10**6
        with pytest.raises(ParseError, match="more than 1000000 letters"):
            w("a^3000000")
        monkeypatch.setattr(pcgroups.words, "MAX_WORD_LETTERS", 5)
        assert len(w("x^3 y^-2")) == 5
        for text in ("x^6", "x^-6", "x^3 y^-2 z", "x y z u v w"):
            with pytest.raises(ParseError, match="more than 5 letters"):
                w(text)
        # a word built from letters or other words is held to the same cap
        for build in (lambda: Word([("x", 1)] * 6), lambda: w("x^3") * w("y^-3"),
                      lambda: multiply(w("x"), w("y^4"), w("z")), lambda: w("x y") ** -3):
            with pytest.raises(InputError, match="more than 5 letters"):
                build()

    def test_format_compresses_runs(self):
        assert format_word(w("x x x y^-1 y^-1 x")) == "x^3 y^-2 x"
        assert format_word(w("")) == ""

    def test_format_roundtrip(self):
        rng = random.Random(3)
        for _ in range(200):
            word = Word(random_word(rng, "xyz", 8))
            assert parse_word(format_word(word)) == word

    def test_generator_names_that_would_not_round_trip_rejected(self):
        # format_word would write these as text that parses to other letters;
        # the last two are not names at all
        for name in ("x^2", "x y", "x\ty", " x", "x\n", "^", "x#", "#", "", 3):
            with pytest.raises(InputError, match="non-empty string without"):
                Word([(name, 1)])
            with pytest.raises(InputError, match="non-empty string without"):
                Word([("a", 1), (name, -1)])
        assert Word([("x_2", 1), ("x", -1), ("x_2", 1)]).syllables == (
            ("x_2", 1),
            ("x", -1),
            ("x_2", 1),
        )


    def test_sign_is_the_int_one_or_minus_one(self):
        # a float sign would sum to ("a", 2.0), written as 'a^2.0', which
        # does not parse back
        with pytest.raises(InputError, match="sign must be the int 1 or -1, got 1.0"):
            Word([("a", 1.0), ("a", 1.0)])
        for sign in (-1.0, True, False, 2, 0, "1", None):
            with pytest.raises(InputError, match="sign must be the int 1 or -1"):
                Word([("a", 1), ("a", sign)])
        assert format_word(Word([("a", 1), ("a", 1)])) == "a^2"

    def test_letters_that_are_not_pairs_rejected(self):
        for letter in (1, ("a",), ("a", 1, 1), None):
            with pytest.raises(InputError, match=r"letter must be a \(generator, sign\) pair"):
                Word([letter])

    def test_hash_is_not_part_of_a_generator_name(self):
        # '#' starts a comment in words files, so 'a#' would be written as 'a'
        for text in ("a#", "x a#b^3", "#", "x #^-2"):
            with pytest.raises(ParseError, match="may not contain '#'"):
                parse_word(text)


class TestSharedTokenTable:
    # the lines of one generator file share one token table
    def test_lines_sharing_tokens_give_what_parse_word_gives(self):
        rng = random.Random(11)
        tokens = ["a", "a^-1", "b^2", "b^-2", "c", "c^3", "a^007", "c^-1"]
        made = {}
        for _ in range(200):
            line = " ".join(rng.choice(tokens) for _ in range(rng.randrange(8)))
            assert pcgroups.words._parsed(line.split(), made) == parse_word(line), line
        assert set(made) == set(tokens)
        assert made["a^007"] == ("a", 7)

    def test_a_bad_token_raises_its_own_message_and_stays_out(self):
        made = {}
        pcgroups.words._parsed("a b^2 a^-1".split(), made)
        # the line's other tokens are known; the first bad one in text order
        # is the one reported, and neither bad token enters the table
        for line, message in (("a b^2 b^x a^0", "bad exponent in token 'b^x'"),
                              ("b^2 a^0 b^x a", "zero exponent in token 'a^0'"),
                              ("a ^2", "bad token '^2'")):
            with pytest.raises(ParseError) as caught:
                pcgroups.words._parsed(line.split(), made)
            assert str(caught.value) == message
            assert {"b^x", "a^0", "^2"}.isdisjoint(made)
        assert pcgroups.words._parsed(["b^2", "a"], made) == w("b^2 a")

    def test_the_letter_cap_holds_for_each_line(self):
        made = {}
        for _ in range(3):  # three lines of 600,000 letters each pass
            assert len(pcgroups.words._parsed(["a^600000"], made)) == 600000
        with pytest.raises(ParseError, match="more than 1000000 letters"):
            pcgroups.words._parsed(["a^600000", "b", "a^600000"], made)


class TestAlgebra:
    def test_invert_reverses_and_flips(self):
        assert invert(w("x y")) == w("y^-1 x^-1")
        assert ~w("x y") == w("y^-1 x^-1")

    def test_multiply_concatenates(self):
        assert multiply(w("x"), w("y"), w("x^-1")) == w("x y x^-1")
        assert w("x") * w("y") == w("x y")

    def test_pow(self):
        assert w("x y") ** 3 == w("x y x y x y")
        assert w("x") ** -2 == w("x^-2")
        assert w("x") ** 0 == w("")

    def test_inverse_law(self):
        rng = random.Random(11)
        for _ in range(100):
            word = Word(random_word(rng, "xyz", 6))
            g = PATH_XYZ
            assert normal_form(word * ~word, g).syllables == ()

    def test_built_words_keep_their_class(self):
        word = w("x y^-1")
        assert type(~word) is Word and type(normal_form(word, XY_EDGE)) is NormalWord

    def test_commutator(self):
        assert commutator("x", "y") == w("x y x^-1 y^-1")
        assert commutator(w("x"), w("y z")) == w("x y z x^-1 z^-1 y^-1")

    def test_products_and_powers_keep_the_letter_cap(self):
        # refused at once: ``**`` before it builds anything
        big = w("a^999999")
        assert len(big * w("b")) == len(w("a") ** 10**6) == 10**6
        for build in (lambda: big ** 1000, lambda: w("a") ** -10**9, lambda: big ** 2,
                      lambda: big * w("b^2"), lambda: multiply(big, big, big)):
            start = time.perf_counter()
            with pytest.raises(InputError, match="^word expands to more than 1000000 letters$"):
                build()
            assert time.perf_counter() - start < 0.05

    def test_pow_of_one_syllable_is_one_syllable(self):
        for word, n, syllables in ((w("a"), 10**6, (("a", 10**6),)), (w("a"), -10**6, (("a", -10**6),)),
                                   (w("a^-2"), -500000, (("a", 10**6),))):
            start = time.perf_counter()
            assert (word ** n).syllables == syllables
            assert time.perf_counter() - start < 0.01

    def test_pow_needs_an_int(self):
        for n in (1.5, 2.0, True, "2", None):
            with pytest.raises(InputError, match="exponent must be an int"):
                Word.gen("x") ** n


def test_entry_points_refuse_what_is_not_a_word():
    # text or a list of letters where a Word belongs
    for thing in ("x", "x y", ["x"], [("x", 1)], None):
        for call in (
            lambda: normal_form(thing, XY_EDGE),
            lambda: are_equal(thing, w("x"), XY_EDGE),
            lambda: are_equal(w("x"), thing, XY_EDGE),
            lambda: support(thing, XY_EDGE),
            lambda: free_reduce(thing, ("x", "y")),
            lambda: format_word(thing),
            lambda: w("x") * thing,
            lambda: multiply(w("x"), thing),
            lambda: invert(thing),
        ):
            with pytest.raises(InputError, match="^expected a Word, got "):
                call()


def test_decimal_reads_ascii_digits_after_an_optional_minus():
    read = pcgroups.words._decimal
    for text, value in (("0", 0), ("-0", 0), ("7", 7), ("-12", -12), ("0012", 12)):
        assert read(text) == value
    for text in ("", "-", "--1", "+1", "1_0", " 1", "1 ", "\u0663", "\uff11", "\u00b2", "1.0", "0x1"):
        assert read(text) is None
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap
    if cap:
        assert read("1" * cap) == int("1" * cap)
        assert read("1" * (cap + 1)) is None
        assert read("-" + "1" * (cap + 1)) is None


class TestFreeReduce:
    def test_against_oracle(self):
        rng = random.Random(19)
        for _ in range(500):
            letters = random_word(rng, "abc", 12)
            reduced = free_reduce(Word(letters), ("a", "b", "c"))
            assert letters_of(reduced) == oracle_free_reduce(letters)

    def test_is_the_edgeless_normal_form(self):
        rng = random.Random(23)
        for _ in range(200):
            word = Word(random_word(rng, "xy", 10))
            assert free_reduce(word, {"x", "y"}) == normal_form(word, XY_FREE)

    def test_unknown_generator(self):
        with pytest.raises(InputError, match="'q'"):
            free_reduce(w("x q q^-1"), ("x", "y"))
        # a str alphabet names one generator per character, not substrings
        with pytest.raises(InputError, match="'ab'"):
            free_reduce(w("ab ab^-1 xa"), "xaby")
        assert free_reduce(w("a b b^-1 x"), "xaby") == w("a x")

    def test_a_list_alphabet_costs_what_a_set_does(self):
        # 10^5 letters over 1,000 generators: a list or tuple alphabet is
        # read into a set once, not searched once per letter.  Median of
        # five ratios of back-to-back calls, as the host's speed drifts
        names = [f"g{i}" for i in range(1000)]
        rng = random.Random(29)
        word = Word([(rng.choice(names), rng.choice((1, -1))) for _ in range(10**5)])
        expected = free_reduce(word, frozenset(names))
        ratios = []
        for alphabet in (names, tuple(names)) * 3:
            start = time.perf_counter()
            assert free_reduce(word, alphabet) == expected
            middle = time.perf_counter()
            free_reduce(word, frozenset(names))
            ratios.append((middle - start) / (time.perf_counter() - middle))
        assert sorted(ratios)[len(ratios) // 2] <= 3, ratios

    def test_an_unhashable_item_in_the_alphabet_is_refused(self):
        for alphabet in (["x", ["y"]], ("x", {"y": 1})):
            with pytest.raises(InputError, match="unhashable item"):
                free_reduce(w("x"), alphabet)


class TestNormalForm:
    def test_commutator_dies_iff_edge(self):
        assert normal_form(commutator("x", "y"), XY_EDGE).syllables == ()
        assert normal_form(commutator("x", "y"), XY_FREE) == w("x y x^-1 y^-1")

    def test_sorts_commuting_letters(self):
        assert normal_form(w("y x"), XY_EDGE) == w("x y")
        assert normal_form(w("y x"), XY_FREE) == w("y x")

    def test_blocked_cancellation_stays(self):
        # x and z do not commute on the path x-y-z, so nothing cancels
        assert normal_form(w("x z x^-1"), PATH_XYZ) == w("x z x^-1")

    def test_cancellation_through_commuting_letter(self):
        # x commutes with y, so the xs meet and cancel
        assert normal_form(w("x y x^-1"), XY_EDGE) == w("y")

    def test_empty(self):
        nf = normal_form(w(""), XY_EDGE)
        assert nf.syllables == () and isinstance(nf, NormalWord)

    def test_never_longer(self):
        rng = random.Random(13)
        for _ in range(300):
            word = Word(random_word(rng, "xyz", 8))
            assert len(normal_form(word, PATH_XYZ)) <= len(word)

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(300):
            word = Word(random_word(rng, "xyz", 8))
            nf = normal_form(word, PATH_XYZ)
            assert normal_form(nf, PATH_XYZ) == nf

    def test_unknown_generator(self):
        with pytest.raises(InputError, match="'q'"):
            normal_form(w("q"), XY_EDGE)
        # the first unknown letter in word order is named
        for text, first in (("x q y z q^-1", "q"), ("z^-1 y q x", "z"), ("y a b c d e f", "a")):
            with pytest.raises(InputError, match=f"^letter over unknown generator '{first}'$"):
                normal_form(w(text), XY_EDGE)


class TestAgainstOracle:
    def test_exhaustive_short_words(self):
        # every labeled graph on three vertices, all words of length <= 3;
        # the acceptance suite extends to length 4 plus a big random sample
        names = ("x", "y", "z")
        pairs = list(itertools.combinations(names, 2))
        alphabet = [(n, s) for n in names for s in (1, -1)]
        for mask in range(8):
            g = SimpleGraph(names, (p for i, p in enumerate(pairs) if mask >> i & 1))
            for length in range(4):
                for combo in itertools.product(alphabet, repeat=length):
                    assert letters_of(normal_form(Word(combo), g)) == oracle_normal_form(combo, g)

    def test_geodesic(self):
        # nothing shorter than the normal form exists in the element's class
        rng = random.Random(19)
        for _ in range(100):
            word = random_word(rng, "xyz", 6)
            nf = normal_form(Word(word), PATH_XYZ)
            assert len(nf) == min(len(u) for u in bfs_reachable(word, PATH_XYZ))

    def test_lex_least_among_shuffles(self):
        rng = random.Random(23)
        for _ in range(100):
            word = random_word(rng, "xyz", 6)
            nf = letters_of(normal_form(Word(word), PATH_XYZ))
            shortest = [u for u in bfs_reachable(word, PATH_XYZ) if len(u) == len(nf)]
            assert word_key(nf) == min(word_key(u) for u in shortest)


class TestAgainstInsertionReferee:
    # lengths 2**b - 1 and 2**b sit at the edges of the counter field width
    EDGE_LENGTHS = sorted({n for b in range(9) for n in (2**b - 1, 2**b)})

    def test_referee_matches_bfs_oracle(self):
        rng = random.Random(43)
        graphs = [g for n in range(1, 5) for g in all_labeled_graphs(n)]
        for _ in range(1000):
            g = rng.choice(graphs)
            letters = random_word(rng, g.vertices, 6)
            assert insertion_normal_form(letters, g.edges) == oracle_normal_form(letters, g)

    def test_long_words(self):
        rng = random.Random(47)
        # the last 300 cases draw 31-100 generators, as the benchmark's word
        # graphs do: blocking rows then span more than 30 fields
        for case in range(3800):
            names = [f"g{i:02d}" for i in range(rng.randint(1, 30) if case < 3500 else rng.randint(31, 100))]
            p = rng.choice((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
            g = SimpleGraph(names, (e for e in itertools.combinations(names, 2) if rng.random() < p))
            length = rng.choice(self.EDGE_LENGTHS) if case % 2 else rng.randrange(401)
            kind = case // 2 % 7
            if kind == 0:  # letters over every generator
                letters = random_word_of_length(rng, names, length)
            elif kind == 1:  # letters over two or three generators: many cancel
                letters = random_word_of_length(rng, rng.sample(names, min(len(names), rng.randint(2, 3))), length)
            elif kind == 2:  # runs of one generator
                letters = []
                while len(letters) < length:
                    letters += [(rng.choice(names), rng.choice((1, -1)))] * rng.randint(1, length)
                letters = tuple(letters[:length])
            elif kind == 3:  # a word times its inverse, which cancels to nothing
                half = random_word_of_length(rng, names, length // 2)
                letters = half + tuple((gen, -sign) for gen, sign in reversed(half))
            else:
                letters = self.syllable_word(rng, kind, names, g, length)
            nf = normal_form(Word(letters), g)
            assert letters_of(nf) == insertion_normal_form(letters, g.edges), (case, names, p)
            assert nf == normal_form(parse_word(format_word(Word(letters))), g)
            if kind == 3:
                assert nf.syllables == ()

    @staticmethod
    def syllable_word(rng, kind, names, g, length):
        """Runs that land on, cancel and overshoot each other's pieces."""
        x = rng.choice(names)
        others = [y for y in names if y != x] or [x]
        commuting = sorted(g.neighbors(x)) or others
        blocking = [y for y in others if y not in g.neighbors(x)] or others
        syllables = []

        def run(gen, most):
            syllables.append((gen, rng.choice((1, -1)) * rng.randint(1, max(1, most))))

        while sum(abs(k) for _, k in syllables) < length:
            most = max(1, length // 8)
            if kind == 4:  # x^3 y x^-5 with y commuting with x: overshoots
                run(x, most)
                run(rng.choice(commuting), 3)
                run(x, 2 * most)
            elif kind == 5:  # x's run split by z, cancelled later: x^a z ... z^-1 x^b
                z = rng.choice(blocking)
                s = rng.choice((1, -1)) * rng.randint(1, 3)
                run(x, most)
                syllables.append((z, s))
                if rng.random() < 0.5:
                    run(rng.choice(names), most)
                syllables.append((z, -s))
                run(x, most)
            else:  # alternating-sign runs of x, now and then another letter
                k = rng.randint(1, most)
                sign = 1 if not syllables or syllables[-1][1] < 0 else -1
                syllables.append((x, sign * k))
                if rng.random() < 0.2:
                    run(rng.choice(others), 2)
        return tuple((gen, 1 if k > 0 else -1) for gen, k in syllables for _ in range(abs(k)))


class TestAreEqual:
    def test_commuting_pair(self):
        assert are_equal(w("x y"), w("y x"), XY_EDGE)
        assert not are_equal(w("x y"), w("y x"), XY_FREE)

    def test_word_times_inverse(self):
        assert are_equal(w("x y z") * ~w("x y z"), w(""), PATH_XYZ)

    def test_unknown_generators_named_in_word_order(self):
        # u's first unknown letter, then v's, each in its own word order
        for u, v, first in (("x q", "r y", "q"), ("x y", "y r q", "r"), ("", "s^2 x q", "s")):
            with pytest.raises(InputError, match=f"^letter over unknown generator '{first}'$"):
                are_equal(w(u), w(v), XY_EDGE)

    def test_cancels_only_partway(self):
        # each word is piled into its own heap; what survives keeps them apart
        assert not are_equal(w("x^5 y"), w("x^3 y"), XY_FREE)
        assert are_equal(w("x^5 y x^-2"), w("x^3 y"), XY_EDGE)
        assert not are_equal(w("x^5 y x^-2"), w("x^3 y"), XY_FREE)
        assert are_equal(w("y^-2 x^4"), w("x^4 y^-2"), XY_EDGE)

    def test_counted_cost_of_a_long_shuffled_pair(self):
        # 4,000 letters over a G(40, 0.5), against the same letters after
        # 4,000 tries of a commuting swap.  Piling u v^-1 as one heap ran
        # 418,629 bytecodes on CPython 3.11.7; piling u and v apart and
        # comparing their stacks runs 364,888
        rng = random.Random(32)
        names = [f"g{i}" for i in range(40)]
        g = SimpleGraph(names, [p for p in itertools.combinations(names, 2) if rng.random() < 0.5])
        u = [(rng.choice(names[:8]), rng.choice((1, -1))) for _ in range(4000)]
        v = list(u)
        for _ in range(4000):
            j = rng.randrange(len(v) - 1)
            if v[j + 1][0] in g.neighbors(v[j][0]):
                v[j], v[j + 1] = v[j + 1], v[j]
        u, v = Word(u), Word(v)
        count, equal = opcodes(lambda: are_equal(u, v, g))
        assert equal and count <= 385_000, count

    def test_congruence(self):
        rng = random.Random(29)
        for _ in range(100):
            u = Word(random_word(rng, "xyz", 5))
            word = Word(random_word(rng, "xyz", 5))
            v = normal_form(u, PATH_XYZ)
            assert are_equal(word * u, word * v, PATH_XYZ)
            assert are_equal(u * word, v * word, PATH_XYZ)


class TestExtremeGraphs:
    def test_edgeless_is_free_reduction(self):
        # on an edgeless graph the normal form is plain stack cancellation
        rng = random.Random(31)
        g = edgeless_graph(("x", "y", "z"))
        for _ in range(300):
            word = random_word(rng, "xyz", 8)
            stack = []
            for gen, sign in word:
                if stack and stack[-1] == (gen, -sign):
                    stack.pop()
                else:
                    stack.append((gen, sign))
            assert letters_of(normal_form(Word(word), g)) == tuple(stack)

    def test_complete_is_abelianization(self):
        # on a complete graph equality is decided by exponent vectors
        rng = random.Random(37)
        g = complete_graph(("x", "y", "z"))
        for _ in range(200):
            u = random_word(rng, "xyz", 6)
            v = random_word(rng, "xyz", 6)
            exp = lambda word: {
                n: sum(s for gen, s in word if gen == n) for n in "xyz"
            }
            assert are_equal(Word(u), Word(v), g) == (exp(u) == exp(v))
            # and the normal form is sorted by generator
            nf = normal_form(Word(u), g)
            gens = [gen for gen, _ in nf.syllables]
            assert gens == sorted(gens)


class TestSupport:
    def test_dead_commutator(self):
        assert support(commutator("x", "y"), XY_EDGE) == frozenset()

    def test_survivors(self):
        assert support(w("x y x^-1"), XY_FREE) == frozenset({"x", "y"})
        assert support(w("z z^-1 x"), PATH_XYZ) == frozenset({"x"})
