import random

import pytest

import pcgroups.zf2
from pcgroups import (
    InputError,
    Word,
    ZF2Element,
    certify_not_fg,
    conjugate_generators,
    eval_k_word,
    format_word,
    intersection_ball,
    parse_word,
)
from oracles import free_reduce, random_word


def w(text):
    return parse_word(text)


class TestZF2Element:
    def test_requires_reduced(self):
        with pytest.raises(InputError, match="reduced"):
            ZF2Element(0, w("a a^-1"))

    def test_requires_free_alphabet(self):
        with pytest.raises(InputError, match="'c'"):
            ZF2Element(0, w("c"))

    def test_unknown_letter_rejected(self):
        with pytest.raises(InputError, match="'c'"):
            eval_k_word(w("a c c^-1"))
        with pytest.raises(InputError, match="'c'"):
            ZF2Element(0, w("a c c^-1"))

    def test_componentwise_product(self):
        left = ZF2Element(2, w("a b"))
        right = ZF2Element(-1, w("b^-1 a"))
        assert left * right == ZF2Element(1, w("a^2"))


class TestEvalKWord:
    def test_generator_a(self):
        assert eval_k_word(w("a")) == ZF2Element(1, w("a"))

    def test_zero_exponent_conjugate(self):
        assert eval_k_word(w("a^-1 b a")) == ZF2Element(0, w("a^-1 b a"))

    def test_empty(self):
        assert eval_k_word(w("")) == ZF2Element(0, w(""))

    def test_reduces_free_part(self):
        assert eval_k_word(w("a a^-1 b")) == ZF2Element(0, w("b"))

    def test_homomorphism(self):
        rng = random.Random(113)
        for _ in range(200):
            u = Word(random_word(rng, "ab", 6))
            v = Word(random_word(rng, "ab", 6))
            assert eval_k_word(u * v) == eval_k_word(u) * eval_k_word(v)


class TestIntersectionBall:
    def test_radius_one(self):
        assert {format_word(word) for word in intersection_ball(1)} == {"b", "b^-1"}

    def test_radius_three(self):
        ball = intersection_ball(3)
        assert w("a^-1 b a") in ball and w("a b a^-1") in ball
        assert w("a b") not in ball
        # frozen from exhaustive enumeration of reduced length <= 3 words
        assert {format_word(word) for word in ball} == {
            "b", "b^-1", "b^2", "b^-2", "b^3", "b^-3",
            "a b a^-1", "a b^-1 a^-1", "a^-1 b a", "a^-1 b^-1 a",
        }

    def test_zero_t_exponent_throughout(self):
        for word in intersection_ball(4):
            assert eval_k_word(word).t_exp == 0

    def test_membership_is_exponent_sum_exhaustive(self):
        # every reduced word of length <= 8: in the ball iff zero a-exponent sum
        ball = intersection_ball(8)
        def walk(seq):
            if seq:
                word = Word(seq)
                a_sum = sum(s for g, s in seq if g == "a")
                assert (word in ball) == (a_sum == 0)
            if len(seq) == 8:
                return
            for gen in ("a", "b"):
                for sign in (1, -1):
                    if seq and seq[-1] == (gen, -sign):
                        continue
                    walk(seq + [(gen, sign)])
        walk([])

    def test_bad_radius(self):
        with pytest.raises(InputError):
            intersection_ball(0)


class TestConjugateGenerators:
    def test_small(self):
        assert [format_word(g) for g in conjugate_generators(1)] == [
            "a b a^-1", "b", "a^-1 b a",
        ]

    def test_reduced_and_counted(self):
        gens = conjugate_generators(4)
        assert len(gens) == 9
        for g in gens:
            assert free_reduce(tuple(g.letters)) == tuple(g.letters)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            conjugate_generators(-1)

    def test_letter_count(self):
        for m in range(6):
            assert sum(map(len, conjugate_generators(m))) == 2 * m * m + 4 * m + 1

    def test_cost_is_capped_like_a_word(self):
        # 2m^2 + 4m + 1 letters: m = 706 stays within 10^6, m = 707 does not
        assert 2 * 706**2 + 4 * 706 + 1 <= pcgroups.zf2.MAX_WORD_LETTERS < 2 * 707**2 + 4 * 707 + 1
        for m in (707, 10**8, 10**30):
            with pytest.raises(InputError, match="1000000"):
                conjugate_generators(m)
            with pytest.raises(InputError, match="1000000"):
                certify_not_fg(m)

    def test_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(pcgroups.zf2, "MAX_WORD_LETTERS", 2 * 3 * 3 + 4 * 3 + 1)
        assert certify_not_fg(3).rank == 7
        with pytest.raises(InputError, match="31"):
            certify_not_fg(4)


class TestCertificates:
    def test_stage_zero(self):
        cert = certify_not_fg(0)
        assert cert.verdict and cert.rank == 1
        assert format_word(cert.element) == "a^-1 b a"
        assert [format_word(g) for g in cert.generators] == ["b"]

    def test_stage_three(self):
        cert = certify_not_fg(3)
        assert cert.rank == 7
        assert format_word(cert.element) == "a^-4 b a^4"

    def test_ranks_strictly_increase(self):
        ranks = [certify_not_fg(m).rank for m in range(6)]
        assert ranks == [2 * m + 1 for m in range(6)]

    def test_element_lies_in_intersection(self):
        for m in (0, 1, 2):
            cert = certify_not_fg(m)
            assert cert.element in intersection_ball(2 * m + 3)

    def test_json_view(self):
        assert certify_not_fg(1).to_json_dict() == {
            "m": 1,
            "rank": 3,
            "element": "a^-2 b a^2",
            "verdict": "not_member",
        }

    def test_negative_stage_rejected(self):
        with pytest.raises(InputError):
            certify_not_fg(-1)
