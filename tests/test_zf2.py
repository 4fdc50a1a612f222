import re

import pytest

import pcgroups.zf2
from pcgroups import InputError, certify_not_fg, conjugate_generators, format_word
from oracles import free_reduce, letters_of


class TestConjugateGenerators:
    def test_small(self):
        assert [format_word(g) for g in conjugate_generators(1)] == [
            "a b a^-1", "b", "a^-1 b a",
        ]

    def test_reduced_and_counted(self):
        gens = conjugate_generators(4)
        assert len(gens) == 9
        for g in gens:
            assert free_reduce(letters_of(g)) == letters_of(g)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            conjugate_generators(-1)

    def test_stage_must_be_an_int(self):
        for m in (1.5, "3", True, 2.0, None):
            with pytest.raises(InputError, match="m must be an int"):
                conjugate_generators(m)
            with pytest.raises(InputError, match="m must be an int"):
                certify_not_fg(m)

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
        # H and K meet in the reduced words with zero a-exponent sum
        for m in (0, 1, 2):
            letters = letters_of(certify_not_fg(m).element)
            assert free_reduce(letters) == letters
            assert sum(sign for gen, sign in letters if gen == "a") == 0

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

    # each RuntimeError guards the construction; break it to see them fire
    @pytest.mark.parametrize("tamper, message", [
        (lambda gens: gens[1:], "stage 3: the automaton has rank 6, not 7"),
        (lambda gens: gens + (pcgroups.zf2._conjugate(4),), "stage 3: the automaton accepted a^-4 b a^4"),
    ], ids=["one conjugate dropped", "the excluded conjugate added"])
    def test_a_broken_construction_is_caught(self, monkeypatch, tamper, message):
        build = pcgroups.zf2.from_generators
        monkeypatch.setattr(pcgroups.zf2, "from_generators", lambda gens, alphabet: build(tamper(gens), alphabet))
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}; "):
            certify_not_fg(3)
