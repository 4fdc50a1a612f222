import itertools
import random

import pytest

from pcgroups import (
    InputError,
    SimpleGraph,
    VertexRestriction,
    Word,
    alpha_include,
    are_equal,
    induced_subgraph,
    is_in_visible,
    normal_form,
    parse_word,
    rewrite_in_visible,
    rho_retract,
)
from oracles import all_labeled_graphs, letters_of, random_word

PATH = SimpleGraph(("x", "y", "z"), [("x", "y"), ("y", "z")])


def w(text):
    return parse_word(text)


def test_restriction_validates_subset():
    with pytest.raises(InputError, match="^unknown vertex 'q'$"):
        VertexRestriction(PATH, {"x", "r", "q"})
    with pytest.raises(InputError, match=r"^unknown vertex \['a'\]$"):
        VertexRestriction(PATH, [["a"]])


class TestAlpha:
    def test_empty(self):
        r = VertexRestriction(PATH, {"y"})
        assert alpha_include(w(""), r) == w("")

    def test_passthrough(self):
        r = VertexRestriction(PATH, {"y", "z"})
        assert alpha_include(w("y z^-1 y"), r) == w("y z^-1 y")

    def test_rejects_outside_letters(self):
        r = VertexRestriction(PATH, {"y"})
        with pytest.raises(InputError, match="'x'"):
            alpha_include(w("x"), r)

    def test_preserves_equality_both_ways(self):
        rng = random.Random(41)
        for g in all_labeled_graphs(4):
            verts = g.vertices
            ys = tuple(v for v in verts if rng.random() < 0.6)
            r = VertexRestriction(g, ys)
            if not ys:
                continue
            sub = induced_subgraph(g, ys)
            for _ in range(5):
                u = Word(random_word(rng, ys, 5))
                v = Word(random_word(rng, ys, 5))
                assert are_equal(u, v, sub) == are_equal(
                    alpha_include(u, r), alpha_include(v, r), g
                )


def test_entry_points_refuse_what_is_not_a_word():
    r = VertexRestriction(PATH, {"x", "y"})
    for call in (alpha_include, rho_retract, is_in_visible, rewrite_in_visible):
        for thing in ("x", ["x"], [("x", 1)]):
            with pytest.raises(InputError, match="^expected a Word, got "):
                call(thing, r)


class TestRho:
    def test_deletes_outside(self):
        r = VertexRestriction(PATH, {"y"})
        assert rho_retract(w("x y x^-1"), r) == w("y")

    def test_keeps_inside(self):
        r = VertexRestriction(PATH, {"x", "y"})
        assert rho_retract(w("x y^-1 x"), r) == w("x y^-1 x")

    def test_rejects_unknown(self):
        r = VertexRestriction(PATH, {"y"})
        with pytest.raises(InputError, match="'q'"):
            rho_retract(w("q"), r)

    def test_homomorphism(self):
        rng = random.Random(43)
        r = VertexRestriction(PATH, {"x", "z"})
        for _ in range(100):
            u = Word(random_word(rng, "xyz", 6))
            v = Word(random_word(rng, "xyz", 6))
            assert are_equal(
                rho_retract(u * v, r),
                rho_retract(u, r) * rho_retract(v, r),
                induced_subgraph(PATH, {"x", "z"}),
            )


def test_retraction_is_identity():
    # rho after alpha fixes every word over the subset; the acceptance suite
    # sweeps all graphs on <= 5 vertices
    rng = random.Random(47)
    for g in all_labeled_graphs(3):
        for size in range(len(g.vertices) + 1):
            for ys in itertools.combinations(g.vertices, size):
                r = VertexRestriction(g, ys)
                sub = induced_subgraph(g, ys)
                for _ in range(10):
                    word = Word(random_word(rng, ys, 8)) if ys else w("")
                    back = rho_retract(alpha_include(word, r), r)
                    assert normal_form(back, sub) == normal_form(word, sub)


def test_alpha_rho_not_identity_other_way():
    r = VertexRestriction(PATH, {"y"})
    word = w("x")
    assert rho_retract(word, r).syllables == ()
    assert normal_form(word, PATH).syllables != ()


class TestMembership:
    def test_inside_letters(self):
        r = VertexRestriction(PATH, {"y", "z"})
        assert is_in_visible(w("y z^-1"), r)

    def test_outside_generator(self):
        r = VertexRestriction(PATH, {"y"})
        assert not is_in_visible(w("x"), r)

    def test_conjugate_collapses_in(self):
        # x commutes with y, so x y x^-1 is just y
        r = VertexRestriction(PATH, {"y"})
        assert is_in_visible(w("x y x^-1"), r)
        assert rewrite_in_visible(w("x y x^-1"), r) == w("y")

    def test_identity_is_member_with_empty_rewrite(self):
        r = VertexRestriction(PATH, {"y"})
        assert is_in_visible(w("x x^-1"), r)
        rewritten = rewrite_in_visible(w("x x^-1"), r)
        assert rewritten is not None and rewritten.syllables == ()

    def test_non_member_has_no_rewrite(self):
        r = VertexRestriction(PATH, {"y"})
        assert rewrite_in_visible(w("z y"), r) is None

    def test_alpha_images_are_members(self):
        rng = random.Random(53)
        for g in all_labeled_graphs(4):
            ys = tuple(v for v in g.vertices if rng.random() < 0.5)
            r = VertexRestriction(g, ys)
            sub = induced_subgraph(g, ys)
            for _ in range(5):
                word = Word(random_word(rng, ys, 6)) if ys else w("")
                assert is_in_visible(alpha_include(word, r), r)
                # the ambient normal form of a member is its induced one
                assert rewrite_in_visible(alpha_include(word, r), r) == normal_form(word, sub)


def test_membership_agrees_with_enumeration():
    # oracle: enumerate the subgroup as normal forms of all products of <= L
    # subset letters; the comparison is then valid for test words whose
    # normal form has length <= L/2.  L shrinks with |Y| to keep the balls
    # enumerable (a free rank-4 ball of radius 6 has ~10^5 elements).
    rng = random.Random(59)
    cases = []
    for g in all_labeled_graphs(3):
        for size in range(4):
            for ys in itertools.combinations(g.vertices, size):
                cases.append((g, ys))
    for g in all_labeled_graphs(4):
        if rng.random() < 0.4:
            size = rng.randrange(len(g.vertices) + 1)
            cases.append((g, tuple(rng.sample(g.vertices, size))))
    for g, ys in cases:
        depth = 6 if len(ys) <= 2 else 4
        r = VertexRestriction(g, ys)
        ball = {()}
        frontier = [()]
        letters = [(y, s) for y in ys for s in (1, -1)]
        for _ in range(depth):
            new = []
            for el in frontier:
                for letter in letters:
                    nf = letters_of(normal_form(Word(el + (letter,)), g))
                    if nf not in ball:
                        ball.add(nf)
                        new.append(nf)
            frontier = new
        for _ in range(30):
            word = Word(random_word(rng, g.vertices, 5))
            nf = letters_of(normal_form(word, g))
            if len(nf) > depth // 2:
                continue
            assert is_in_visible(word, r) == (nf in ball)
