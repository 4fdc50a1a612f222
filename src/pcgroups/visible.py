"""Visible (parabolic) subgroups: the subgroup generated by a vertex subset.

For a subset Y of the vertices, the inclusion ``alpha_include`` and the
retraction ``rho_retract`` (kill every generator outside Y) compose to the
identity on words over Y, which is why the subgroup generated by Y is a copy
of the graph group of the induced subgraph on Y.

Membership in the subgroup is decided by the support of the normal form: an
element lies in the subgroup generated by Y iff its canonical word only uses
generators from Y.  The support is taken from the word's heap (the piling
phase of ``normal_form``): the generators whose stack is not empty.  So a
non-member is rejected before the normal form is read off.  A member's canonical word is
then already the normal form over the induced subgraph, because the induced
adjacency among Y is the ambient one.

Each function checks its arguments' types in argument order, the word
before the restriction, and then the word's letters.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import InputError, _instance
from .graphs import SimpleGraph, _subset
from .words import NormalWord, Word, _generators, _pile, _read_off, _stacks, support

__all__ = [
    "VertexRestriction",
    "alpha_include",
    "rho_retract",
    "is_in_visible",
    "rewrite_in_visible",
]


class _Restriction(NamedTuple):
    ambient: SimpleGraph
    ys: frozenset[str]


class VertexRestriction(_Restriction):
    """An ambient graph together with a subset of its vertices.

    A named pair whose ``ys`` is always a frozenset of vertices of
    ``ambient``: every way to build one (the constructor, ``_make``,
    ``_replace``, copying and unpickling) goes through ``__new__``, which
    checks the subset."""

    __slots__ = ()

    def __new__(cls, ambient: SimpleGraph, ys):
        return super().__new__(cls, ambient, _subset(ambient, ys))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def alpha_include(w: Word, r: VertexRestriction) -> Word:
    """Reinterpret a word over the induced subgraph as a word over the
    ambient graph.  The letters are unchanged; the map is injective on group
    elements because the retraction undoes it."""
    syllables = _instance(w, Word).syllables
    ys = _instance(r, VertexRestriction).ys
    for gen, _ in syllables:
        if gen not in ys:
            raise InputError(f"letter over generator {gen!r} outside the subset")
    return Word._trusted(syllables)


def rho_retract(w: Word, r: VertexRestriction) -> Word:
    """Delete every letter whose generator lies outside the subset.

    This is a homomorphism onto the subgroup: each defining commutation
    relation is either kept intact or killed entirely.
    """
    _generators(_instance(w, Word), _instance(r, VertexRestriction).ambient)
    return Word._joined(s for s in w.syllables if s[0] in r.ys)


def is_in_visible(w: Word, r: VertexRestriction) -> bool:
    """True iff ``w`` represents an element of the subgroup generated by the
    subset."""
    return support(_instance(w, Word), _instance(r, VertexRestriction).ambient) <= r.ys


def rewrite_in_visible(w: Word, r: VertexRestriction) -> Optional[NormalWord]:
    """Canonical form of ``w`` as a word over the induced subgraph, or None
    when the element lies outside the subgroup.

    Split off from is_in_visible so that the identity element (whose
    canonical word is empty) is not conflated with non-membership.  Only a
    member's heap is read off.
    """
    _instance(w, Word)  # w's type is named before r's
    heap = _pile(_instance(r, VertexRestriction).ambient, w)
    if not _stacks(heap).keys() <= r.ys:
        return None
    return _read_off(heap)
