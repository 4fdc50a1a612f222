"""A concrete failure of the Howson property inside Z x F2.

Write Z x F2 with central generator t and free generators a, b.  The
subgroups H = <a, b> and K = <ta, b> are both free of rank two, yet their
intersection consists of the words with zero a-exponent sum, i.e. the normal
closure of b in F2, generated by the conjugates a^-k b a^k over all integers
k and by no finite set.

Nothing here asserts the infinite statement directly.  For each bound m,
``certify_not_fg`` builds the Stallings automaton of the 2m+1 conjugates with
|k| <= m, checks that rank grew to 2m+1, and that the next conjugate
a^-(m+1) b a^(m+1) is rejected, so every candidate finite generating set is
defeated at some stage.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .stallings import StallingsGraph, from_generators
from .words import MAX_WORD_LETTERS, Word, format_word

__all__ = [
    "FREE_ALPHABET",
    "NonFgCertificate",
    "conjugate_generators",
    "certify_not_fg",
]

FREE_ALPHABET = ("a", "b")


def _conjugate(k: int) -> Word:
    """The word a^-k b a^k."""
    return Word._trusted((("a", -k), ("b", 1), ("a", k)) if k else (("b", 1),))


def conjugate_generators(m: int) -> tuple[Word, ...]:
    """The words a^-k b a^k for k = -m..m.

    They total 2m^2 + 4m + 1 letters; raises ``InputError`` when that passes
    ``MAX_WORD_LETTERS``, the cap on one parsed word (so m <= 706), and
    unless m is an int >= 0."""
    if type(m) is not int:
        raise InputError(f"m must be an int, got {m!r}")
    if m < 0:
        raise InputError("m must be >= 0")
    letters = 2 * m * m + 4 * m + 1
    if letters > MAX_WORD_LETTERS:
        raise InputError(
            f"the {2 * m + 1} conjugates for m = {m} total {letters} letters, "
            f"more than {MAX_WORD_LETTERS}"
        )
    return tuple(map(_conjugate, range(-m, m + 1)))


class NonFgCertificate(NamedTuple):
    """Stage-m evidence that the intersection is not finitely generated:
    the 2m+1 conjugates miss the next one."""

    m: int
    rank: int
    element: Word
    generators: tuple[Word, ...]
    verdict: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "rank": self.rank,
            "element": format_word(self.element),
            "verdict": "not_member" if self.verdict else "member",
        }


def certify_not_fg(m: int) -> NonFgCertificate:
    """Build and check the stage-m certificate.

    Raises ``InputError`` on an m that ``conjugate_generators`` refuses, and
    RuntimeError if the automaton unexpectedly accepts the excluded
    conjugate or has a rank other than 2m+1; that would mean a bug in the
    construction, not new mathematics.
    """
    gens = conjugate_generators(m)
    sg: StallingsGraph = from_generators(gens, FREE_ALPHABET)
    element = _conjugate(m + 1)
    if sg.member(element):
        raise RuntimeError(
            f"stage {m}: the automaton accepted {format_word(element)}; "
            "the folding or membership code is broken"
        )
    rank = sg.rank()
    if rank != 2 * m + 1:
        raise RuntimeError(
            f"stage {m}: the automaton has rank {rank}, not {2 * m + 1}; "
            "the folding code is broken"
        )
    return NonFgCertificate(
        m=m,
        rank=rank,
        element=element,
        generators=gens,
        verdict=True,
    )
