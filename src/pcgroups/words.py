"""Words over signed generators and the normal form that solves the word
problem in a graph group.

A word is a plain sequence of letters ``x`` or ``x^-1`` whose generators are
vertices of an ambient graph; adjacent vertices commute.  ``normal_form``
returns the canonical representative of the group element: fully reduced (no
inverse pair can be brought together by commuting swaps) and lexicographically
least among its shuffles.

``free_reduce`` is the same for a free group (no two generators commute):
one stack pass that cancels adjacent inverse pairs.

Word text syntax: whitespace-separated tokens, each a vertex name optionally
suffixed ``^k`` for a nonzero integer ``k``; ``x^-1`` is the inverse and the
empty string is the identity.  A word may expand to at most
``MAX_WORD_LETTERS`` (10**6) letters; ``parse_word`` refuses a longer one
before building any of it.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, NamedTuple

from .errors import InputError, ParseError
from .graphs import SimpleGraph

__all__ = [
    "MAX_WORD_LETTERS",
    "Letter",
    "Word",
    "NormalWord",
    "parse_word",
    "format_word",
    "multiply",
    "invert",
    "commutator",
    "normal_form",
    "free_reduce",
    "are_equal",
    "support",
]

MAX_WORD_LETTERS = 10**6


class Letter(NamedTuple):
    gen: str
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    def __str__(self) -> str:
        return self.gen if self.sign > 0 else f"{self.gen}^-1"


class Word:
    """An immutable sequence of letters; not assumed reduced.

    A generator name may not contain ``^`` or whitespace, so that the text
    ``format_word`` writes parses back to the same word.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable = ()):
        out = []
        names: set[str] = set()
        for item in letters:
            gen, sign = item
            if sign not in (1, -1):
                raise InputError(f"letter sign must be +1 or -1, got {sign!r}")
            if not (isinstance(gen, str) and gen in names):
                if not isinstance(gen, str) or not gen or "^" in gen or gen.split() != [gen]:
                    raise InputError(f"letter generator must be a non-empty string "
                                     f"without '^' or whitespace, got {gen!r}")
                names.add(gen)
            out.append(Letter(gen, sign))
        self.letters = tuple(out)

    @classmethod
    def _trusted(cls, letters: tuple) -> "Word":
        """Wrap a tuple of ``Letter``s built by this library, unchecked."""
        word = object.__new__(cls)
        word.letters = letters
        return word

    @classmethod
    def gen(cls, name: str, sign: int = 1) -> "Word":
        return cls(((name, sign),))

    def inverse(self) -> "Word":
        return Word._trusted(tuple(Letter(g, -s) for g, s in reversed(self.letters)))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __mul__(self, other: "Word") -> "Word":
        return Word._trusted(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word._trusted(self.letters * n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_word(self)!r})"


class NormalWord(Word):
    """A word already in canonical form; only ``normal_form`` builds these."""

    __slots__ = ()


def parse_word(text: str) -> Word:
    """Parse the token syntax; ``x^3`` expands to three letters.

    Raises ``ParseError`` when the expansion would pass ``MAX_WORD_LETTERS``.
    """
    letters = []
    for tok in text.split():
        name, caret, exp = tok.partition("^")
        if not name:
            raise ParseError(f"bad token {tok!r}")
        if caret:
            try:
                k = int(exp)
            except ValueError:
                raise ParseError(f"bad exponent in token {tok!r}") from None
            if k == 0:
                raise ParseError(f"zero exponent in token {tok!r}")
        else:
            k = 1
        if len(letters) + abs(k) > MAX_WORD_LETTERS:
            raise ParseError(f"word expands to more than {MAX_WORD_LETTERS} letters")
        sign = 1 if k > 0 else -1
        letters.extend((name, sign) for _ in range(abs(k)))
    return Word(letters)


def format_word(w: Word) -> str:
    """Tokens with maximal runs compressed, e.g. ``a^-2 b a^3``; identity -> ''."""
    parts = []
    run_gen, run_sign, run_len = None, 0, 0

    def flush():
        if run_len == 0:
            return
        k = run_sign * run_len
        parts.append(run_gen if k == 1 else f"{run_gen}^{k}")

    for gen, sign in w.letters:
        if gen == run_gen and sign == run_sign:
            run_len += 1
        else:
            flush()
            run_gen, run_sign, run_len = gen, sign, 1
    flush()
    return " ".join(parts)


def multiply(*words: Word) -> Word:
    out: tuple = ()
    for w in words:
        out += w.letters
    return Word._trusted(out)


def invert(w: Word) -> Word:
    return w.inverse()


def commutator(u, v) -> Word:
    """The word u v u^-1 v^-1; bare strings are taken as single generators."""
    if isinstance(u, str):
        u = Word.gen(u)
    if isinstance(v, str):
        v = Word.gen(v)
    return u * v * u.inverse() * v.inverse()


def _checked_letters(w: Word, g: SimpleGraph) -> tuple:
    for gen, _ in w.letters:
        if gen not in g:
            raise InputError(f"letter over unknown generator {gen!r}")
    return w.letters


def _pile(letters, piles, blockers) -> None:
    # One stack per generator.  A letter lands on its own stack; every
    # non-commuting generator's stack receives a 0 marker so later inverses
    # know they are blocked.  A letter whose own stack top is its unblocked
    # inverse cancels instead, popping the partner's markers everywhere.
    for gen, sign in letters:
        pile = piles[gen]
        if pile and pile[-1] == -sign:
            pile.pop()
            for other in blockers[gen]:
                piles[other].pop()
        else:
            pile.append(sign)
            for other in blockers[gen]:
                piles[other].append(0)


def _depile(piles, order, blockers) -> list:
    # Greedy linearization: repeatedly emit the least generator whose stack
    # front is an actual letter.  This yields the lexicographically least
    # shuffle of the reduced word.
    remaining = sum(1 for pile in piles.values() for entry in pile if entry)
    out = []
    while remaining:
        for gen in order:
            pile = piles[gen]
            if pile and pile[0]:
                out.append(Letter(gen, pile[0]))
                pile.popleft()
                for other in blockers[gen]:
                    piles[other].popleft()
                remaining -= 1
                break
        else:  # pragma: no cover - the heap always has a minimal letter
            raise AssertionError("piling invariant broken")
    return out


def normal_form(w: Word, g: SimpleGraph) -> NormalWord:
    """Canonical representative of the element of the graph group of ``g``.

    Letters are piled left to right: a letter cancels against the most recent
    occurrence of its inverse unless some non-commuting letter arrived in
    between, in which case it is stacked.  The surviving heap is then read off
    greedily by least generator.  The result is idempotent, never longer than
    the input, and equal for two words exactly when they represent the same
    group element.
    """
    letters = _checked_letters(w, g)
    occurring = sorted({gen for gen, _ in letters})
    blockers = {
        x: tuple(y for y in occurring if y != x and y not in g.neighbors(x))
        for x in occurring
    }
    piles = {x: deque() for x in occurring}
    _pile(letters, piles, blockers)
    return NormalWord._trusted(tuple(_depile(piles, occurring, blockers)))


def free_reduce(w: Word, alphabet: Collection[str]) -> Word:
    """Free reduction of ``w`` over the generators in ``alphabet``: the
    normal form in the free group, where no two generators commute.

    Raises ``InputError`` on a letter over a generator outside ``alphabet``.
    """
    out: list = []
    for letter in w.letters:
        gen, sign = letter
        if gen not in alphabet:
            raise InputError(f"letter over unknown generator {gen!r}")
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append(letter)
    return Word._trusted(tuple(out))


def are_equal(u: Word, v: Word, g: SimpleGraph) -> bool:
    """Word problem: do ``u`` and ``v`` represent the same group element?"""
    return normal_form(u, g).letters == normal_form(v, g).letters


def support(w: Word, g: SimpleGraph) -> frozenset[str]:
    """Generators that survive in the normal form of ``w``."""
    return frozenset(gen for gen, _ in normal_form(w, g).letters)
