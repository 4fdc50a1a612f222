"""Words over signed generators and the normal form that solves the word
problem in a graph group.

A word is a plain sequence of letters ``x`` or ``x^-1`` whose generators are
vertices of an ambient graph; adjacent vertices commute.  ``normal_form``
returns the canonical representative of the group element: fully reduced (no
inverse pair can be brought together by commuting swaps) and lexicographically
least among its shuffles.

``normal_form`` piles the letters as a heap of pieces, one stack per
generator, and stores each piece with ``c``, the number of live pieces that
do not commute with it when it lands.  The counts of all generators are
fields of ``W = len(w).bit_length() + 1`` bits in one integer, so each letter
costs a constant number of integer operations.  No count exceeds
``len(w) < 2**(W-1)``, so the fields never overflow into each other, and
their top bit is free for the read-off's test: a generator's front piece may
be emitted exactly when its field of (front count - emitted count) is zero.

``free_reduce`` is the same for a free group (no two generators commute):
one stack pass that cancels adjacent inverse pairs.

Word text syntax: whitespace-separated tokens, each a vertex name optionally
suffixed ``^k`` for a nonzero integer ``k``; ``x^-1`` is the inverse and the
empty string is the identity.  A word may expand to at most
``MAX_WORD_LETTERS`` (10**6) letters; ``parse_word`` refuses a longer one
before building any of it.
"""

from __future__ import annotations

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
    # a name cut from a whitespace-split token before its first '^' is
    # non-empty once checked, and holds no '^' or whitespace: a valid
    # generator name, so the letters need no second check in ``Word``
    letters: list = []
    made: dict = {}  # one Letter per (name, sign)
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
        key = (name, 1 if k > 0 else -1)
        letter = made.get(key)
        if letter is None:
            letter = made[key] = Letter(*key)
        if k == 1:
            letters.append(letter)
        else:
            letters += [letter] * abs(k)
    return Word._trusted(tuple(letters))


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


def normal_form(w: Word, g: SimpleGraph) -> NormalWord:
    """Canonical representative of the element of the graph group of ``g``.

    Letters are piled left to right into a heap of pieces, one stack per
    generator: a letter cancels against the most recent piece of its inverse
    unless some non-commuting letter arrived in between, in which case it is
    stacked.  The surviving heap is then read off greedily by least
    generator.  The result is idempotent, never longer than the input, and
    equal for two words exactly when they represent the same group element.

    Counts live in packed ints: each occurring generator, in sorted order,
    owns a field of ``W = len(w).bit_length() + 1`` bits.  A piece of ``x``
    is stored with ``c``, the number of live pieces that do not commute with
    ``x`` when it lands.  Those pieces lie below it and stay live as long as
    it does, because a piece with a live non-commuting piece above it cannot
    cancel.  So a letter ``x^-s`` meets nothing non-commuting above the top
    piece ``x^s`` exactly when that count is still ``c``.  The read-off may
    emit the front piece of ``x`` once all ``c`` pieces below it are out,
    that is when the field of ``x`` in (front counts - emitted counts) is
    zero.  Every count is at most ``len(w)``, below ``2**(W-1)``, so no field
    overflows into the next; an emptied stack's front count is
    ``2**(W-1) - 1``, above any emitted count, which is at most
    ``len(w) - 1``.  So each field of that difference lies in
    ``[0, 2**(W-1))``, adding ``2**(W-1) - 1`` to it never carries out of the
    field, and the sum's top bit is clear exactly when the field was zero.
    The lowest such bit names the least generator that may be emitted.

    Raises ``InputError`` for the first letter, in word order, over a
    generator that is not a vertex of ``g``.
    """
    letters = w.letters
    gens = {gen for gen, _ in letters}
    if not all(map(g.__contains__, gens)):
        unknown = next(gen for gen, _ in letters if gen not in g)
        raise InputError(f"letter over unknown generator {unknown!r}")
    occurring = sorted(gens)
    index = {x: i for i, x in enumerate(occurring)}
    width = len(letters).bit_length() + 1
    mask = (1 << width) - 1
    shifts = [width * i for i in range(len(occurring))]
    # inc[i] has a 1 in the field of each occurring generator that does not
    # commute with occurring[i].  It is read as binary text, last field
    # first: one flag byte per generator (1 where it commutes), each widened
    # to its field.
    commuting, blocking = b"0" * width, b"0" * (width - 1) + b"1"
    backwards = occurring[::-1]
    inc = [
        int(bytes(map(g.neighbors(x).__contains__, backwards))
            .replace(b"\x01", commuting).replace(b"\x00", blocking), 2) - (1 << shift)
        for x, shift in zip(occurring, shifts)
    ]

    stacks: list[list] = [[] for _ in occurring]
    live = 0  # per field: live pieces that do not commute with its generator
    for gen, sign in letters:
        i = index[gen]
        c = (live >> shifts[i]) & mask
        stack = stacks[i]
        if stack and stack[-1] == (c, -sign):
            stack.pop()
            live -= inc[i]
        else:
            stack.append((c, sign))
            live += inc[i]

    top = 1 << (width - 1)
    spent = top - 1
    fill = sum(spent << shift for shift in shifts)
    high = sum(top << shift for shift in shifts)
    for stack in stacks:
        stack.reverse()
    # per field: the front piece's count, minus the non-commuting pieces
    # emitted so far, plus ``spent``
    gap = fill + sum((stack[-1][0] if stack else spent) << shift
                     for stack, shift in zip(stacks, shifts))
    faces = [(Letter(x, 1), Letter(x, -1)) for x in occurring]
    out = []
    for _ in range(sum(map(len, stacks))):
        least = high & ~gap
        # the top bit of field i is bit width * (i + 1) - 1
        i = (least & -least).bit_length() // width - 1
        stack = stacks[i]
        c, sign = stack.pop()
        after = stack[-1][0] if stack else spent
        gap += ((after - c) << shifts[i]) - inc[i]
        out.append(faces[i][sign < 0])
    return NormalWord._trusted(tuple(out))


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
