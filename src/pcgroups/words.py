"""Words over signed generators and the normal form that solves the word
problem in a graph group.

A word is a sequence of letters ``x`` or ``x^-1`` whose generators are
vertices of an ambient graph; adjacent vertices commute.  It is stored as its
maximal syllables: pairs ``(x, k)`` with ``k != 0``, each a run of ``|k|``
letters ``x`` (``k > 0``) or ``x^-1`` (``k < 0``), no two neighbours spelling
the same letter.  A word built from letters is run-length encoded as it is
checked, and the syllables are the only form it keeps.  Parsing, the normal
form and formatting work on syllables only, so their cost follows the length
of the text, not the number of letters it stands for.

The word problem is decided in two phases.  The pile (``_pile``) lays the
syllables, left to right, into a heap of pieces, one stack per generator.  A
piece of ``x`` is a run ``(c, k)`` stored with ``c``, the number of live
pieces that do not commute with ``x`` when it lands.  A syllable ``x^k``
that meets ``x``'s top piece with the same count lands on it: the exponents
add, which merges the two when the signs agree and cancels when they differ.
A cancellation that reaches zero pops the piece; one that overshoots leaves
the remainder in its place, with count ``c``.  Any other syllable becomes a
new piece.  The counts of all generators are fields of
``W = (number of syllables).bit_length() + 1`` bits in one integer, so each
syllable costs a constant number of integer operations.  The read-off
(``_read_off``) then writes the heap as the canonical representative of the
group element, a whole piece at a time: fully reduced (no inverse pair can
be brought together by commuting swaps) and lexicographically least among
its shuffles.

The heap alone answers every yes/no or set-valued question, because the
read-off emits every stored piece: an element is trivial exactly when its
heap is empty, and its normal form's generators are those whose stack is
not.  So ``are_equal`` piles ``u v^-1`` once and checks that every stack
ends empty, and ``support`` reads the non-empty stacks; only
``normal_form``, whose word gets printed, runs the read-off.

``free_reduce`` is the normal form in a free group (no two generators
commute): one stack pass over syllables.

Word text syntax: whitespace-separated tokens, each a vertex name (no
whitespace, ``^`` or ``#``) optionally suffixed ``^k`` for a nonzero
integer ``k`` written as ASCII decimal digits after an optional ``-``;
``x^-1`` is the inverse and the empty string is the identity.  A word may
stand for at most ``MAX_WORD_LETTERS`` (10**6) letters; ``parse_word``
refuses a longer one.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterable, NamedTuple, Optional

from .errors import InputError, ParseError, _instance
from .graphs import SimpleGraph, _is_name

__all__ = [
    "MAX_WORD_LETTERS",
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


class Word:
    """An immutable word; not assumed reduced.

    ``syllables`` are its maximal runs ``(gen, k)``, the only form it
    keeps, and ``len`` is the number of letters.  ``Word(letters)`` takes an
    iterable of ``(gen, sign)`` pairs whose sign is the int 1 or -1.  A
    generator name follows the vertex name rule: it may not contain
    whitespace, ``^`` or ``#``, so that the text ``format_word`` writes
    parses back to the same word.
    """

    __slots__ = ("syllables", "_len")

    def __init__(self, letters: Iterable = ()):
        word = Word._joined(_checked_letters(_instance(letters, Iterable)))
        self.syllables = word.syllables
        self._len = word._len

    @classmethod
    def _trusted(cls, syllables: tuple, length: int) -> "Word":
        """Wrap maximal syllables built by this library, and their letter
        count, unchecked."""
        word = object.__new__(cls)
        word.syllables = syllables
        word._len = length
        return word

    @classmethod
    def _joined(cls, syllables: Iterable) -> "Word":
        """The word spelled by checked syllables ``(gen, k != 0)``, with
        neighbours that spell the same letter merged."""
        out: list = []
        length = 0
        last = ("", 0)  # no syllable spells this
        for syllable in syllables:
            gen, k = syllable
            length += abs(k)
            if gen == last[0] and (k > 0) == (last[1] > 0):
                last = out[-1] = (gen, last[1] + k)
            else:
                out.append(syllable)
                last = syllable
        return cls._trusted(tuple(out), length)

    @classmethod
    def gen(cls, name: str, sign: int = 1) -> "Word":
        return cls(((name, sign),))

    def inverse(self) -> "Word":
        return Word._trusted(tuple((g, -k) for g, k in reversed(self.syllables)), self._len)

    def __invert__(self) -> "Word":
        return self.inverse()

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __pow__(self, n: int) -> "Word":
        if type(n) is not int:
            raise InputError(f"exponent must be an int, got {n!r}")
        if n < 0:
            return self.inverse() ** (-n)
        return Word._joined(self.syllables * n)

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._len == other._len and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_word(self)!r})"


def _checked_letters(letters: Iterable):
    """Each letter as a ``(generator, sign)`` pair, checked as it is read;
    a generator name is checked once."""
    names: set[str] = set()
    for item in letters:
        try:
            gen, sign = item
        except (TypeError, ValueError):
            raise InputError(f"letter must be a (generator, sign) pair, got {item!r}") from None
        if type(sign) is not int or sign not in (1, -1):
            raise InputError(f"letter sign must be the int 1 or -1, got {sign!r}")
        if not (isinstance(gen, str) and gen in names):
            if not _is_name(gen):
                raise InputError(f"letter generator must be a non-empty string without "
                                 f"whitespace, '^' or '#', got {gen!r}")
            names.add(gen)
        yield gen, sign


class NormalWord(Word):
    """A word already in canonical form; only the read-off builds these."""

    __slots__ = ()


def _decimal(text: str) -> Optional[int]:
    """The int that ``text`` writes as ASCII decimal digits after an optional
    ``-``; None for any other spelling."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's cap on digits int() reads
            pass
    return None


def _syllable(tok: str) -> tuple:
    """The syllable ``(name, k)`` one token spells."""
    # a name cut from a whitespace-split token before its first '^' holds
    # no '^' or whitespace; once checked non-empty and free of '#' it is a
    # valid generator name, so the syllables need no second check in ``Word``
    name, caret, exp = tok.partition("^")
    if not name:
        raise ParseError(f"bad token {tok!r}")
    if "#" in name:
        raise ParseError(f"bad token {tok!r}: a generator name may not contain '#'")
    if not caret:
        return name, 1
    k = _decimal(exp)
    if k is None:
        raise ParseError(f"bad exponent in token {tok!r}")
    if k == 0:
        raise ParseError(f"zero exponent in token {tok!r}")
    return name, k


def parse_word(text: str) -> Word:
    """Parse the token syntax into syllables; ``x^3`` is one syllable, and
    neighbouring tokens that spell the same letter share one.

    Raises ``ParseError`` when the word would pass ``MAX_WORD_LETTERS``
    letters.
    """
    tokens = _instance(text, str).split()
    # one syllable per distinct token, made in text order so that the first
    # bad token is the one reported; a word repeats few tokens
    made = {tok: _syllable(tok) for tok in dict.fromkeys(tokens)}
    word = Word._joined(map(made.__getitem__, tokens))
    if word._len > MAX_WORD_LETTERS:  # len() refuses counts past sys.maxsize
        raise ParseError(f"word expands to more than {MAX_WORD_LETTERS} letters")
    return word


def format_word(w: Word) -> str:
    """One token per syllable, e.g. ``a^-2 b a^3``; identity -> ''."""
    return " ".join(gen if k == 1 else f"{gen}^{k}" for gen, k in _instance(w, Word).syllables)


def multiply(*words: Word) -> Word:
    return Word._joined(s for w in words for s in _instance(w, Word).syllables)


def invert(w: Word) -> Word:
    return _instance(w, Word).inverse()


def commutator(u, v) -> Word:
    """The word u v u^-1 v^-1; bare strings are taken as single generators.
    Raises ``InputError`` unless each of ``u`` and ``v`` is a ``str`` or a
    ``Word``."""
    u = Word.gen(u) if isinstance(u, str) else _instance(u, Word)
    v = Word.gen(v) if isinstance(v, str) else _instance(v, Word)
    return u * v * u.inverse() * v.inverse()


def normal_form(w: Word, g: SimpleGraph) -> NormalWord:
    """Canonical representative of the element of the graph group of ``g``.

    ``_read_off(_pile(g, w))``: the syllables are piled left to right into a
    heap of pieces, one stack per generator, and the heap is read off
    greedily by least generator, a whole piece at a time.  The result is
    idempotent, never longer than the input, and equal for two words exactly
    when they represent the same group element.

    Raises ``InputError`` for the first syllable, in word order, over a
    generator that is not a vertex of ``g``.
    """
    return _read_off(_pile(g, w))


class _Heap(NamedTuple):
    """A piling: the occurring generators in sorted order, the width of
    each one's count field, each one's ``inc`` row, and its stack of pieces
    ``(c, k)`` from bottom to top."""

    occurring: list
    width: int
    inc: list
    stacks: list


def _generators(w: Word, g: SimpleGraph) -> set:
    """The generators of ``w``; raises ``InputError`` for the first
    syllable, in word order, over a generator that is not a vertex of
    ``g``; and ``InputError`` unless ``w`` is a ``Word`` and ``g`` a
    ``SimpleGraph``."""
    syllables = _instance(w, Word).syllables
    gens = {gen for gen, _ in syllables}
    if not all(map(_instance(g, SimpleGraph).__contains__, gens)):
        unknown = next(gen for gen, _ in syllables if gen not in g)
        raise InputError(f"letter over unknown generator {unknown!r}")
    return gens


def _pile(g: SimpleGraph, w: Word, divisor: Optional[Word] = None) -> _Heap:
    """The heap of pieces of ``w``, or of ``w divisor^-1``.

    The heap decides the element: it is trivial exactly when every stack
    ends empty, and the generators of its normal form are those whose stack
    does not, since the read-off emits every stored piece whole.
    ``divisor^-1`` is piled as ``divisor``'s syllables in reverse with
    negated exponents; no inverse word is built.  The generators of ``w``
    and then of ``divisor`` are checked, each in word order, before any
    syllable is piled.

    Counts live in packed ints: each occurring generator, in sorted order,
    owns a field of ``W = m.bit_length() + 1`` bits, ``m`` the number of
    syllables.  A piece of ``x`` is stored with ``c``, the number of live
    pieces that do not commute with ``x`` when it lands.  Those pieces lie
    below it and stay live and unchanged as long as it does, because a piece
    with a live non-commuting piece above it is never landed on: a syllable
    over its generator counts that piece too.  So a syllable ``x^k`` meets
    nothing non-commuting above the top piece ``(c, t)`` of ``x`` exactly
    when the count is still ``c``.  It then lands on the piece, which becomes
    ``(c, t + k)``, or is popped when that is zero; an overshooting
    cancellation leaves the remainder with the count ``c`` it lands with.
    Only a new or a popped piece moves the counts.  So a stack's counts rise
    strictly from bottom to top, and no count exceeds ``m``.
    """
    gens = _generators(w, g)
    syllables = w.syllables
    m = len(syllables)
    if divisor is not None:
        gens |= _generators(divisor, g)
        m += len(divisor.syllables)
        syllables = chain(syllables, [(gen, -k) for gen, k in reversed(divisor.syllables)])
    occurring = sorted(gens)
    index = {x: i for i, x in enumerate(occurring)}
    width = m.bit_length() + 1
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
    for gen, k in syllables:
        i = index[gen]
        c = (live >> shifts[i]) & mask
        stack = stacks[i]
        if stack and stack[-1][0] == c:
            k += stack[-1][1]
            if k:
                stack[-1] = (c, k)
            else:
                stack.pop()
                live -= inc[i]
        else:
            stack.append((c, k))
            live += inc[i]
    return _Heap(occurring, width, inc, stacks)


def _read_off(heap: _Heap) -> NormalWord:
    """The lexicographically least word of a heap; empties its stacks.

    Read off letter by letter, a piece would still come out whole.  Each of
    its letters has the count ``c``, and emitting ``x`` changes only the
    fields of generators that do not commute with ``x``, so ``x`` stays
    ready.  Such a generator ``y`` is not waiting on only part of the piece:
    if ``y``'s front piece lies above it, it counted the whole piece; if
    below, ``x`` could not have been emitted before it.  So ``x`` stays the
    least ready generator, and the read-off emits the whole piece at once.
    It may emit the front piece of ``x`` once all ``c`` pieces below it are
    out, that is when the field of ``x`` in (front counts - emitted counts)
    is zero.  An emptied stack's front count is ``2**(W-1) - 1``, above any
    emitted count, which is at most ``m - 1``.  So each field of that
    difference lies in ``[0, 2**(W-1))``, adding ``2**(W-1) - 1`` to it
    never carries out of the field, and the sum's top bit is clear exactly
    when the field was zero.  The lowest such bit names the least generator
    that may be emitted.  Two pieces of one generator never come out next to
    each other, since the next piece's count is higher, so the output
    syllables are maximal.
    """
    occurring, width, inc, stacks = heap
    shifts = [width * i for i in range(len(occurring))]
    top = 1 << (width - 1)
    spent = top - 1
    fill = sum(spent << shift for shift in shifts)
    high = sum(top << shift for shift in shifts)
    for stack in stacks:
        stack.reverse()
    # per field: the front piece's count, minus the non-commuting pieces
    # emitted so far, plus ``spent``; never negative, so the bit tricks
    # below stay on non-negative ints
    gap = fill + sum((stack[-1][0] if stack else spent) << shift
                     for stack, shift in zip(stacks, shifts))
    out = []
    length = 0
    for _ in range(sum(map(len, stacks))):
        # the clear top bits of ``gap``; the lowest is bit width * (i + 1) - 1
        least = high - (gap & high)
        i = (least ^ (least - 1)).bit_length() // width - 1
        stack = stacks[i]
        c, k = stack.pop()
        after = stack[-1][0] if stack else spent
        gap += ((after - c) << shifts[i]) - inc[i]
        out.append((occurring[i], k))
        length += abs(k)
    return NormalWord._trusted(tuple(out), length)


def free_reduce(w: Word, alphabet: Collection[str]) -> Word:
    """Free reduction of ``w`` over the generators in ``alphabet``: the
    normal form in the free group, where no two generators commute.

    One stack of syllables: a syllable over the top's generator lands on it,
    so ``a^-k b a^k`` takes three steps.  Neighbours on the stack have
    different generators.

    Raises ``InputError`` unless ``w`` is a ``Word`` and ``alphabet`` a
    collection, and on a letter over a generator outside ``alphabet``.
    """
    alphabet = _instance(alphabet, Collection)
    out: list = []
    for gen, k in _instance(w, Word).syllables:
        if gen not in alphabet:
            raise InputError(f"letter over unknown generator {gen!r}")
        if out and out[-1][0] == gen:
            k += out[-1][1]
            if k:
                out[-1] = (gen, k)
            else:
                out.pop()
        else:
            out.append((gen, k))
    return Word._trusted(tuple(out), sum(abs(k) for _, k in out))


def are_equal(u: Word, v: Word, g: SimpleGraph) -> bool:
    """Word problem: do ``u`` and ``v`` represent the same group element?

    They do exactly when ``u v^-1`` is trivial, that is when its one heap
    ends with every stack empty; nothing is read off.
    """
    return not any(_pile(g, u, _instance(v, Word)).stacks)  # None would pile u alone


def support(w: Word, g: SimpleGraph) -> frozenset[str]:
    """Generators that survive in the normal form of ``w``: those whose
    stack in the heap of ``w`` is not empty.  Nothing is read off."""
    heap = _pile(g, w)
    return frozenset(x for x, stack in zip(heap.occurring, heap.stacks) if stack)
