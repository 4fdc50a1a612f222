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
its shuffles.  Before the pile, the CLI's ``equal`` and ``member-visible``
check a certificate that needs no heap: the exponent sums (``_tallied``,
read from a word's token counts) are a homomorphism onto ``Z^V``, so words
whose sums differ are unequal, and a word with a non-zero sum outside a
vertex subset is not in the subgroup the subset generates.

The heap alone answers every yes/no or set-valued question, because it
belongs to the group element, not to the word that spelled it: its pieces
are the syllables of the normal form, and a piece's count is the number of
non-commuting pieces below it.  So two words are equal exactly when their
heaps have the same non-empty stacks (``_stacks``), and an element's normal
form uses the generators whose stack is not empty.  ``are_equal`` piles
each word and compares the stacks, and ``support`` reads their generators;
only ``normal_form``, whose word gets printed, runs the read-off.

``free_reduce`` is the normal form in a free group (no two generators
commute): one stack pass over syllables.  ``stallings`` runs its own such
pass, which writes the automaton's rows and letter counts as it reduces,
on the words it builds from and traces; the command line reads a generator
file's tokens straight into that build, with no ``Word``.

Word text syntax: whitespace-separated tokens, each a vertex name (no
whitespace, ``^`` or ``#``) optionally suffixed ``^k`` for a nonzero
integer ``k`` written as ASCII decimal digits after an optional ``-``;
``x^-1`` is the inverse and the empty string is the identity.  A word may
stand for at most ``MAX_WORD_LETTERS`` (10**6) letters.  ``parse_word``
refuses a longer one with ``ParseError``; ``Word``, ``*``, ``**`` and
``multiply`` refuse one with ``InputError``, and ``**`` does so before it
builds anything.
"""

from __future__ import annotations

from collections import Counter
from itertools import filterfalse
from typing import Collection, Iterable, Optional

from .errors import InputError, ParseError, _instance
from .graphs import SimpleGraph, _check_names

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

    __slots__ = ("syllables",)

    def __init__(self, letters: Iterable = ()):
        self.syllables = Word._joined(_checked_letters(_instance(letters, Iterable))).syllables

    @classmethod
    def _trusted(cls, syllables: tuple) -> "Word":
        """Wrap maximal syllables built by this library, unchecked."""
        word = object.__new__(cls)
        word.syllables = syllables
        return word

    @classmethod
    def _joined(cls, syllables: Iterable, too_long=InputError) -> "Word":
        """The word spelled by checked syllables ``(gen, k != 0)``, with
        neighbours that spell the same letter merged; raises ``too_long``
        when it passes ``MAX_WORD_LETTERS`` letters."""
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
        if length > MAX_WORD_LETTERS:
            raise too_long(f"word expands to more than {MAX_WORD_LETTERS} letters")
        return cls._trusted(tuple(out))

    @classmethod
    def gen(cls, name: str, sign: int = 1) -> "Word":
        return cls(((name, sign),))

    def inverse(self) -> "Word":
        return Word._trusted(tuple((g, -k) for g, k in reversed(self.syllables)))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __pow__(self, n: int) -> "Word":
        if type(n) is not int:
            raise InputError(f"exponent must be an int, got {n!r}")
        if len(self) * abs(n) > MAX_WORD_LETTERS:  # refused before anything is built
            raise InputError(f"word expands to more than {MAX_WORD_LETTERS} letters")
        if n and len(self.syllables) == 1:  # stays one syllable; no n copies are made
            return Word._trusted(tuple((gen, k * n) for gen, k in self.syllables))
        return Word._joined((self if n > 0 else self.inverse()).syllables * abs(n))

    def __len__(self) -> int:
        return sum(abs(k) for _, k in self.syllables)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.syllables == other.syllables

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
            _check_names((gen,), "letter generator must be a non-empty string")
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
    return _parsed(_instance(text, str).split(), {})


def _parsed(tokens: list, made: dict) -> Word:
    """The word that ``tokens`` spell.  ``made`` maps tokens to the
    syllables they spell and gains this word's new ones, so that the words
    of one file share it and each distinct token is parsed once.

    The new tokens are parsed in text order, so the first bad one is the
    one reported; a bad token raises before it enters ``made``.  Raises
    ``ParseError`` when the word would pass ``MAX_WORD_LETTERS`` letters."""
    for tok in filterfalse(made.__contains__, dict.fromkeys(tokens)):
        made[tok] = _syllable(tok)
    return Word._joined(map(made.__getitem__, tokens), ParseError)


def _tallied(tokens: list, made: dict, g: SimpleGraph) -> dict:
    """The non-zero exponent sums, by generator, of the word that
    ``tokens`` spell, read from each distinct token's count; ``made`` is
    filled as ``_parsed`` fills it, so ``_parsed(tokens, made)`` then parses
    nothing.

    Raises what ``_generators(_parsed(tokens, made), g)`` raises, in its
    order: ``ParseError`` for the first bad token in text order, then for a
    word past ``MAX_WORD_LETTERS`` letters, then ``InputError`` for the
    first letter, in word order, over a generator that is not a vertex of
    ``g``.  A bad token raises as it is counted; a word past the cap or
    over an unknown generator is then read by that reference path, which
    raises."""
    sums: dict = {}
    letters = 0
    for tok, n in Counter(tokens).items():  # in first-seen order, so text order
        gen, k = made.get(tok) or made.setdefault(tok, _syllable(tok))
        letters += abs(k) * n
        sums[gen] = sums.get(gen, 0) + k * n
    if letters > MAX_WORD_LETTERS or not all(map(g.__contains__, sums)):
        _generators(_parsed(tokens, made), g)
    return {gen: total for gen, total in sums.items() if total}


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


def _pile(g: SimpleGraph, w: Word) -> tuple[int, dict]:
    """The heap of pieces of ``w``: the pair ``(width, pieces)`` of the
    width of each count field and a dict, in sorted generator order, from
    each occurring generator to its record ``(shift, row, stack)``: the
    shift of its count field, its blocking row (a 1 in the field of each
    occurring generator that does not commute with it), and its stack of
    pieces ``(c, k)`` from bottom to top.

    The heap decides the element: its non-empty stacks (``_stacks``) are
    the same for every word that spells it, and the generators of its
    normal form are those whose stack is not empty, since the read-off
    emits every stored piece whole.  The generators of ``w`` are checked,
    in word order, before any syllable is piled.

    Counts live in packed ints: each occurring generator, in sorted order, owns
    a field of ``W = m.bit_length() + 1`` bits, ``m`` the number of
    syllables.  Its one record holds the field's shift, its stack, and its
    blocking row, a 1 in every field but its own and its occurring
    neighbours': a new piece of it adds the row to the counts, and a popped
    one takes it away.  A piece of ``x`` is stored with ``c``, the number of
    live pieces that do not commute with ``x`` when it lands.  Those pieces
    lie below it and stay live and unchanged as long as it does, because a
    piece with a live non-commuting piece above it is never landed on: a
    syllable over its generator counts that piece too.  So a syllable
    ``x^k`` meets nothing non-commuting above the top piece ``(c, t)`` of
    ``x`` exactly when the count is still ``c``.  It then lands on the
    piece, which becomes ``(c, t + k)``, or is popped when that is zero; an
    overshooting cancellation leaves the remainder with the count ``c`` it
    lands with.  Only a new or a popped piece moves the counts.  So a
    stack's counts rise strictly from bottom to top, and no count exceeds
    ``m``.
    """
    gens = _generators(w, g)
    width = len(w.syllables).bit_length() + 1
    mask = (1 << width) - 1
    bit = {x: 1 << width * i for i, x in enumerate(sorted(gens))}
    every = sum(bit.values())
    pieces = {x: (width * i, every - b - sum(map(bit.__getitem__, bit.keys() & g.neighbors(x))), [])
              for i, (x, b) in enumerate(bit.items())}

    live = 0  # per field: live pieces that do not commute with its generator
    for gen, k in w.syllables:
        shift, row, stack = pieces[gen]
        c = (live >> shift) & mask
        if stack and stack[-1][0] == c:
            k += stack[-1][1]
            if k:
                stack[-1] = (c, k)
            else:
                stack.pop()
                live -= row
        else:
            stack.append((c, k))
            live += row
    return width, pieces


def _read_off(heap: tuple[int, dict]) -> NormalWord:
    """The lexicographically least word of a heap ``(width, pieces)`` from
    ``_pile``; empties its stacks.

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
    that may be emitted: its field's index is its record's place in the
    heap's dict.  Two pieces of one generator never come out next to
    each other, since the next piece's count is higher, so the output
    syllables are maximal.
    """
    width, pieces = heap
    records = list(pieces.items())
    ones = sum(1 << shift for shift, _, _ in pieces.values())  # a 1 in every field
    top = 1 << (width - 1)
    spent = top - 1
    high = top * ones
    for _, _, stack in pieces.values():
        stack.reverse()
    # per field: the front piece's count, minus the non-commuting pieces
    # emitted so far, plus ``spent``; never negative, so the bit tricks
    # below stay on non-negative ints
    gap = spent * ones + sum((stack[-1][0] if stack else spent) << shift
                             for shift, _, stack in pieces.values())
    out = []
    for _ in range(sum(len(stack) for _, _, stack in pieces.values())):
        # the clear top bits of ``gap``; the lowest is bit width * (i + 1) - 1
        least = high - (gap & high)
        x, (shift, row, stack) = records[(least ^ (least - 1)).bit_length() // width - 1]
        c, k = stack.pop()
        after = stack[-1][0] if stack else spent
        gap += ((after - c) << shift) - row
        out.append((x, k))
    return NormalWord._trusted(tuple(out))


def free_reduce(w: Word, alphabet: Collection[str]) -> Word:
    """Free reduction of ``w`` over the generators in ``alphabet``: the
    normal form in the free group, where no two generators commute.

    One stack pass over the syllables, each checked as it is taken: a
    syllable over the top's generator lands on it, so ``a^-k b a^k`` takes
    three steps.  Neighbours on the stack have different generators.

    A ``str`` alphabet names one generator per character, as
    ``SimpleGraph("abc")`` does.  Raises ``InputError`` unless ``w`` is a
    ``Word`` and ``alphabet`` a collection other than ``bytes`` or
    ``bytearray`` (neither can hold a name) whose items are hashable,
    checked in that order, and on the first letter, in word order, over a
    generator outside ``alphabet``.  A set, frozenset or dict is used as it
    is, any other collection is read into a frozenset once, so a letter's
    cost does not grow with the alphabet.
    """
    syllables = _instance(w, Word).syllables
    if isinstance(_instance(alphabet, Collection), (bytes, bytearray)):
        raise InputError(f"expected a Collection of str, got {type(alphabet).__name__}")
    if not isinstance(alphabet, (set, frozenset, dict)):
        # one hash test per syllable; a str's characters, not its substrings
        try:
            alphabet = frozenset(alphabet)
        except TypeError:
            raise InputError(f"expected a Collection of str, got a {type(alphabet).__name__} "
                             f"with an unhashable item") from None
    out: list = []
    for gen, k in syllables:
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
    return Word._trusted(tuple(out))


def _stacks(heap: tuple[int, dict]) -> dict:
    """The non-empty stacks of a heap ``(width, pieces)`` from ``_pile``,
    by generator.  Two words' heaps have equal stacks exactly when the
    words represent the same element: a reduced heap's pieces are the
    syllables of the normal form, each stored with the number of
    non-commuting pieces below it."""
    return {x: stack for x, (_, _, stack) in heap[1].items() if stack}


def are_equal(u: Word, v: Word, g: SimpleGraph) -> bool:
    """Word problem: do ``u`` and ``v`` represent the same group element?

    Each word is piled into its own heap, and the two heaps' non-empty
    stacks are compared; nothing is read off.  Raises ``InputError`` unless
    ``u`` and ``v`` are ``Word`` objects and ``g`` a ``SimpleGraph``,
    checked in argument order, and then for the first letter of ``u``, then
    of ``v``, over a generator that is not a vertex of ``g``.
    """
    _instance(u, Word)
    _instance(v, Word)  # both types before g's and before any letter of u
    return _stacks(_pile(g, u)) == _stacks(_pile(g, v))


def support(w: Word, g: SimpleGraph) -> frozenset[str]:
    """Generators that survive in the normal form of ``w``: those whose
    stack in the heap of ``w`` is not empty.  Nothing is read off."""
    return frozenset(_stacks(_pile(g, w)))
