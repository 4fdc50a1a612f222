"""Command-line front end.

Results go to stdout as JSON with stable key order; diagnostics go to stderr.
Exit codes: 0 success, 2 malformed input.  Yes/no commands report their
verdict inside the JSON; with ``--exit-status`` they additionally exit 1 on a
negative verdict.

The commands are one table, ``_COMMANDS``: each name maps to its handler,
its help line, its arguments and the help of its ``--exit-status`` flag
(None when it has none).  Each ``_cmd_*`` handler returns its JSON value and
its verdict (True for a command with no yes/no answer).  ``run`` is the one
place that writes stdout and picks the exit code: 1 on a false verdict when
the flag was given or the command has no flag, which only ``self-check``
(on a disagreement) can return.

A command loads only the layers it runs: this module imports ``errors``,
``graphs`` and ``classify``, and a handler that needs another layer imports
it when called (``tests/test_startup.py::LAYERS_RUN`` pins which).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from itertools import filterfalse
from operator import length_hint

from .classify import _resolve, classify, embeds_in
from .errors import InputError, ParseError
from .graphs import _self_check, _uncommented_lines, parse_graph

__all__ = ["run", "main"]


def _read(path: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # not "utf-8-sig": a bad byte's offset stays counted from the file's start
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate in the path
        raise InputError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None


def _load_subgroup(path: str, alphabet: list):
    """The automaton of the subgroup that the words of a generator file
    generate, one word per line that holds a token.  Every line is parsed
    first: its new tokens go into the file's token table, in text order, and
    the line is kept as its tokens' syllables, with no ``Word`` built.  Then
    the build of ``from_generators`` takes the lines one at a time.  An
    error names the file and its line: a build error, the line of the word
    the build was taking."""
    from .stallings import _from_syllables
    from .words import MAX_WORD_LETTERS, _parsed, _syllable

    made: dict = {}  # token -> the syllable it spells
    sizes: dict = {}  # token -> its letters
    lines = {}  # line number -> the syllables on it
    for lineno, line in enumerate(_uncommented_lines(_read(path)), start=1):
        tokens = line.split()
        if tokens:
            try:
                # a line of known tokens has none to parse, and so no token error
                if not all(map(made.__contains__, tokens)):
                    for tok in filterfalse(made.__contains__, dict.fromkeys(tokens)):
                        _, k = made[tok] = _syllable(tok)
                        sizes[tok] = abs(k)
                if sum(map(sizes.__getitem__, tokens)) > MAX_WORD_LETTERS:
                    _parsed(tokens, made)  # raises the letter cap's own error
            except InputError as exc:
                raise ParseError(f"{path}: {exc}", line=lineno) from None
            lines[lineno] = list(map(made.__getitem__, tokens))
    unread = iter(lines.values())
    try:
        return _from_syllables(unread, alphabet)
    except InputError as exc:
        taken = len(lines) - length_hint(unread)  # the words the build took, the last one bad
        if not taken:  # a bad label is refused before any word is taken
            raise
        raise ParseError(f"{path}: {exc}", line=list(lines)[taken - 1]) from None


def _cmd_classify(args):
    report = classify(parse_graph(_read(args.graph)))
    return report.to_json_dict(), report.howson


def _cmd_normal_form(args):
    from .words import format_word, normal_form, parse_word

    g = parse_graph(_read(args.graph))
    nf = normal_form(parse_word(args.word), g)
    support = sorted({gen for gen, _ in nf.syllables})
    return {"normal_form": format_word(nf), "length": len(nf), "support": support}, True


def _cmd_equal(args):
    from .words import _parsed, _tallied, are_equal

    g = parse_graph(_read(args.graph))
    tokens1, tokens2, made = args.word1.split(), args.word2.split(), {}
    # word1 is tallied before word2 is read, so its errors are reported first.
    # Equal elements have equal exponent sums; only equal sums need the heaps
    if _tallied(tokens1, made, g) != _tallied(tokens2, made, g):
        return False, False
    verdict = are_equal(_parsed(tokens1, made), _parsed(tokens2, made), g)
    return verdict, verdict


def _cmd_member_visible(args):
    from .visible import VertexRestriction, rewrite_in_visible
    from .words import _parsed, _tallied, format_word

    r = VertexRestriction(parse_graph(_read(args.graph)), args.subset.split())
    tokens, made = args.word.split(), {}
    # a member's exponent sums are zero on every generator outside the subset
    outside = _tallied(tokens, made, r.ambient).keys() - r.ys
    rewritten = None if outside else rewrite_in_visible(_parsed(tokens, made), r)
    member = rewritten is not None
    return {"member": member, "rewritten": format_word(rewritten) if member else None}, member


def _cmd_embed(args):
    _resolve(args.pattern)  # a bad name is reported before the graph is read
    verdict = embeds_in(args.pattern, parse_graph(_read(args.graph)))
    return {"pattern": args.pattern, "embeds": verdict}, verdict


def _cmd_intersect_free(args):
    from .stallings import StallingsGraph, format_stallings

    alphabet = args.alphabet.split()
    if not alphabet:
        raise InputError("--alphabet must list at least one generator")
    sg1 = _load_subgroup(args.generators1, alphabet)
    sg2 = _load_subgroup(args.generators2, alphabet)
    meet = sg1.intersect(sg2)
    for path, render in ((args.out, format_stallings), (args.dot, StallingsGraph.to_dot)):
        if not path:
            continue
        text = render(meet)  # a refused write raises before the file is opened
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a bad path, or a label UTF-8 cannot spell
            raise InputError(f"cannot write {path}: {getattr(exc, 'strerror', exc)}") from None
    return {"rank": meet.rank(), "states": meet.num_states, "edges": meet.num_edges}, True


def _cmd_demo_nonhowson(args):
    from .words import _decimal
    from .zf2 import certify_not_fg

    m = _decimal(args.m)
    if m is None:
        raise InputError(f"--m must be ASCII decimal digits after an optional '-', got {args.m!r}")
    return certify_not_fg(m).to_json_dict(), True


def _cmd_self_check(args):
    checked, disagreements = _self_check()
    ok = disagreements == 0
    return {"graphs_checked": checked, "disagreements": disagreements, "ok": ok}, ok


_WORDS_FILE = {"help": "file with one generator word per line"}

# name -> (handler, help line, arguments, --exit-status help or None).  An
# argument is a name, or a (name, argparse keywords) pair.
_COMMANDS = {
    "classify": (_cmd_classify, "full classification report for a graph file",
                 ("graph",), "exit 1 when not Howson"),
    "normal-form": (_cmd_normal_form, "canonical form of a word over a graph",
                    ("graph", "word"), None),
    "equal": (_cmd_equal, "do two words represent the same element?",
              ("graph", "word1", "word2"), "exit 1 when unequal"),
    "member-visible": (_cmd_member_visible, "membership in the subgroup generated by a vertex subset",
                       ("graph", ("subset", {"help": "whitespace-separated vertex names"}), "word"),
                       "exit 1 when not a member"),
    "embed": (_cmd_embed, "does the catalog pattern's group embed in the graph's group?",
              (("pattern", {"help": "K_<n>, P3, P4, C4, edgeless_0, edgeless_1 or edgeless_2"}),
               "graph"),
              "exit 1 when it does not embed"),
    "intersect-free": (_cmd_intersect_free, "intersect two subgroups of a free group",
                       (("--alphabet", {"required": True, "help": "whitespace-separated generators"}),
                        ("generators1", _WORDS_FILE), ("generators2", _WORDS_FILE),
                        ("--out", {"help": "write the intersection automaton (text serialization)"}),
                        ("--dot", {"help": "write the intersection automaton as DOT"})),
                       None),
    "demo-nonhowson": (_cmd_demo_nonhowson, "stage-m certificate that Z x F2 is not Howson",
                       (("--m", {"required": True}),), None),
    "self-check": (_cmd_self_check, "sweep all graphs on <= 5 vertices for classifier agreement",
                   (), None),
}


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with ``InputError``, so that ``run`` reports
    it as it reports any other bad input; subcommand parsers share the class."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcgroups",
        description="Decide Howson / fully residually free / free product of "
        "free-abelian for the group presented by a graph, and work with the "
        "supporting machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, arguments, exit_help) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for argument in arguments:
            arg, keywords = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(arg, **keywords)
        if exit_help is not None:
            p.add_argument("--exit-status", action="store_true", help=exit_help)
    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(stdout):  # argparse prints help to sys.stdout
            args = _build_parser().parse_args(argv)
        value, verdict = _COMMANDS[args.command][0](args)
    except SystemExit as exc:  # --help
        return exc.code
    except InputError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    stdout.write(json.dumps(value) + "\n")
    # a command with no --exit-status flag exits as if it had been given
    return 0 if verdict or not getattr(args, "exit_status", True) else 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
