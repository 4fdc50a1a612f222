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
from itertools import combinations
from operator import length_hint

from .classify import _resolve, classify, embeds_in
from .errors import InputError, ParseError
from .graphs import (
    SimpleGraph,
    _uncommented_lines,
    complete_decomposition,
    parse_graph,
    reflexive_closure_is_transitive,
)

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
    first, and the file's words share one token table; then
    ``from_generators`` takes the words one at a time.  An error names the
    file and its line: a build error, the line of the word the build was
    taking."""
    from .stallings import from_generators
    from .words import _parsed

    made: dict = {}
    words = {}  # line number -> the word on it
    for lineno, line in enumerate(_uncommented_lines(_read(path)), start=1):
        tokens = line.split()
        if tokens:
            try:
                words[lineno] = _parsed(tokens, made)
            except InputError as exc:
                raise ParseError(f"{path}: {exc}", line=lineno) from None
    unread = iter(words.values())
    try:
        return from_generators(unread, alphabet)
    except InputError as exc:
        taken = len(words) - length_hint(unread)  # the words the build took, the last one bad
        if not taken:  # a bad label is refused before any word is taken
            raise
        raise ParseError(f"{path}: {exc}", line=list(words)[taken - 1]) from None


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
    from .words import _pile, _stacks, parse_word

    g = parse_graph(_read(args.graph))
    # word1 is piled before word2 is parsed: its unknown generator is reported first
    stacks = _stacks(_pile(g, parse_word(args.word1)))
    verdict = stacks == _stacks(_pile(g, parse_word(args.word2)))
    return verdict, verdict


def _cmd_member_visible(args):
    from .visible import VertexRestriction, rewrite_in_visible
    from .words import format_word, parse_word

    r = VertexRestriction(parse_graph(_read(args.graph)), args.subset.split())
    rewritten = rewrite_in_visible(parse_word(args.word), r)
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
    checked = 0
    disagreements = 0
    for n in range(6):
        verts = ("a", "b", "c", "d", "e")[:n]
        pairs = list(combinations(verts, 2))
        adj = {v: frozenset() for v in verts}
        # reflected Gray code: graph i is graph i - 1 with one pair flipped,
        # the pair at the index of i's lowest set bit
        for i in range(1 << len(pairs)):
            if i:
                u, w = pairs[(i & -i).bit_length() - 1]
                adj = {**adj, u: adj[u] ^ {w}, w: adj[w] ^ {u}}
            g = SimpleGraph._trusted(adj)
            checked += 1
            # classify decides by complete components; transitivity of the
            # reflexive closure is the independent referee
            if (complete_decomposition(g) is not None) != reflexive_closure_is_transitive(g):
                disagreements += 1
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
