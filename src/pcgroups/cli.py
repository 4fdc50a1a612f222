"""Command-line front end.

Results go to stdout as JSON with stable key order; diagnostics go to stderr.
Exit codes: 0 success, 2 malformed input.  Yes/no commands report their
verdict inside the JSON; with ``--exit-status`` they additionally exit 1 on a
negative verdict.  ``self-check`` always exits 1 when it finds a
disagreement.

Each ``_cmd_*`` handler returns its JSON value and its verdict (True for a
command with no yes/no answer).  ``run`` is the one place that writes stdout
and picks the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .classify import _resolve, classify, embeds_in
from .errors import InputError, ParseError
from .graphs import SimpleGraph, complete_decomposition, parse_graph, reflexive_closure_is_transitive
from .stallings import StallingsGraph, format_stallings, from_generators
from .visible import VertexRestriction, rewrite_in_visible
from .words import _decimal, _generators, are_equal, format_word, normal_form, parse_word
from .zf2 import certify_not_fg

__all__ = ["run", "main"]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate in the path
        raise InputError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None


def _load_graph(path: str) -> SimpleGraph:
    return parse_graph(_read(path))


def _load_words(path: str):
    words = []
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            words.append(parse_word(stripped))
        except InputError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
    return words


def _cmd_classify(args):
    report = classify(_load_graph(args.graph))
    return report.to_json_dict(), report.howson


def _cmd_normal_form(args):
    g = _load_graph(args.graph)
    nf = normal_form(parse_word(args.word), g)
    support = sorted({gen for gen, _ in nf.syllables})
    return {"normal_form": format_word(nf), "length": len(nf), "support": support}, True


def _cmd_equal(args):
    g = _load_graph(args.graph)
    u = parse_word(args.word1)
    try:
        v = parse_word(args.word2)
    except ParseError:
        _generators(u, g)  # an unknown generator in word1 is reported first
        raise
    verdict = are_equal(u, v, g)
    return verdict, verdict


def _cmd_member_visible(args):
    r = VertexRestriction(_load_graph(args.graph), args.subset.split())
    rewritten = rewrite_in_visible(parse_word(args.word), r)
    member = rewritten is not None
    return {"member": member, "rewritten": format_word(rewritten) if member else None}, member


def _cmd_embed(args):
    _resolve(args.pattern)  # a bad name is reported before the graph is read
    verdict = embeds_in(args.pattern, _load_graph(args.graph))
    return {"pattern": args.pattern, "embeds": verdict}, verdict


def _cmd_intersect_free(args):
    alphabet = args.alphabet.split()
    if not alphabet:
        raise InputError("--alphabet must list at least one generator")
    sg1 = from_generators(_load_words(args.generators1), alphabet)
    sg2 = from_generators(_load_words(args.generators2), alphabet)
    meet = sg1.intersect(sg2)
    for path, render in ((args.out, format_stallings), (args.dot, StallingsGraph.to_dot)):
        if not path:
            continue
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render(meet))
        except (OSError, ValueError) as exc:  # ValueError: a bad path, or a label UTF-8 cannot spell
            raise InputError(f"cannot write {path}: {getattr(exc, 'strerror', exc)}") from None
    return {"rank": meet.rank(), "states": meet.num_states, "edges": meet.num_edges}, True


def _cmd_demo_nonhowson(args):
    m = _decimal(args.m)
    if m is None:
        raise InputError(f"--m must be ASCII decimal digits after an optional '-', got {args.m!r}")
    return certify_not_fg(m).to_json_dict(), True


def _cmd_self_check(args):
    from itertools import combinations

    names = ("a", "b", "c", "d", "e")
    checked = 0
    disagreements = 0
    for n in range(6):
        verts = names[:n]
        pairs = list(combinations(verts, 2))
        # pair i is bit i of the mask.  Each vertex keeps the bits of its own
        # pairs and its neighbour set under every choice of them, so a
        # graph's neighbour sets are read straight off its mask.
        near = []
        for v in verts:
            at = [(1 << i, u if w == v else w) for i, (u, w) in enumerate(pairs) if v in (u, w)]
            table = {
                sum(bit for bit, _ in chosen): frozenset(w for _, w in chosen)
                for r in range(len(at) + 1)
                for chosen in combinations(at, r)
            }
            near.append((v, sum(bit for bit, _ in at), table))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph._trusted({v: table[mask & bits] for v, bits, table in near})
            checked += 1
            # classify decides by complete components; transitivity of the
            # reflexive closure is the independent referee
            if (complete_decomposition(g) is not None) != reflexive_closure_is_transitive(g):
                disagreements += 1
    ok = disagreements == 0
    return {"graphs_checked": checked, "disagreements": disagreements, "ok": ok}, ok


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
    parser.set_defaults(exit_status=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification report for a graph file")
    p.add_argument("graph")
    p.add_argument("--exit-status", action="store_true", help="exit 1 when not Howson")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("normal-form", help="canonical form of a word over a graph")
    p.add_argument("graph")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_normal_form)

    p = sub.add_parser("equal", help="do two words represent the same element?")
    p.add_argument("graph")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--exit-status", action="store_true", help="exit 1 when unequal")
    p.set_defaults(handler=_cmd_equal)

    p = sub.add_parser(
        "member-visible", help="membership in the subgroup generated by a vertex subset"
    )
    p.add_argument("graph")
    p.add_argument("subset", help="whitespace-separated vertex names")
    p.add_argument("word")
    p.add_argument("--exit-status", action="store_true", help="exit 1 when not a member")
    p.set_defaults(handler=_cmd_member_visible)

    p = sub.add_parser(
        "embed", help="does the catalog pattern's group embed in the graph's group?"
    )
    p.add_argument("pattern", help="K_<n>, P3, P4, C4, edgeless_0, edgeless_1 or edgeless_2")
    p.add_argument("graph")
    p.add_argument("--exit-status", action="store_true", help="exit 1 when it does not embed")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser(
        "intersect-free", help="intersect two subgroups of a free group"
    )
    p.add_argument("--alphabet", required=True, help="whitespace-separated generators")
    p.add_argument("generators1", help="file with one generator word per line")
    p.add_argument("generators2", help="file with one generator word per line")
    p.add_argument("--out", help="write the intersection automaton (text serialization)")
    p.add_argument("--dot", help="write the intersection automaton as DOT")
    p.set_defaults(handler=_cmd_intersect_free)

    p = sub.add_parser(
        "demo-nonhowson", help="stage-m certificate that Z x F2 is not Howson"
    )
    p.add_argument("--m", required=True)
    p.set_defaults(handler=_cmd_demo_nonhowson)

    p = sub.add_parser(
        "self-check", help="sweep all graphs on <= 5 vertices for classifier agreement"
    )
    # a disagreement always exits 1; the command has no --exit-status flag
    p.set_defaults(handler=_cmd_self_check, exit_status=True)

    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(stdout):  # argparse prints help to sys.stdout
            args = _build_parser().parse_args(argv)
        value, verdict = args.handler(args)
    except SystemExit as exc:  # --help
        return exc.code
    except InputError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    stdout.write(json.dumps(value) + "\n")
    return 0 if verdict or not args.exit_status else 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
