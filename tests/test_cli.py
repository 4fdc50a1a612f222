import importlib.metadata
import io
import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcgroups import SimpleGraph, format_word
from pcgroups.cli import run
from oracles import all_labeled_graphs
from bytecodes import opcodes, peak_allocation

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden"
INPUTS = GOLDEN / "inputs"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text("a b c\na b\nb c\n")
    return str(path)


@pytest.fixture
def xy_file(tmp_path):
    path = tmp_path / "xy.graph"
    path.write_text("x y\nx y\n")
    return str(path)


@pytest.fixture
def piled(monkeypatch):
    """The words piled into heaps, recorded wherever the pile is bound."""
    from pcgroups import visible, words

    words_piled = []
    pile = words._pile

    def recording(g, w):
        words_piled.append(w)
        return pile(g, w)

    for module in (words, visible):
        monkeypatch.setattr(module, "_pile", recording)
    return words_piled


class TestClassify:
    def test_p3_not_howson(self, p3_file):
        code, out, err = invoke("classify", p3_file)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["howson"] is False
        assert report["p3_witness"] == ["a", "b", "c"]

    def test_exit_status_flag(self, p3_file):
        code, out, _ = invoke("classify", p3_file, "--exit-status")
        assert code == 1 and json.loads(out)["howson"] is False

    def test_missing_file(self):
        code, out, err = invoke("classify", "/nonexistent/g.graph")
        assert code == 2 and out == "" and "error" in err

    def test_clique_minus_an_edge_past_recursion_limit(self, tmp_path):
        names = [f"v{i:04d}" for i in range(1, 1051)]
        edges = [f"{u} {v}" for i, u in enumerate(names) for v in names[i + 1 :]]
        path = tmp_path / "k1050-e.graph"
        path.write_text("\n".join([" ".join(names)] + edges[1:]) + "\n")
        code, out, err = invoke("classify", str(path))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["p3_witness"] == ["v0001", "v0003", "v0002"]
        assert report["max_abelian_rank"] == 1049
        code, out, err = invoke("embed", "K_1049", str(path))
        assert code == 0 and err == "" and json.loads(out)["embeds"] is True

    def test_malformed_file_line_numbered(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("a b\na a\n")
        code, _, err = invoke("classify", str(path))
        assert code == 2 and "line 2" in err


class TestNormalForm:
    def test_sorts(self, xy_file):
        code, out, _ = invoke("normal-form", xy_file, "y x")
        assert code == 0
        assert json.loads(out) == {"normal_form": "x y", "length": 2, "support": ["x", "y"]}

    def test_identity(self, xy_file):
        code, out, _ = invoke("normal-form", xy_file, "x y x^-1 y^-1")
        assert json.loads(out) == {"normal_form": "", "length": 0, "support": []}

    def test_bad_word(self, xy_file):
        code, _, err = invoke("normal-form", xy_file, "x^0")
        assert code == 2 and "zero exponent" in err

    def test_unknown_generator(self, xy_file):
        code, _, err = invoke("normal-form", xy_file, "q")
        assert code == 2 and "'q'" in err

    def test_word_too_long(self, xy_file):
        code, out, err = invoke("normal-form", xy_file, "x^3000000")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "letters" in err
        code, out, err = invoke("normal-form", xy_file, "x^1000000 y")
        assert (code, out) == (2, "")
        assert err == "error: word expands to more than 1000000 letters\n"


# a and c do not commute on the path a - b - c, so no letter of this
# 999,999-letter word moves or cancels: each answer is the word itself
LONG_RUNS = "a^499999 c a^-499999"
LONG_RUN_ANSWERS = {
    ("normal-form", LONG_RUNS): {"normal_form": LONG_RUNS, "length": 999999, "support": ["a", "c"]},
    ("equal", LONG_RUNS, "a^250000 a^249999 c a^-1 a^-499998"): True,
    ("equal", LONG_RUNS, "a^499999 c a^-499998"): False,
    ("member-visible", "a c", LONG_RUNS): {"member": True, "rewritten": LONG_RUNS},
    ("member-visible", "a b", LONG_RUNS): {"member": False, "rewritten": None},
}


@pytest.mark.parametrize("args", list(LONG_RUN_ANSWERS), ids=lambda args: " ".join(args)[:40])
def test_long_runs_cost_what_the_text_costs(args):
    # words are kept as syllables x^k, never expanded into their letters
    argv = (args[0], str(INPUTS / "p3.graph")) + args[1:]
    invoke(*argv)  # the parser is built once per process
    peak, (code, out, err) = peak_allocation(lambda: invoke(*argv))
    assert code == 0 and err == "" and json.loads(out) == LONG_RUN_ANSWERS[args]
    assert peak < 1_000_000


class TestEqual:
    def test_true_is_bare_json(self, xy_file):
        code, out, _ = invoke("equal", xy_file, "x y", "y x")
        assert code == 0 and out == "true\n"

    def test_false_keeps_exit_zero(self, p3_file):
        code, out, _ = invoke("equal", p3_file, "a c", "c a")
        assert code == 0 and out == "false\n"

    def test_exit_status(self, p3_file):
        code, _, _ = invoke("equal", p3_file, "a c", "c a", "--exit-status")
        assert code == 1

    @pytest.mark.parametrize("word1, word2, message", [
        # word1's syntax, then word1's generators, then word2's syntax, then
        # word2's generators
        ("x^0 q", "y^0", "zero exponent in token 'x^0'"),
        ("q x", "y^0", "letter over unknown generator 'q'"),
        ("q x", "r y", "letter over unknown generator 'q'"),
        ("x y", "y^a", "bad exponent in token 'y^a'"),
        ("x y", "y r q", "letter over unknown generator 'r'"),
        ("x", "y a#", "bad token 'a#': a generator name may not contain '#'"),
    ])
    def test_errors_in_input_order(self, xy_file, word1, word2, message):
        code, out, err = invoke("equal", xy_file, word1, word2)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_the_letter_cap_comes_before_unknown_generators(self, xy_file):
        code, out, err = invoke("equal", xy_file, "q^1000001", "y^a")
        assert (code, out, err) == (2, "", "error: word expands to more than 1000000 letters\n")

    def test_unequal_exponent_sums_pile_nothing(self, p3_file, piled):
        # 10^4 letters each; the sums of a and c differ by two, so the
        # words are different elements before either is piled
        code, out, err = invoke("equal", p3_file, "a c " * 5000, "c a " * 4999 + "a a")
        assert (code, out, err) == (0, "false\n", "")
        assert piled == []


class TestMemberVisible:
    def test_member_with_rewrite(self, p3_file):
        code, out, _ = invoke("member-visible", p3_file, "b", "a b a^-1")
        assert code == 0
        assert json.loads(out) == {"member": True, "rewritten": "b"}

    def test_non_member(self, p3_file):
        code, out, _ = invoke("member-visible", p3_file, "b", "c")
        assert code == 0
        assert json.loads(out) == {"member": False, "rewritten": None}

    def test_identity_member(self, p3_file):
        code, out, _ = invoke("member-visible", p3_file, "b", "a a^-1")
        assert json.loads(out) == {"member": True, "rewritten": ""}

    def test_exit_status(self, p3_file):
        code, _, _ = invoke("member-visible", p3_file, "b", "c", "--exit-status")
        assert code == 1

    def test_unknown_subset_vertex(self, p3_file):
        code, _, err = invoke("member-visible", p3_file, "q", "b")
        assert code == 2 and "'q'" in err

    def test_a_bad_subset_vertex_comes_before_a_bad_token(self, p3_file):
        code, out, err = invoke("member-visible", p3_file, "a q", "b^0")
        assert (code, out, err) == (2, "", "error: unknown vertex 'q'\n")

    def test_a_sum_outside_the_subset_piles_nothing(self, p3_file, piled):
        code, out, _ = invoke("member-visible", p3_file, "a b", "a c b c^-1 c")
        assert json.loads(out) == {"member": False, "rewritten": None}
        assert piled == []

    def test_zero_sums_outside_the_subset_leave_it_to_the_heap(self, p3_file, piled):
        # c's sum is zero, but c does not commute with a
        code, out, _ = invoke("member-visible", p3_file, "a", "c a c^-1")
        assert json.loads(out) == {"member": False, "rewritten": None}
        assert [format_word(w) for w in piled] == ["c a c^-1"]


def test_word_commands_make_the_public_calls_the_benchmark_traces(monkeypatch, p3_file, piled):
    # bench/tracer.py times public functions only, at the places they are
    # bound; its word-problem spans read these calls
    from pcgroups import visible, words

    called = []
    for module, name in ((words, "parse_word"), (words, "normal_form"), (words, "are_equal"),
                         (visible, "rewrite_in_visible")):
        def recording(*args, call=getattr(module, name), name=f"{module.__name__}.{name}"):
            called.append(name)
            return call(*args)

        monkeypatch.setattr(module, name, recording)
    out = invoke("normal-form", p3_file, "b a")[1]
    assert json.loads(out) == {"normal_form": "a b", "length": 2, "support": ["a", "b"]}
    assert called == ["pcgroups.words.parse_word", "pcgroups.words.normal_form"]
    called.clear()
    out = invoke("member-visible", p3_file, "a b", "b a")[1]
    assert json.loads(out) == {"member": True, "rewritten": "a b"}
    assert "pcgroups.visible.rewrite_in_visible" in called
    # equal sums: are_equal decides, piling each word once
    called.clear()
    piled.clear()
    assert invoke("equal", p3_file, "a b a^-1", "b")[1] == "true\n"
    assert called == ["pcgroups.words.are_equal"]
    assert [format_word(w) for w in piled] == ["a b a^-1", "b"]
    # unequal sums: decided before are_equal is called
    called.clear()
    assert invoke("equal", p3_file, "a c", "c")[1] == "false\n"
    assert called == []


class TestEmbed:
    def test_p3_into_c4(self, tmp_path):
        path = tmp_path / "c4.graph"
        path.write_text("a b c d\na b\nb c\nc d\nd a\n")
        code, out, _ = invoke("embed", "P3", str(path))
        assert code == 0
        assert json.loads(out) == {"pattern": "P3", "embeds": True}

    def test_k3_into_p3(self, p3_file):
        code, out, _ = invoke("embed", "K_3", p3_file)
        assert code == 0 and json.loads(out) == {"pattern": "K_3", "embeds": False}

    def test_non_catalog_pattern(self, p3_file):
        code, _, err = invoke("embed", "C5", p3_file)
        assert code == 2 and "catalog" in err

    def test_exit_status(self, p3_file):
        code, _, _ = invoke("embed", "K_3", p3_file, "--exit-status")
        assert code == 1


    def test_k_n_costs_what_the_host_costs(self):
        # K_n is decided from n; the n-vertex pattern is never built
        argv = ("embed", "K_1000", str(INPUTS / "p3.graph"))
        invoke(*argv)  # the parser is built once per process
        peak, (code, out, err) = peak_allocation(lambda: invoke(*argv))
        assert code == 0 and err == "" and json.loads(out) == {"pattern": "K_1000", "embeds": False}
        assert peak < 1_000_000


class TestIntersectFree:
    def test_reports_and_writes(self, tmp_path):
        h = tmp_path / "h.words"
        k = tmp_path / "k.words"
        h.write_text("a^2\nb\n")
        k.write_text("a^3\nb\n")
        out_path = tmp_path / "meet.stallings"
        dot_path = tmp_path / "meet.dot"
        code, out, _ = invoke(
            "intersect-free", "--alphabet", "a b", str(h), str(k),
            "--out", str(out_path), "--dot", str(dot_path),
        )
        assert code == 0
        assert json.loads(out) == {"rank": 2, "states": 6, "edges": 7}
        from pcgroups import parse_stallings, parse_word

        meet = parse_stallings(out_path.read_text())
        assert meet.member(parse_word("a^6")) and not meet.member(parse_word("a^3"))
        assert dot_path.read_text().startswith("digraph")

    def test_renders_only_what_is_asked(self, tmp_path, monkeypatch):
        from pcgroups import StallingsGraph, stallings

        def refuse(*_):
            raise AssertionError("rendered without its flag")

        h = tmp_path / "h.words"
        h.write_text("a^2\nb\n")
        monkeypatch.setattr(stallings, "format_stallings", refuse)
        monkeypatch.setattr(StallingsGraph, "to_dot", refuse)
        argv = ["intersect-free", "--alphabet", "a b", str(h), str(h)]
        assert invoke(*argv)[0] == 0
        monkeypatch.undo()
        monkeypatch.setattr(StallingsGraph, "to_dot", refuse)
        assert invoke(*argv, "--out", str(tmp_path / "meet.stallings"))[0] == 0
        monkeypatch.undo()
        monkeypatch.setattr(stallings, "format_stallings", refuse)
        assert invoke(*argv, "--dot", str(tmp_path / "meet.dot"))[0] == 0

    def test_coprime_powers_meet_without_their_product_states(self, tmp_path):
        # <a^99991> ∩ <a^99989> has 99991 * 99989 states, one long loop at
        # the base: the product walks the two loops' p + q arcs, not the states
        h = tmp_path / "h.words"
        k = tmp_path / "k.words"
        h.write_text("a^99991\n")
        k.write_text("a^99989\n")
        code, out, err = invoke("intersect-free", "--alphabet", "a", str(h), str(k))
        assert (code, err) == (0, "")
        assert out == '{"rank": 1, "states": 9998000099, "edges": 9998000099}\n'

    @pytest.mark.parametrize("flag", ["--out", "--dot"])
    def test_coprime_powers_are_refused_before_the_file_is_opened(self, tmp_path, flag):
        # 9998000099 arcs pass MAX_WRITTEN_ARCS; the command runs with 1.5 GB
        # of address space, which a write of every arc would exhaust
        h = _write(tmp_path, "h.words", b"a^99991\n")
        k = _write(tmp_path, "k.words", b"a^99989\n")
        target = tmp_path / "meet"
        argv = ["-m", "pcgroups", "intersect-free", "--alphabet", "a", h, k, flag, str(target)]
        code, out, err = spawn(sys.executable, *argv, address_space=1500000 * 1024)
        assert (code, out) == (2, "")
        assert err == "error: the automaton has 9998000099 arcs; at most 4000000 are written\n"
        assert not target.exists()

    def test_bad_word_file_line_numbered(self, tmp_path):
        h = tmp_path / "h.words"
        h.write_text("a b\n\na^x\n")
        code, _, err = invoke("intersect-free", "--alphabet", "a b", str(h), str(h))
        assert code == 2 and "exponent" in err and "line 3" in err

    def test_a_letter_outside_the_alphabet_names_its_file_and_line(self, tmp_path):
        h = _write(tmp_path, "h.words", b"a^2\n# b c\n\nb a b^-1\nb c^2 a # c\na c\n")
        k = _write(tmp_path, "k.words", b"a^3\nb\n")
        for files, path, line in (((h, k), h, 5), ((k, h), h, 5), ((k, k), None, None)):
            code, out, err = invoke("intersect-free", "--alphabet", "a b", *files)
            if path is None:
                assert (code, err) == (0, "")
            else:
                assert (code, out) == (2, "")
                assert err == f"error: line {line}: {path}: letter over unknown generator 'c'\n"

    def test_generator_file_errors_come_file_by_file(self, tmp_path):
        # file 1 is read, then built, then file 2 is read and built; a bad
        # alphabet is refused when the first file is built, with no line
        unknown = _write(tmp_path, "unknown.words", b"a\nb c\n")
        bad = _write(tmp_path, "bad.words", b"a\nb^x\n")
        both = _write(tmp_path, "both.words", b"c\na^0\n")
        cases = [
            (("a b", unknown, bad), f"line 2: {unknown}: letter over unknown generator 'c'"),
            (("a b", bad, unknown), f"line 2: {bad}: bad exponent in token 'b^x'"),
            (("a b", both, bad), f"line 2: {both}: zero exponent in token 'a^0'"),
            (("a b#", unknown, bad), "alphabet label must be a non-empty string without "
                                     "whitespace, '^' or '#', got 'b#'"),
            # the first file's tokens are read before the alphabet is checked
            (("a b#", bad, unknown), f"line 2: {bad}: bad exponent in token 'b^x'"),
        ]
        for (alphabet, *files), message in cases:
            code, out, err = invoke("intersect-free", "--alphabet", alphabet, *files)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_word_files_sharing_tokens_build_what_parse_word_builds(self, tmp_path):
        from pcgroups import format_stallings, from_generators, parse_word

        rng = random.Random(29)
        tokens = ["a", "a^-1", "b^2", "b^-1", "c", "c^-3", "a^2"]
        # tokens that merge or cancel across tokens, and lines that reduce
        # to the identity, then random lines
        fixed = [("a a^-1 b\na^2 a^-3 b a\n", "a^2 a^-3 b a\nc c c^-3 c\n"),
                 ("b b^-1\na a^-1\n", "a^-1 a^2 a^-1\nb\n")]
        for trial in range(22):
            if trial < len(fixed):
                texts = fixed[trial]
            else:
                texts = []
                for _ in range(2):
                    lines = [" ".join(rng.choice(tokens) for _ in range(rng.randrange(6))) for _ in range(8)]
                    lines[rng.randrange(8)] += " # a^0 c"
                    texts.append("\n".join(lines) + "\n")
            h = tmp_path / f"h{trial}.words"
            k = tmp_path / f"k{trial}.words"
            h.write_text(texts[0])
            k.write_text(texts[1])
            out_path = tmp_path / "meet.stallings"
            code, out, err = invoke("intersect-free", "--alphabet", "a b c", str(h), str(k), "--out", str(out_path))
            sg1, sg2 = (from_generators([parse_word(line.split("#")[0]) for line in text.splitlines()], "abc")
                        for text in texts)
            meet = sg1.intersect(sg2)
            assert (code, err) == (0, "")
            assert json.loads(out) == {"rank": meet.rank(), "states": meet.num_states, "edges": meet.num_edges}
            assert out_path.read_text() == format_stallings(meet)

    def test_a_bad_token_or_a_long_line_is_reported_on_its_own_line(self, tmp_path):
        # each distinct token is parsed once per file, but an error still
        # names the line it is on, and the letter cap holds for each line
        k = _write(tmp_path, "k.words", b"a\n")
        cases = [
            (b"a b^2\nb^2 a\n\nb^2 a^0 a\n", "line 4: {}: zero exponent in token 'a^0'"),
            (b"a^600000\nb a^600000\n# a^600000\nb a^600000 b a^600000\n",
             "line 4: {}: word expands to more than 1000000 letters"),
            # past the cap only through the sum of its tokens
            (b"a^600000 a^400001\n", "line 1: {}: word expands to more than 1000000 letters"),
            # every line's tokens are read before any word is built
            (b"a\nb c\n\nb^x a\n", "line 4: {}: bad exponent in token 'b^x'"),
        ]
        for text, message in cases:
            h = _write(tmp_path, "h.words", text)
            code, out, err = invoke("intersect-free", "--alphabet", "a b", h, k)
            assert (code, out, err) == (2, "", f"error: {message.format(h)}\n")

    def test_generator_files_are_read_without_building_words(self, tmp_path, monkeypatch):
        # the lines' tokens go straight into the build: no Word is joined
        from pcgroups import Word

        joined = []
        join = Word._joined.__func__
        monkeypatch.setattr(Word, "_joined", classmethod(lambda cls, *a: joined.append(a) or join(cls, *a)))
        h = _write(tmp_path, "h.words", b"a^2 a^-1 b\n\nb a b^-1 # c\na^600000 a^400000\n")
        k = _write(tmp_path, "k.words", b"a^3\nb b\n")
        code, out, err = invoke("intersect-free", "--alphabet", "a b", h, k, "--out", str(tmp_path / "meet"))
        assert (code, err) == (0, "") and joined == []


class TestDemoNonHowson:
    def test_stage_three(self):
        code, out, _ = invoke("demo-nonhowson", "--m", "3")
        assert code == 0
        assert json.loads(out) == {
            "m": 3,
            "rank": 7,
            "element": "a^-4 b a^4",
            "verdict": "not_member",
        }

    def test_negative_stage(self):
        code, _, err = invoke("demo-nonhowson", "--m", "-1")
        assert code == 2 and "m" in err


def test_self_check():
    code, out, _ = invoke("self-check")
    assert code == 0
    assert json.loads(out) == {"graphs_checked": 1100, "disagreements": 0, "ok": True}


def test_self_check_disagreement_exits_1(monkeypatch):
    from pcgroups import graphs

    monkeypatch.setattr(graphs, "reflexive_closure_is_transitive", lambda g: False)
    code, out, err = invoke("self-check")
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert report["ok"] is False and report["disagreements"] > 0


def test_self_check_sweeps_each_small_graph_once(monkeypatch):
    from pcgroups import graphs

    seen = []
    held = []  # every adjacency value handed to the check, kept so that no id is reused
    decide = graphs.complete_decomposition

    def recorder(g):
        seen.append(SimpleGraph(g.vertices, g.edges))  # the graph as the check sees it
        held.extend(g._adj.values())
        return decide(g)

    monkeypatch.setattr(graphs, "complete_decomposition", recorder)
    monkeypatch.setattr(graphs, "reflexive_closure_is_transitive", lambda g: False)
    code, out, err = invoke("self-check")
    assert (code, err) == (1, "")
    # with the referee always false, the disagreements are the P3-free graphs
    # on 0-5 labeled vertices: the Bell numbers 1 + 1 + 2 + 5 + 15 + 52
    assert json.loads(out) == {"graphs_checked": 1100, "disagreements": 76, "ok": False}
    assert len(seen) == len(set(seen)) == 1100
    assert set(seen) == {g for n in range(6) for g in all_labeled_graphs(n)}
    # the Gray-code step: on one vertex count, each graph flips one pair of the one before
    steps = [before.edges ^ after.edges for before, after in zip(seen, seen[1:])
             if before.vertices == after.vertices]
    assert len(steps) == 1100 - 6 and all(len(flipped) == 1 for flipped in steps)
    # no neighbour set is built per step: each vertex count n shares its 2^n
    # sets, where a set built per flip made one object per step
    assert len({id(near) for near in held}) <= 1 + 2 + 4 + 8 + 16 + 32


def test_self_check_sweep_alone_is_counted(monkeypatch):
    # the bytecodes of the sweep with both checks stubbed: on CPython 3.11.7,
    # 93,684 when each step copied the dict and wrapped a new graph, 63,082
    # with one graph per vertex count, flipped in place, and 64,782 with the
    # flips read from a table of neighbour sets built once per vertex count
    # (61,408 / 59,092 / 50,825 on CPython 3.10.13 / 3.12.1 / 3.13.0).  The
    # stubs walk no frozenset, so the count does not move with the hash seed.
    from pcgroups import cli, graphs

    monkeypatch.setattr(graphs, "complete_decomposition", lambda g: None)
    monkeypatch.setattr(graphs, "reflexive_closure_is_transitive", lambda g: False)
    count, (report, ok) = opcodes(lambda: cli._cmd_self_check(None))
    assert report == {"graphs_checked": 1100, "disagreements": 0, "ok": True} and ok
    assert 0 < count <= 72_000, count


P3_GRAPH, XY_GRAPH, C4_GRAPH = (str(INPUTS / name) for name in ("p3.graph", "xy.graph", "c4.graph"))
WORDS = (str(INPUTS / "h.words"), str(INPUTS / "k.words"))

# argv, then the exit code without and with --exit-status; None where the
# command has no such flag
EXIT_CODES = [
    (("classify", XY_GRAPH), 0, 0),
    (("classify", P3_GRAPH), 0, 1),
    (("equal", XY_GRAPH, "x y", "y x"), 0, 0),
    (("equal", P3_GRAPH, "a c", "c a"), 0, 1),
    (("member-visible", P3_GRAPH, "b", "a b a^-1"), 0, 0),
    (("member-visible", P3_GRAPH, "b", "c"), 0, 1),
    (("embed", "P3", C4_GRAPH), 0, 0),
    (("embed", "K_3", P3_GRAPH), 0, 1),
    (("normal-form", XY_GRAPH, "y x"), 0, None),
    (("intersect-free", "--alphabet", "a b") + WORDS, 0, None),
    (("demo-nonhowson", "--m", "3"), 0, None),
    (("self-check",), 0, None),
]


@pytest.mark.parametrize("argv, plain, flagged", EXIT_CODES)
def test_exit_codes(argv, plain, flagged):
    code, out, err = invoke(*argv)
    assert (code, err) == (plain, "") and out.count("\n") == 1
    code, out, err = invoke(*argv, "--exit-status")
    if flagged is None:  # argparse refuses the flag, on run's stderr
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --exit-status\n")
    else:
        assert (code, err) == (flagged, "") and out.count("\n") == 1


def test_m_spelling():
    assert invoke("demo-nonhowson", "--m", "-1") == (2, "", "error: m must be >= 0\n")
    code, out, err = invoke("demo-nonhowson", "--m", "1_0")
    assert (code, out) == (2, "")
    assert err == "error: --m must be ASCII decimal digits after an optional '-', got '1_0'\n"


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _bad_graph(line):
    return lambda tmp: ("classify", _write(tmp, "bad.graph", b"a b c\n" + line + b"\n"))


CONTRACT_CASES = {
    "non-utf8 graph": lambda tmp: ("classify", _write(tmp, "bad.graph", b"a b\n\xff\xfe c\n")),
    "non-utf8 words": lambda tmp: (
        "intersect-free", "--alphabet", "a b",
        _write(tmp, "h.words", b"a^2\n\xff b\n"), str(INPUTS / "k.words"),
    ),
    "binary bytes": lambda tmp: ("classify", _write(tmp, "blob.graph", bytes(range(256)) * 4)),
    "directory path": lambda tmp: ("classify", str(tmp)),
    "huge exponent": lambda tmp: ("normal-form", str(INPUTS / "xy.graph"), "x^99999999999999999999"),
    "underscore in exponent": lambda tmp: ("normal-form", str(INPUTS / "xy.graph"), "x^1_0"),
    "non-ASCII digit in exponent": lambda tmp: ("normal-form", str(INPUTS / "xy.graph"), "x^\u0663"),
    "unwritable out": lambda tmp: (
        "intersect-free", "--alphabet", "a b", str(INPUTS / "h.words"), str(INPUTS / "k.words"),
        "--out", str(tmp / "missing" / "meet.stallings"),
    ),
    "NUL in path": lambda tmp: ("classify", str(tmp / "a\x00b")),
    "lone surrogate in path": lambda tmp: ("classify", str(tmp / "\ud800")),
    "NUL in out path": lambda tmp: (
        "intersect-free", "--alphabet", "a b", str(INPUTS / "h.words"), str(INPUTS / "k.words"),
        "--dot", str(tmp / "a\x00b"),
    ),
    # sys.argv decodes a byte that is not UTF-8 to a lone surrogate
    "label UTF-8 cannot write": lambda tmp: (
        "intersect-free", "--alphabet", "a \udcff",
        _write(tmp, "h.words", b"a^2\n"), _write(tmp, "k.words", b"a^3\n"), "--out", str(tmp / "meet"),
    ),
    "duplicate name": lambda tmp: ("classify", _write(tmp, "bad.graph", b"a b a\n")),
    "caret in name": lambda tmp: ("classify", _write(tmp, "bad.graph", b"a x^2\n")),
    "three tokens": _bad_graph(b"a b c"),
    "loop": _bad_graph(b"b b"),
    "unknown first endpoint": _bad_graph(b"z a"),
    "unknown second endpoint": _bad_graph(b"a z"),
    "leading zero in K_n": lambda tmp: ("embed", "K_05", str(INPUTS / "p3.graph")),
    "signed K_n": lambda tmp: ("embed", "K_+5", str(INPUTS / "p3.graph")),
    "huge m": lambda tmp: ("demo-nonhowson", "--m", "100000000"),
    "underscore in m": lambda tmp: ("demo-nonhowson", "--m", "1_0"),
    "non-ASCII digit in m": lambda tmp: ("demo-nonhowson", "--m", "\u0663"),
    "signed m": lambda tmp: ("demo-nonhowson", "--m", "+1"),
    "non-numeric m": lambda tmp: ("demo-nonhowson", "--m", "abc"),
    "empty alphabet": lambda tmp: (
        "intersect-free", "--alphabet", "", str(INPUTS / "h.words"), str(INPUTS / "k.words"),
    ),
    "hash in alphabet label": lambda tmp: (
        "intersect-free", "--alphabet", "a a#",
        _write(tmp, "h.words", b"a^2\n"), _write(tmp, "k.words", b"a^3\n"),
    ),
    "missing argument": lambda tmp: ("normal-form", str(INPUTS / "xy.graph")),
    # a word may start with '-' only after '--'; argparse reads it as an option
    "word starting with -": lambda tmp: ("normal-form", str(INPUTS / "xy.graph"), "-x"),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path):
    code, out, err = invoke(*CONTRACT_CASES[case](tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_unknown_command_exits_2():
    code, out, err = invoke("frobnicate")
    assert (code, out) == (2, "") and err.startswith("error: argument command: invalid choice")
    # the parser is built once and reused; a failed parse leaves it usable
    code, out, err = invoke(*GOLDEN_INVOCATIONS["classify"])
    assert code == 0 and err == ""
    assert out == (GOLDEN / "classify.json").read_text()


def test_no_command_exits_2():
    assert invoke() == (2, "", "error: the following arguments are required: command\n")


def test_help_exits_0(capsys):
    for argv in (["--help"], ["classify", "-h"], ["intersect-free", "--help"]):
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "") and out.startswith("usage: pcgroups")
    assert capsys.readouterr() == ("", "")  # nothing reached the process's own streams


def test_deterministic_output_bytes(p3_file):
    runs = {invoke("classify", p3_file)[1] for _ in range(3)}
    assert len(runs) == 1


# the one list of golden invocations: each entry point runs each of them
GOLDEN_INVOCATIONS = {
    "classify": ["classify", str(INPUTS / "p3.graph")],
    "normal-form": ["normal-form", str(INPUTS / "xy.graph"), "y x"],
    "equal": ["equal", str(INPUTS / "xy.graph"), "x y", "y x"],
    "member-visible": ["member-visible", str(INPUTS / "p3.graph"), "b", "a b a^-1"],
    "embed": ["embed", "P3", str(INPUTS / "c4.graph")],
    "intersect-free": [
        "intersect-free", "--alphabet", "a b",
        str(INPUTS / "h.words"), str(INPUTS / "k.words"),
    ],
    "demo-nonhowson": ["demo-nonhowson", "--m", "3"],
    "self-check": ["self-check"],
}

# command -> (flag, golden file) for each file its golden invocation writes
GOLDEN_FILES = {
    "intersect-free": (("--out", "intersect-free.stallings"), ("--dot", "intersect-free.dot")),
}

SRC = Path(__file__).resolve().parent.parent / "src"


def spawn(*command, address_space=None):
    """Run ``command`` with the package on its path; ``address_space``
    caps its virtual memory in bytes, so that an allocation that should
    never be made fails with a ``MemoryError`` instead of filling the host."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    done = subprocess.run(
        list(command), env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, preexec_fn=cap if address_space else None,
    )
    return done.returncode, done.stdout, done.stderr


def console_script():
    """The installed ``pcgroups`` script: in this interpreter's scripts
    directory, or else on PATH.  Skips when the distribution is not
    installed, as in a run from a checkout; fails when it is installed
    without its script."""
    try:
        importlib.metadata.distribution("pcgroups")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("the pcgroups distribution is not installed")
    search = os.pathsep.join([sysconfig.get_path("scripts"), os.environ.get("PATH", "")])
    script = shutil.which("pcgroups", path=search)
    assert script is not None, "pcgroups is installed, but its console script is missing"
    return script


ENTRY_POINTS = {
    "run": invoke,
    "-m pcgroups": lambda *argv: spawn(sys.executable, "-m", "pcgroups", *argv),
    "-m pcgroups.cli": lambda *argv: spawn(sys.executable, "-m", "pcgroups.cli", *argv),
    "script": lambda *argv: spawn(console_script(), *argv),
}


# the in-process case keeps the bare command as its id
@pytest.mark.parametrize("entry, command", [
    pytest.param(entry, command, id=command if entry == "run" else f"{command} via {entry}")
    for entry in ENTRY_POINTS for command in sorted(GOLDEN_INVOCATIONS)
])
def test_golden_outputs(entry, command, tmp_path):
    argv = list(GOLDEN_INVOCATIONS[command])
    for flag, name in GOLDEN_FILES.get(command, ()):
        argv += [flag, str(tmp_path / name)]
    code, out, err = ENTRY_POINTS[entry](*argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{command}.json").read_text()
    for _, name in GOLDEN_FILES.get(command, ()):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("command", sorted(
    command for command, argv in GOLDEN_INVOCATIONS.items() if any(a.startswith(str(INPUTS)) for a in argv)))
def test_golden_inputs_after_a_byte_order_mark(command, tmp_path):
    # each input file with a UTF-8 byte-order mark in front reads as without it
    argv = list(GOLDEN_INVOCATIONS[command])
    for i, arg in enumerate(argv):
        if arg.startswith(str(INPUTS)):
            argv[i] = _write(tmp_path, Path(arg).name, b"\xef\xbb\xbf" + Path(arg).read_bytes())
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{command}.json").read_text()


def test_a_bad_byte_after_a_byte_order_mark_is_counted_from_the_file_start(tmp_path):
    path = _write(tmp_path, "bad.graph", b"\xef\xbb\xbfa b\xff")
    code, out, err = invoke("classify", path)
    assert (code, out, err) == (2, "", f"error: cannot read {path}: not UTF-8 text (byte 6)\n")


def test_golden_automaton_files(tmp_path):
    # the table passes the file flags together; each alone writes only its own file
    for flag, name in GOLDEN_FILES["intersect-free"]:
        target = tmp_path / flag.strip("-") / name
        target.parent.mkdir()
        code, out, err = invoke(*GOLDEN_INVOCATIONS["intersect-free"], flag, str(target))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "intersect-free.json").read_text()
        assert [p.name for p in target.parent.iterdir()] == [name]
        assert target.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """The directory of the large inputs.  K_p = <a^p, b, a^k b a^-k :
    1 <= k < p> has finite index p.  Three 300-cliques take 134,551 lines;
    the bad copy adds a comment and one edge to an unknown vertex last.
    The one-vertex graph and the powers of ``a`` sit at the word cap.  The
    path v1 - ... - v40000 holds no square; the edge v39997 v40000 closes
    one at its end.  The forest holds 20,000 paths p{i}_0 - ... - p{i}_3.
    In the threshold graph on t0, ..., t1989, vertex ti sees every earlier
    vertex when i is odd: 990,025 edges."""
    directory = tmp_path_factory.mktemp("large")
    (directory / "a.graph").write_text("a\n")
    for k in (1000000, 999999):
        (directory / f"a{k}.words").write_text(f"a^{k}\n")
    for p in (199, 200):
        words = [f"a^{p}", "b", *(f"a^{k} b a^-{k}" for k in range(1, p))]
        (directory / f"k{p}.words").write_text("".join(f"{line}\n" for line in words))
    cliques = [" ".join(f"{c}{i}" for c in "xyz" for i in range(300))]
    cliques += [f"{c}{i} {c}{j}" for c in "xyz" for i, j in itertools.combinations(range(300), 2)]
    assert len(cliques) == 134551
    (directory / "k300x3.graph").write_text("".join(f"{line}\n" for line in cliques))
    bad = [*cliques, "", "# one bad edge last", "x0 q"]
    (directory / "k300x3-bad.graph").write_text("".join(f"{line}\n" for line in bad))
    path = [" ".join(f"v{i}" for i in range(1, 40001)), *(f"v{i} v{i + 1}" for i in range(1, 40000))]
    (directory / "p40000.graph").write_text("".join(f"{line}\n" for line in path))
    (directory / "p40000-square.graph").write_text("".join(f"{line}\n" for line in [*path, "v39997 v40000"]))
    paths = [[f"p{i}_{j}" for j in range(4)] for i in range(20000)]
    forest = [" ".join(v for p in paths for v in p), *(f"{p[j]} {p[j + 1]}" for p in paths for j in range(3))]
    (directory / "p4x20000.graph").write_text("".join(f"{line}\n" for line in forest))
    names = [f"t{i}" for i in range(1990)]
    threshold = [" ".join(names), *(f"{names[j]} {names[i]}" for i in range(1, 1990, 2) for j in range(i))]
    (directory / "threshold1990.graph").write_text("".join(f"{line}\n" for line in threshold))
    return directory


# each large input runs in a fresh interpreter under spawn's 60 s limit.
# K_199 ∩ K_200 has 39800 states, each with an arc of every signed letter,
# and the product runs with no test for a missing or long arc.  A union of
# cliques is read in one loop; classify answers it from its decomposition,
# and embed K_n from its split, a union of joins of single vertices, with no
# bitset or clique search; the bad edge's error names its line.  The rows
# after them sit at the declared caps: m <= 706 for demo-nonhowson (1415
# conjugates of m = 707 total more than MAX_WORD_LETTERS), and
# MAX_WORD_LETTERS itself.  <a^1000000> ∩ <a^999999> is built from two
# stored arcs, and its 999999000000 states are counted, not written.  embed
# C4 on a path of 40000 vertices needs a square test whose work grows with
# the path, not with its square: one that tries every non-adjacent pair
# runs past the time limit.  The path with a square closed at its end
# answers true.  classify and embed C4 on a forest of 20000 P4s (80000
# vertices) split the graph on its adjacency sets and build bitsets only
# for each 4-vertex path, a prime part; bitsets of the whole graph, 80000
# bits per vertex, ran out of memory.  classify on the threshold graph
# splits it down a path of about 2000 unions and joins, one vertex peeled
# per level: a search set that kept its table size as it emptied made that
# cubic, about 33 s.  embed P4 and embed K_996 read the same split: a
# threshold graph is P4-free, and its largest clique has 996 vertices.
# Every row runs under 1 GiB of address space
LARGE_RUNS = {
    "intersect-free K_199 K_200": (
        ["intersect-free", "--alphabet", "a b", "k199.words", "k200.words"],
        0, '{"rank": 39801, "states": 39800, "edges": 79600}\n', ""),
    "classify 3K_300": (
        ["classify", "k300x3.graph"],
        0, '{"p3_free": true, "fully_residually_free": true, "howson": true, "contains_z_cross_f2": false, '
           '"free_product_of_free_abelian": true, "factor_ranks": [300, 300, 300], "p3_witness": null, '
           '"fix_points_fg": true, "per_points_fg": true, "max_abelian_rank": 300}\n', ""),
    "embed K_300 3K_300": (["embed", "K_300", "k300x3.graph"], 0, '{"pattern": "K_300", "embeds": true}\n', ""),
    "embed K_301 3K_300": (["embed", "K_301", "k300x3.graph"], 0, '{"pattern": "K_301", "embeds": false}\n', ""),
    "classify 3K_300 with a bad edge last": (
        ["classify", "k300x3-bad.graph"], 2, "", "error: line 134554: unknown vertex 'q' in edge\n"),
    "demo-nonhowson m = 706": (
        ["demo-nonhowson", "--m", "706"],
        0, '{"m": 706, "rank": 1413, "element": "a^-707 b a^707", "verdict": "not_member"}\n', ""),
    "demo-nonhowson m = 707": (
        ["demo-nonhowson", "--m", "707"],
        2, "", "error: the 1415 conjugates for m = 707 total 1002527 letters, more than 1000000\n"),
    "normal-form a^1000000": (
        ["normal-form", "a.graph", "a^1000000"],
        0, '{"normal_form": "a^1000000", "length": 1000000, "support": ["a"]}\n', ""),
    "normal-form a^1000001": (
        ["normal-form", "a.graph", "a^1000001"], 2, "", "error: word expands to more than 1000000 letters\n"),
    "intersect-free a^1000000 a^999999": (
        ["intersect-free", "--alphabet", "a", "a1000000.words", "a999999.words"],
        0, '{"rank": 1, "states": 999999000000, "edges": 999999000000}\n', ""),
    "embed C4 P_40000": (["embed", "C4", "p40000.graph"], 0, '{"pattern": "C4", "embeds": false}\n', ""),
    "embed C4 P_40000 with a square at its end": (
        ["embed", "C4", "p40000-square.graph"], 0, '{"pattern": "C4", "embeds": true}\n', ""),
    "classify 20000 P_4": (
        ["classify", "p4x20000.graph"],
        0, '{"p3_free": false, "fully_residually_free": false, "howson": false, "contains_z_cross_f2": true, '
           '"free_product_of_free_abelian": false, "factor_ranks": null, "p3_witness": ["p0_0", "p0_1", "p0_2"], '
           '"fix_points_fg": false, "per_points_fg": false, "max_abelian_rank": 2}\n', ""),
    "embed C4 20000 P_4": (["embed", "C4", "p4x20000.graph"], 0, '{"pattern": "C4", "embeds": false}\n', ""),
    "classify threshold 1990": (
        ["classify", "threshold1990.graph"],
        0, '{"p3_free": false, "fully_residually_free": false, "howson": false, "contains_z_cross_f2": true, '
           '"free_product_of_free_abelian": false, "factor_ranks": null, "p3_witness": ["t0", "t1001", "t10"], '
           '"fix_points_fg": false, "per_points_fg": false, "max_abelian_rank": 996}\n', ""),
    "embed P4 threshold 1990": (["embed", "P4", "threshold1990.graph"], 0, '{"pattern": "P4", "embeds": false}\n', ""),
    "embed K_996 threshold 1990": (
        ["embed", "K_996", "threshold1990.graph"], 0, '{"pattern": "K_996", "embeds": true}\n', ""),
}


@pytest.mark.parametrize("case", list(LARGE_RUNS))
def test_large_inputs_run_in_a_fresh_interpreter(case, large_inputs):
    argv, *expected = LARGE_RUNS[case]
    argv = [str(large_inputs / arg) if arg.endswith((".words", ".graph")) else arg for arg in argv]
    assert spawn(sys.executable, "-m", "pcgroups", *argv, address_space=1 << 30) == tuple(expected)


def test_command_set_and_exit_status_flags():
    code, out, _ = invoke("--help")
    assert code == 0
    assert "{classify,normal-form,equal,member-visible,embed,intersect-free,demo-nonhowson,self-check}" in out
    flagged = {command for command in GOLDEN_INVOCATIONS if "--exit-status" in invoke(command, "-h")[1]}
    assert flagged == {"classify", "equal", "member-visible", "embed"}


FUZZ_COMMANDS = ("classify", "normal-form", "equal", "member-visible", "embed",
                 "intersect-free", "demo-nonhowson", "self-check")
FUZZ_FILES = ("g.graph", "h.words", "k.words")
# a NUL and a lone surrogate reach run only from a caller, not from a shell;
# sys.argv spells a byte that is not UTF-8 as a surrogate such as '\udcff'
FUZZ_TOKENS = ("a", "b", "a b", "x y", "a^2 b^-1", "a^99999999999", "K_3", "P3", "C4",
               "edgeless_2", "-x", "--", "-h", "--exit-status", "\x00", "\udcff")
FUZZ_ALPHABETS = ("a b", "a", "", "a a#", "a \udcff")
FUZZ_LINES = (b"a b c", b"a b", b"b c", b"a^2 b", b"a^-1 b^3", b"a a", b"x^0", b"# c", b"", b"\xff")


@st.composite
def fuzz_argv(draw, tmp):
    """A command, then chunks of tokens.  A free token never starts with
    '--', so ``--out`` and ``--dot`` come only with a path under ``tmp``,
    and ``--m`` only with a small value."""
    argv = [draw(st.sampled_from(FUZZ_COMMANDS))]
    for chunk in draw(st.lists(st.one_of(
        st.sampled_from(FUZZ_FILES).map(lambda name: [str(tmp / name)]),
        st.sampled_from(FUZZ_TOKENS).map(lambda token: [token]),
        st.text(max_size=8).filter(lambda text: not text.startswith("--")).map(lambda text: [text]),
        st.sampled_from(("--out", "--dot")).map(lambda flag: [flag, str(tmp / "written")]),
        st.sampled_from(FUZZ_ALPHABETS).map(lambda alphabet: ["--alphabet", alphabet]),
        st.integers(-2, 9).map(lambda m: ["--m", str(m)]),
    ), max_size=6)):
        argv += chunk
    return argv


FILE_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(st.sampled_from(FUZZ_LINES), max_size=6).map(b"\n".join),
)


# the files under tmp_path are written afresh for every example
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_any_command_line_keeps_the_exit_contract(tmp_path, data):
    for name in FUZZ_FILES:
        (tmp_path / name).write_bytes(data.draw(FILE_BYTES, label=name))
    code, out, err = invoke(*data.draw(fuzz_argv(tmp_path), label="argv"))
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == "" and out.endswith("\n")
