"""Tests of the benchmark itself: the checker catches wrong output, and a tiny
version of each workload runs clean, plain and traced.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

assert bench.use_checkout()

import checker  # noqa: E402  (needs the oracles on the path)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from pcgroups import cli  # noqa: E402


def _doctor(command, got):
    """The same output with one answer changed."""
    if command == "equal":
        return not got
    got = dict(got)
    if command == "classify":
        got["howson"] = not got["howson"]
    elif command == "embed":
        got["embeds"] = not got["embeds"]
    elif command == "self-check":
        got["graphs_checked"] += 1
    elif command == "normal-form":
        got["normal_form"] += " zz"
    elif command == "member-visible":
        if got["member"]:
            got["rewritten"] += " zz"
        else:
            got["member"] = True
    elif command == "intersect-free":
        got["states"] += 1
    else:
        got["rank"] += 1
    return got


def _tiny_round(workload, directory):
    commands = workloads.make_round(workload, 7, 0, str(directory), tiny=True)
    for cmd in commands:
        for path, text in cmd.files.items():
            Path(path).write_text(text)
    return commands


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_flags_doctored_stdout(workload, tmp_path):
    for cmd in _tiny_round(workload, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(list(cmd.argv), stdout=out, stderr=err)
        stdout = out.getvalue()
        assert checker.check(cmd.argv[0], cmd.expect, code, stdout, err.getvalue())[0] == []
        doctored = json.dumps(_doctor(cmd.argv[0], json.loads(stdout))) + "\n"
        assert checker.check(cmd.argv[0], cmd.expect, code, doctored, "")[0], (cmd.argv, doctored)
        assert checker.check(cmd.argv[0], cmd.expect, 2, stdout, "")[0]
        assert checker.check(cmd.argv[0], cmd.expect, code, stdout, "Traceback (most recent call last):")[0]
        assert checker.check(cmd.argv[0], cmd.expect, code, stdout + stdout, "")[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_clean_plain_and_traced(workload, tmp_path):
    tracer = tracing.Tracer()
    plain, traced = bench.run_traced(workload, 3, str(tmp_path), tracer, 3, tiny=True)
    assert len(plain.records) == len(traced.records) > 0
    bad = [r for r in plain.records + traced.records if not r["ok"]]
    assert bad == []
    assert list(tmp_path.iterdir()) == []
    values = bench.per_layer(tracer, traced.records, plain.busy / traced.busy)
    assert set(values) == set(bench.PER_LAYER)
    assert values["cli.run.calls"] == len(traced.records)
    if workload == "word-problem":
        assert values["visible.normal_form_per_command"] == 3
        assert values["words.normal_form.calls"] > 0
    if workload == "free-subgroups":
        assert values["stallings.intersect.states_out"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_plain_run_does_whole_cycles(workload, tmp_path):
    phase = bench.run_plain(workload, 3, str(tmp_path), 2, tiny=True, min_commands=0)
    assert {r["round"] for r in phase.records} == set(range(workloads.CYCLE))
    assert all(r["ok"] and r["reference_ms"] > 0 for r in phase.records)
    assert list(tmp_path.iterdir()) == []
    values = bench.end_to_end(phase.records, 0.05)
    assert set(values) == set(bench.END_TO_END) and values["success_rate"] == 1


def test_tracer_restores_bindings_and_skips_missing_ones(tmp_path, monkeypatch):
    classify = sys.modules["pcgroups.classify"]  # the package attribute is the function
    original = classify.find_induced_p3
    monkeypatch.delattr(sys.modules["pcgroups.graphs"], "induced_subgraph")
    monkeypatch.setitem(tracing.METHODS, ("graphs", "Removed"), ("method",))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert classify.find_induced_p3 is not original
    finally:
        tracer.uninstall()
    assert classify.find_induced_p3 is original
    plain, traced = bench.run_traced("classify-graphs", 3, str(tmp_path), tracer, 1, tiny=True)
    values = bench.per_layer(tracer, traced.records, 1.0)
    assert values["graphs.induced_subgraph.ms"] == 0
    assert values["graphs.find_induced_p3.ms"] > 0


def test_random_generators_match_known_intersections():
    """The checker's own folding agrees with the construction facts."""
    ab = [("a", 1)]
    assert checker.intersection_counts([ab * 4, [("b", 1)]], [ab * 6, [("b", 1)]], ("a", "b")) == {
        "rank": 2, "states": 12, "edges": 13,
    }
    # folding merges the base state into another one: <a b, a> is all of F2
    assert checker.intersection_counts([[("a", 1), ("b", 1)], ab], [[("b", 1)], ab], ("a", "b")) == {
        "rank": 2, "states": 1, "edges": 2,
    }
    perms = [[1, 2, 0, 3], [1, 0, 2, 3]]  # not transitive: orbit of 0 is {0, 1, 2}
    assert checker.orbit_size(perms, [[0]] * 2) == 3


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "word-problem", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
