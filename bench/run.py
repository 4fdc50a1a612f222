"""Seeded end-to-end benchmark of the pcgroups command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify-graphs --seed 1 --seconds 15 --trace 0

One process, one client, a closed loop and no threads: the next command
starts when the previous one has returned.  One operation is one in-process
``pcgroups.cli.run(argv, stdout=..., stderr=...)`` call on input files
generated from ``--seed`` (see ``workloads``).  Only that call is timed; each
command's exit code and stdout are checked right after it, outside the timed
region, by ``checker``, which shares no code with the package.  A run is a
fixed number of whole cycles of rounds, about ``--seconds`` of command time
on the initial code (``CYCLE_SECONDS``), so every run does the same mix of
command kinds and sizes.  Set-up time is probed in fresh interpreters at even
intervals across the run.  Every reported time is stated at a reference speed
of the host, measured between rounds (see ``REFERENCE_MS``); the records keep
the raw times.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a third as
many rounds, each plain and with every public function of the package
wrapped (see ``tracer``), and reports per-layer figures per traced command
plus the tracing overhead.  Per-command records (and, traced, every span) go
to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_COMMANDS = 100
SETUP_RUNS = 20
# Command time of one cycle of rounds with the initial code on a 2-vCPU Xeon
# VM in its slower spells: --seconds buys round(seconds / this) cycles.
CYCLE_SECONDS = {"classify-graphs": 1.45, "word-problem": 2.7, "free-subgroups": 3.6}
# A run whose (plain) command time passes CAP times --seconds stops at the
# next cycle boundary, so that a much slower program still ends in time.
CAP = 3
# The host's speed swings by up to half, for seconds to minutes at a time, and
# a fixed Python loop swings with it.  So a fixed task of the benchmark's own
# (``reference_ms``) is timed between rounds, and every reported time is
# stated at the speed at which that task takes REFERENCE_MS: a raw time is
# multiplied by REFERENCE_MS over the reference time measured around it.
REFERENCE_MS = 2.0
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import pcgroups.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Per-layer metric -> unit.  "<span>.ms" is the inclusive time of that
# layer's outermost spans, "<span>.self_ms" the time not covered by child
# spans and "<span>.calls" the call count, all per command of the traced
# phase; cli.run.calls is that command count itself.
PER_LAYER = {
    "cli.run.calls": "count",
    "cli.run.self_ms": "ms/op",
    "graphs.parse_graph.ms": "ms/op",
    "graphs.find_induced_p3.ms": "ms/op",
    "graphs.complete_decomposition.ms": "ms/op",
    "graphs.clique_number.ms": "ms/op",
    "graphs.clique_number.calls": "1/op",
    "graphs.find_induced_embedding.ms": "ms/op",
    "graphs.induced_subgraph.ms": "ms/op",
    "classify.classify.self_ms": "ms/op",
    "classify.embeds_in.self_ms": "ms/op",
    "words.parse_word.ms": "ms/op",
    "words.parse_word.letters": "letters/op",
    "words.normal_form.ms": "ms/op",
    "words.normal_form.calls": "1/op",
    "words.normal_form.letters_in": "letters/op",
    "words.normal_form.letters_out": "letters/op",
    "words.normal_form.cancel_ratio": "ratio",
    "words.format_word.ms": "ms/op",
    "visible.is_in_visible.self_ms": "ms/op",
    "visible.rewrite_in_visible.self_ms": "ms/op",
    "visible.normal_form_per_command": "1/op",
    "stallings.from_generators.ms": "ms/op",
    "stallings.from_generators.self_ms": "ms/op",
    "stallings.from_generators.letters_in": "letters/op",
    "stallings.intersect.ms": "ms/op",
    "stallings.intersect.states_out": "states/op",
    "stallings.member.ms": "ms/op",
    "stallings.format_stallings.ms": "ms/op",
    "zf2.certify_not_fg.self_ms": "ms/op",
    "zf2.conjugate_generators.ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}


def use_checkout() -> bool:
    """Put the checkout's package and test oracles on the import path."""
    if not (ROOT / "src" / "pcgroups" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        return False
    for path in (ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return True


class Setup:
    """Set-up time: a fresh interpreter importing the CLI module, probed at
    even intervals across the whole run rather than in one burst, each probe
    scaled by the reference time taken just before it."""

    def __init__(self, seconds):
        self.interval = 1.25 * seconds / SETUP_RUNS  # wall time runs ahead of command time
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.times: list[float] = []
        self._probe(REFERENCE_MS)  # may write bytecode caches: not counted
        self.times.clear()
        self.last = time.perf_counter()

    def _probe(self, reference):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        self.times.append(float(done.stdout) * REFERENCE_MS / reference)

    def maybe(self, reference):
        """Probe once if an interval has passed since the last probe."""
        if len(self.times) < SETUP_RUNS and time.perf_counter() - self.last >= self.interval:
            self._probe(reference)
            self.last = time.perf_counter()

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS // 2:
            self._probe(reference_ms())
        return statistics.median(self.times)


def reference_ms() -> float:
    """Time of a fixed task of the benchmark's own, interpreter-bound like
    the package: string keys into a dict, integer arithmetic, a sort."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    total = 0
    for i in range(1200):
        key = f"v{i % 397}"
        counts[key] = counts.get(key, 0) + i
        for j in range(8):
            total += i * j % 7
    sorted(set(counts))
    return (time.perf_counter() - start) * 1e3


class Phase:
    """Records and summed command time of one mode (plain or traced)."""

    def __init__(self):
        self.records: list[dict] = []
        self.busy = 0.0


def _write_inputs(commands):
    for cmd in commands:
        for path, text in cmd.files.items():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)


def _remove_inputs(commands):
    for cmd in commands:
        for path in cmd.files:
            os.remove(path)


def run_plain(workload, seed, directory, rounds, *, tiny=False, setup=None, cap=math.inf,
              min_commands=MIN_COMMANDS):
    """The closed loop of the untraced run: ``rounds`` rounds, more while
    there are fewer than ``min_commands`` commands, fewer if the command time
    passes ``cap``, ending only at the end of a cycle of rounds.  Between
    rounds the reference task is timed; each record gets the mean of the two
    reference times around its round as ``reference_ms``."""
    import workloads

    phase = Phase()
    index = 0

    def more():
        if index % workloads.CYCLE or len(phase.records) < min_commands:
            return True
        return index < rounds and phase.busy < cap

    reference = reference_ms()
    while more():
        commands = workloads.make_round(workload, seed, index, directory, tiny)
        _write_inputs(commands)
        done = [_execute(cmd, index, None) for cmd in commands]
        _remove_inputs(commands)
        before, reference = reference, reference_ms()
        for record in done:
            record["reference_ms"] = (before + reference) / 2
            phase.busy += record["latency_ms"] / 1e3
        phase.records += done
        if setup is not None:
            setup.maybe(reference)
        index += 1
    return phase


def run_traced(workload, seed, directory, tracer, rounds, *, tiny=False, cap=math.inf):
    """The closed loop of the traced run: ``rounds`` rounds, or fewer if the
    plain command time passes ``cap`` at the end of a cycle.  Every round runs
    plain and traced, alternating which mode goes first so that neither
    profits from the other having warmed up."""
    import workloads

    plain, traced = Phase(), Phase()
    index = 0

    def more():
        return index < rounds and (index % workloads.CYCLE or plain.busy < cap)

    while more():
        commands = workloads.make_round(workload, seed, index, directory, tiny)
        _write_inputs(commands)
        modes = [(None, plain), (tracer, traced)][:: 1 if index % 2 else -1]
        for mode, phase in modes:
            if mode is not None:
                mode.install()
            try:
                for cmd in commands:
                    if mode is not None:
                        mode.command = len(phase.records)
                    record = _execute(cmd, index, mode)
                    phase.busy += record["latency_ms"] / 1e3
                    phase.records.append(record)
            finally:
                if mode is not None:
                    mode.uninstall()
        _remove_inputs(commands)
        index += 1
    return plain, traced


def _execute(cmd, index, tracer):
    """Run one command, timed, then check it outside the timed region."""
    import checker
    from pcgroups.cli import run  # the traced binding, when the tracer is installed

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = run(list(cmd.argv), stdout=out, stderr=err)
    except Exception:  # a crash is a failed command, not the end of the run
        code = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    # A real invocation starts from a fresh process: collect this command's
    # garbage now rather than inside a later command's timed region.
    gc.collect()
    problems, verdict = checker.check(cmd.argv[0], cmd.expect, code, out.getvalue(), err.getvalue())
    if cmd.expect.out_file is not None and os.path.exists(cmd.expect.out_file[0]):
        os.remove(cmd.expect.out_file[0])
    return {
        "workload": cmd.workload, "round": index, "command": cmd.argv[0], "family": cmd.family,
        "size": cmd.size, "latency_ms": latency * 1e3, "verdict": verdict,
        "traced": tracer is not None, "peak_rss_mb": _peak_rss_mb(),
        "ok": not problems, "problems": problems, "facts": cmd.facts,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(records, setup_s) -> dict:
    """Times at reference speed (see REFERENCE_MS)."""
    latencies = sorted(r["latency_ms"] * REFERENCE_MS / r["reference_ms"] for r in records)
    n = len(latencies)
    return {
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": latencies[math.ceil(0.9 * n) - 1],
        "throughput_ops_s": n / (sum(latencies) / 1e3),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "success_rate": sum(r["ok"] for r in records) / n,
    }


def per_layer(tracer, records, overhead) -> dict:
    calls, total, own = tracer.summary()
    n = len(records)
    values = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "ms":
            values[metric] = total[span] / 1e6 / n
        elif kind == "self_ms":
            values[metric] = own[span] / 1e6 / n
        elif kind == "calls":
            values[metric] = calls[span] / n
        else:
            values[metric] = tracer.counts[metric] / n
    values["cli.run.calls"] = calls["cli.run"]
    letters_in = tracer.counts["words.normal_form.letters_in"]
    values["words.normal_form.cancel_ratio"] = (
        1 - tracer.counts["words.normal_form.letters_out"] / letters_in if letters_in else 0.0
    )
    # normal forms per member-visible command that answered "member": the
    # full path (membership test, ambient form, induced form)
    members = {i for i, r in enumerate(records) if r["command"] == "member-visible" and r["verdict"] == "member"}
    forms = sum(1 for s in tracer.spans if s[0] == "words.normal_form" and s[4] in members)
    values["visible.normal_form_per_command"] = forms / len(members) if members else 0.0
    values["trace.overhead_ratio"] = overhead
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classify-graphs", "word-problem", "free-subgroups"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout():
        print("error: src/pcgroups or tests/oracles.py not found; run from a pcgroups checkout", file=sys.stderr)
        return 2
    import pcgroups.cli  # noqa: F401  (imported before the freeze below)
    import tracer as tracing
    import workloads

    # What is loaded now lives as long as the run: keep it out of every
    # collection, so collecting after each command costs about what it
    # would in a fresh CLI process.
    gc.collect()
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    # a fixed number of cycles, so that every run does the same work
    cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))
    cap = CAP * args.seconds
    spans = []
    try:
        if args.trace == 0:
            setup = Setup(args.seconds)
            rounds = cycles * workloads.CYCLE
            records = run_plain(args.workload, args.seed, directory, rounds, setup=setup, cap=cap).records
            metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(records, setup.median()).items()}
        else:
            tracer = tracing.Tracer()
            rounds = max(1, cycles // 3) * workloads.CYCLE
            plain, traced = run_traced(args.workload, args.seed, directory, tracer, rounds, cap=cap / 3)
            values = per_layer(tracer, traced.records, plain.busy / traced.busy)
            metrics = {k: (v, PER_LAYER[k]) for k, v in values.items()}
            spans = tracer.spans
            records = plain.records + traced.records
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "families": {r["family"]: workloads.FAMILIES[r["family"]] for r in records},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "records": records,
            "spans": [list(s) for s in spans],
        }, handle)
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['command']} {r['family']} size={r['size']}: {'; '.join(r['problems'])}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(records)} commands, {failed} failed; records in {report.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if args.trace == 0:
        print(f"  {'error_rate':40s} {failed / len(records):14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
