"""petrigames benchmark: run one workload through the CLI's own entry point.

    python3 perfbench/run.py --workload corpus-check --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each op is one CLI command: its argv goes through ``cli.build_parser()``
and ``cli.config_from_args()``, then ``cli.run(cfg, stdout=buffer)`` runs
it in this process, one command at a time (a closed loop, one client).
The timed region repeats whole passes over the workload's ops, at least
``MIN_PASSES`` and more while the next one fits in ``--seconds``.

An op's latency is the median of its passes.  Every time is reported
at a fixed reference speed: it is scaled by ``REFERENCE_S`` over the
mean wall time of ``reference_work``, a fixed pure-Python loop that the
run also times, around each set-up and between ops (every
``REFERENCE_EVERY`` seconds, for ``REFERENCE_SHARE`` of the time).  On
a shared host the speed of the same code drifts by 25-40% over
minutes, and the loop drifts with it, so the scaled times follow the
program rather than the host.  The unscaled wall-clock figures are
printed too, but are not metrics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes, then traced ones, and prints the per-layer metrics, the tracing
overhead and both report digests.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Set-up, which the ``setup_s`` metric times, is the import in a fresh
interpreter plus generating and writing the input files, done
``SETUP_REPEATS`` times; the correctness checks are timed by neither.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_REPEATS = 3
#: nominal seconds of one ``reference_work()``: times are reported at
#: the speed at which it takes this long
REFERENCE_S = 0.003
#: least seconds between two bouts of ``reference_work`` timings
REFERENCE_EVERY = 0.1
#: share of the time since the last bout that a bout lasts
REFERENCE_SHARE = 0.05
#: timings of ``reference_work`` before and after each set-up
SETUP_REFERENCES = 8

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import petrigames.cli; "
                "print(time.perf_counter() - t)")

if not (SRC / "petrigames" / "__init__.py").is_file():
    sys.exit(f"error: no petrigames sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

from petrigames import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def import_seconds() -> float:
    """``import petrigames.cli`` timed inside a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def reference_work(width: int = 5, radix: int = 4) -> int:
    """A fixed pure-Python workload in the library's style: breadth-first
    search over tuple states with dict and list bookkeeping."""
    start = (0,) * width
    seen = {start: 0}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            for i in range(width):
                succ = state[:i] + ((state[i] + 1) % radix,) + state[i + 1:]
                if succ not in seen:
                    seen[succ] = len(seen)
                    following.append(succ)
        frontier = following
    return len(seen)


class Pace:
    """Timings of ``reference_work``: the host's speed over part of a run."""

    def __init__(self):
        self.times: list = []
        self.last = -math.inf

    def tick(self, every: float = 0.0, least: int = 1) -> None:
        """Unless less than ``every`` seconds have passed since the last
        bout, time ``reference_work`` at least ``least`` times and for at
        least ``REFERENCE_SHARE`` of the time since the last bout."""
        started = time.perf_counter()
        if started - self.last < every:
            return
        budget = REFERENCE_SHARE * (started - self.last) if self.times else 0.0
        for count in itertools.count(1):
            begun = time.perf_counter()
            reference_work()
            self.last = time.perf_counter()
            self.times.append(self.last - begun)
            if count >= least and self.last - started >= budget:
                return

    def scale(self) -> float:
        """The factor that takes wall times to reference speed."""
        return REFERENCE_S / statistics.mean(self.times)


def set_up(workload, workdir: Path, seed: int, size: dict, repeats: int):
    """Set the workload up ``repeats`` times; the ops of the last one and
    the median set-up time, scaled and unscaled."""
    pace, raw = Pace(), []
    for _ in range(repeats):
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        pace.tick(least=SETUP_REFERENCES)
        imported = import_seconds()
        started = time.perf_counter()
        ops = workload.setup(workdir, seed, size)
        raw.append(imported + time.perf_counter() - started)
        pace.tick(least=SETUP_REFERENCES)
    setup_s = statistics.median(raw)
    return ops, setup_s * pace.scale(), setup_s


def run_op(op) -> tuple:
    """(exit code, report, seconds); an escaped exception is code -1."""
    buffer = io.StringIO()
    started = time.perf_counter()
    try:
        args = cli.build_parser().parse_args(op.argv)
        code = cli.run(cli.config_from_args(args), stdout=buffer)
    except (Exception, SystemExit) as err:  # any escape fails the op
        elapsed = time.perf_counter() - started
        return -1, f"{type(err).__name__}: {err}", elapsed
    return code, buffer.getvalue(), time.perf_counter() - started


class Passes:
    """Repeated passes over the ops.

    Keeps the first pass's exit codes and reports, every pass's
    latencies, the host's pace, and the ops that raised or whose output
    changed between passes; a later pass's reports are dropped once
    compared.
    """

    def __init__(self, ops: list):
        self.ops = ops
        self.codes: list = []
        self.reports: list = []
        self.latencies: list = []
        self.pace = Pace()
        self.failures: dict = {}

    def run(self, tracer=None) -> float:
        """One pass; returns its wall time."""
        first = not self.latencies
        latencies = []
        started = time.perf_counter()
        for i, op in enumerate(self.ops):
            self.pace.tick(REFERENCE_EVERY)
            if tracer is not None:
                tracer.op_id = i
            code, report, seconds = run_op(op)
            latencies.append(seconds)
            if code < 0:
                self.failures.setdefault(i, report)
            if first:
                self.codes.append(code)
                self.reports.append(report)
            elif (code, report) != (self.codes[i], self.reports[i]):
                self.failures.setdefault(i, "report differs between passes")
        self.pace.tick()
        self.latencies.append(latencies)
        return time.perf_counter() - started

    def typical(self, unscaled: bool = False) -> list:
        """Each op's median latency over the passes, at reference speed
        unless ``unscaled``."""
        scale = 1.0 if unscaled else self.pace.scale()
        return [statistics.median(column) * scale for column in zip(*self.latencies)]

    def digest(self) -> str:
        """sha256 of the first pass's report bytes, in op order."""
        h = hashlib.sha256()
        for report in self.reports:
            h.update(report.encode("utf-8"))
        return h.hexdigest()


def repeat(step, seconds: float, minimum: int) -> int:
    """Call ``step``, which returns its duration, at least ``minimum``
    times and again while the next call should end within ``seconds``."""
    started = time.perf_counter()
    count = 0
    while True:
        last = step()
        count += 1
        if count >= minimum and time.perf_counter() - started + last > seconds:
            return count


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest of p99.9/p99/p95/p90 with at least
    ten samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (100 - q) / 100 >= 10:
            return f"p{q:g}", ordered[math.ceil(n * q / 100) - 1]
    return "max", ordered[-1]


def timings(latencies: list, setup_s: float) -> dict:
    """The end-to-end timing metrics from per-op latencies."""
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail(latencies)[1] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
    }


def layer_metrics(tracer: Tracer, traced_passes: int, ops: list, reports: list) -> dict:
    """Per-pass layer figures, from the spans and the work counts."""
    agg = tracer.aggregate()
    counts = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0.0))[0] // traced_passes

    def self_s(name):
        return agg.get(name, (0, 0.0))[1] / traced_passes

    def ratio(a, b):
        return a / b if b else 0.0

    distinct_nets = len({Path(op.argv[1]).read_bytes() for op in ops})
    m = {}
    for name in sorted(agg):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for key in ("nets.states", "nets.edges", "game.constraints",
                "game.computations", "unfold.prefix_elements"):
        m[key] = (counts[key] // traced_passes, "count")
    m["nets.bfs_per_net"] = (ratio(calls("nets.reachability_graph"), distinct_nets), "ratio")
    m["solver.labelled_per_check"] = (
        ratio(calls("solver.synthesize"), calls("solver.model_check")), "ratio")
    m["solver.verify_profile.ok_ratio"] = (
        ratio(counts["solver.verify_profile.ok"] // traced_passes,
              calls("solver.verify_profile")), "ratio")
    m["unfold.elements_per_s"] = (
        ratio(m["unfold.prefix_elements"][0], self_s("unfold.unfold_prefix")), "1/s")
    m["cli.report_bytes"] = (sum(len(r.encode("utf-8")) for r in reports), "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]()
    size = SIZES[args.size]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return execute(args, workload, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so that its peak
    RSS is its own; the worst exit code."""
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--size", args.size])
        worst = max(worst, done.returncode)
    return worst


def execute(args, workload, size: dict, workdir: Path) -> int:
    repeats = 1 if args.trace else SETUP_REPEATS
    ops, setup_s, raw_setup_s = set_up(workload, workdir, args.seed, size, repeats)

    passes = Passes(ops)
    if args.trace:
        tracer = Tracer()
        traced = Passes(ops)

        def traced_pass() -> float:
            with tracer:
                return traced.run(tracer)

        repeat(passes.run, args.seconds / 2, MIN_PASSES)
        repeat(traced_pass, args.seconds / 2, MIN_PASSES)
        failures = {**traced.failures, **passes.failures}
    else:
        repeat(passes.run, args.seconds, MIN_PASSES)
        failures = dict(passes.failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for i, message in workload.check(ops, passes.codes, passes.reports).items():
        failures.setdefault(i, message)

    n_passes = len(passes.latencies) + (len(traced.latencies) if args.trace else 0)
    attempted = len(ops) * n_passes
    failed = len(failures) * n_passes
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops x {n_passes} passes, "
          f"{failed} failed, failed_ratio {failed / attempted:g}")
    for i in sorted(failures)[:20]:
        print(f"  FAILED op {i} ({ops[i].label}): {failures[i]}")
    summary = workload.summary()
    if summary:
        print(summary)

    if args.trace:
        report_digest = passes.digest()
        traced_digest = traced.digest()
        print(f"report digest sha256 (untraced): {report_digest}")
        print(f"report digest sha256 (traced):   {traced_digest}")
        digests_ok = report_digest == traced_digest
        overhead = sum(traced.typical()) / sum(passes.typical()) - 1
        metrics = layer_metrics(tracer, len(traced.latencies), ops, passes.reports)
        metrics["solver.slots"] = (workload.slots, "count")
        metrics["trace.overhead"] = (overhead, "ratio")
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans)
        print(f"spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
        print(f"tracing overhead: {overhead:+.3f} (traced / untraced op latencies - 1, "
              f"{len(passes.latencies)} untraced and {len(traced.latencies)} traced passes)")
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"  {name:45s} {value:>14.6g} {unit}")
    else:
        digests_ok = True
        print(f"report digest sha256: {passes.digest()}")
        metrics = timings(passes.typical(), setup_s)
        unscaled = timings(passes.typical(unscaled=True), raw_setup_s)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"  {'':12s} {'reference':>12s} {'unscaled':>12s}")
        for name, (value, unit) in metrics.items():
            raw = f"{unscaled[name][0]:12.6g}" if name in unscaled else ""
            print(f"  {name:12s} {value:12.6g} {raw:>12s} {unit}")
        print(f"  (op_tail_ms is {tail(passes.typical())[0]} of {len(ops)} per-op latencies; "
              f"setup_s is the median of {SETUP_REPEATS} set-ups)")

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    named = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not failures and digests_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in named},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
