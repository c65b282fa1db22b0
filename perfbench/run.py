#!/usr/bin/env python3
"""Benchmark harness for tmbcast: closed-loop workloads through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One process, one closed-loop client, no threads: each operation is an
in-process call of ``tmbcast.cli.main`` on files written at set-up, and the
next starts when the previous one returns.  The loop cycles through the
workload's corpus (see corpus.py), with extra passes over its short
operations, until ``--seconds`` have passed and every operation has run at
least once.  Every output is checked outside the timed region (see
checks.py).  An operation fails if its output is wrong, if it
raises, or if it misses its deadline, which an interval timer in the main
thread enforces.

Every call is timed at a reference pace (see pace.py): its wall time divided
by the host's slowdown, measured with a fixed kernel around and during it.
The host is shared, and other tenants make the same work take up to twice as
long for stretches of seconds; the reference pace takes that out.  An operation's
latency is the median of its runs in the loop.

With ``--trace 0`` the metrics are end to end.  ``ops_per_s`` is the
operations that did not fail divided by the sum of their latencies (one
closed-loop pass over the corpus); ``latency_p50_ms`` and ``latency_tail_ms``
are percentiles over the corpus, the tail being the highest percentile with
ten operations beyond it, and a failed operation counts as slower than any.
``ok_ratio`` is the share of operations that did not fail (its complement,
``failed_ratio``, is printed too).  An operation that raises or misses its
deadline is not run again.  ``setup_s`` is the import time plus the median of
three rounds of corpus generation, file writing and warm-up, at the reference
pace.

With ``--trace 1`` each operation runs untraced and then traced, and the
metrics are per layer (see tracing.py): per-pass totals, each operation
contributing its fastest traced run, its times at the reference pace.  The
spans go to ``perfbench/.work``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: ``attempted`` is the
number of operations in the corpus and ``failed`` the number that failed, so
both depend on the inputs alone.  ``correct`` is false only when some call
returned a wrong verdict or value; a call that raises or misses its deadline
counts in ``failed`` alone.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

from pace import Pacer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_ROUNDS = 3
SETUP_DEADLINE_S = 120.0
TAIL_BEYOND = 10
SHORT_S = 0.1


def library_path() -> None:
    """Make the checkout's library and its test oracles importable."""
    for path in (ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def execute(cli, op, pacer: Pacer, tracer=None, before=None):
    """Run one operation; returns (seconds at the reference pace, error or
    None, Result, span totals, slowdown after the call, wall seconds)."""
    from checks import Result

    for path in op.outputs:
        Path(path).unlink(missing_ok=True)
    out = io.StringIO()
    code = None

    def call():
        nonlocal code
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(op.argv)

    if tracer is not None:
        tracer.open(op.key)
    error, wall, seconds, after = pacer.time(call, op.deadline_s, before)
    totals = None
    if tracer is not None:
        totals = tracer.close()
        for name in totals:
            if name.endswith("_s"):
                totals[name] *= seconds / wall
    outputs = tuple(
        Path(p).read_text(encoding="utf-8") if Path(p).exists() else None for p in op.outputs
    )
    return seconds, error, Result(code, out.getvalue(), outputs), totals, after, wall


class OpStats:
    def __init__(self):
        self.seconds: list[float] = []
        self.wall: list[float] = []
        self.traced_seconds: list[float] = []
        self.totals: list[Counter] = []
        self.errors: list[str] = []
        self.wrong: list[str] = []

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.wrong)


class Runner:
    def __init__(self, cli, expected: dict, pacer: Pacer):
        self.cli = cli
        self.expected = expected
        self.pacer = pacer
        self.verdicts: dict = {}
        self.slowdown: float | None = None  # measured after the last call

    def expectation(self, op):
        if op.expected is not None:
            return op.expected
        if op.key not in self.expected:
            raise SystemExit(f"expected.json has no entry for {op.key}; run perfbench/pin.py")
        return self.expected[op.key]

    def once(self, op, stats: OpStats, tracer=None) -> None:
        from checks import check

        seconds, error, result, totals, self.slowdown, wall = execute(
            self.cli, op, self.pacer, tracer, self.slowdown)
        if tracer is None:
            stats.seconds.append(seconds)
            stats.wall.append(wall)
        else:
            stats.traced_seconds.append(seconds)
            stats.totals.append(totals)
        if error is not None:
            stats.errors.append(error)
            return
        fingerprint = (op.key, result.exit_code, result.stdout, result.outputs)
        if fingerprint not in self.verdicts:
            self.verdicts[fingerprint] = check(op, result, self.expectation(op))
            self.slowdown = None  # the check took time; measure afresh
        if self.verdicts[fingerprint] is not None:
            stats.wrong.append(self.verdicts[fingerprint])

    def loop(self, ops, seconds: float, tracer=None) -> dict[str, OpStats]:
        """Cycle through the corpus until ``seconds`` have passed and every
        operation has run.  Each pass over the corpus is followed by passes
        over the operations whose fastest run so far took under SHORT_S,
        until those have taken as long as the full pass: short calls, timed
        mostly by the kernel runs around them, get more runs, and long ones
        still run once a cycle.  With a tracer each run is followed by a
        traced one.  An operation that raised or missed its deadline is not
        run again (traced or not, once it has run traced)."""
        stats = {op.key: OpStats() for op in ops}
        start = perf_counter()

        def done() -> bool:
            return perf_counter() - start >= seconds and all(
                s.seconds and (tracer is None or s.traced_seconds) for s in stats.values()
            )

        def run(sequence) -> bool:
            for op in sequence:
                s = stats[op.key]
                if not s.errors:
                    self.once(op, s)
                if tracer is not None and not (s.errors and s.traced_seconds):
                    self.once(op, s, tracer)
                if done():
                    return True
            return False

        while True:
            cycle = perf_counter()
            if run(ops):
                return stats
            full = perf_counter() - cycle
            short = [op for op in ops if not stats[op.key].failed
                     and min(stats[op.key].seconds) < SHORT_S]
            cycle = perf_counter()
            while short and perf_counter() - cycle < full:
                if run(short):
                    return stats


def end_to_end(stats: dict[str, OpStats]) -> tuple[dict, dict]:
    """A failed operation's latency is infinite: it missed every limit."""
    latency = {
        key: float("inf") if s.failed else median(s.seconds) for key, s in stats.items()
    }
    n = len(latency)
    ok = sum(1 for s in stats.values() if not s.failed)
    ordered = sorted(latency.values())
    values = {
        "ops_per_s": ok / sum(ordered[:ok]),
        "latency_p50_ms": 1000 * median(ordered),
        "latency_tail_ms": 1000 * ordered[n - 1 - TAIL_BEYOND],
        "ok_ratio": ok / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {
        "tail_percentile": round(100 * (n - TAIL_BEYOND) / n, 2),
        "tail_samples": n,
        "failed_ratio": (n - ok) / n,
    }
    return values, tail


def fastest_traced(s: OpStats) -> Counter:
    return min(zip(s.traced_seconds, s.totals), key=lambda pair: pair[0])[1]


def per_layer(stats: dict[str, OpStats], names) -> dict:
    """Per-pass totals: each operation adds its fastest traced run."""
    keys = set(names) | {"solvers.brute_force.total_s"}
    fastest = [fastest_traced(s) for s in stats.values()]
    sums = {name: sum(t.get(name, 0) for t in fastest) for name in keys}
    labelings = sums["solvers.brute_force.labelings"]
    total_s = sums["solvers.brute_force.total_s"]
    sums["solvers.brute_force.labelings_per_s"] = labelings / total_s if total_s else 0.0
    healthy = [s for s in stats.values() if not s.failed]
    sums["trace.overhead_ratio"] = (
        sum(median(s.traced_seconds) for s in healthy) / sum(median(s.seconds) for s in healthy)
    )
    return {name: sums[name] for name in names}


def probes(ops, stats) -> list:
    """ROADMAP's one-off timings beside the harness's own, inclusive seconds."""
    out = []
    for op in ops:
        if op.probe is not None:
            span, roadmap_s = op.probe
            measured = fastest_traced(stats[op.key]).get(f"{span}.total_s", 0.0)
            out.append({"op": op.key, "span": span, "measured_s": round(measured, 4),
                        "roadmap_s": roadmap_s})
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload: str, seed: int):
    """Import, then build the corpus and warm up SETUP_ROUNDS times; the
    set-up time is at the reference pace."""
    library_path()
    pacer = Pacer()
    loaded = {}

    def load():
        for name in ("corpus", "tmbcast.cli", "checks"):  # checks imports the test oracles
            loaded[name] = importlib.import_module(name)

    error, _, import_s, _ = pacer.time(load, SETUP_DEADLINE_S)
    if error is not None:
        raise SystemExit(f"set-up failed: import {error}")
    corpus, cli = loaded["corpus"], loaded["tmbcast.cli"]
    expected = json.loads((BENCH / "expected.json").read_text())[workload]
    runner = Runner(cli, expected, pacer)
    directory = WORK / workload
    variants = corpus.choose_variants(workload, seed)
    rounds = []
    for _ in range(SETUP_ROUNDS):
        built = []

        def build():
            built.append(corpus.build_ops(workload, variants, directory))
            built.append(corpus.warm_up_ops(directory / "warm-up"))

        error, _, seconds, _ = pacer.time(build, SETUP_DEADLINE_S)
        if error is not None:
            raise SystemExit(f"set-up failed: corpus generation {error}")
        ops, warm_up = built
        for op in warm_up:
            seconds += execute(cli, op, pacer)[0]
        rounds.append(seconds)
    return runner, ops, import_s + median(rounds)


def run_workload(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner, ops, setup_s = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    stats = runner.loop(ops, args.seconds, tracer)

    values, tail = end_to_end(stats)
    values["setup_s"] = setup_s
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "operations": len(ops),
        "runs": sum(len(s.seconds) + len(s.traced_seconds) for s in stats.values()),
        "untraced_wall_s": round(sum(sum(s.wall) for s in stats.values()), 3),
        "untraced_paced_s": round(sum(sum(s.seconds) for s in stats.values()), 3),
        **tail,
        "failures": {k: (s.wrong or s.errors)[0] for k, s in stats.items() if s.failed},
    }
    if args.trace:
        metrics = per_layer(stats, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        meta["probes"] = probes(ops, stats)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"runs-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "seconds": {k: s.seconds for k, s in stats.items()}}
    ))
    print(json.dumps({"meta": meta}))
    for name, value in metrics.items():
        print(f"{args.workload:7} {name:48} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload:7} {'failed_ratio':48} {tail['failed_ratio']:14.6g} ratio")
    print(json.dumps({
        "correct": not any(s.wrong for s in stats.values()),
        "attempted": len(stats),
        "failed": sum(1 for s in stats.values() if s.failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{workload:7} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=("check", "plan", "oracle"))
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
