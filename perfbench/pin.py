#!/usr/bin/env python3
"""Regenerate perfbench/expected.json: the output of every pool variant.

    python3 perfbench/pin.py [workload ...]

With workload names, only those are re-pinned and the rest of the file is
kept.

Runs each operation of every variant of every slot through the CLI, as the
benchmark does but with long deadlines, and records its exit code and
output.  Each output must also pass the benchmark's live checks, and oracle
answers on search spaces of at most EXHAUSTIVE_CAP labelings must equal the
exhaustive optimum of tests/oracles.py.  An operation that raises or runs
out of time is recorded as null, so the benchmark applies only its live
checks to it; the script lists those.
"""

from __future__ import annotations

import json
import sys

from pace import Pacer
from run import BENCH, WORK, execute, library_path

EXHAUSTIVE_CAP = 1300
PIN_DEADLINE_FACTOR = 10


def main() -> int:
    library_path()
    import corpus
    import oracles
    import tmbcast.cli as cli
    from checks import check, load_document
    from tmbcast.solvers import search_space_size

    pacer = Pacer()
    target = BENCH / "expected.json"
    pinned = json.loads(target.read_text()) if target.exists() else {}
    problems = 0
    confirmed = 0
    for workload in sys.argv[1:] or corpus.WORKLOADS:
        pinned[workload] = {}
        for name, _, pool, _ in corpus.slots(workload):
            for v in range(pool):
                directory = WORK / "pin" / workload
                for op in corpus.build_ops(workload, [(name, v)], directory):
                    op.deadline_s *= PIN_DEADLINE_FACTOR
                    seconds, error, result, *_ = execute(cli, op, pacer)
                    if op.expected is not None:
                        verdict = error or check(op, result, op.expected)
                        print(f"{op.key}: analytic expectation; this commit: {verdict or 'ok'}")
                        continue
                    if error is not None:
                        pinned[workload][op.key] = None
                        print(f"{op.key}: {error}; pinned as null", file=sys.stderr)
                        continue
                    verdict = check(op, result, result.pinned())
                    if verdict is not None:
                        problems += 1
                        print(f"{op.key}: live check failed: {verdict}", file=sys.stderr)
                    pinned[workload][op.key] = result.pinned()
                    if op.check == "oracle":
                        instance = load_document(op.ctx["instance"]).to_instance()
                        if search_space_size(instance) <= EXHAUSTIVE_CAP:
                            want = oracles.exhaustive_optimum(instance, op.ctx["measure"])
                            if want != result.payload()["objective"]:
                                problems += 1
                                print(f"{op.key}: exhaustive optimum {want}", file=sys.stderr)
                            confirmed += 1
                    print(f"{op.key}: {seconds:.3f} s", flush=True)
    target.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"{confirmed} oracle answers confirmed by exhaustive search; {problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
