"""One benchmark pass in a fresh interpreter, as one CLI run would have.

    python3 perfbench/child.py ROOT WORKLOAD MODE TRACE WORKDIR < inputs.json

MODE ``setup`` imports ``teleportsim.cli`` from ROOT/src and stops; MODE
``pass`` then warms up, runs the timed operations (wrapped by the tracer
when TRACE is 1, paced by pace.py otherwise), and gates the outputs.
Nothing heavy is imported before the package, so the reported ready time
covers interpreter start-up and the package's own imports.  The result is
one JSON line on standard output.
"""

import os
import sys
import time


def main() -> int:
    root, workload, mode, trace, workdir = sys.argv[1:6]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import teleportsim.cli  # noqa: F401  (the set-up being measured)

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import json

    if not os.path.abspath(teleportsim.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"teleportsim imported from {teleportsim.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"ready": ready}
    if mode == "pass":
        result.update(run_pass(workload, json.load(sys.stdin), trace == "1", workdir))
    print(json.dumps(result))
    return 0


def run_pass(workload, inputs, traced, workdir) -> dict:
    import hashlib
    import resource

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import gates
    import workloads
    from pace import KIND, Pace
    from tracer import Tracer

    workloads.warm_up(workload, inputs)
    if traced:
        # Per-layer times are raw: the pace kernel would land inside spans.
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            p = workloads.run_ops(workload, inputs, workdir)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        paced_wall, paced_ops, pace_s = wall, p.op_s, []
    else:
        with Pace(KIND[workload]) as pace:
            t0 = pace.work_clock()
            p = workloads.run_ops(workload, inputs, workdir, pace.work_clock)
            wall = pace.work_clock() - t0
        paced_wall = wall * pace.factor()
        paced_ops = [d * pace.factor(s, s + d) for s, d in zip(p.op_t0, p.op_s)]
        pace_s = pace.samples
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures, digest = gates.gate(workload, inputs, p.outputs, workdir)
    failed_ops = {k for k, out in enumerate(p.outputs) if out is None}
    failed_ops |= {k for k, _ in failures}
    out = {
        "wall_s": paced_wall,
        "op_s": paced_ops,
        "raw_wall_s": wall,
        "raw_op_s": p.op_s,
        "pace_s": pace_s,
        "rss_kb": rss_kb,
        "failed": len(failed_ops),
        "errors": p.errors + [msg for _, msg in failures],
        "digest": hashlib.sha256(digest.encode()).hexdigest(),
    }
    if traced:
        out["layers"] = tracer.report(wall)
        out["absent"] = tracer.absent
    return out


if __name__ == "__main__":
    sys.exit(main())
