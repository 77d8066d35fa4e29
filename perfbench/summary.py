"""Summarise run records: per workload, each metric's median and quartiles.

    python3 perfbench/summary.py perfbench/baseline [more record files or dirs]

Reads the JSON run records that run.py writes (one per file, or one per line
of a .jsonl file), groups them by workload and trace mode, and prints for
each metric the run count, median, first and third quartiles, and the
quartile spread as a share of the median.  For the untraced records it also
pools every pass's paced wall time and every operation's latency and gives
the highest percentile with at least ten samples beyond it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from run import tail, unit_of


def load(paths):
    records = []
    for path in paths:
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))] if os.path.isdir(path) else [path]
        for name in files:
            if not name.endswith((".json", ".jsonl")):
                continue
            with open(name) as fh:
                records += [json.loads(line) for line in fh if line.strip()]
    return records


def main(argv) -> int:
    groups = {}
    for r in load(argv):
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    for (workload, trace), runs in sorted(groups.items()):
        seeds = sorted(r["seed"] for r in runs)
        print(f"== {workload} trace={trace}: {len(runs)} runs, seeds {seeds}, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = f"{(q3 - q1) / med:.3f}" if med else "-"
            print(f"  {name:<50} {med:>14.6g} {unit_of(name):<5} q1 {q1:.6g} q3 {q3:.6g} spread {spread}")
        if trace == 0:
            walls = [w for r in runs for w in r["samples"]["wall_s"]]
            ops = [t for r in runs for p in r["samples"]["op_us"] for t in p]
            print(f"  pooled wall_s: {tail(walls)}")
            print(f"  pooled operation latency (us): {tail(ops)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
