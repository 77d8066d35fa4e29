"""teleportsim benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass runs in a fresh interpreter (perfbench/child.py), one
at a time, so load is one process.  Passes repeat the same seeded inputs
until ``--seconds`` would be exceeded (at least two passes), then extra
start-ups top up the set-up samples.  With ``--trace 1`` passes alternate
untraced and traced, and the run reports the per-layer metrics.

Standard output lists every metric with its unit; the last line is the JSON
result.  The full run record, with every raw sample, goes to
``.perfbench/runs/``.  README.md in this directory defines each metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
MIN_PASSES = 2
MIN_SETUPS = 7
IMPORTTIME_SETUPS = 3
RUN_CAP_S = 150.0  # stop starting children past this, to finish within 180 s
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_us": "us",
    "op_p90_us": "us",
    "peak_rss_mb": "MB",
}
IMPORT_METRICS = (
    [f"import.{layer}.self_s" for layer in tracer.LAYERS]
    + ["import.numpy.self_s", "import.scipy.self_s", "import.total_s"]
)
PER_LAYER = tracer.metric_names() + IMPORT_METRICS + ["tracing_overhead_s"]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".calls", ".nfev", ".evals")) or name == "absent_names":
        return "count"
    return "ns" if name.endswith("ns_per_sample") else "s"


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the child's ready stamp compares to it.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nearest_rank(values, q: float) -> float:
    """The ceil(q * n)-th smallest value; stable when the sample mix repeats."""
    ordered = sorted(values)
    k = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[k - 1]


def tail(values, unit_scale=1.0):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (0.5, 0.9, 0.99, 0.999):
        if n * (1 - q) >= 10:
            best = {"percentile": q * 100, "value": nearest_rank(values, q) * unit_scale, "n": n}
    return best or {"percentile": None, "value": None, "n": n}


def parse_importtime(stderr: str) -> dict:
    """Self import time in seconds per module, from ``python -X importtime``."""
    per = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        per[name] = per.get(name, 0.0) + int(fields[0]) * 1e-6
    return per


def import_metrics(per: dict) -> dict:
    def family(prefix):
        return sum(s for m, s in per.items() if m == prefix or m.startswith(prefix + "."))

    out = {f"import.{layer}.self_s": per.get(f"{tracer.PACKAGE}.{layer}", 0.0)
           for layer in tracer.LAYERS}
    out["import.numpy.self_s"] = family("numpy")
    out["import.scipy.self_s"] = family("scipy")
    out["import.total_s"] = sum(per.values())
    return out


class Runner:
    """Spawns children for one run and keeps every raw sample they return."""

    def __init__(self, root, workload, inputs, workdir):
        self.root = root
        self.workload = workload
        self.inputs_text = json.dumps(inputs)
        self.workdir = workdir
        self.env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
        self.start = clock()
        self.pace = pace.Pace(pace.SETUP_KIND)

    def elapsed(self) -> float:
        return clock() - self.start

    def spawn(self, mode, traced=False, importtime=False):
        """(result dict or None, error text) of one child."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [CHILD, self.root, self.workload, mode, "1" if traced else "0", self.workdir]
        first = len(self.pace.samples)
        self.pace.bracket()
        t0 = clock()
        try:
            proc = subprocess.run(
                cmd, input=self.inputs_text, capture_output=True, text=True,
                cwd=self.root, env=self.env, timeout=max(5.0, RUN_CAP_S + 25 - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return None, f"{mode} child timed out"
        if proc.returncode != 0:
            return None, f"{mode} child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["child_s"] = clock() - t0
        self.pace.bracket()
        around = self.pace.samples[first:]
        res["raw_setup_s"] = res["ready"] - t0
        res["setup_s"] = res["raw_setup_s"] * pace.NOMINAL_S[pace.SETUP_KIND] / pace.trimmed_mean(around)
        if importtime:
            res["imports"] = parse_importtime(proc.stderr)
        return res, ""


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def version_of(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def measure(args, root, workdir) -> dict:
    inputs = workloads.make_inputs(args.workload, args.seed, tiny=args.tiny)
    ops_per_pass = workloads.count_ops(args.workload, inputs)
    runner = Runner(root, args.workload, inputs, workdir)
    warm, err = runner.spawn("setup")  # writes bytecode caches; not recorded
    if warm is None:
        raise RuntimeError(f"the package under test does not import: {err}")
    runner.start = clock()

    passes, errors, setups = [], [], []
    attempted = failed = 0
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        spawned = clock()
        res, err = runner.spawn("pass", traced=traced)
        attempted += ops_per_pass
        if res is None:
            failed += ops_per_pass
            errors.append(err)
            res = {"traced": traced, "child_s": clock() - spawned}
        else:
            failed += res["failed"]
            errors += res["errors"]
            setups.append(res)
            res["traced"] = traced
        passes.append(res)
        typical = statistics.median(p["child_s"] for p in passes)
        if len(passes) >= MIN_PASSES and (
            runner.elapsed() + typical > args.seconds or runner.elapsed() > RUN_CAP_S
        ):
            break

    imports = []
    if args.trace == 1:
        for _ in range(IMPORTTIME_SETUPS):
            res, err = runner.spawn("setup", importtime=True)
            if res is not None:
                imports.append(import_metrics(res["imports"]))
    while args.trace == 0 and len(setups) < MIN_SETUPS and runner.elapsed() < RUN_CAP_S:
        res, err = runner.spawn("setup")
        if res is None:
            errors.append(err)
            break
        setups.append(res)

    ok = [p for p in passes if "wall_s" in p]
    digests = {p["digest"] for p in ok}
    if len(digests) > 1:
        errors.append(f"passes on identical inputs gave {len(digests)} different outputs")
    return {
        "inputs": inputs,
        "passes": passes,
        "setups": [(s["setup_s"], s["raw_setup_s"]) for s in setups],
        "imports": imports,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": failed == 0 and len(digests) == 1 and len(ok) == len(passes),
    }


def summarize(args, m) -> dict:
    ok = [p for p in m["passes"] if "wall_s" in p]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if args.trace == 0:
        op_s = [t for p in untraced for t in p["op_s"]]
        return {
            "setup_s": statistics.median(s for s, _ in m["setups"]),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "op_p50_us": nearest_rank(op_s, 0.5) * 1e6,
            "op_p90_us": nearest_rank(op_s, 0.9) * 1e6,
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in untraced) / 1024.0,
        }
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in tracer.metric_names()
    }
    for name in IMPORT_METRICS:
        metrics[name] = statistics.median(i[name] for i in m["imports"]) if m["imports"] else 0.0
    metrics["tracing_overhead_s"] = (
        statistics.median(p["raw_wall_s"] for p in traced)
        - statistics.median(p["raw_wall_s"] for p in untraced)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "teleportsim", "cli.py")):
        print("error: run from the root of a teleportsim checkout (src/teleportsim missing)",
              file=sys.stderr)
        return 2
    state = os.path.join(root, ".perfbench")
    workdir = os.path.join(state, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        m = measure(args, root, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [p for p in m["passes"] if "wall_s" in p]
    if not ok or (args.trace == 1 and not any(p["traced"] for p in ok)):
        print("error: no pass completed", *m["errors"][:5], sep="\n", file=sys.stderr)
        return 1
    metrics = summarize(args, m)

    untraced = [p for p in ok if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    op_s = [t for p in untraced for t in p["op_s"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: BLAS_THREADS for k in BLAS_ENV},
        "platform": platform.platform(),
        "unix_time": time.time(),
        "attempted": m["attempted"],
        "failed": m["failed"],
        "failed_frac": m["failed"] / m["attempted"],
        "correct": m["correct"],
        "errors": m["errors"][:50],
        "metrics": metrics,
        "wall_tail_s": tail(walls),
        "op_tail_us": tail(op_s, 1e6),
        "samples": {
            "setup_s": [s for s, _ in m["setups"]],
            "raw_setup_s": [r for _, r in m["setups"]],
            "wall_s": walls,
            "raw_wall_s": [p["raw_wall_s"] for p in untraced],
            "pace_us": [[round(t * 1e6, 1) for t in p["pace_s"]] for p in untraced],
            "traced_wall_s": [p["raw_wall_s"] for p in ok if p["traced"]],
            "child_s": [p["child_s"] for p in m["passes"]],
            "peak_rss_kb": [p["rss_kb"] for p in ok],
            "op_us": [[round(t * 1e6, 1) for t in p["op_s"]] for p in untraced],
            "raw_op_us": [[round(t * 1e6, 1) for t in p["raw_op_s"]] for p in untraced],
            "layers": [p["layers"] for p in ok if p["traced"]],
            "imports": m["imports"],
        },
        "absent": sorted({a for p in ok if p["traced"] for a in p.get("absent", [])}),
    }
    if args.workload == "montecarlo":
        samples = m["inputs"]["samples"] * len(m["inputs"]["channels"]) * 3
        record["msamples_per_s"] = samples / statistics.median(walls) / 1e6
    runs = os.path.join(state, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(runs, name), "w") as fh:
        json.dump(record, fh)

    for key, value in metrics.items():
        print(f"{key:<52} {value:>16.6g} {unit_of(key)}")
    print(f"{'failed_frac':<52} {record['failed_frac']:>16.6g} ratio "
          f"({m['failed']} of {m['attempted']} operations)")
    print(f"wall_s samples: n={len(walls)}, tail {record['wall_tail_s']}")
    print(f"op latency tail: {record['op_tail_us']}")
    if "msamples_per_s" in record:
        print(f"{'msamples_per_s':<52} {record['msamples_per_s']:>16.6g} Msamples/s")
    for e in m["errors"][:10]:
        print(f"error: {e}")
    print(json.dumps({
        "correct": m["correct"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
