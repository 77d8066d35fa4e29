"""Seeded inputs and the timed body of one pass for each workload.

`make_inputs` uses only the standard library, so the parent process can
build inputs without importing numpy or the package under test.  The pass
functions run inside a fresh child interpreter (see child.py) and reach the
package only through module attributes looked up at call time, so the
tracer's wrappers see every call.

Workloads (why each exists is in README.md):

  figures     the four fig-* CLI commands through cli.main, to CSV files
  verify      cli.main(["verify", "--seed", <derived>]) at 10^6 samples
  oracle      exact routes: protocol enumeration and the telecloning protocol
  montecarlo  the three seeded Monte Carlo estimators at 10^6 samples
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time

WORKLOADS = ("figures", "verify", "oracle", "montecarlo")

HALF_PI = math.pi / 2
INV_SQRT2 = 1.0 / math.sqrt(2.0)

MC_SAMPLES = 1_000_000
MC_CHANNELS = 2
ORACLE_OPS = 1000
ORACLE_WARMUP = 50
FIGURE_SEEDED_THETAS = 4

# Tiny sizes keep the benchmark's own tests fast; they are never timed.
TINY_STEPS = 5
TINY_VERIFY_SAMPLES = 1000
TINY_MC_SAMPLES = 2000
TINY_ORACLE_OPS = 12
TINY_ORACLE_WARMUP = 2

# Edge coefficient sets: universal cloner, no cloning, the theta = pi/2
# optimum, and the pure-b family member.
_EDGE_COEFFS = (
    (math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), 0.0),
    (1.0, 0.0, 0.0),
    (0.5, 0.5, 0.5),
    (0.0, INV_SQRT2, 0.0),
)


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Everything one run feeds the program, fixed by (workload, seed, tiny)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "figures":
        thetas = [0.0, HALF_PI] + [
            rng.uniform(0.0, HALF_PI) for _ in range(FIGURE_SEEDED_THETAS)
        ]
        commands = [["fig-classical"], ["fig-channel", "--unknown"], ["fig-telecloning"]]
        commands += [["fig-channel", "--theta", repr(t)] for t in thetas]
        if tiny:
            steps = str(TINY_STEPS)
            commands = [c + ["--theta-steps", steps, "--alpha-steps", steps] for c in commands]
        return {"commands": commands}
    if workload == "verify":
        argv = ["verify", "--seed", str(rng.randrange(2**31))]
        if tiny:
            argv += ["--samples", str(TINY_VERIFY_SAMPLES)]
        return {"argv": argv}
    if workload == "oracle":
        n_ops = TINY_ORACLE_OPS if tiny else ORACLE_OPS
        ops = []
        for k, (theta, alpha) in enumerate(
            (t, a) for t in (0.0, HALF_PI) for a in (0.0, INV_SQRT2)
        ):
            ops.append([theta, alpha, *_EDGE_COEFFS[k]])
        while len(ops) < n_ops:
            ops.append([rng.uniform(0.0, HALF_PI), rng.uniform(0.0, INV_SQRT2), *_random_coeffs(rng)])
        return {"ops": ops, "warmup": TINY_ORACLE_WARMUP if tiny else ORACLE_WARMUP}
    channels = [
        {
            "alpha": rng.uniform(0.0, INV_SQRT2),
            "theta": rng.uniform(0.0, HALF_PI),
            "seeds": [rng.randrange(2**31) for _ in range(3)],
        }
        for _ in range(MC_CHANNELS)
    ]
    return {"samples": TINY_MC_SAMPLES if tiny else MC_SAMPLES, "channels": channels}


def _random_coeffs(rng: random.Random):
    """A uniformly oriented point of the nonnegative ellipsoid a^2 + 2b^2 + c^2 = 1."""
    g = [abs(rng.gauss(0.0, 1.0)) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in g))
    return g[0] / norm, g[1] / norm / math.sqrt(2.0), g[2] / norm


def count_ops(workload: str, inputs: dict) -> int:
    """Operations one pass attempts; a pass that dies fails all of them."""
    if workload == "figures":
        return len(inputs["commands"])
    if workload == "verify":
        return 1
    if workload == "oracle":
        return len(inputs["ops"])
    return 3 * len(inputs["channels"])


class Pass:
    """Timed operations of one pass: their latencies, outputs and errors."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op_t0 = []
        self.op_s = []
        self.outputs = []
        self.errors = []

    def op(self, label, fn, *args):
        """Run and time one operation; an exception fails it and yields None."""
        t0 = self.clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a crash is a failed operation, not an abort
            out = None
            self.errors.append(f"{label}: raised {type(exc).__name__}: {exc}")
        self.op_t0.append(t0)
        self.op_s.append(self.clock() - t0)
        self.outputs.append(out)
        return out


def warm_up(workload: str, inputs: dict) -> None:
    """Untimed calls before the timed section, for library-style workloads.

    oracle and montecarlo stand for callers that invoke the library many
    times in one process, so first-call costs are paid here.  figures and
    verify stand for one CLI command per process and get no warm-up.
    """
    import teleportsim as tp

    if workload == "oracle":
        for row in inputs["ops"][: inputs["warmup"]]:
            _oracle_op(tp, row)
    elif workload == "montecarlo":
        ch = inputs["channels"][0]
        channel, psi, spec = _mc_setup(tp, ch)
        small = min(inputs["samples"], 1 << 16)
        tp.mc_haar_average_fidelity(channel, small, 0)
        tp.mc_protocol_fidelity(psi, spec, small, 0)
        tp.unknown_state_classical_fidelity(small, 0)


def run_ops(workload: str, inputs: dict, workdir: str, clock=time.perf_counter) -> Pass:
    """The timed section: every operation of one pass, in input order."""
    import teleportsim as tp
    import teleportsim.cli

    p = Pass(clock)
    if workload == "figures":
        for k, argv in enumerate(inputs["commands"]):
            out = os.path.join(workdir, f"fig{k}.csv")
            p.op(" ".join(argv), _cli, teleportsim.cli, argv + ["--out", out])
    elif workload == "verify":
        p.op("verify", _cli_captured, teleportsim.cli, inputs["argv"])
    elif workload == "oracle":
        for row in inputs["ops"]:
            p.op(f"oracle {row}", _oracle_op, tp, row)
    else:
        n = inputs["samples"]
        prepared = [(_mc_setup(tp, ch), ch["seeds"]) for ch in inputs["channels"]]
        for (channel, psi, spec), (s1, s2, s3) in prepared:
            p.op("mc_haar_average_fidelity", tp.mc_haar_average_fidelity, channel, n, s1)
            p.op("mc_protocol_fidelity", tp.mc_protocol_fidelity, psi, spec, n, s2)
            p.op("unknown_state_classical_fidelity", tp.unknown_state_classical_fidelity, n, s3)
    return p


def _cli(cli, argv):
    return cli.main(argv)


def _cli_captured(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _oracle_op(tp, row):
    """Enumerate both signal states through the channel, then teleclone both."""
    theta, alpha, a, b, c = row
    ens = tp.TwoStateEnsemble(theta)
    spec = tp.standard_teleportation(tp.Channel(alpha))
    psi1, psi2 = tp.make_states(ens)
    enum = 0.5 * (
        tp.enumerate_protocol_fidelity(psi1, spec) + tp.enumerate_protocol_fidelity(psi2, spec)
    )
    return enum, tp.global_clone_fidelity(ens, tp.CloneCoeffs(a, b, c))


def _mc_setup(tp, ch):
    channel = tp.Channel(ch["alpha"])
    psi, _ = tp.make_states(tp.TwoStateEnsemble(ch["theta"]))
    return channel, psi, tp.standard_teleportation(channel)
