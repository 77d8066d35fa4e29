"""Command-line front end: figure data as CSV plus the verification suite.

Subcommands:

  fig-classical     classical strategy fidelities over theta in [0, pi/2]
  fig-channel       channel strategies over alpha^2 in [0, 1/2]
                    (--theta for the two-state case, --unknown for the
                    unknown-state variant)
  fig-telecloning   optimized telecloning coefficients, fidelities and
                    entanglement over theta
  verify            run every registered invariant check

CSV output is deterministic for a fixed configuration: 12 significant
digits, '\\n' line endings, '#'-prefixed metadata lines before the header.
Exit codes: 0 success, 1 verification failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from . import channels as ch
from . import classical as cl
from . import telecloning as tc
from .ensembles import Channel, TwoStateEnsemble
from .rng import GENERATOR_NAME
from .verification import VerifyConfig, run_checks


# Size caps: a mistyped value exits 2 at once instead of running for hours.
_MAX_STEPS, _MAX_SAMPLES = 10**5, 10**9


@dataclass(frozen=True)
class RunConfig:
    command: str
    theta_steps: int = 181
    alpha_steps: int = 101
    samples: int = 1_000_000
    seed: int = 42
    output_path: Optional[str] = None
    theta: float = np.pi / 4
    unknown: bool = False
    tamper: bool = False

    def __post_init__(self):
        if not 2 <= self.theta_steps <= _MAX_STEPS:
            raise ValueError(f"theta-steps must be in [2, {_MAX_STEPS}]")
        if not 2 <= self.alpha_steps <= _MAX_STEPS:
            raise ValueError(f"alpha-steps must be in [2, {_MAX_STEPS}]")
        if not 100 <= self.samples <= _MAX_SAMPLES:
            raise ValueError(f"samples must be in [100, {_MAX_SAMPLES}]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _fmt(value: float) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".12g")


def _csv(metadata: dict, header: tuple, rows) -> str:
    lines = [f"# {k}={v}" for k, v in metadata.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _base_metadata(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "version": __version__,
        "seed": config.seed,
        "rng": GENERATOR_NAME,
    }


def cmd_fig_classical(config: RunConfig) -> str:
    """Classical fidelities on an inclusive theta grid."""
    meta = _base_metadata(config)
    meta["theta_steps"] = config.theta_steps
    rows = []
    for t in np.linspace(0.0, np.pi / 2, config.theta_steps):
        ens = TwoStateEnsemble(t)
        rows.append(
            (
                t,
                cl.fidelity_min_error(ens),
                cl.fidelity_unambiguous(ens),
                cl.fidelity_optimized(ens).fidelity,
                cl.fidelity_fuchs_peres(ens),
            )
        )
    header = ("theta", "f_min_error", "f_unambiguous", "f_optimized", "f_fuchs_peres")
    return _csv(meta, header, rows)


def cmd_fig_channel(config: RunConfig) -> str:
    """Channel-strategy fidelities over alpha^2 in [0, 1/2] inclusive."""
    meta = _base_metadata(config)
    meta["alpha_steps"] = config.alpha_steps
    grid = np.linspace(0.0, 0.5, config.alpha_steps)
    if config.unknown:
        meta["variant"] = "unknown-state"
        rows = [
            (
                a2,
                ch.average_fidelity_direct(Channel(np.sqrt(a2))),
                ch.purification_fidelity_unknown(Channel(np.sqrt(a2))),
            )
            for a2 in grid
        ]
        return _csv(meta, ("alpha_sq", "f_direct_avg", "f_purif_unknown"), rows)
    meta["variant"] = "two-state"
    meta["theta"] = _fmt(config.theta)
    ens = TwoStateEnsemble(config.theta)
    rows = []
    for a2 in grid:
        c = Channel(np.sqrt(a2))
        report = ch.optimize_combined(ens, c)
        rows.append(
            (
                a2,
                ch.two_state_direct_fidelity(ens, c),
                ch.purification_fidelity_two_state(ens, c),
                report.fidelity,
                report.alpha_prime,
            )
        )
    header = ("alpha_sq", "f_direct", "f_purification", "f_combined", "alpha_prime_opt")
    return _csv(meta, header, rows)


def cmd_fig_telecloning(config: RunConfig) -> str:
    """Optimized two-state telecloning sweep over theta."""
    meta = _base_metadata(config)
    meta["theta_steps"] = config.theta_steps
    rows = []
    for t in np.linspace(0.0, np.pi / 2, config.theta_steps):
        ens = TwoStateEnsemble(t)
        coeffs = tc.optimize_coeffs(ens)
        system = tc.build_telecloning_state(coeffs)
        rows.append(
            (
                t,
                coeffs.a,
                coeffs.b,
                coeffs.c,
                tc.global_clone_fidelity(ens, coeffs),
                tc.optimal_global_fidelity(ens),
                tc.alice_receivers_entanglement(system),
            )
        )
    header = (
        "theta",
        "a",
        "b",
        "c",
        "f_global_teleclone",
        "f_global_optimal",
        "entanglement_alice_receivers",
    )
    return _csv(meta, header, rows)


def cmd_verify(config: RunConfig, stream=None) -> int:
    """Run the invariant suite; print one line per check; 0 iff all pass."""
    stream = stream if stream is not None else sys.stdout
    results = run_checks(
        VerifyConfig(samples=config.samples, seed=config.seed, tamper=config.tamper)
    )
    for r in results:
        stream.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
    failed = [r for r in results if not r.passed]
    stream.write(
        f"{len(results) - len(failed)}/{len(results)} checks passed\n"
    )
    return 1 if failed else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta-steps", type=int, default=181)
    parser.add_argument("--alpha-steps", type=int, default=101)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleportsim",
        description="Two-state teleportation figures and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig-classical", help="classical strategy fidelities vs theta")
    _add_common(p)

    p = sub.add_parser("fig-channel", help="channel strategy fidelities vs alpha^2")
    _add_common(p)
    p.add_argument("--theta", type=float, default=np.pi / 4, help="ensemble angle (radians)")
    p.add_argument(
        "--unknown", action="store_true", help="unknown-state variant instead of two-state"
    )

    p = sub.add_parser("fig-telecloning", help="two-state telecloning sweep vs theta")
    _add_common(p)

    p = sub.add_parser("verify", help="run the invariant verification suite")
    _add_common(p)
    p.add_argument(
        "--tamper",
        action="store_true",
        help="perturb one formula so the harness must report a failure (self-test)",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            theta_steps=args.theta_steps,
            alpha_steps=args.alpha_steps,
            samples=args.samples,
            seed=args.seed,
            output_path=args.out,
            theta=getattr(args, "theta", np.pi / 4),
            unknown=getattr(args, "unknown", False),
            tamper=getattr(args, "tamper", False),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if config.command == "verify":
        return cmd_verify(config)

    try:
        if config.command == "fig-classical":
            text = cmd_fig_classical(config)
        elif config.command == "fig-channel":
            text = cmd_fig_channel(config)
        elif config.command == "fig-telecloning":
            text = cmd_fig_telecloning(config)
        else:  # unreachable with required=True
            return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if config.output_path:
        try:
            with open(config.output_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
