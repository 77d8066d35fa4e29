"""Command-line front end: figure data as CSV plus the verification suite.

Subcommands:

  fig-classical     classical strategy fidelities over theta in [0, pi/2]
  fig-channel       channel strategies over alpha^2 in [0, 1/2]
                    (--theta for the two-state case, --unknown for the
                    unknown-state variant)
  fig-telecloning   optimized telecloning coefficients, fidelities and
                    entanglement over theta
  verify            run every registered invariant check

Each fig-* column is one broadcast call on the whole grid (the ``*_sweep``
functions of ``classical``, ``channels`` and ``telecloning``); no command
loops over grid rows or builds an ensemble, channel or coefficient set per
row.  CSV output is deterministic for a fixed configuration: 12 significant
digits, '\\n' line endings, '#'-prefixed metadata lines before the header.
Exit codes: 0 success, 1 verification failure, 2 usage/configuration error.

A process builds its argument parser once, at the first ``main`` call, and
reuses it for every later call; a parse keeps no state in the parser.  Every
usage or configuration error exits 2 before ``--out`` is opened, and an
unwritable ``--out`` exits 2 before anything is computed.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from . import channels as ch
from . import classical as cl
from . import telecloning as tc
from .ensembles import checked_thetas
from .rng import GENERATOR_NAME
from .verification import run_checks


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
        checked_thetas(self.theta)


def _fmt(value: float) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".12g")


def _csv(metadata: dict, header: tuple, columns) -> str:
    """One ``%`` format per row; each cell reads as ``_fmt`` prints it."""
    lines = [f"# {k}={v}" for k, v in metadata.items()]
    lines.append(",".join(header))
    rows = np.column_stack(columns) + 0.0  # -0.0 + 0.0 is 0.0
    row_format = ",".join(["%.12g"] * rows.shape[1])
    lines.extend(row_format % tuple(row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def _base_metadata(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "version": __version__,
        "seed": config.seed,
        "rng": GENERATOR_NAME,
    }


def cmd_fig_classical(config: RunConfig) -> str:
    """Classical fidelities on an inclusive theta grid, each column one broadcast call."""
    meta = _base_metadata(config)
    meta["theta_steps"] = config.theta_steps
    theta = np.linspace(0.0, np.pi / 2, config.theta_steps)
    header = ("theta", "f_min_error", "f_unambiguous", "f_optimized", "f_fuchs_peres")
    return _csv(meta, header, (theta, *cl.classical_sweep(theta)))


def cmd_fig_channel(config: RunConfig) -> str:
    """Channel-strategy fidelities over alpha^2 in [0, 1/2] inclusive, one broadcast call each."""
    meta = _base_metadata(config)
    meta["alpha_steps"] = config.alpha_steps
    alpha_sq = np.linspace(0.0, 0.5, config.alpha_steps)
    alpha = np.sqrt(alpha_sq)
    if config.unknown:
        meta["variant"] = "unknown-state"
        header = ("alpha_sq", "f_direct_avg", "f_purif_unknown")
        return _csv(meta, header, (alpha_sq, *ch.unknown_state_sweep(alpha)))
    meta["variant"] = "two-state"
    meta["theta"] = _fmt(config.theta)
    header = ("alpha_sq", "f_direct", "f_purification", "f_combined", "alpha_prime_opt")
    return _csv(meta, header, (alpha_sq, *ch.channel_sweep(config.theta, alpha)))


def cmd_fig_telecloning(config: RunConfig) -> str:
    """Optimized two-state telecloning sweep over theta, each column one broadcast call."""
    meta = _base_metadata(config)
    meta["theta_steps"] = config.theta_steps
    theta = np.linspace(0.0, np.pi / 2, config.theta_steps)
    header = (
        "theta",
        "a",
        "b",
        "c",
        "f_global_teleclone",
        "f_global_optimal",
        "entanglement_alice_receivers",
    )
    return _csv(meta, header, (theta, *tc.telecloning_sweep(theta)))


def cmd_verify(config: RunConfig, stream) -> int:
    """Run the invariant suite; write one line per check to ``stream``; 0 iff all pass."""
    results = run_checks(config)
    for r in results:
        stream.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
    failed = [r for r in results if not r.passed]
    stream.write(
        f"{len(results) - len(failed)}/{len(results)} checks passed\n"
    )
    return 1 if failed else 0


# Negative numbers in exponent notation and the non-finite spellings that
# float() accepts too: argparse's own pattern (as on Python 3.11) takes
# "-1e-13" or "-inf" for an unknown option, so "--theta -1e-13" would report
# a missing argument instead of the out-of-range theta.
_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """A usage error prints one ``error:`` line and exits 2, as a configuration error does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand with the common options; an option not given takes its RunConfig default."""
    parser = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    parser.add_argument("--theta-steps", type=int)
    parser.add_argument("--alpha-steps", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--out", dest="output_path", metavar="OUT", help="output path (default stdout)"
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first call (not at import)."""
    parser = _Parser(
        prog="teleportsim",
        description="Two-state teleportation figures and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "fig-classical", "classical strategy fidelities vs theta")

    p = _add_command(sub, "fig-channel", "channel strategy fidelities vs alpha^2")
    p.add_argument("--theta", type=float, help="ensemble angle (radians)")
    p.add_argument(
        "--unknown", action="store_true", help="unknown-state variant instead of two-state"
    )

    _add_command(sub, "fig-telecloning", "two-state telecloning sweep vs theta")

    p = _add_command(sub, "verify", "run the invariant verification suite")
    p.add_argument(
        "--tamper",
        action="store_true",
        help="perturb one formula so the harness must report a failure (self-test)",
    )

    return parser


def _run(config: RunConfig, stream) -> int:
    if config.command == "verify":
        return cmd_verify(config, stream)
    figures = {
        "fig-classical": cmd_fig_classical,
        "fig-channel": cmd_fig_channel,
        "fig-telecloning": cmd_fig_telecloning,
    }
    stream.write(figures[config.command](config))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.output_path is None:
        return _run(config, sys.stdout)
    # opened before the command runs, so an unwritable path costs no work;
    # an error on open, write or close alike means the path cannot be written
    try:
        with open(config.output_path, "w", newline="") as fh:
            return _run(config, fh)
    except OSError as exc:
        print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
