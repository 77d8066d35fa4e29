"""Two-state teleportation figures as CSV, plus the verification suite.

usage: teleportsim COMMAND [OPTION ...]

Commands:

  fig-classical     classical strategy fidelities over theta in [0, pi/2]
  fig-channel       channel strategies over alpha^2 in [0, 1/2], for the
                    ensemble at --theta or, with --unknown, an unknown state
  fig-telecloning   optimized telecloning coefficients, fidelities and
                    entanglement over theta
  verify            run every registered invariant check

Options, with defaults in brackets; every command takes the first five:

  --theta-steps N   theta grid points, 2 <= N <= 100000 [181]
  --alpha-steps N   alpha^2 grid points, 2 <= N <= 100000 [101]
  --samples N       Monte Carlo samples, 100 <= N <= 10^9 [1000000]
  --seed N          random seed, N >= 0 [42]
  --out PATH        output file [stdout]
  --theta X         fig-channel: ensemble angle, 0 <= X <= pi/2 [pi/4]
  --unknown         fig-channel: the unknown-state variant

An option's value is the next argument, even one that starts with '-'
(--theta -1e-13 is an out-of-range theta), or follows '=' (--seed=7).
Options come in any order; a repeated option keeps its last value.
-h or --help in place of a command or an option prints this text.

CSV output is deterministic for a fixed configuration: 12 significant
digits, '\\n' line endings, '#'-prefixed metadata lines before the header.
Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  Every usage or configuration error exits 2 before --out is opened,
and an unwritable --out exits 2 before anything is computed.
"""

from __future__ import annotations

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


# command -> option -> (RunConfig field, value type); a flag's type is None
_COMMON = {
    "--theta-steps": ("theta_steps", int),
    "--alpha-steps": ("alpha_steps", int),
    "--samples": ("samples", int),
    "--seed": ("seed", int),
    "--out": ("output_path", str),
}
_OPTIONS = {
    "fig-classical": _COMMON,
    "fig-channel": {**_COMMON, "--theta": ("theta", float), "--unknown": ("unknown", None)},
    "fig-telecloning": _COMMON,
    "verify": _COMMON,
}
_HELP = ("-h", "--help")


def _parse(argv) -> Optional[RunConfig]:
    """The command line's RunConfig, or None for -h/--help; a usage error raises ValueError."""
    if not argv:
        raise ValueError(f"missing command, one of {', '.join(_OPTIONS)}")
    command, *rest = argv
    if command in _HELP:
        return None
    if command not in _OPTIONS:
        raise ValueError(f"unknown command {command!r}, expected one of {', '.join(_OPTIONS)}")
    options, fields = _OPTIONS[command], {"command": command}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return None
        name, eq, value = token.partition("=")
        if name not in options:
            raise ValueError(f"{command} takes no argument {token!r}")
        field, kind = options[name]
        if kind is None:
            if eq:
                raise ValueError(f"{name} takes no value")
            fields[field] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{name} needs a value")
        try:
            fields[field] = kind(value)
        except ValueError:
            raise ValueError(f"{name}: invalid {kind.__name__} value {value!r}") from None
    return RunConfig(**fields)


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
    try:
        config = _parse(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config is None:
        # python -OO strips the docstring
        sys.stdout.write(__doc__ or "usage: teleportsim COMMAND [OPTION ...]\n")
        return 0
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
