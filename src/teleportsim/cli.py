"""Two-state teleportation figures as CSV, plus the verification suite.

usage: teleportsim COMMAND [OPTION ...]

Commands:

  fig-classical     classical strategy fidelities over theta in [0, pi/2]
  fig-channel       channel strategies over alpha^2 in [0, 1/2], for the
                    ensemble at --theta or, with --unknown, an unknown state
  fig-telecloning   optimized telecloning coefficients, fidelities and
                    entanglement over theta
  verify            run every registered invariant check

Options of the fig-* commands, with defaults in brackets.  Each fig-*
command takes both grid options and reads the one its grid runs over:

  --theta-steps N   theta grid points, 2 <= N <= 100000 [181]
  --alpha-steps N   alpha^2 grid points, 2 <= N <= 100000 [101]
  --theta X         fig-channel: ensemble angle, 0 <= X <= pi/2 [pi/4]
  --unknown         fig-channel: the unknown-state variant, which takes
                    no --theta
  --out PATH        output file [stdout]

Options of verify, with defaults in brackets:

  --samples N       Monte Carlo samples, 100 <= N <= 10^9 [1000000]
  --seed N          random seed, N >= 0 [42]
  --out PATH        output file [stdout]

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
from typing import Optional

import numpy as np

from . import __version__
from . import channels as ch
from . import classical as cl
from . import telecloning as tc
from .ensembles import checked_thetas
from .states import _Value
from .verification import run_checks


# Size caps: a mistyped value exits 2 at once instead of running for hours.
_MAX_STEPS, _MAX_SAMPLES = 10**5, 10**9


class RunConfig(_Value):
    _fields = (
        "command",
        "theta_steps",
        "alpha_steps",
        "samples",
        "seed",
        "output_path",
        "theta",
        "unknown",
    )

    def __init__(
        self,
        command: str,
        theta_steps: int = 181,
        alpha_steps: int = 101,
        samples: int = 1_000_000,
        seed: int = 42,
        output_path: Optional[str] = None,
        theta: float = np.pi / 4,
        unknown: bool = False,
    ):
        if not 2 <= theta_steps <= _MAX_STEPS:
            raise ValueError(f"theta-steps must be in [2, {_MAX_STEPS}]")
        if not 2 <= alpha_steps <= _MAX_STEPS:
            raise ValueError(f"alpha-steps must be in [2, {_MAX_STEPS}]")
        if not 100 <= samples <= _MAX_SAMPLES:
            raise ValueError(f"samples must be in [100, {_MAX_SAMPLES}]")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        checked_thetas(theta)
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "theta_steps", theta_steps)
        object.__setattr__(self, "alpha_steps", alpha_steps)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "output_path", output_path)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "unknown", unknown)


def _fmt(value: float) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".12g")


def _csv(metadata: dict, header: tuple, columns) -> str:
    """One ``%`` format over every cell; each cell reads as ``_fmt`` prints it."""
    lines = [f"# {k}={v}" for k, v in metadata.items()]
    lines.append(",".join(header))
    rows = np.column_stack(columns) + 0.0  # -0.0 + 0.0 is 0.0
    row_format = ",".join(["%.12g"] * rows.shape[1])
    lines.append("\n".join([row_format] * rows.shape[0]) % tuple(rows.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _metadata(config: RunConfig, **fields) -> dict:
    return {"command": config.command, "version": __version__, **fields}


def cmd_fig_classical(config: RunConfig) -> tuple[str, int]:
    """Classical fidelities on an inclusive theta grid, each column one broadcast call."""
    meta = _metadata(config, theta_steps=config.theta_steps)
    theta = np.linspace(0.0, np.pi / 2, config.theta_steps)
    header = ("theta", "f_min_error", "f_unambiguous", "f_optimized", "f_fuchs_peres")
    return _csv(meta, header, (theta, *cl.classical_sweep(theta))), 0


def cmd_fig_channel(config: RunConfig) -> tuple[str, int]:
    """Channel-strategy fidelities over alpha^2 in [0, 1/2] inclusive, one broadcast call each."""
    alpha_sq = np.linspace(0.0, 0.5, config.alpha_steps)
    alpha = np.sqrt(alpha_sq)
    if config.unknown:
        meta = _metadata(config, alpha_steps=config.alpha_steps, variant="unknown-state")
        header = ("alpha_sq", "f_direct_avg", "f_purif_unknown")
        return _csv(meta, header, (alpha_sq, *ch.unknown_state_sweep(alpha))), 0
    meta = _metadata(
        config, alpha_steps=config.alpha_steps, variant="two-state", theta=_fmt(config.theta)
    )
    header = ("alpha_sq", "f_direct", "f_purification", "f_combined", "alpha_prime_opt")
    return _csv(meta, header, (alpha_sq, *ch.channel_sweep(config.theta, alpha))), 0


def cmd_fig_telecloning(config: RunConfig) -> tuple[str, int]:
    """Optimized two-state telecloning sweep over theta, each column one broadcast call."""
    meta = _metadata(config, theta_steps=config.theta_steps)
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
    return _csv(meta, header, (theta, *tc.telecloning_sweep(theta))), 0


def cmd_verify(config: RunConfig) -> tuple[str, int]:
    """Run the invariant suite: one line per check and a count; exit code 0 iff all pass."""
    results = run_checks(config)
    failed = sum(not r.passed for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in results]
    lines.append(f"{len(results) - failed}/{len(results)} checks passed\n")
    return "".join(lines), 1 if failed else 0


# option -> (RunConfig field, value type); a flag's type is None
_OUT = {"--out": ("output_path", str)}
_FIG_OPTIONS = {
    "--theta-steps": ("theta_steps", int),
    "--alpha-steps": ("alpha_steps", int),
    **_OUT,
}
# command -> (name of its handler, the options it takes).  Every handler
# maps a RunConfig to (output text, exit code).  It is looked up by name when
# it runs, so a wrapper bound to that name in this module is what runs.
# Each fig-* command takes both grid options, though it reads only one,
# because perfbench's tiny inputs pass both to every fig-* command.
_COMMANDS = {
    "fig-classical": ("cmd_fig_classical", _FIG_OPTIONS),
    "fig-channel": (
        "cmd_fig_channel",
        {**_FIG_OPTIONS, "--theta": ("theta", float), "--unknown": ("unknown", None)},
    ),
    "fig-telecloning": ("cmd_fig_telecloning", _FIG_OPTIONS),
    "verify": ("cmd_verify", {"--samples": ("samples", int), "--seed": ("seed", int), **_OUT}),
}
_HELP = ("-h", "--help")


def _parse(argv) -> Optional[RunConfig]:
    """The command line's RunConfig, or None for -h/--help; a usage error raises ValueError."""
    if not argv:
        raise ValueError(f"missing command, one of {', '.join(_COMMANDS)}")
    command, *rest = argv
    if command in _HELP:
        return None
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}, expected one of {', '.join(_COMMANDS)}")
    options, fields = _COMMANDS[command][1], {"command": command}
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
    if fields.get("unknown") and "theta" in fields:
        raise ValueError("--unknown takes no --theta: the unknown state has no ensemble angle")
    return RunConfig(**fields)


def _run(config: RunConfig, stream) -> int:
    text, code = globals()[_COMMANDS[config.command][0]](config)
    stream.write(text)
    return code


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
