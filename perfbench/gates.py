"""Correctness gate: invariants every pass's outputs must satisfy.

The gate checks invariants, not today's bytes, so a solver that moves the
a, b, c columns within tolerance still passes.  Tolerances are the ones the
package's own tests and verify checks already pin.  Each function returns
(operation index, message) pairs for the failures it finds, plus the text
that is hashed to compare passes bit for bit.
"""

from __future__ import annotations

import math
import os

ORDER_TOL = 1e-12             # classical ordering, tests/test_classical.py
FUCHS_PERES_TOL = 1e-9        # optimised vs Fuchs-Peres, tests/test_classical.py
DOMINANCE_TOL = 1e-12         # combined >= max(direct, purification), verify
SANDWICH_TOL = 1e-9           # teleclone <= optimal, tests/test_telecloning.py
NORM_TOL = 1e-10              # a^2 + 2b^2 + c^2 = 1, CloneCoeffs
EXACT_TOL = 1e-12             # oracle agreement, verify and tests
MC_SIGMAS = 4.0               # Monte Carlo agreement, verify
MIN_VERIFY_CHECKS = 30        # the registry may grow, never shrink
LOG2_3 = math.log2(3.0)
HAAR_CLASSICAL_VAR = 1.0 / 45.0  # variance of u^2 + (1-u)^2 for u ~ U[0, 1]

HEADERS = {
    "fig-classical": ("theta", "f_min_error", "f_unambiguous", "f_optimized", "f_fuchs_peres"),
    "fig-channel": ("alpha_sq", "f_direct", "f_purification", "f_combined", "alpha_prime_opt"),
    "fig-channel --unknown": ("alpha_sq", "f_direct_avg", "f_purif_unknown"),
    "fig-telecloning": (
        "theta", "a", "b", "c", "f_global_teleclone", "f_global_optimal",
        "entanglement_alice_receivers",
    ),
}
FIDELITY_COLUMNS = {
    "fig-classical": (1, 2, 3, 4),
    "fig-channel": (1, 2, 3),
    "fig-channel --unknown": (1, 2),
    "fig-telecloning": (4, 5),
}


def parse_csv(text: str):
    """(header, rows) of a CSV body after its '#' metadata lines."""
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    if not lines:
        return (), []
    return tuple(lines[0].split(",")), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _flag(argv, name, default):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def check_figure(argv, text) -> list:
    """Problems with one fig-* CSV produced by ``argv``."""
    kind = "fig-channel --unknown" if "--unknown" in argv else argv[0]
    rows_expected = (
        _flag(argv, "--alpha-steps", 101) if kind.startswith("fig-channel")
        else _flag(argv, "--theta-steps", 181)
    )
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unparsable CSV: {exc}"]
    problems = []
    if header != HEADERS[kind]:
        problems.append(f"header {header}")
    if len(rows) != rows_expected or any(len(r) != len(header) for r in rows):
        problems.append(f"{len(rows)} rows, expected {rows_expected}")
        return problems
    for r in rows:
        if any(not 0.0 <= r[i] <= 1.0 for i in FIDELITY_COLUMNS[kind]):
            problems.append(f"fidelity outside [0, 1] in row {r}")
        if kind == "fig-classical":
            _, f_me, f_un, f_opt, f_fp = r
            if not (f_un <= f_me + ORDER_TOL and f_me <= f_opt + ORDER_TOL):
                problems.append(f"unambiguous <= min-error <= optimised broken in row {r}")
            if abs(f_opt - f_fp) > FUCHS_PERES_TOL:
                problems.append(f"optimised vs Fuchs-Peres in row {r}")
        elif kind == "fig-channel":
            _, f_dir, f_pur, f_comb, _ = r
            if f_comb < max(f_dir, f_pur) - DOMINANCE_TOL:
                problems.append(f"combined below max(direct, purification) in row {r}")
        elif kind == "fig-telecloning":
            _, a, b, c, f_tc, f_opt, ent = r
            if f_tc > f_opt + SANDWICH_TOL:
                problems.append(f"teleclone above optimal in row {r}")
            if abs(a * a + 2 * b * b + c * c - 1.0) > NORM_TOL:
                problems.append(f"a^2 + 2b^2 + c^2 != 1 in row {r}")
            if not ent < LOG2_3:
                problems.append(f"entanglement >= log2 3 in row {r}")
        if len(problems) > 3:
            break
    return problems


def gate(workload: str, inputs: dict, outputs: list, workdir: str):
    """([(op index, message)], digest text) for one pass's outputs."""
    failures, digest = [], []
    if workload == "figures":
        for k, (argv, code) in enumerate(zip(inputs["commands"], outputs)):
            path = os.path.join(workdir, f"fig{k}.csv")
            if code is None:
                continue  # already failed by raising
            if code != 0 or not os.path.exists(path):
                failures.append((k, f"{' '.join(argv)}: exit {code}"))
                continue
            with open(path) as fh:
                text = fh.read()
            digest.append(text)
            failures += [(k, f"{' '.join(argv)}: {p}") for p in check_figure(argv, text)]
    elif workload == "verify":
        for k, out in enumerate(outputs):
            if out is None:
                continue
            code, text = out
            digest.append(text)
            failures += [(k, f"verify: {p}") for p in check_verify(code, text)]
    elif workload == "oracle":
        failures += _gate_oracle(inputs["ops"], outputs)
        digest.append(repr(outputs))
    else:
        failures += _gate_montecarlo(inputs, outputs)
        digest.append(repr(outputs))
    return failures, "\n".join(digest)


def check_verify(code, text) -> list:
    lines = text.strip().split("\n")
    problems = [ln for ln in lines if ln.startswith("FAIL")]
    if code != 0:
        problems.append(f"exit {code}")
    passed, _, total = lines[-1].partition(" ")[0].partition("/")
    if not (passed == total and passed.isdigit() and int(total) >= MIN_VERIFY_CHECKS):
        problems.append(f"summary {lines[-1]!r}")
    return problems


def _gate_oracle(rows, outputs) -> list:
    import teleportsim as tp

    failures = []
    for k, (row, out) in enumerate(zip(rows, outputs)):
        if out is None:
            continue
        theta, alpha, a, b, c = row
        enum, glob = out
        ens = tp.TwoStateEnsemble(theta)
        closed = tp.two_state_direct_fidelity(ens, tp.Channel(alpha))
        coeffs = tp.CloneCoeffs(a, b, c)
        direct = 0.0
        for psi in tp.make_states(ens):
            joint = tp.partial_trace(tp.apply_cloner(psi, coeffs).density(), (1, 2))
            direct += 0.5 * tp.fidelity(tp.tensor(psi, psi), joint)
        if abs(enum - closed) > EXACT_TOL or abs(glob - direct) > EXACT_TOL:
            failures.append((
                k,
                f"oracle {row}: enumeration dev {abs(enum - closed):.2e}, "
                f"protocol vs cloner map dev {abs(glob - direct):.2e}",
            ))
    return failures


def _gate_montecarlo(inputs, outputs) -> list:
    import teleportsim as tp

    n = inputs["samples"]
    failures = []
    for k, ch in enumerate(inputs["channels"]):
        haar, proto, unknown = outputs[3 * k: 3 * k + 3]
        channel = tp.Channel(ch["alpha"])
        checks = (
            ("mc_haar_average_fidelity", haar, tp.average_fidelity_direct(channel)),
            ("mc_protocol_fidelity", proto, tp.direct_fidelity_state(ch["theta"], channel)),
            (
                "unknown_state_classical_fidelity",
                None if unknown is None else (unknown, math.sqrt(HAAR_CLASSICAL_VAR / n)),
                2.0 / 3.0,
            ),
        )
        for j, (name, est, exact) in enumerate(checks):
            if est is None:
                continue
            mean, stderr = est
            dev = abs(mean - exact)
            if not (dev <= MC_SIGMAS * stderr or dev <= EXACT_TOL):
                failures.append(
                    (3 * k + j, f"{name} channel {k}: dev {dev:.2e} > 4 stderr {4 * stderr:.2e}")
                )
    return failures
