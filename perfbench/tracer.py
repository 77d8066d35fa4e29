"""Per-module timing by wrapping named package functions in place.

Each named function, and the constructor of each named class, is replaced
in every module that binds it (the package namespace and each
``from .x import y`` included) by a wrapper that records calls, inclusive
time and self time: its span minus the spans of the wrapped calls it makes.
Time in unnamed functions counts toward the nearest wrapped caller.  The
verify registry holds its check functions in a tuple, so
``verification.CHECKS`` is swapped for a tuple of wrapped checks.
``uninstall`` puts back every original object.

A named function whose module or binding no longer exists is reported as
absent, with zero calls, instead of stopping the run.  Wrappers return what
the wrapped function returns, so traced outputs equal untraced ones.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

PACKAGE = "teleportsim"
LAYERS = (
    "states", "ensembles", "classical", "channels", "telecloning",
    "protocols", "rng", "optimize", "verification", "cli",
)

# Functions reported one by one: <layer>.<name>.calls and .self_s.
NAMED = {
    "states": ("PureState", "DensityMatrix", "LocalOperator", "bell_measure",
               "partial_trace", "apply_local", "tensor", "von_neumann_entropy"),
    "ensembles": ("TwoStateEnsemble", "make_states"),
    "classical": ("fidelity_optimized", "unknown_state_classical_fidelity"),
    "channels": ("optimize_combined", "combined_fidelity"),
    "telecloning": ("optimize_coeffs", "optimal_global_fidelity", "global_clone_fidelity",
                    "teleclone", "build_telecloning_state"),
    "protocols": ("enumerate_protocol_fidelity", "mc_protocol_fidelity",
                  "mc_haar_average_fidelity"),
    "rng": ("substreams", "haar_qubits"),
    "optimize": ("golden_section_max", "grid_then_golden_max"),
}
# CLI functions reported by self time only: the sweep loops and CSV formatting.
CLI_NAMED = ("main", "cmd_fig_classical", "cmd_fig_channel", "cmd_fig_telecloning", "cmd_verify")
CHECK_NAMES = (
    "core-norm-preservation", "core-partial-trace-consistency", "core-entropy-bounds",
    "core-bell-completeness", "ensemble-entropy-decreasing", "ensemble-x-symmetry",
    "ensemble-overlap-grid", "classical-strategy-ordering", "classical-optimized-symmetry",
    "classical-fuchs-peres-coincidence", "classical-evaluator-consistency",
    "classical-guess-stationarity", "classical-unknown-state-mc", "channel-horodecki-identity",
    "channel-combined-dominance", "channel-classical-crossover", "channel-endpoint-reductions",
    "channel-monotonicity", "protocol-oracle-agreement", "protocol-mc-agreement",
    "protocol-haar-average", "protocol-reproducibility", "protocol-probability-sanity",
    "teleclone-universal-values", "teleclone-correction-exactness", "teleclone-clone-symmetry",
    "teleclone-faithfulness", "teleclone-two-state-sweep", "discrepancy-source-entropy",
    "discrepancy-joint-clones-matrix",
)
MC_FUNCTIONS = (
    "protocols.mc_haar_average_fidelity",
    "protocols.mc_protocol_fidelity",
    "classical.unknown_state_classical_fidelity",
)
# Solver entry points also reported inclusive of their callees.
SOLVERS = ("channels.optimize_combined", "telecloning.optimize_coeffs")
# Bindings of a foreign function counted without a span: SLSQP evaluations.
NFEV_BINDING = ("telecloning", "minimize")


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, funcs in NAMED.items():
        for f in funcs:
            names += [f"{layer}.{f}.calls", f"{layer}.{f}.self_s"]
    names += [f"cli.{f}.self_s" for f in CLI_NAMED]
    names += [f"{k}.incl_s" for k in SOLVERS]
    names += ["telecloning.optimize_coeffs.nfev", "channels.optimize_combined.evals",
              "protocols.mc.ns_per_sample"]
    names += [f"verification.{c}.s" for c in CHECK_NAMES]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    names += ["unattributed_s", "traced_wall_s", "absent_names"]
    return names


class Tracer:
    """Span statistics for one pass; install before the timed section."""

    def __init__(self):
        self.stats = {}            # key -> [calls, inclusive_s, self_s]
        self.nfev = 0
        self.evals = 0             # combined_fidelity calls inside optimize_combined
        self.mc_samples = 0
        self.absent = []
        self._wrapped = set()
        self._stack = []           # child time of each open span
        self._root = [0.0]         # inclusive time of spans with no wrapped parent
        self._patches = []         # (owner, attribute, original), in install order

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key, after=None):
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        self._wrapped.add(key)
        stack = self._stack
        root = self._root
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[1] += dt
                st[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    root[0] += dt
            if after is not None:
                after(args, kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
        bindings = {}  # id(obj) -> [(module, attribute)]
        for mod in [sys.modules[PACKAGE], *modules.values()]:
            for attr, obj in vars(mod).items():
                bindings.setdefault(id(obj), []).append((mod, attr))
        hooks = self._hooks(modules)
        named = [f"{layer}.{f}" for layer, fs in NAMED.items() for f in fs]
        named += [f"cli.{f}" for f in CLI_NAMED]
        placed = {}  # key -> (original function, its wrapper)
        for key in named:
            layer, name = key.split(".")
            obj = getattr(modules.get(layer), name, None)
            if inspect.isclass(obj):
                if "__init__" in vars(obj):
                    self._patch(obj, "__init__", self._wrap(obj.__init__, key))
            elif callable(obj):
                placed[key] = (obj, self._wrap(obj, key, hooks.get(key)))
                for owner, attr in bindings[id(obj)]:
                    self._patch(owner, attr, placed[key][1])
        ver = modules.get("verification")
        if ver is not None and hasattr(ver, "CHECKS"):
            self._patch(ver, "CHECKS", tuple(
                (name, self._wrap(fn, f"verification.{name}")) for name, fn in ver.CHECKS
            ))
        tc = modules.get(NFEV_BINDING[0])
        if tc is not None and hasattr(tc, NFEV_BINDING[1]):
            minimize = getattr(tc, NFEV_BINDING[1])

            def counted(*args, **kwargs):
                res = minimize(*args, **kwargs)
                self.nfev += int(getattr(res, "nfev", 0))
                return res

            self._patch(tc, NFEV_BINDING[1], counted)
        else:
            self.absent.append(".".join(NFEV_BINDING))
        named += [f"verification.{c}" for c in CHECK_NAMES]
        self._count_evals(placed, bindings)
        self.absent += [k for k in named if k not in self._wrapped]

    def _hooks(self, modules) -> dict:
        """Sample counters updated after each Monte Carlo call returns."""
        hooks = {}
        for key in MC_FUNCTIONS:
            layer, name = key.split(".")
            fn = getattr(modules.get(layer), name, None)
            if fn is None:
                continue
            sig = inspect.signature(fn)

            def count_samples(args, kwargs, sig=sig):
                self.mc_samples += int(sig.bind(*args, **kwargs).arguments["samples"])

            hooks[key] = count_samples
        return hooks

    def _count_evals(self, placed, bindings) -> None:
        """Count combined_fidelity calls made inside each optimize_combined solve.

        The counter sits outside the solver's span, so it adds no self time.
        """
        if "channels.optimize_combined" not in placed or "channels.combined_fidelity" not in placed:
            return
        original, traced = placed["channels.optimize_combined"]
        evals = self.stats["channels.combined_fidelity"]

        def counting(*args, **kwargs):
            before = evals[0]
            try:
                return traced(*args, **kwargs)
            finally:
                self.evals += evals[0] - before

        for owner, attr in bindings[id(original)]:
            self._patch(owner, attr, counting)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def report(self, wall_s: float) -> dict:
        """Per-layer metrics for a traced section that took ``wall_s``."""
        def get(key, i):
            st = self.stats.get(key)
            return st[i] if st else 0

        out = {}
        for layer, funcs in NAMED.items():
            for f in funcs:
                out[f"{layer}.{f}.calls"] = get(f"{layer}.{f}", 0)
                out[f"{layer}.{f}.self_s"] = get(f"{layer}.{f}", 2)
        for f in CLI_NAMED:
            out[f"cli.{f}.self_s"] = get(f"cli.{f}", 2)
        for key in SOLVERS:
            out[f"{key}.incl_s"] = get(key, 1)
        out["telecloning.optimize_coeffs.nfev"] = self.nfev
        solves = get("channels.optimize_combined", 0)
        out["channels.optimize_combined.evals"] = self.evals / solves if solves else 0.0
        mc_s = sum(get(k, 1) for k in MC_FUNCTIONS)
        out["protocols.mc.ns_per_sample"] = 1e9 * mc_s / self.mc_samples if self.mc_samples else 0.0
        for c in CHECK_NAMES:
            out[f"verification.{c}.s"] = get(f"verification.{c}", 1)
        layers = dict.fromkeys(LAYERS, 0.0)
        for key, st in self.stats.items():
            layers[key.split(".")[0]] += st[2]
        for layer, s in layers.items():
            out[f"layer.{layer}.self_s"] = s
        out["unattributed_s"] = wall_s - self._root[0]
        out["traced_wall_s"] = wall_s
        out["absent_names"] = len(self.absent)
        return out
