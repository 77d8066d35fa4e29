"""The machine's pace during a timed section, from a fixed reference kernel.

The benchmark machine is shared and its speed drifts by tens of percent
over tens of seconds, longer than one run.  A fixed kernel that does not
depend on the package is therefore timed every 50 ms during the section
(from a SIGALRM handler) and three times on each side of it.  Pass and
operation times are reported in nominal seconds: measured seconds, minus
the time spent in the kernel, times NOMINAL_S / mean kernel time.  The
mean, trimmed of its top and bottom tenth, weighs a slow and a fast spell
by their duration, as the timed work does.  A pass uses every sample; an
operation uses the samples within WINDOW_S of it, so a short operation is
paced by the spell it ran in.  On an idle machine at nominal pace the two
agree; a program change moves the
measured time and not the kernel's, so it moves the reported time by the
same factor.  Raw seconds and every kernel sample go to the run record.

Two kernels match the two kinds of work the workloads do: interpreted
Python with tiny matrices (figures, verify, oracle, and interpreter
start-up) and vectorised arrays (montecarlo).  Set-up children are paced
from the parent with the Python kernel, run just before and after each
child, so that nothing runs beside the child.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
WINDOW_S = 0.2
MIN_WINDOW_SAMPLES = 6
TRIM = 0.1
BRACKET = 3
NOMINAL_S = {"python": 2.0e-3, "array": 2.8e-3}
KIND = {"figures": "python", "verify": "python", "oracle": "python", "montecarlo": "array"}
SETUP_KIND = "python"

_SMALL = np.eye(4) * 0.5 + 0.1
_rng = np.random.default_rng(0)
_Z = _rng.standard_normal((16384, 2)) + 1j * _rng.standard_normal((16384, 2))
_R = np.array([0.3, 0.0, 0.0, 0.95])
_B = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def _python_kernel():
    s = 0
    for i in range(3000):
        s += i * i
    for _ in range(60):
        np.linalg.eigvalsh(_SMALL)
        np.kron(_SMALL[:2, :2], _SMALL[:2, :2])
        _SMALL.conj().T @ _SMALL
    return s


def _array_kernel():
    joint = (_Z[:, :, None] * _R[None, None, :]).reshape(-1, 4, 2)
    residual = np.einsum("p,mpj->mj", _B, joint)
    return float((np.abs(np.einsum("mj,mj->m", _Z.conj(), residual)) ** 2).sum())


class Pace:
    """Context manager that samples the reference kernel around and during a section."""

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel = _python_kernel if kind == "python" else _array_kernel
        self.samples = []
        self.stamps = []           # work_clock() at the start of each sample
        self.in_handler = 0.0
        self._previous = None

    def _sample(self) -> float:
        self.stamps.append(self.work_clock())
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        self.in_handler += self._sample()

    def work_clock(self) -> float:
        """perf_counter minus the time spent sampling during the section."""
        return time.perf_counter() - self.in_handler

    def bracket(self) -> None:
        for _ in range(BRACKET):
            self._sample()

    def __enter__(self):
        self.bracket()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.bracket()
        return False

    def factor(self, start=None, end=None) -> float:
        """Nominal seconds per measured second, over [start, end] or all samples.

        The window around [start, end] (work_clock times) widens until it
        holds MIN_WINDOW_SAMPLES samples.
        """
        chosen = self.samples
        if start is not None:
            width = WINDOW_S
            while True:
                chosen = [d for t, d in zip(self.stamps, self.samples)
                          if start - width <= t <= end + width]
                if len(chosen) >= min(MIN_WINDOW_SAMPLES, len(self.samples)):
                    break
                width *= 2
        return NOMINAL_S[self.kind] / trimmed_mean(chosen)


def trimmed_mean(values) -> float:
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    kept = ordered[k:len(ordered) - k]
    return statistics.fmean(kept)
