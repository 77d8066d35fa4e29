"""The verify checks over theta and alpha grids read the broadcast sweeps.

Each of these checks states its invariant on the columns of one sweep call,
so it builds no ensemble or channel per grid point, and corrupting the
kernel behind a column makes it fail.
"""

import numpy as np
import pytest

from teleportsim import channels, classical, ensembles
from teleportsim import verification as v
from teleportsim.cli import RunConfig

CFG = RunConfig(command="verify")

SWEPT_CHECKS = {
    "classical-strategy-ordering": v.check_classical_ordering,
    "classical-optimized-symmetry": v.check_classical_symmetry,
    "classical-fuchs-peres-coincidence": v.check_fuchs_peres_coincidence,
    "channel-combined-dominance": v.check_combined_dominance,
    "channel-classical-crossover": v.check_crossover,
    "channel-monotonicity": v.check_monotonicity,
}


def test_swept_checks_are_registered_under_their_names():
    registry = dict(v.CHECKS)
    assert len(v.CHECKS) == 30
    for name, fn in SWEPT_CHECKS.items():
        assert registry[name] is fn


@pytest.mark.parametrize("name", SWEPT_CHECKS)
def test_builds_at_most_one_value_object(name, monkeypatch):
    built = []
    for cls in (ensembles.TwoStateEnsemble, ensembles.Channel):
        original = cls.__post_init__

        def counted(self, original=original):
            built.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    ok, _ = SWEPT_CHECKS[name](CFG)
    assert ok
    assert len(built) <= 1


def _shift_first(fn, delta):
    """``fn`` with ``delta(theta, ...)`` added to the first of the values it returns."""

    def shifted(*args):
        f, rest = fn(*args)
        return f + delta(*args), rest

    return shifted


def _mutations():
    cl_opt, ch_opt = classical._optimum, channels._optimum
    return {
        "classical-strategy-ordering": [
            (classical, "_optimum", _shift_first(cl_opt, lambda t: -1e-9)),
            (classical, "_unambiguous", lambda t, f=classical._unambiguous: f(t) + 1e-9),
        ],
        "classical-optimized-symmetry": [
            (classical, "_optimum", _shift_first(cl_opt, lambda t: 1e-8 * t)),
        ],
        "classical-fuchs-peres-coincidence": [
            (classical, "_fuchs_peres", lambda t, f=classical._fuchs_peres: f(t) + 1e-8),
        ],
        "channel-combined-dominance": [
            (channels, "_optimum", _shift_first(ch_opt, lambda t, a, f_cl: -1e-9)),
        ],
        "channel-classical-crossover": [
            (channels, "_direct", lambda t, a: np.ones(np.broadcast(t, a).shape)),
        ],
        "channel-monotonicity": [
            (channels, "_purification_unknown", lambda a: 2.0 / 3.0 - a),
            (channels, "_average_direct", lambda a: 1.0 - a),
        ],
    }


@pytest.mark.parametrize(
    "name,module,attr,mutant",
    [(name, *m) for name, ms in _mutations().items() for m in ms],
    ids=[f"{name}-{m[1]}" for name, ms in _mutations().items() for m in ms],
)
def test_fails_when_the_kernel_it_reads_is_corrupted(name, module, attr, mutant, monkeypatch):
    assert SWEPT_CHECKS[name](CFG)[0]
    monkeypatch.setattr(module, attr, mutant)
    assert not SWEPT_CHECKS[name](CFG)[0]
