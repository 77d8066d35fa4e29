"""Tests of the benchmark itself: inputs, gate, tracer and tiny end-to-end runs.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gates  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_fixed_by_seed(workload):
    assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
    assert workloads.make_inputs(workload, 5) != workloads.make_inputs(workload, 6)
    assert json.loads(json.dumps(workloads.make_inputs(workload, 5))) == workloads.make_inputs(workload, 5)


def test_oracle_inputs_cover_edges_and_valid_coefficients():
    ops = workloads.make_inputs("oracle", 1)["ops"]
    assert len(ops) == workloads.ORACLE_OPS
    edges = {(t, a) for t, a, *_ in ops[:4]}
    assert edges == {(t, a) for t in (0.0, math.pi / 2) for a in (0.0, 1 / math.sqrt(2))}
    for _, _, a, b, c in ops:
        assert min(a, b, c) >= 0.0
        assert abs(a * a + 2 * b * b + c * c - 1.0) < 1e-12


# -- benchmark definition ------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_report():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == run.PER_LAYER
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- correctness gate ----------------------------------------------------------


def _csv(header, rows):
    return "# command=x\n" + ",".join(header) + "\n" + "".join(
        ",".join(repr(v) for v in r) + "\n" for r in rows)


def test_gate_accepts_valid_and_rejects_broken_csv():
    argv = ["fig-channel", "--alpha-steps", "2"]
    header = gates.HEADERS["fig-channel"]
    good = [[0.0, 0.9, 0.8, 0.9, 0.0], [0.5, 1.0, 1.0, 1.0, 0.7]]
    assert gates.check_figure(argv, _csv(header, good)) == []
    below = [[0.0, 0.9, 0.8, 0.85, 0.0], good[1]]
    assert gates.check_figure(argv, _csv(header, below))
    above_one = [[0.0, 0.9, 0.8, 1.2, 0.0], good[1]]
    assert gates.check_figure(argv, _csv(header, above_one))
    assert gates.check_figure(argv, _csv(header, good[:1]))


def test_gate_rejects_failed_verify():
    ok = "PASS a: x\n30/30 checks passed\n"
    assert gates.check_verify(0, ok) == []
    assert gates.check_verify(1, "FAIL a: x\n29/30 checks passed\n")
    assert gates.check_verify(0, "PASS a: x\n29/29 checks passed\n")


def test_gate_rejects_wrong_oracle_value():
    import teleportsim as tp

    row = [0.4, 0.3, *tp.universal_coeffs().__dict__.values()]
    right = workloads._oracle_op(tp, row)
    assert gates.gate("oracle", {"ops": [row]}, [right], "")[0] == []
    wrong = (right[0] + 1e-9, right[1])
    assert [k for k, _ in gates.gate("oracle", {"ops": [row]}, [wrong], "")[0]] == [0]


# -- tracer --------------------------------------------------------------------


def _bindings():
    import teleportsim

    mods = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "teleportsim"]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("init", c.__qualname__): c.__dict__["__init__"]
                 for c in (teleportsim.PureState, teleportsim.DensityMatrix, teleportsim.LocalOperator)})
    return snap


def test_tracer_wraps_every_binding_and_restores_them():
    import teleportsim
    import teleportsim.cli  # noqa: F401
    from teleportsim import states, telecloning, verification

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert teleportsim.bell_measure is telecloning.bell_measure is states.bell_measure
        assert states.bell_measure is not before[("teleportsim.states", "bell_measure")]
        inputs = workloads.make_inputs("oracle", 2, tiny=True)
        workloads.run_ops("oracle", inputs, "")
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert verification.CHECKS is before[("teleportsim.verification", "CHECKS")]
    report = t.report(1.0)
    assert report["states.bell_measure.calls"] > 0
    assert report["absent_names"] == 0
    layers = sum(v for k, v in report.items() if k.startswith("layer."))
    assert abs(layers + report["unattributed_s"] - report["traced_wall_s"]) < 1e-9


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    from teleportsim import telecloning

    monkeypatch.setitem(sys.modules, "teleportsim.optimize", None)
    monkeypatch.delattr(telecloning, "minimize")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert "optimize.golden_section_max" in t.absent
    assert "telecloning.minimize" in t.absent
    assert t.report(1.0)["optimize.golden_section_max.calls"] == 0
    assert t.report(1.0)["absent_names"] == len(t.absent)


def test_traced_outputs_equal_untraced_outputs():
    inputs = workloads.make_inputs("oracle", 4, tiny=True)
    plain = workloads.run_ops("oracle", inputs, "").outputs
    t = tracer.Tracer()
    t.install()
    try:
        traced = workloads.run_ops("oracle", inputs, "").outputs
    finally:
        t.uninstall()
    assert repr(traced) == repr(plain)


# -- tiny end-to-end runs --------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_tiny(workload):
    res = _run_tiny(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = _run_tiny("montecarlo", 1)
    assert res["correct"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == run.PER_LAYER
    layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
    assert math.isclose(layers + metrics["unattributed_s"], metrics["traced_wall_s"], rel_tol=1e-9)
    assert metrics["protocols.mc_haar_average_fidelity.calls"] == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
