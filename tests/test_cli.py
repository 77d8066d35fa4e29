import io
import os
import subprocess
import sys

import numpy as np
import pytest

import teleportsim
from teleportsim.cli import (
    RunConfig,
    cmd_fig_channel,
    cmd_fig_classical,
    cmd_fig_telecloning,
    cmd_verify,
    main,
)

LOG2_3 = np.log2(3.0)


def parse_csv(text):
    lines = text.strip().split("\n")
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in body[1:]]
    return meta, header, rows


def row_nearest(rows, column, value):
    return min(rows, key=lambda r: abs(r[column] - value))


class TestFigClassical:
    def test_header_contract(self):
        text = cmd_fig_classical(RunConfig(command="fig-classical", theta_steps=5))
        _, header, _ = parse_csv(text)
        assert header == ["theta", "f_min_error", "f_unambiguous", "f_optimized", "f_fuchs_peres"]

    def test_first_row_all_ones(self):
        text = cmd_fig_classical(RunConfig(command="fig-classical", theta_steps=19))
        _, _, rows = parse_csv(text)
        assert rows[0][0] == 0.0
        assert np.allclose(rows[0][1:], 1.0, atol=1e-9)

    def test_row_at_pi_over_4(self):
        text = cmd_fig_classical(RunConfig(command="fig-classical"))
        _, _, rows = parse_csv(text)
        row = row_nearest(rows, 0, np.pi / 4)
        assert abs(row[0] - np.pi / 4) < 1e-12
        assert abs(row[1] - 0.9267766952966369) < 1e-9
        assert abs(row[2] - 0.8232233047033631) < 1e-9
        assert abs(row[3] - 0.9330127018922192) < 1e-9
        assert abs(row[4] - 0.9330127018922192) < 1e-9

    def test_deterministic_output(self):
        config = RunConfig(command="fig-classical", theta_steps=61)
        assert cmd_fig_classical(config) == cmd_fig_classical(config)

    def test_metadata_lines(self):
        meta, _, _ = parse_csv(cmd_fig_classical(RunConfig(command="fig-classical", theta_steps=3)))
        joined = "\n".join(meta)
        assert "seed=42" in joined and "rng=" in joined and "theta_steps=3" in joined


class TestFigChannel:
    def test_two_state_headers_and_endpoint(self):
        config = RunConfig(command="fig-channel", alpha_steps=11)
        text = cmd_fig_channel(config)
        _, header, rows = parse_csv(text)
        assert header == ["alpha_sq", "f_direct", "f_purification", "f_combined", "alpha_prime_opt"]
        last = rows[-1]
        assert abs(last[0] - 0.5) < 1e-12
        assert np.allclose(last[1:4], 1.0, atol=1e-9)

    def test_two_state_row_at_alpha2_03(self):
        config = RunConfig(command="fig-channel", alpha_steps=101)
        _, _, rows = parse_csv(cmd_fig_channel(config))
        row = row_nearest(rows, 0, 0.3)
        assert abs(row[0] - 0.3) < 1e-12
        assert abs(row[1] - 0.979128784747792) < 1e-9
        assert abs(row[2] - 0.9732050807568877) < 1e-9
        assert row[3] >= row[1] - 1e-12 and row[3] >= row[2] - 1e-12

    def test_unknown_variant(self):
        config = RunConfig(command="fig-channel", alpha_steps=11, unknown=True)
        _, header, rows = parse_csv(cmd_fig_channel(config))
        assert header == ["alpha_sq", "f_direct_avg", "f_purif_unknown"]
        assert abs(rows[0][1] - 2 / 3) < 1e-12
        assert abs(rows[0][2] - 2 / 3) < 1e-12
        assert np.allclose(rows[-1][1:], 1.0, atol=1e-12)


class TestFigTelecloning:
    def test_columns_and_theta_zero_row(self):
        config = RunConfig(command="fig-telecloning", theta_steps=9)
        text = cmd_fig_telecloning(config)
        _, header, rows = parse_csv(text)
        assert header == [
            "theta",
            "a",
            "b",
            "c",
            "f_global_teleclone",
            "f_global_optimal",
            "entanglement_alice_receivers",
        ]
        first = rows[0]
        assert abs(first[1] - 1.0) < 1e-6 and abs(first[2]) < 1e-6 and abs(first[3]) < 1e-6
        assert abs(first[4] - 1.0) < 1e-8 and abs(first[5] - 1.0) < 1e-8
        assert abs(first[6] - 1.0) < 1e-8

    def test_bounds_hold_on_all_rows(self):
        config = RunConfig(command="fig-telecloning", theta_steps=9)
        _, _, rows = parse_csv(cmd_fig_telecloning(config))
        for row in rows:
            assert row[6] < LOG2_3
            assert row[4] <= row[5] + 1e-9


class TestVerifyCommand:
    def test_default_config_passes(self):
        stream = io.StringIO()
        code = cmd_verify(RunConfig(command="verify"), stream=stream)
        output = stream.getvalue()
        assert code == 0, output
        assert "FAIL" not in output
        assert output.count("PASS") == len(output.strip().split("\n")) - 1

    def test_tamper_mode_fails(self):
        stream = io.StringIO()
        code = cmd_verify(RunConfig(command="verify", samples=10_000, tamper=True), stream=stream)
        output = stream.getvalue()
        assert code == 1
        assert "FAIL channel-horodecki-identity" in output


class TestMainEntry:
    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "classical.csv"
        code = main(["fig-classical", "--theta-steps", "5", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("#")
        assert "theta,f_min_error" in text
        assert text.endswith("\n")

    def test_stdout_default(self, capsys):
        code = main(["fig-channel", "--alpha-steps", "3", "--unknown"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "alpha_sq,f_direct_avg,f_purif_unknown" in captured

    def test_exit_code_2_on_bad_config(self, capsys):
        for argv in (["fig-classical", "--theta-steps", "1"], ["verify", "--seed", "-1"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_exit_code_2_on_bad_theta(self):
        assert main(["fig-channel", "--theta", "9.0"]) == 2

    def test_exit_code_2_on_unwritable_path(self, tmp_path):
        target = tmp_path / "no_such_dir" / "x.csv"
        assert main(["fig-classical", "--theta-steps", "3", "--out", str(target)]) == 2

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["not-a-command"])
        assert err.value.code == 2

    def test_seed_does_not_change_enumeration_figures(self):
        a = cmd_fig_classical(RunConfig(command="fig-classical", theta_steps=21, seed=1))
        b = cmd_fig_classical(RunConfig(command="fig-classical", theta_steps=21, seed=2))
        _, _, rows_a = parse_csv(a)
        _, _, rows_b = parse_csv(b)
        assert rows_a == rows_b


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta_steps": 1},
            {"alpha_steps": 0},
            {"samples": 10},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(command="fig-classical", **kwargs)


class TestSizeCaps:
    # documented caps: 10^5 grid steps and 10^9 samples
    CAPS = {"theta_steps": 100_000, "alpha_steps": 100_000, "samples": 1_000_000_000}

    def test_caps_accepted_and_cap_plus_one_rejected(self):
        for name, cap in self.CAPS.items():
            assert getattr(RunConfig(command="verify", **{name: cap}), name) == cap
            with pytest.raises(ValueError, match=str(cap)):
                RunConfig(command="verify", **{name: cap + 1})

    def test_main_exits_2_above_cap_without_running(self, capsys, monkeypatch):
        import teleportsim.cli as cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("command ran past an out-of-range size")

        for name in ("cmd_verify", "cmd_fig_classical", "cmd_fig_channel", "cmd_fig_telecloning"):
            monkeypatch.setattr(cli, name, must_not_run)
        for argv in (
            ["fig-classical", "--theta-steps", "100001"],
            ["fig-telecloning", "--theta-steps", "100001"],
            ["fig-channel", "--alpha-steps", "100001"],
            ["verify", "--samples", "1000000001"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the installed command must not need it
    src = os.path.dirname(os.path.dirname(teleportsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, teleportsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
