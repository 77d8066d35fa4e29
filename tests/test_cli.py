import os
import subprocess
import sys

import numpy as np
import pytest

import teleportsim
import teleportsim.cli as cli
from teleportsim import protocols
from teleportsim.cli import (
    RunConfig,
    _csv,
    _fmt,
    cmd_fig_channel,
    cmd_fig_classical,
    cmd_fig_telecloning,
    cmd_verify,
    main,
)
from teleportsim.ensembles import Channel, TwoStateEnsemble
from teleportsim.states import DensityMatrix
from teleportsim.telecloning import CloneCoeffs, TelecloningSystem

LOG2_3 = np.log2(3.0)


def parse_csv(text):
    lines = text.strip().split("\n")
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in body[1:]]
    return meta, header, rows


def csv_text(handler, config):
    """A figure handler's CSV text; a figure command always exits 0."""
    text, code = handler(config)
    assert code == 0
    return text


def _cli_in_new_process(*args):
    src = os.path.dirname(os.path.dirname(teleportsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def row_nearest(rows, column, value):
    return min(rows, key=lambda r: abs(r[column] - value))


class TestFigClassical:
    def test_header_contract(self):
        text = csv_text(cmd_fig_classical, RunConfig(command="fig-classical", theta_steps=5))
        _, header, _ = parse_csv(text)
        assert header == ["theta", "f_min_error", "f_unambiguous", "f_optimized", "f_fuchs_peres"]

    def test_first_row_all_ones(self):
        text = csv_text(cmd_fig_classical, RunConfig(command="fig-classical", theta_steps=19))
        _, _, rows = parse_csv(text)
        assert rows[0][0] == 0.0
        assert np.allclose(rows[0][1:], 1.0, atol=1e-9)

    def test_row_at_pi_over_4(self):
        text = csv_text(cmd_fig_classical, RunConfig(command="fig-classical"))
        _, _, rows = parse_csv(text)
        row = row_nearest(rows, 0, np.pi / 4)
        assert abs(row[0] - np.pi / 4) < 1e-12
        assert abs(row[1] - 0.9267766952966369) < 1e-9
        assert abs(row[2] - 0.8232233047033631) < 1e-9
        assert abs(row[3] - 0.9330127018922192) < 1e-9
        assert abs(row[4] - 0.9330127018922192) < 1e-9

    def test_deterministic_output(self):
        config = RunConfig(command="fig-classical", theta_steps=61)
        assert csv_text(cmd_fig_classical, config) == csv_text(cmd_fig_classical, config)

    def test_metadata_lines(self):
        config = RunConfig(command="fig-classical", theta_steps=3)
        meta, _, _ = parse_csv(csv_text(cmd_fig_classical, config))
        # no figure draws a random number, so no seed or rng line is written
        assert meta == [
            "# command=fig-classical",
            f"# version={teleportsim.__version__}",
            "# theta_steps=3",
        ]


class TestFigChannel:
    def test_two_state_headers_and_endpoint(self):
        config = RunConfig(command="fig-channel", alpha_steps=11)
        text = csv_text(cmd_fig_channel, config)
        _, header, rows = parse_csv(text)
        assert header == ["alpha_sq", "f_direct", "f_purification", "f_combined", "alpha_prime_opt"]
        last = rows[-1]
        assert abs(last[0] - 0.5) < 1e-12
        assert np.allclose(last[1:4], 1.0, atol=1e-9)

    def test_two_state_row_at_alpha2_03(self):
        config = RunConfig(command="fig-channel", alpha_steps=101)
        _, _, rows = parse_csv(csv_text(cmd_fig_channel, config))
        row = row_nearest(rows, 0, 0.3)
        assert abs(row[0] - 0.3) < 1e-12
        assert abs(row[1] - 0.979128784747792) < 1e-9
        assert abs(row[2] - 0.9732050807568877) < 1e-9
        assert row[3] >= row[1] - 1e-12 and row[3] >= row[2] - 1e-12

    def test_unknown_variant(self):
        config = RunConfig(command="fig-channel", alpha_steps=11, unknown=True)
        _, header, rows = parse_csv(csv_text(cmd_fig_channel, config))
        assert header == ["alpha_sq", "f_direct_avg", "f_purif_unknown"]
        assert abs(rows[0][1] - 2 / 3) < 1e-12
        assert abs(rows[0][2] - 2 / 3) < 1e-12
        assert np.allclose(rows[-1][1:], 1.0, atol=1e-12)


class TestFigTelecloning:
    def test_columns_and_theta_zero_row(self):
        config = RunConfig(command="fig-telecloning", theta_steps=9)
        text = csv_text(cmd_fig_telecloning, config)
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
        _, _, rows = parse_csv(csv_text(cmd_fig_telecloning, config))
        for row in rows:
            assert row[6] < LOG2_3
            assert row[4] <= row[5] + 1e-9

    def test_sweep_builds_no_system_or_spec(self, monkeypatch):
        counts = {"_bell_transfer": 0, "TelecloningSystem": 0, "16x16 density": 0}
        bell_transfer = protocols._bell_transfer
        system_init = TelecloningSystem.__init__
        density_init = DensityMatrix.__init__

        def counting_bell_transfer(*args):
            counts["_bell_transfer"] += 1
            return bell_transfer(*args)

        def counting_system_init(self, coeffs):
            counts["TelecloningSystem"] += 1
            system_init(self, coeffs)

        def counting_density_init(self, elements):
            counts["16x16 density"] += np.shape(elements) == (16, 16)
            density_init(self, elements)

        monkeypatch.setattr(protocols, "_bell_transfer", counting_bell_transfer)
        monkeypatch.setattr(TelecloningSystem, "__init__", counting_system_init)
        monkeypatch.setattr(DensityMatrix, "__init__", counting_density_init)
        assert main(["fig-telecloning", "--theta-steps", "5", "--out", os.devnull]) == 0
        assert counts == {"_bell_transfer": 0, "TelecloningSystem": 0, "16x16 density": 0}


@pytest.mark.parametrize(
    "argv",
    [["fig-classical"], ["fig-channel"], ["fig-channel", "--unknown"], ["fig-telecloning"]],
)
def test_fig_commands_build_no_per_row_objects(argv, monkeypatch):
    # each column is one broadcast call on the whole grid: no ensemble, channel,
    # coefficient set or density matrix is built per row
    counts = {}
    for cls in (TwoStateEnsemble, Channel, CloneCoeffs, DensityMatrix):
        init = cls.__init__

        def counting_init(self, *args, init=init, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    assert main(argv + ["--theta-steps", "7", "--alpha-steps", "7", "--out", os.devnull]) == 0
    assert counts == {}


class TestVerifyCommand:
    # the defaults, a held-out seed, and the samples floor, where the Monte
    # Carlo bounds are widest; test_verification.py shows each check can fail
    @pytest.mark.parametrize(
        "settings",
        [{}, {"seed": 7919}, {"samples": 100}],
        ids=["defaults", "seed-7919", "samples-100"],
    )
    def test_default_config_passes(self, settings):
        output, code = cmd_verify(RunConfig(command="verify", **settings))
        assert code == 0, output
        assert "FAIL" not in output
        assert output.count("PASS") == len(output.strip().split("\n")) - 1
        assert output.endswith("\n30/30 checks passed\n")


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
        # usage and RunConfig errors alike return 2
        for argv in (
            ["fig-classical", "--theta-steps", "1"],
            ["verify", "--seed", "-1"],
            ["fig-telecloning", "--theta-steps", "abc"],
            ["fig-telecloning", "--theta-steps", "1e3"],
            ["fig-classical", "--no-such-option"],
            ["fig-channel", "--theta", "-1e-13"],
        ):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            if "--theta" in argv:
                # exponent notation is read as a number, so the true cause is named
                assert "theta must lie in [0, pi/2], got -1e-13" in captured.err

    def test_exit_code_2_on_bad_theta(self):
        assert main(["fig-channel", "--theta", "9.0"]) == 2

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity", "-INF", "-NaN"])
    def test_negative_non_finite_theta_names_the_range(self, value, capsys):
        # read as a value, not as an unknown option, so the true cause is named
        assert main(["fig-channel", "--theta", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "theta must lie in [0, pi/2], got " in captured.err

    def test_exit_code_2_on_unwritable_path(self, tmp_path):
        target = tmp_path / "no_such_dir" / "x.csv"
        assert main(["fig-classical", "--theta-steps", "3", "--out", str(target)]) == 2

    def test_verify_writes_report_to_out(self, tmp_path, capsys):
        argv = ["verify", "--samples", "1000"]
        assert main(argv) == 0
        report = capsys.readouterr().out
        assert report.endswith("30/30 checks passed\n")
        out = tmp_path / "verify.txt"
        assert main(argv + ["--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert out.read_text() == report

    def test_verify_exit_code_2_on_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "verify.txt"
        assert main(["verify", "--samples", "1000", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1

    def test_unwritable_out_exits_before_running(self, tmp_path, capsys, monkeypatch):
        def must_not_run(config):
            raise AssertionError("verify ran before --out was opened")

        monkeypatch.setattr(cli, "run_checks", must_not_run)
        target = tmp_path / "no_such_dir" / "verify.txt"
        assert main(["verify", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1

    def test_bad_theta_leaves_existing_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "channel.csv"
        out.write_bytes(b"kept\r\n")
        assert main(["fig-channel", "--theta", "2", "--out", str(out)]) == 2
        assert out.read_bytes() == b"kept\r\n"
        assert "theta must lie in [0, pi/2], got 2.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["fig-classical", "--theta-steps", "3"], ["verify", "--samples", "100"]],
        ids=" ".join,
    )
    def test_exit_code_2_on_empty_out(self, argv, capsys):
        # an empty path is a path that cannot be written, not a request for stdout
        assert main(argv + ["--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["not-a-command"],
            ["fig-classical", "--theta", "0.3"],
            ["fig-classical", "--unknown"],
            ["verify", "--seed"],
            ["fig-channel", "--theta"],
            ["verify", "--unknown=1"],
            ["fig-classical", "--theta-steps=abc"],
            ["fig-classical", "--theta-st", "5"],
            ["verify", "--tamper"],
            ["fig-classical", "--seed", "1"],
            ["fig-classical", "--samples", "100"],
            ["fig-channel", "--seed", "1"],
            ["fig-channel", "--samples", "100"],
            ["fig-telecloning", "--seed", "1"],
            ["fig-telecloning", "--samples", "100"],
            ["verify", "--theta-steps", "5"],
            ["verify", "--alpha-steps", "5"],
            ["fig-channel", "--unknown", "--theta", "0.3"],
            ["fig-channel", "--theta", "0.3", "--unknown"],
        ],
        ids=[
            "no-command",
            "unknown-command",
            "other-commands-option",
            "other-commands-flag",
            "trailing-option",
            "trailing-float-option",
            "unknown-option",
            "bad-int",
            "prefix",
            "tamper",
            # no figure draws a random number, and verify has no grid
            "fig-classical-seed",
            "fig-classical-samples",
            "fig-channel-seed",
            "fig-channel-samples",
            "fig-telecloning-seed",
            "fig-telecloning-samples",
            "verify-theta-steps",
            "verify-alpha-steps",
            # the unknown state has no ensemble angle
            "unknown-then-theta",
            "theta-then-unknown",
        ],
    )
    def test_usage_error_exits_2_with_one_line(self, argv, tmp_path, capsys):
        out = tmp_path / "kept.csv"
        out.write_bytes(b"kept\r\n")
        # --out comes right after the command, so a trailing option stays trailing
        assert main(argv[:1] + ["--out", str(out)] + argv[1:] if argv else []) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert out.read_bytes() == b"kept\r\n"


# each command's settings at small sizes; an option given again keeps its last value
SMALL_GRIDS = ["--theta-steps", "3", "--alpha-steps", "3"]
BASE_ARGV = {
    **dict.fromkeys(("fig-classical", "fig-channel", "fig-telecloning"), SMALL_GRIDS),
    "verify": ["--samples", "100", "--seed", "1"],
}
# a second value of each option that takes one; --unknown is a flag
OTHER_VALUE = {
    "--theta-steps": "4", "--alpha-steps": "4", "--theta": "0.3", "--samples": "200", "--seed": "2"
}
# Each fig-* command takes both grid options but reads only its own, because
# perfbench's tiny inputs pass both to every fig-* command.
UNREAD = {
    ("fig-classical", "--alpha-steps"),
    ("fig-channel", "--theta-steps"),
    ("fig-telecloning", "--alpha-steps"),
}


class TestCommandTable:
    def test_each_command_takes_only_the_options_it_reads(self):
        grids = {"--theta-steps", "--alpha-steps", "--out"}
        options = {command: set(opts) for command, (_, opts) in cli._COMMANDS.items()}
        assert options == {
            "fig-classical": grids,
            "fig-channel": grids | {"--theta", "--unknown"},
            "fig-telecloning": grids,
            "verify": {"--samples", "--seed", "--out"},
        }
        assert sum(map(len, options.values())) == 14

    @pytest.mark.parametrize(
        "command,option",
        [(c, o) for c, (_, opts) in cli._COMMANDS.items() for o in opts if o != "--out"],
    )
    def test_every_option_changes_the_output(self, command, option, capsys):
        outputs = []
        for extra in ([], [option] + ([OTHER_VALUE[option]] if option in OTHER_VALUE else [])):
            assert main([command, *BASE_ARGV[command], *extra]) == 0
            outputs.append(capsys.readouterr().out)
        if (command, option) in UNREAD:
            assert outputs[0] == outputs[1]
        else:
            assert outputs[0] != outputs[1]


class TestParserReuse:
    """No call to main leaves state behind for the next one."""

    def test_no_run_imports_argparse_gettext_or_locale(self):
        code = (
            "import os, sys, teleportsim.cli as c\n"
            "for argv in (['fig-classical'], ['fig-channel'], ['fig-channel', '--unknown'],\n"
            "             ['fig-telecloning'], ['verify', '--samples', '100'], ['-h'],\n"
            "             ['no-such-command']):\n"
            "    c.main(argv + ['--out', os.devnull])\n"
            "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"
        )
        assert _cli_in_new_process("-c", code).strip().split("\n")[-1] == "[]"

    @pytest.mark.parametrize(
        "spaced,joined",
        [
            (
                ["fig-channel", "--theta", "0.3", "--alpha-steps", "5"],
                ["fig-channel", "--theta=0.3", "--alpha-steps=5"],
            ),
            (["fig-channel", "--theta", "-1e-13"], ["fig-channel", "--theta=-1e-13"]),
            (
                ["verify", "--samples", "100", "--seed", "7919"],
                ["verify", "--samples=100", "--seed=7919"],
            ),
            (
                ["fig-classical", "--theta-steps", "4", "--out", os.devnull],
                ["fig-classical", "--theta-steps=4", f"--out={os.devnull}"],
            ),
        ],
    )
    def test_equals_form_reads_as_spaced_form(self, spaced, joined, capsys):
        results = []
        for argv in (spaced, joined):
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["verify", "--help"], ["fig-channel", "--theta", "0.3", "-h"]],
        ids=" ".join,
    )
    def test_help_prints_usage_and_exits_0(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cli.__doc__ and captured.err == ""
        assert "usage: teleportsim COMMAND [OPTION ...]" in captured.out
        for option in ("--theta-steps", "--alpha-steps", "--samples", "--seed", "--out"):
            assert option in captured.out
        for option in ("--theta X", "--unknown"):
            assert option in captured.out
        assert "--tamper" not in captured.out

    @pytest.mark.parametrize(
        "argv,expected_lines,last_line",
        [
            (["--help"], 1, "usage: teleportsim COMMAND [OPTION ...]"),
            # -OO strips every assert as well, so no verify check may rest on one
            (["verify", "--samples", "1000"], 31, "30/30 checks passed"),
        ],
        ids=["help", "verify"],
    )
    def test_runs_without_docstrings_or_asserts(self, argv, expected_lines, last_line):
        out = _cli_in_new_process("-OO", "-W", "error", "-m", "teleportsim.cli", *argv)
        lines = out.splitlines()
        assert len(lines) == expected_lines and lines[-1] == last_line

    def test_option_values_do_not_carry_over(self, capsys):
        assert main(["fig-classical", "--theta-steps", "3"]) == 0
        capsys.readouterr()
        assert main(["fig-classical"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 181

    def test_flags_do_not_carry_over(self, capsys):
        assert main(["fig-channel", "--unknown", "--alpha-steps", "3"]) == 0
        capsys.readouterr()
        assert main(["fig-channel", "--alpha-steps", "3"]) == 0
        _, header, _ = parse_csv(capsys.readouterr().out)
        assert header == ["alpha_sq", "f_direct", "f_purification", "f_combined", "alpha_prime_opt"]

    # each default figure, and fig-channel at a chosen theta: in this process,
    # after every test before it, a command prints what a process of its own prints
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig-channel", "--theta", "0.3", "--alpha-steps", "5"],
            ["fig-classical"],
            ["fig-channel"],
            ["fig-channel", "--unknown"],
            ["fig-telecloning"],
        ],
        ids=" ".join,
    )
    def test_usage_errors_leave_output_unchanged(self, argv, capsys):
        alone = _cli_in_new_process("-m", "teleportsim.cli", *argv)
        for bad in (
            ["fig-channel", "--theta", "abc"],
            ["fig-channel", "--unknown", "--no-such-option"],
            ["fig-channel", "--theta", "2"],
            ["no-such-command"],
        ):
            try:
                code = main(bad)
            except SystemExit as exc:
                code = exc.code
            assert code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == alone


class TestCsvCells:
    EDGES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1 / 3]

    def test_edge_cells(self):
        text = _csv({}, ("v",), (np.array(self.EDGES),))
        cells = text.split("\n")[1:-1]
        assert cells == [format(v, ".12g") if v != 0 else "0" for v in self.EDGES]
        assert cells[0] == "0"

    def test_random_bit_patterns_read_as_fmt(self):
        bits = np.random.default_rng(5).integers(0, 2**64, size=(2000, 3), dtype=np.uint64)
        values = bits.view(np.float64)
        rows = _csv({}, ("a", "b", "c"), values.T).split("\n")[1:-1]
        assert rows == [",".join(_fmt(v) for v in row) for row in values.tolist()]


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta_steps": 1},
            {"alpha_steps": 0},
            {"samples": 10},
            {"seed": -1},
            {"theta": 2.0},
            {"theta": float("nan")},
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
    code = (
        "import sys, teleportsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _cli_in_new_process("-c", code).strip() == "[]"
