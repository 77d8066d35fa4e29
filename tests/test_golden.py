"""The four default-resolution fig-* CSVs against checked-in golden files.

The golden files in ``tests/data/`` were written by the CLI at default
resolution.  Metadata and header lines must match exactly; each value must
be within one unit of its 12th significant digit (the CSV format), so a
platform whose libm rounds differently in the last place still passes.
"""

import math
import os

import pytest

from teleportsim.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = {
    "fig-classical.csv": ["fig-classical"],
    "fig-channel.csv": ["fig-channel"],
    "fig-channel-unknown.csv": ["fig-channel", "--unknown"],
    "fig-telecloning.csv": ["fig-telecloning"],
}


def last_digit_unit(value):
    """One unit of the 12th significant digit of ``value``; 0 for 0."""
    if value == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_csv_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out)]) == 0
    got = out.read_text().split("\n")
    with open(os.path.join(DATA, name), newline="") as fh:
        expected = fh.read().split("\n")
    assert len(got) == len(expected)
    for line, ref in zip(got, expected):
        if ref.startswith("#") or not ref or not ref[0].isdigit():
            assert line == ref
            continue
        values, refs = line.split(","), ref.split(",")
        assert len(values) == len(refs)
        for v, r in zip(map(float, values), map(float, refs)):
            assert abs(v - r) <= last_digit_unit(r) * (1 + 1e-9), (line, ref)
