"""The four default-resolution fig-* CSVs against checked-in golden files.

The golden files in ``tests/data/`` were written by the CLI at default
resolution.  Metadata and header lines must match exactly; each value must
be within one unit of its 12th significant digit (the CSV format), so a
platform whose libm rounds differently in the last place still passes.
Cells are compared as the exact decimals of their text: as floats, two
neighbouring 12-digit values can differ by slightly more than one unit.
"""

import os
from decimal import Decimal

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
    """One unit of the 12th significant digit of the Decimal ``value``; 0 for 0."""
    if value == 0:
        return Decimal(0)
    return Decimal(1).scaleb(value.adjusted() - 11)


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
        for v, r in zip(map(Decimal, values), map(Decimal, refs)):
            assert abs(v - r) <= last_digit_unit(r), (line, ref)
