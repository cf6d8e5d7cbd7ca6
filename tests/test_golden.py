"""Golden report bodies: fixed-seed CLI runs pinned against committed files.

Each file under ``golden/`` is the body (the report without its ``#``
metadata lines) that the command beside it writes for the series that
``GENERATE`` simulates.  To regenerate one after a declared stream change,
run the same commands and strip the ``#`` lines.

Integer columns and the selected order must match exactly.  Float columns
match to rtol 1e-9: a changed sampling stream moves PACF values by about
1e-3, while LAPACK rounding on another CPU moves them by about 1e-16.  The
atol covers values that are rounding noise themselves, such as the order-1
mpre, which compares two exact computations.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from lsar.cli import main

GOLDEN = Path(__file__).parent / "golden"

GENERATE = ["generate", "--phi", "0.6", "-0.4", "0.2", "--n", "20000", "--seed", "11"]

# name -> (command, integer columns, selected order in the metadata or None)
CASES = {
    "lsar": (["lsar", "--pbar", "8", "--fraction", "0.05", "--seed", "3"],
             ("p", "window", "s", "clamp_count"), 3),
    "pacf_sampled": (["pacf", "--sampled", "--pbar", "6", "--seed", "4"],
                     ("lag",), 4),
    "eval_mpre": (["eval", "mpre", "--pbar", "6", "--fraction", "0.02", "--seed", "5"],
                  ("p",), None),
}


def read_report(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return meta, rows[0], rows[1:]


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "y.csv"
    assert main(GENERATE + ["--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_body_matches_golden(name, series_path, tmp_path):
    command, int_columns, selected = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert main(command + ["--input", series_path, "--out", str(out)]) == 0
    meta, header, rows = read_report(out)
    _, golden_header, golden_rows = read_report(GOLDEN / f"{name}.csv")
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    if selected is not None:
        assert int(meta["selected_order"]) == selected
    for col, column in enumerate(header):
        got = [row[col] for row in rows]
        want = [row[col] for row in golden_rows]
        if column in int_columns:
            assert got == want, column
        else:
            np.testing.assert_allclose(
                np.array(got, dtype=float), np.array(want, dtype=float),
                rtol=1e-9, atol=1e-12, err_msg=column,
            )
