"""Pinned `verify` CSVs: a refactor of the verifier must not shift them.

Each golden file is the CSV of one configuration as the CLI wrote it. The
rerun goes through `harness.execute` and `render_csv`, like the CLI. Ints,
strings and booleans must match exactly; floats to a relative 1e-12, so a
closed-form rewrite may move the last digits but nothing more.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from permlab.harness import ExperimentConfig, execute, render_csv

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_n2_exhaustive_no.csv": dict(n=2, exhaustive_no=True),
    "verify_n3_seed1.csv": dict(n=3, trials=4, seed=1),
    "verify_N6_seed1.csv": dict(N=6, trials=2, seed=1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_matches_golden(name):
    _, header, rows = execute(ExperimentConfig(subcommand="verify", **CASES[name]))
    got = list(csv.reader(io.StringIO(render_csv(header, rows))))
    with open(GOLDEN / name, newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for values, got_row, want_row in zip(rows, got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        for value, g, w in zip(values, got_row, want_row):
            if isinstance(value, float):
                assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=0.0), (g, w)
            else:
                assert g == w
