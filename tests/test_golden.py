"""Pinned CLI CSVs: a refactor must not shift them.

Each golden file is the CSV of one configuration as the CLI wrote it, next to
the exit status the CLI returned for it. The rerun goes through
`harness.execute` and `render_csv`, like the CLI. Ints, strings and booleans
must match exactly; floats to a relative 1e-12, so a closed-form rewrite may
move the last digits but nothing more. The one exception is a `dilate` trace
distance that is pure round-off (about 1e-15), which no relative tolerance can
pin: every distance of an exact (n = 1) dilation, and the k = 0 distances of a
sampled-tau run, whose golden values are at most 1e-12. For those, the golden
value and the new value must both be at most 1e-12 instead. The other
sampled-tau distances (0.3 to 0.7) are compared at rtol 1e-12.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from permlab.harness import ExperimentConfig, execute, render_csv

GOLDEN = Path(__file__).parent / "golden"
ROUND_OFF = 1e-12

VERIFY_CASES = {
    "verify_n2_exhaustive_no.csv": (dict(n=2, exhaustive_no=True), 1),
    "verify_n3_seed1.csv": (dict(n=3, trials=4, seed=1), 1),
    "verify_N6_seed1.csv": (dict(N=6, trials=2, seed=1), 1),
    "verify_n4_seed1.csv": (dict(n=4, trials=2, seed=1), 1),
}

# The README CLI examples, one deeper dilation (four queries, c^t*d_AB = 2048),
# one dilation over a sampled tau group (n = 2, eight taus, not exact),
# two small `fix` families that the Fixing Procedure does shrink, and the relation
# statistics on each path: in-place cosets (n = 1), analytic (n = 2), a larger
# subset relation and one whose families share a two-label core.
EXAMPLE_CASES = {
    "dilate_n1_q3_seed7.csv": (dict(subcommand="dilate", n=1, queries=3, trials=20, seed=7), 0),
    "dilate_n1_q4_seed1.csv": (dict(subcommand="dilate", n=1, queries=4, trials=2, seed=1), 0),
    "dilate_n2_q2_tau8_seed5.csv": (
        dict(subcommand="dilate", n=2, queries=2, tau_samples=8, trials=4, seed=5), 0,
    ),
    "fix_V16_k4.csv": (
        dict(subcommand="fix", V=16, k=4, alpha=0.25, p=2.0, trials=50), 0,
    ),
    "fix_V12_k4_p6_seed1.csv": (dict(subcommand="fix", V=12, k=4, p=6.0, trials=20, seed=1), 0),
    "fix_V10_k4_p6_nref10_seed1.csv": (
        dict(subcommand="fix", V=10, k=4, p=6.0, nref=10.0, trials=20, seed=1), 0,
    ),
    "crossover_parity.csv": (
        dict(subcommand="crossover", alpha=0.25, p_coeffs=(0.0, 1.0), variant="parity"), 0,
    ),
    "relation_V6.csv": (dict(subcommand="relation", V=6, kx=2, ky=3), 0),
    "relation_V16_kx3_ky4.csv": (dict(subcommand="relation", V=16, kx=3, ky=4), 0),
    "relation_V8_kx3_ky4_fixed12.csv": (
        dict(subcommand="relation", V=8, kx=3, ky=4, fixed="1 2"), 0,
    ),
    "relation_preimage_n1.csv": (dict(subcommand="relation", kind="preimage", n=1), 0),
    "relation_preimage_n2.csv": (dict(subcommand="relation", kind="preimage", n=2), 0),
    "wtrace_q5_seed3.csv": (dict(subcommand="wtrace", queries=5, seed=3), 0),
    "wtrace_q5_t6_seed3.csv": (dict(subcommand="wtrace", queries=5, trials=6, seed=3), 0),
}


def _check_golden(name, cfg, want_code):
    code, header, rows = execute(cfg)
    assert code == want_code
    got = list(csv.reader(io.StringIO(render_csv(header, rows))))
    with open(GOLDEN / name, newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    dilate = cfg.subcommand == "dilate"
    exact = dilate and cfg.n in (None, 1)
    for values, got_row, want_row in zip(rows, got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        for column, value, g, w in zip(header, values, got_row, want_row):
            if dilate and column == "trace_distance" and (exact or float(w) <= ROUND_OFF):
                assert float(g) <= ROUND_OFF and float(w) <= ROUND_OFF, (g, w)
            elif isinstance(value, float):
                assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=0.0), (g, w)
            else:
                assert g == w


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_matches_golden(name):
    kwargs, code = VERIFY_CASES[name]
    _check_golden(name, ExperimentConfig(subcommand="verify", **kwargs), code)


@pytest.mark.parametrize("name", sorted(EXAMPLE_CASES))
def test_example_matches_golden(name):
    kwargs, code = EXAMPLE_CASES[name]
    _check_golden(name, ExperimentConfig(**kwargs), code)
