"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
criteria run once through a shared module fixture, exactly as the
`permlab suite` subcommand runs them.

Criterion 2 is expected to fail and is asserted as stated anyway: the
worst-case witness acceptance for mostly-odd instances is
(1 + sqrt(k_even/N))/2, which is 3/4 at N=4 and about 0.789 at N=6, above
the 2/3 target whenever the instance has even members. The companion test
suite (tests/test_verifier.py) pins those true optima, so the red criterion
reflects the target, not an implementation defect.

The fixture's CSV is pinned by tests/golden/suite_seed42.csv, written by
`permlab suite --seed 42 --out ...`: criterion, name and passed match exactly,
and so does each summary's text between its numbers; the numbers match to a
relative 1e-12, or are both round-off (at most 1e-12 in absolute value).
"""

import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permlab import harness, suite
from permlab.core import enumerate_family
from reference import incidence_rows, reference_enumerate_family

SEED = 42
GOLDEN = Path(__file__).parent / "golden" / "suite_seed42.csv"
ROUND_OFF = 1e-12
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


@pytest.fixture(scope="module")
def results():
    out = {r.index: r for r in suite.run_all(SEED)}
    return out


@pytest.fixture(scope="module")
def suite_csv(results):
    return harness.render_csv(*harness.suite_table(list(results.values())))


def _check(results, index):
    result = results[index]
    print()
    print(result.line())
    assert result.passed, result.summary


def test_criterion_01_completeness(results):
    _check(results, 1)


def test_criterion_02_soundness_two_thirds(results):
    _check(results, 2)


def test_criterion_03_test_i_perfection(results):
    _check(results, 3)


def test_criterion_04_dilation_equality(results):
    _check(results, 4)


def test_criterion_05_twirl_correctness(results):
    _check(results, 5)


def test_criterion_06_fixing_procedure(results):
    _check(results, 6)


def test_criterion_07_bound_crossover(results):
    _check(results, 7)


def test_criterion_08_adversary_statistics(results):
    _check(results, 8)


def test_criterion_09_preimage_matching(results):
    _check(results, 9)


def test_criterion_10_progress_measure(results):
    _check(results, 10)


def test_criterion_11_determinism_suite_twice(tmp_path, results, suite_csv):
    # the in-suite determinism check, plus the stated contract: running the
    # whole suite twice with one seed (the fixture's run and this one)
    # produces byte-identical output
    _check(results, 11)
    out = tmp_path / "suite.csv"
    code = harness.run(harness.ExperimentConfig(subcommand="suite", seed=SEED, out=str(out)))
    assert code == 1  # criterion 2 fails, as the golden records
    assert out.read_bytes() == suite_csv.encode("utf-8")
    assert b"determinism" in out.read_bytes()


def test_suite_cli_reports_one_stderr_line_per_criterion(suite_csv):
    # criterion 11 captures the diagnostics of its verify and wtrace runs
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "permlab", "suite", "--seed", str(SEED)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1  # criterion 2 fails, as the golden records
    assert proc.stdout == suite_csv
    lines = proc.stderr.splitlines()
    assert len(lines) == len(suite.ALL_CRITERIA) + 1, proc.stderr
    assert lines[-1] == "10/11 criteria passed"
    assert not any("lambda_max" in line or "W trace" in line for line in lines)


def _numbers_match(got: str, want: str) -> bool:
    g, w = float(got), float(want)
    if abs(g) <= ROUND_OFF and abs(w) <= ROUND_OFF:
        return True
    return math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)


def test_suite_matches_golden(suite_csv):
    got = list(csv.reader(io.StringIO(suite_csv)))
    with open(GOLDEN, newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert got_row[:3] == want_row[:3]
        got_text, want_text = got_row[3], want_row[3]
        assert NUMBER.split(got_text) == NUMBER.split(want_text), (got_text, want_text)
        pairs = zip(NUMBER.findall(got_text), NUMBER.findall(want_text))
        assert all(_numbers_match(g, w) for g, w in pairs), (got_text, want_text)


def test_soundness_criterion_failure_is_the_documented_gap(results):
    # the criterion-2 failure mode is exactly the analytic worst case, not noise
    summary = results[2].summary
    assert "0.75" in summary
    assert f"{0.5 * (1 + math.sqrt(1 / 3)):.6g}"[:6] in summary


@pytest.mark.parametrize("universe, k", [(16, 4), (6, 0), (6, 6), (7, 3)])
def test_criterion_06_table_is_the_enumerated_family(universe, k):
    table = enumerate_family(universe, k).incidence
    assert table.dtype == bool
    assert np.array_equal(table, incidence_rows(universe, reference_enumerate_family(universe, k)))


def test_criterion_06_certifies_every_family(monkeypatch):
    monkeypatch.setattr(suite, "check_distributed", lambda *args: (False, {}))
    result = suite.criterion_06_fixing(SEED)
    assert not result.passed
    assert result.summary.endswith("; 200 failures")


def test_crashing_criterion_reports_fail_and_prints_traceback(monkeypatch, capsys):
    def criterion_boom(seed):
        raise RuntimeError("boom")

    criteria = list(suite.ALL_CRITERIA[:2])
    criteria[0] = criterion_boom
    monkeypatch.setattr(suite, "ALL_CRITERIA", tuple(criteria))
    crashed, after = suite.run_all(SEED)
    assert (crashed.index, crashed.name, crashed.passed) == (1, "criterion_boom", False)
    assert crashed.summary == "error: boom"
    assert after.index == 2  # the suite keeps going after a crash
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "in criterion_boom" in err and "RuntimeError: boom" in err


def test_run_suite_prints_each_criterion_time(monkeypatch, capsys):
    def criterion_quick(seed):
        return suite.CriterionResult(1, "quick", True, "fine")

    monkeypatch.setattr(suite, "ALL_CRITERIA", (criterion_quick,))
    ok, header, rows = harness.run_suite(harness.ExperimentConfig(subcommand="suite", seed=SEED))
    assert ok and rows == [[1, "quick", True, "fine"]]  # the time stays out of the CSV
    line = capsys.readouterr().err.splitlines()[0]
    assert re.fullmatch(r"criterion  1 \(quick\): PASS - fine \[\d+\.\d{3} s\]", line), line
