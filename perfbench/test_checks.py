"""Tests of the benchmark itself: negative controls and the span recorder.

    python3 -m pytest perfbench

Each reference check must pass the real output and reject a wrong answer,
so that an error rate of 0 is not vacuous.
"""

from __future__ import annotations

import json
import statistics
import time

import warmup

warmup.import_permlab()

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from permlab import harness, suite, verifier  # noqa: E402
from permlab.core import PureState, subset_state  # noqa: E402
from permlab.dilation import check_dilation, random_query_algorithm  # noqa: E402
from permlab.oracles import block_permutations, representative_sigma  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _execute(**fields):
    return harness.execute(harness.ExperimentConfig(**fields))


def _dilation_rows(sigma_for_subset):
    """Trace distances of one n=1 dilation run, in `dilate`'s CSV layout."""
    rng = np.random.default_rng(7)
    inst = verifier.random_instance(2, "YES", rng, n=1)
    alg = random_query_algorithm(4, 2, 3, rng)
    initial = PureState(8, np.kron(subset_state(inst.subset, 4).amplitudes, np.eye(2)[0]))
    sigma = representative_sigma(sigma_for_subset(inst.subset), 2)
    result = check_dilation(alg, inst.subset, sigma, block_permutations(4, 2), initial)
    return ["trial", "k", "trace_distance"], [[0, k, d] for k, d in enumerate(result.trace_distances)]


def test_dilate_check_rejects_sigma_with_wrong_preimage_set():
    assert workloads.check_dilate(0, *_dilation_rows(lambda s: s)) is None
    reason = workloads.check_dilate(0, *_dilation_rows(lambda s: s.complement()))
    assert reason is not None and "trace distance" in reason


def test_dilate_check_passes_real_output():
    assert workloads.check_dilate(*_execute(subcommand="dilate", n=1, queries=2, seed=3)) is None


def test_verify_check_rejects_shifted_lambda_max():
    code, header, rows = _execute(subcommand="verify", n=2, trials=2, seed=5)
    assert workloads.check_verify(code, header, rows) is None
    col = header.index("lambda_max")
    shifted = [list(row) for row in rows]
    shifted[1][col] += 1e-6
    assert "lambda_max" in workloads.check_verify(code, header, shifted)


def test_verify_check_expects_exit_status_one_on_no_instances():
    code, header, rows = _execute(subcommand="verify", n=2, trials=2, seed=5)
    assert code == 1
    assert "exit status" in workloads.check_verify(0, header, rows)


def test_suite_check_fails_if_criterion_two_passes():
    gap = suite.CriterionResult(2, "soundness 2/3", False, "documented gap")
    assert workloads.check_criterion(gap) is None
    assert workloads.check_criterion(suite.CriterionResult(2, "soundness 2/3", True, "")) is not None
    assert workloads.check_criterion(suite.CriterionResult(4, "dilation", False, "")) is not None


def test_item_seeds_follow_the_run_seed():
    assert workloads.dilate_deep(11) == workloads.dilate_deep(11)
    assert workloads.dilate_deep(11) != workloads.dilate_deep(12)


def test_spans_cover_nested_copies_and_are_removed():
    from permlab import oracles

    original = oracles.apply_randomized_preimage
    rec = spans.SpanRecorder()
    installed = spans.install(rec)
    try:
        assert verifier.apply_randomized_preimage is not original
        assert hasattr(suite.ALL_CRITERIA[0], "__wrapped__")
        start = time.perf_counter()
        harness.execute(harness.ExperimentConfig(subcommand="verify", n=1, trials=2, seed=1))
        wall = time.perf_counter() - start
    finally:
        installed.remove()
    assert verifier.apply_randomized_preimage is original
    assert not hasattr(suite.ALL_CRITERIA[0], "__wrapped__")
    values = spans.layer_metrics(rec, wall)
    assert values["harness.execute.calls"] == 1
    assert values["verifier.test_ii.channel_calls"] > 0
    assert values["computed.eigensolves"] >= 2
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(rec.spans[0][3] - rec.spans[0][2])
    assert 0.9 < values["trace.coverage"] <= 1.0


def test_tail_percentile_keeps_ten_items_above_it():
    assert run.tail_percentile(run.min_items(8)) == 75  # verify-sweep, 40 items
    assert run.tail_percentile(run.min_items(4)) == 75  # dilate-deep, 40 items
    assert run.tail_percentile(run.min_items(11)) == 82  # suite, 55 items
    for count in (40, 55):
        p = run.tail_percentile(count)
        at = statistics.quantiles(range(count), n=100)[p - 1]
        assert sum(x > at for x in range(count)) >= run.TAIL_BEYOND


def test_benchmark_json_matches_the_code():
    with open(warmup.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == spans.per_layer_metrics()
    sample = run.end_to_end([run.PassResult(1.0, [0.1] * run.MIN_ITEMS, [])], [0.5], 8)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, (_, unit) in sample.items()
    ]
