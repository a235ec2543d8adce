"""The benchmark's span hooks still bind the package's signatures.

`perfbench/spans.py` wraps package functions from outside and reads some of
their arguments by name: `run_dilated_picture`'s `alg` and `taus`,
`relation_stats`'s `rel`, `enumerate_family`'s `universe` and `k`, and the
`.dim` of `optimal_witness_prob`'s instance; it adds the `iterations` of each
`fixing_procedure` result and the row count of each `bound_crossover` report,
and `layer_metrics` turns every count into a float. `dilate` must enter
`check_dilation` and `run_dilated_picture` once per trial stack, so a run
path that bypasses the spanned functions fails here too. It is loaded here by path (and
left unedited), installed around a few runs and removed again, so a signature
change that would break a traced benchmark run fails here first.
"""

import importlib.util
import time
from pathlib import Path

from permlab import harness, suite, verifier
from permlab.core import philox_stream

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_record_on_the_traced_paths(capsys):
    spans = load_spans()
    rec = spans.SpanRecorder()
    installed = spans.install(rec)
    try:
        for fields in (
            dict(subcommand="verify", n=2, trials=2),
            dict(subcommand="dilate", n=1, queries=2),
            dict(subcommand="relation", kind="preimage", n=1),
        ):
            harness.execute(harness.ExperimentConfig(**fields))
        # nine trials of 4 * 4^3 * 8 = 2048 dilated amplitudes: stacks of 8 and 1
        harness.main(["dilate", "--n", "1", "--queries", "3", "--trials", "9"])
        verifier.optimal_witness_prob(verifier.random_instance(4, "NO", philox_stream(1), n=2))
    finally:
        installed.remove()
    capsys.readouterr()
    assert not hasattr(harness.execute, "__wrapped__")
    # one call of each spanned dilation function per trial stack: the two-query
    # dilate runs one stack, the three-query one two
    for name in ("dilation.run_dilated_picture", "dilation.check_dilation"):
        assert len(rec.durations(name)) == 1 + 2
    counts = rec.counts
    # four control values, d_AB = 8: 4^2 * 8 amplitudes at two queries, 4^3 * 8 at three
    assert counts["dilation.run_dilated_picture.max_dim"] == 4**3 * 8
    assert counts["dilation.dense_bytes"] == (3 * 128**2 + 2 * 4 * 512**2) * 16
    # the n = 1 parity classes: C(4, 2) rows scanned each, one kept each
    assert counts["core.enumerate_family.scanned"] == 12
    assert counts["core.enumerate_family.kept"] == 2
    assert counts["adversary.relation_stats.pairs"] == 4
    assert counts["adversary.relation_stats.analytic_calls"] == 0
    assert counts["verifier.optimal_witness_prob.max_dim"] == 16
    assert counts["computed.eigensolves"] > 0
    named = {name for name, *_ in rec.spans}
    assert {"harness.execute", "dilation.check_dilation", "adversary.relation_stats"} <= named


def test_hooks_count_the_fixing_and_crossover_paths(capsys):
    spans = load_spans()
    rec = spans.SpanRecorder()
    installed = spans.install(rec)
    start = time.perf_counter()
    try:
        # three families over C(10, 4) that the Fixing Procedure each shrinks
        harness.main(["fix", "--V", "10", "--k", "4", "--p", "6", "--nref", "10",
                      "--trials", "3", "--seed", "1"])
        harness.main(["crossover"])
        suite.criterion_06_fixing(42)
        suite.criterion_07_crossover(42)
    finally:
        installed.remove()
    wall = time.perf_counter() - start
    capsys.readouterr()
    assert not hasattr(suite.criterion_06_fixing, "__wrapped__")
    assert rec.counts["structure.fixing_procedure.iterations"] > 0
    # one crossover scan, n = 1..64; criterion 7 calls bound_crossovers
    assert rec.counts["structure.bound_crossover.rows"] == 64
    named = {name for name, *_ in rec.spans}
    assert {"structure.fixing_procedure", "structure.check_distributed",
            "suite.criterion_06", "suite.criterion_07"} <= named
    metrics = spans.layer_metrics(rec, wall)
    assert metrics and all(type(value) is float for value in metrics.values())
