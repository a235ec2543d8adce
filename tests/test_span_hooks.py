"""The benchmark's span hooks still bind the package's signatures.

`perfbench/spans.py` wraps package functions from outside and reads some of
their arguments by name: `run_dilated_picture`'s `alg` and `taus`,
`relation_stats`'s `rel`, `enumerate_family`'s `universe` and `k`, and the
`.dim` of `optimal_witness_prob`'s instance. It is loaded here by path (and
left unedited), installed around a few runs and removed again, so a signature
change that would break a traced benchmark run fails here first.
"""

import importlib.util
from pathlib import Path

from permlab import harness, verifier
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
        verifier.optimal_witness_prob(verifier.random_instance(4, "NO", philox_stream(1), n=2))
    finally:
        installed.remove()
    capsys.readouterr()
    assert not hasattr(harness.execute, "__wrapped__")
    counts = rec.counts
    # four control values, two queries, d_AB = 8: 4^2 * 8 amplitudes
    assert counts["dilation.run_dilated_picture.max_dim"] == 4**2 * 8
    assert counts["dilation.dense_bytes"] == 3 * 128**2 * 16
    # the n = 1 parity classes: C(4, 2) rows scanned each, one kept each
    assert counts["core.enumerate_family.scanned"] == 12
    assert counts["core.enumerate_family.kept"] == 2
    assert counts["adversary.relation_stats.pairs"] == 4
    assert counts["adversary.relation_stats.analytic_calls"] == 0
    assert counts["verifier.optimal_witness_prob.max_dim"] == 16
    assert counts["computed.eigensolves"] > 0
    named = {name for name, *_ in rec.spans}
    assert {"harness.execute", "dilation.check_dilation", "adversary.relation_stats"} <= named
