"""Per-layer spans for the traced run, installed from outside the package.

`install` wraps the public functions of each layer so that every call opens
a span (name, parent, start, end) in a `SpanRecorder`, and adds work counts
taken from the call's arguments or result. Every binding of a wrapped
function is replaced, including the `from .x import f` copies held by
importing modules and the entries of `suite.ALL_CRITERIA`; otherwise a
nested call would escape its parent span. `DensityMatrix` construction is
spanned through `__post_init__` on the class. `numpy.linalg.eigh` and
`eigvalsh` get counters (no spans) for the eigensolve counts.

A span's self time is its duration minus the durations of its direct
children. Spans stay in memory; the caller writes them out when the run ends.

Which end-to-end metric each layer metric should move, and where:
- verify-sweep wall_s and item_ms_*: oracles.block_average.self_s,
  verifier.test_ii.self_s and .channel_calls; verifier.optimal_witness_prob
  .self_s is the eigensolve floor. dilate-deep runs none of the three.
- dilate-deep wall_s and peak_rss_mb: core.DensityMatrix.self_s and .max_dim,
  dilation.run_dilated_picture.self_s, dilation.dense_bytes,
  core.partial_trace.self_s. core.DensityMatrix.validate_psd.* moves suite
  wall_s (criterion 4) instead.
- suite wall_s: adversary.relation_stats.self_s (criteria 8 and 10),
  structure.*.self_s and core.sample_family.self_s (criteria 6 and 7).
- setup_s moves only with import or warm-up work; harness.render_csv.self_s
  stays flat everywhere.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

CRITERIA = tuple(f"criterion_{i:02d}" for i in range(1, 12))

# Work counts, as (metric, unit, better). Every count is computed from array
# shapes and returned objects, so it repeats exactly for the same inputs.
COUNTS = (
    ("core.DensityMatrix.max_dim", "count", "lower"),
    ("core.enumerate_family.kept_ratio", "ratio", "higher"),
    ("oracles.block_average.entries", "count", "lower"),
    ("verifier.test_ii.channel_calls", "count", "lower"),
    ("verifier.optimal_witness_prob.max_dim", "count", "lower"),
    ("dilation.run_dilated_picture.max_dim", "count", "lower"),
    ("dilation.dense_bytes", "bytes", "lower"),
    ("structure.fixing_procedure.iterations", "count", "lower"),
    ("structure.bound_crossover.rows", "count", "lower"),
    ("adversary.relation_stats.pairs", "count", "lower"),
    ("adversary.relation_stats.analytic_calls", "count", "lower"),
    ("harness.render_csv.bytes", "bytes", "lower"),
    ("computed.max_dense_dim", "count", "lower"),
    ("computed.dense_bytes", "bytes", "lower"),
    ("computed.eigensolves", "count", "lower"),
    ("computed.eigensolve_max_dim", "count", "lower"),
)
TRACE_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


class SpanRecorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        return index

    def exit(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, _, start, end in self.spans if span_name == name]


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_density(rec, fn, args, kwargs, result) -> None:
    dim = args[0].dim
    rec.peak("core.DensityMatrix.max_dim", dim)
    rec.peak("computed.max_dense_dim", dim)
    rec.add("computed.dense_bytes", 16 * dim * dim)


def _count_enumerate(rec, fn, args, kwargs, result) -> None:
    call = _bound(fn, args, kwargs)
    rec.add("core.enumerate_family.scanned", math.comb(call["universe"], call["k"]))
    rec.add("core.enumerate_family.kept", len(result))


def _count_block_average(rec, fn, args, kwargs, result) -> None:
    rec.add("oracles.block_average.entries", np.asarray(args[0]).shape[0] ** 2)


def _count_witness(rec, fn, args, kwargs, result) -> None:
    rec.peak("verifier.optimal_witness_prob.max_dim", args[0].dim)


def _count_dilated(rec, fn, args, kwargs, result) -> None:
    call = _bound(fn, args, kwargs)
    alg = call["alg"]
    dim = len(call["taus"]) ** alg.queries * alg.dim_a * alg.dim_b
    rec.peak("dilation.run_dilated_picture.max_dim", dim)
    rec.add("dilation.dense_bytes", (alg.queries + 1) * dim * dim * 16)


def _count_fixing(rec, fn, args, kwargs, result) -> None:
    rec.add("structure.fixing_procedure.iterations", result.iterations)


def _count_crossover(rec, fn, args, kwargs, result) -> None:
    rec.add("structure.bound_crossover.rows", len(result.rows))


def _count_relation(rec, fn, args, kwargs, result) -> None:
    rel = _bound(fn, args, kwargs)["rel"]
    rec.add("adversary.relation_stats.pairs", len(rel.pairs))
    rec.add("adversary.relation_stats.analytic_calls", int(rel.analytic))


def _count_csv(rec, fn, args, kwargs, result) -> None:
    rec.add("harness.render_csv.bytes", len(result.encode()))


def _count_eigensolve(rec, fn, args, kwargs, result) -> None:
    dim = np.shape(args[0])[-1]
    rec.add("computed.eigensolves", 1)
    rec.peak("computed.eigensolve_max_dim", dim)
    rec.peak("computed.max_dense_dim", dim)


# (module, attribute, span name, count hook). "Class.method" attributes are
# patched on the class.
SPANNED = (
    ("core", "DensityMatrix.__post_init__", "core.DensityMatrix", _count_density),
    ("core", "DensityMatrix.validate_psd", "core.DensityMatrix.validate_psd", None),
    ("core", "partial_trace", "core.partial_trace", None),
    ("core", "trace_distance", "core.trace_distance", None),
    ("core", "sample_family", "core.sample_family", None),
    ("core", "enumerate_family", "core.enumerate_family", _count_enumerate),
    ("oracles", "block_average", "oracles.block_average", _count_block_average),
    ("oracles", "block_average_on_first_factor", "oracles.block_average_on_first_factor", None),
    ("oracles", "apply_randomized_preimage", "oracles.apply_randomized_preimage", None),
    ("oracles", "block_permutations", "oracles.block_permutations", None),
    ("verifier", "test_i", "verifier.test_i", None),
    ("verifier", "test_ii", "verifier.test_ii", None),
    ("verifier", "acceptance_operator", "verifier.acceptance_operator", None),
    ("verifier", "optimal_witness_prob", "verifier.optimal_witness_prob", _count_witness),
    ("dilation", "run_channel_picture", "dilation.run_channel_picture", None),
    ("dilation", "run_dilated_picture", "dilation.run_dilated_picture", _count_dilated),
    ("dilation", "check_dilation", "dilation.check_dilation", None),
    ("dilation", "random_query_algorithm", "dilation.random_query_algorithm", None),
    ("structure", "fixing_procedure", "structure.fixing_procedure", _count_fixing),
    ("structure", "check_distributed", "structure.check_distributed", None),
    ("structure", "bound_crossover", "structure.bound_crossover", _count_crossover),
    ("adversary", "build_preimage_relation", "adversary.build_preimage_relation", None),
    ("adversary", "build_subset_relation", "adversary.build_subset_relation", None),
    ("adversary", "relation_stats", "adversary.relation_stats", _count_relation),
    ("adversary", "progress_trace", "adversary.progress_trace", None),
    ("adversary", "end_to_end_bound_check", "adversary.end_to_end_bound_check", None),
    ("harness", "execute", "harness.execute", None),
    ("harness", "render_csv", "harness.render_csv", _count_csv),
    *(("suite", name, f"suite.{name}", None) for name in CRITERIA),
)
CRITERION_SPANS = tuple(entry for entry in SPANNED if entry[0] == "suite")
EIGENSOLVERS = ("eigh", "eigvalsh")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit, better)."""
    metrics = []
    for module, _, span, _ in SPANNED:
        if module == "suite":
            metrics.append((f"{span}.s", "s", "lower"))
        else:
            metrics += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    return metrics + list(COUNTS) + list(TRACE_METRICS)


def _spanned(rec: SpanRecorder, name: str, fn: Callable, hook) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(index)
        if hook is not None:
            hook(rec, fn, args, kwargs, result)
        return result

    return wrapper


def _counted(rec: SpanRecorder, fn: Callable, hook) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(rec, fn, args, kwargs, result)
        return result

    return wrapper


class Installed:
    """Wrappers in place; `remove` puts every original binding back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, original: Callable, wrapper: Callable) -> None:
        """Point every permlab binding of `original`, tuples included, at `wrapper`."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "permlab" or n.startswith("permlab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)
                elif isinstance(value, tuple) and any(v is original for v in value):
                    self.set(module, attr, tuple(wrapper if v is original else v for v in value))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(rec: SpanRecorder, spanned=SPANNED, eigensolvers: bool = True) -> Installed:
    """Wrap `spanned` so their calls record into `rec`."""
    installed = Installed()
    for module_name, attr, span, hook in spanned:
        module = importlib.import_module(f"permlab.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            installed.set(cls, method, _spanned(rec, span, cls.__dict__[method], hook))
        else:
            original = _resolve(module, attr)
            installed.rebind(original, _spanned(rec, span, original, hook))
    if eigensolvers:
        for name in EIGENSOLVERS:
            original = getattr(np.linalg, name)
            installed.set(np.linalg, name, _counted(rec, original, _count_eigensolve))
    return installed


def _resolve(module, attr: str) -> Callable:
    """`attr`, or the one function named `attr_<suffix>` (criteria carry a suffix)."""
    if attr in vars(module):
        return vars(module)[attr]
    (name,) = [name for name in vars(module) if name.startswith(attr + "_")]
    return vars(module)[name]


def layer_metrics(rec: SpanRecorder, wall: float) -> dict[str, float]:
    """Per-layer values of one traced pass whose wall time was `wall`."""
    child_time = [0.0] * len(rec.spans)
    for name, parent, start, end in rec.spans:
        if parent >= 0:
            child_time[parent] += end - start
    values: dict[str, float] = defaultdict(float)
    root_time = 0.0
    channel_calls = 0
    for index, (name, parent, start, end) in enumerate(rec.spans):
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += (end - start) - child_time[index]
        values[f"{name}.s"] += end - start
        if parent < 0:
            root_time += end - start
        if name == "oracles.apply_randomized_preimage" and _has_ancestor(
            rec.spans, parent, "verifier.test_ii"
        ):
            channel_calls += 1
    counts = dict(rec.counts)
    scanned = counts.pop("core.enumerate_family.scanned", 0.0)
    kept = counts.pop("core.enumerate_family.kept", 0.0)
    counts["core.enumerate_family.kept_ratio"] = kept / scanned if scanned else 0.0
    counts["verifier.test_ii.channel_calls"] = channel_calls
    values.update(counts)
    values["trace.coverage"] = root_time / wall
    return {name: float(values.get(name, 0.0)) for name, _, _ in per_layer_metrics()
            if name != "trace.overhead_s"}


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][1]
    return False
