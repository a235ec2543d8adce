"""permlab benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; permlab is imported from its `src/`.
Workloads (see workloads.py): verify-sweep, dilate-deep, suite.

A run repeats the workload's pass (its fixed list of items) until S seconds
have passed; untraced runs also go on until at least MIN_PASSES passes and
MIN_ITEMS items ran, so `wall_s` averages five or more passes.
`item_ms_tail` is the highest percentile that has TAIL_BEYOND items above it
in the shortest such run: p75 of 40 items on verify-sweep and dilate-deep,
p82 of 55 on suite. The percentile is fixed per workload, so a longer run
does not move it. Every item output is checked against its reference; an
item that raises or misses its reference counts as failed.

--trace 0 reports the end-to-end metrics: setup_s (median over SETUP_PROBES
fresh processes of start to end of set-up), wall_s (mean pass: the host's
CPU speed drifts between fast and slow phases within a run, and the mean
weighs both where a median snaps to one), item_ms_p50, item_ms_tail and
peak_rss_mb (this process's own peak RSS).

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py, medians over traced passes, plus trace.overhead_s
(median traced minus median untraced pass) and trace.coverage (time inside
top-level spans over pass wall time, which must reach COVERAGE_MIN). The
spans are written to .perfbench/ when the run ends.

The last line of stdout is the JSON result; the line before it is the
run's provenance record.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import warmup

SETUP_PROBES = 7
MIN_PASSES = 5
MIN_ITEMS = 40
TAIL_BEYOND = 10
COVERAGE_MIN = 0.97
SPAN_DIR = warmup.ROOT / ".perfbench"


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    failures: list[str]
    layers: dict[str, float] | None = None
    spans: list[list] = field(default_factory=list)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def probe_setup() -> float:
    """Start a fresh set-up process; return seconds from start to end of set-up."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(warmup.__file__).resolve())],
        cwd=warmup.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def cli_pass(items) -> PassResult:
    outputs, latencies = [], []
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            outputs.append(item.run())
        except Exception as exc:  # an item that raises is a failed item
            outputs.append(exc)
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    failures = []
    for item, out in zip(items, outputs):
        reason = f"raised {out!r}" if isinstance(out, Exception) else item.check(*out)
        if reason is not None:
            failures.append(f"{item.label}: {reason}")
    return PassResult(wall, latencies, failures)


def suite_pass(seed: int, rec) -> PassResult:
    """One `suite.run_all`; its items are the criteria, timed by their spans."""
    from permlab import suite

    import spans
    import workloads

    start = time.perf_counter()
    results = suite.run_all(seed)
    wall = time.perf_counter() - start
    latencies = [sum(rec.durations(span)) for _, _, span, _ in spans.CRITERION_SPANS]
    failures = [f"criterion {r.index}: {reason}" for r in results
                if (reason := workloads.check_criterion(r)) is not None]
    if len(results) != len(latencies):
        failures.append(f"{len(results)} criteria ran, expected {len(latencies)}")
    return PassResult(wall, latencies, failures)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[PassResult], int]:
    """Run passes until the time (and, untraced, the item count) is reached."""
    import spans
    import workloads

    if workload == workloads.SUITE_WORKLOAD:
        suite_seed = workloads.item_seed(seed, 0)
        run_pass, per_pass = (lambda rec: suite_pass(suite_seed, rec)), len(spans.CRITERIA)
    else:
        items = workloads.CLI_WORKLOADS[workload](seed)
        run_pass, per_pass = (lambda rec: cli_pass(items)), len(items)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        rec = spans.SpanRecorder()
        if traced:
            installed = spans.install(rec)
        elif workload == workloads.SUITE_WORKLOAD:
            installed = spans.install(rec, spans.CRITERION_SPANS, eigensolvers=False)
        else:
            installed = None
        try:
            with redirect_stderr(io.StringIO()):  # the CLI runners' diagnostics
                result = run_pass(rec)
        finally:
            if installed is not None:
                installed.remove()
        if traced:
            result.layers = spans.layer_metrics(rec, result.wall)
            result.spans = rec.spans
        passes.append(result)
        measured = sum(len(p.latencies) for p in passes)
        enough = len(passes) >= 2 if trace else (
            len(passes) >= MIN_PASSES and measured >= MIN_ITEMS)
        if enough and time.perf_counter() - start >= seconds:
            return passes, per_pass


def min_items(per_pass: int) -> int:
    """Items in the shortest untraced run of a workload with `per_pass` items a pass."""
    return per_pass * max(MIN_PASSES, math.ceil(MIN_ITEMS / per_pass))


def tail_percentile(count: int) -> int:
    """Highest percentile with TAIL_BEYOND or more of `count` items above it.

    `statistics.quantiles` puts percentile p at rank p * (count + 1) / 100.
    """
    return max(p for p in range(1, 100) if count - p * (count + 1) // 100 >= TAIL_BEYOND)


def end_to_end(passes: list[PassResult], setup_samples: list[float],
               per_pass: int) -> dict[str, tuple[float, str]]:
    latencies = [t for p in passes for t in p.latencies]
    tail = statistics.quantiles(latencies, n=100)[tail_percentile(min_items(per_pass)) - 1]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.fmean(p.wall for p in passes), "s"),
        "item_ms_p50": (1000.0 * statistics.median(latencies), "ms"),
        "item_ms_tail": (1000.0 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(passes: list[PassResult]) -> dict[str, tuple[float, str]]:
    import spans

    traced = [p for p in passes if p.layers is not None]
    untraced = [p for p in passes if p.layers is None]
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in untraced))
    metrics = {}
    for name, unit, _ in spans.per_layer_metrics():
        if name == "trace.overhead_s":
            metrics[name] = (overhead, unit)
        else:
            metrics[name] = (statistics.median(p.layers[name] for p in traced), unit)
    return metrics


def write_spans(workload: str, seed: int, passes: list[PassResult]) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for number, p in enumerate(passes):
            for index, (name, parent, start, end) in enumerate(p.spans):
                fh.write(json.dumps([number, index, parent, name, start, end]) + "\n")


def blas_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = warmup.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, passes: list[PassResult], per_pass: int, attempted: int, failed: int) -> dict:
    import mpmath
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_info(),
        "items_per_pass": per_pass,
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "items": attempted,
        "item_ms_tail": f"p{tail_percentile(min_items(per_pass))} of {attempted} items",
        "error_rate": failed / attempted,
        "failures": [f for p in passes for f in p.failures][:5],
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    warmup.pin_blas_threads()
    try:
        warmup.import_permlab()
    except warmup.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    setup_samples = [] if args.trace else [probe_setup() for _ in range(SETUP_PROBES)]
    warmup.warm_up()
    passes, per_pass = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    correct = failed == 0
    if args.trace:
        metrics = per_layer(passes)
        coverage = min(p.layers["trace.coverage"] for p in passes if p.layers is not None)
        if coverage < COVERAGE_MIN:
            print(f"error: spans cover only {coverage:.3f} of a traced pass", file=sys.stderr)
            correct = False
        write_spans(args.workload, args.seed, passes)
    else:
        metrics = end_to_end(passes, setup_samples, per_pass)
    print("provenance " + json.dumps(provenance(args, passes, per_pass, attempted, failed)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
