"""Command-line harness: seeded, deterministic experiment runs emitting CSV.

Subcommands: verify, dilate, fix, crossover, relation, wtrace, suite.
A flat JSON config file can supply any field; command-line flags override
file values. The same configuration always renders byte-identical CSV
(fixed column order, floats printed with 17 significant digits). Diagnostics
go to stderr; the CSV goes to --out or stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import suite as suite_mod
from .adversary import (
    adversary_bound,
    build_preimage_relation,
    build_subset_relation,
    progress_trace,
    relation_stats,
)
from .core import (
    ENUMERATION_CAP, MAX_DIM, capped_binomial, enumerate_family, philox_stream, sample_family,
)
from .dilation import (
    DILATION_TOL,
    QueryAlgorithm,
    cap_trial_entries,
    haar_stack,
    random_dilation_runs,
    trial_stacks,
)
from .structure import (
    TargetClass,
    bound_crossover,
    check_distributed,
    fixing_procedure,
    witness_pigeonhole,
)
from .verifier import (
    THRESHOLD_LO,
    meets_threshold,
    parity_class,
    promise_labels,
    random_instance_row,
    sweep_honest,
    sweep_lambda,
)

SUBCOMMANDS = ("verify", "dilate", "fix", "crossover", "relation", "wtrace", "suite")


# The least value of each numeric field that has one; every config is checked.
MINIMUMS = {"n": 1, "N": 2, "V": 1, "dim_b": 1, "queries": 0, "tau_samples": 1, "trials": 0,
            "p": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; the seed fully determines all randomness."""

    subcommand: str
    n: int | None = None
    N: int | None = None
    V: int | None = None
    k: int | None = None
    kx: int | None = None
    ky: int | None = None
    alpha: float | None = None
    epsilon: float | None = None
    p: float | None = None
    p_coeffs: tuple[float, ...] | str | list | None = None
    queries: int | None = None
    variant: str | None = None
    kind: str | None = None
    fixed: str | None = None
    exhaustive_no: bool = False
    dim_b: int | None = None
    tau_samples: int | None = None
    nref: float | None = None
    target_k: int | None = None
    seed: int = 0
    trials: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.p_coeffs is not None:
            coeffs = self.p_coeffs
            parts = coeffs.split(",") if isinstance(coeffs, str) else coeffs
            try:
                values = tuple(float(c) for c in parts)
            except (TypeError, ValueError):
                raise ValueError(f"field 'p_coeffs' must be comma-separated numbers, "
                                 f"got {coeffs!r}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"field 'p_coeffs' must be finite numbers, got {coeffs!r}")
            object.__setattr__(self, "p_coeffs", values)
        for name, low in MINIMUMS.items():
            value = getattr(self, name)
            if value is not None and not value >= low:  # NaN fails too
                raise ValueError(f"field '{name}' must be at least {low}, got {value}")
        for name in ("alpha", "epsilon", "p", "nref"):  # float fields: NaN and inf are refused
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"field '{name}' must be finite, got {value}")

    def canonical_json(self) -> str:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return json.dumps(data, sort_keys=True, separators=(",", ":"))


_FIELD_NAMES = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}

# Each subcommand's value for a field the config leaves unset. A callable
# derives its value from the config once the plain values are filled in.
DEFAULTS: dict[str, dict[str, object]] = {
    "dilate": dict(n=1, queries=2, dim_b=2, tau_samples=8),
    "fix": dict(V=16, k=4, alpha=0.25, p=2.0, nref=lambda cfg: float(cfg.k),
                target_k=lambda cfg: max(1, math.floor(0.99 * cfg.k))),
    "crossover": dict(alpha=0.25, p_coeffs=(0.0, 1.0), variant="uniform"),
    "relation": dict(kind="subset", epsilon=0.0, V=6, kx=2, ky=3, fixed="1", n=1),
    "wtrace": dict(queries=5),
}


def with_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """`cfg` with every unset field of its subcommand's DEFAULTS filled in."""
    table = DEFAULTS.get(cfg.subcommand, {})
    unset = [name for name in table if getattr(cfg, name) is None]
    plain = replace(cfg, **{name: table[name] for name in unset if not callable(table[name])})
    return replace(plain, **{name: table[name](plain) for name in unset if callable(table[name])})


def load_config(path: str) -> ExperimentConfig:
    """Read a flat JSON config; unknown keys are rejected by name."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ValueError("config must be a flat JSON object")
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    if "subcommand" not in data:
        raise ValueError("config is missing the required key 'subcommand'")
    return ExperimentConfig(**data)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


# `_format_cell`'s rule for each cell type it meets most, looked up by exact type;
# any other type (numpy scalars, subclasses) goes through `_format_cell` itself.
_CELL_RULES = {
    float: lambda value: format(value, ".17g"),
    int: str,
    bool: ("false", "true").__getitem__,
    str: str,
}


def render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    rule = _CELL_RULES.get
    for row in rows:
        writer.writerow([rule(type(v), _format_cell)(v) for v in row])
    return buf.getvalue()


def _emit(cfg: ExperimentConfig, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    text = render_csv(header, rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_verify(cfg: ExperimentConfig) -> tuple[bool, list[str], list[list]]:
    header = [
        "instance_id", "n_or_N", "k_even", "label",
        "p_honest_i", "p_honest_ii", "p_honest", "lambda_max",
    ]
    if cfg.n is not None and cfg.N is not None:
        raise ValueError("subcommand 'verify' takes the field 'n' or the field 'N', not both")
    if cfg.n is None and (cfg.exhaustive_no or cfg.N is None):
        raise ValueError("subcommand 'verify' needs the field 'n'"
                         + ("" if cfg.exhaustive_no else " or the field 'N'"))
    name, size = ("n", cfg.n) if cfg.n is not None else ("N", cfg.N)
    # the largest N, or n, whose N^2 labels fit the dense-matrix cap
    limit = math.isqrt(MAX_DIM) if name == "N" else math.isqrt(MAX_DIM).bit_length() - 1
    if size > limit:
        raise ValueError(f"field '{name}' must be at most {limit}, got {size} "
                         f"(N^2 labels must fit the dense-matrix cap {MAX_DIM})")
    big_n = 2**size if name == "n" else size
    instances = parity_class(cfg.n, "NO").incidence if cfg.exhaustive_no else np.array([
        random_instance_row(big_n, ("YES", "NO")[t % 2], philox_stream(cfg.seed, t))
        for t in range(cfg.trials)
    ], dtype=bool).reshape(cfg.trials, big_n**2)
    k_even, labels = promise_labels(instances)
    columns = (*sweep_honest(instances), sweep_lambda(instances))
    members = np.nonzero(instances)[1].reshape(len(instances), big_n) + 1
    rows = [
        ["-".join(map(str, ids)), size, *values]
        for ids, *values in zip(members.tolist(), k_even.tolist(), labels.tolist(),
                                *(column.tolist() for column in columns))
    ]
    lams = columns[-1]
    picked = {label: lams[labels == label] for label in ("YES", "NO")}
    slack = [
        f"{label} {word} {pick(picked[label]) - THRESHOLD_LO:+.3g} (of {picked[label].size})"
        for label, word, pick in (("YES", "smallest", np.min), ("NO", "largest", np.max))
        if picked[label].size
    ]
    if slack:
        print("lambda_max - 2/3: " + ", ".join(slack), file=sys.stderr)
    ok = all(np.all(meets_threshold(label, values)) for label, values in picked.items())
    return ok, header, rows


def run_dilate(cfg: ExperimentConfig) -> tuple[bool, list[str], list[list]]:
    exact = cfg.n == 1
    runs = random_dilation_runs(cfg.seed, range(cfg.trials), cfg.n, cfg.queries, cfg.dim_b,
                                cfg.tau_samples)
    rows = [[i, k, x] for i, run in enumerate(runs) for k, x in enumerate(run.trace_distances)]
    per_trial = [run.max_trace_distance for run in runs]
    top = max(per_trial, default=0.0)
    if exact:
        print(f"exact dilation: worst trace distance {top:.3g} against {DILATION_TOL:g}",
              file=sys.stderr)
    elif per_trial:
        spread = np.std(per_trial, ddof=1) if len(per_trial) > 1 else 0.0
        print(f"sampled tau group: max trace distance {top:.3g} "
              f"(mean {np.mean(per_trial):.3g} +/- {spread:.3g} across trials)", file=sys.stderr)
    return not exact or top <= DILATION_TOL, ["trial", "k", "trace_distance"], rows


def run_fix(cfg: ExperimentConfig) -> tuple[bool, list[str], list[list]]:
    v, k, alpha, nref = cfg.V, cfg.k, cfg.alpha, cfg.nref
    for name in ("k", "target_k"):
        if not 0 <= getattr(cfg, name) <= v:
            raise ValueError(f"field '{name}' must lie in 0..V = {v}, got {getattr(cfg, name)}")
    if nref <= 1:
        raise ValueError(f"field 'nref' must exceed 1, got {nref} (nref defaults to k)")
    target = TargetClass(v, cfg.target_k)
    # C(V, k) < 2^V: past V witness bits, every family holds one set
    bits = min(cfg.p, v)
    total = capped_binomial(v, k, ENUMERATION_CAP << math.ceil(bits))
    size = max(1, witness_pigeonhole(total, bits))
    if size > ENUMERATION_CAP:
        raise ValueError(f"fields V = {v}, k = {k} and p = {cfg.p} ask for families of "
                         f"C(V, k) / 2^p sets, above the cap {ENUMERATION_CAP}")
    rows = []
    ok = True
    for trial in range(cfg.trials):
        rng = philox_stream(cfg.seed, trial)
        family = sample_family(v, k, size, rng)
        cert = fixing_procedure(family, alpha, nref, target=target)
        good, diag = check_distributed(cert.family_prime, cert.s_fixed, alpha, target, nref)
        rows.append([
            trial, len(family), len(cert.s_fixed),
            diag["max_offfixed_fraction"], good,
        ])
        ok = ok and good
    return ok, ["seed", "family_size", "fixed_count", "max_fraction", "distributed_ok"], rows


def run_crossover(cfg: ExperimentConfig) -> tuple[bool, list[str], list[list]]:
    report = bound_crossover(cfg.alpha, cfg.p_coeffs, cfg.variant)
    rows = [[n, up, lo] for n, up, lo, _ in report.rows]
    print(report.message, file=sys.stderr)
    return report.n_star is not None, ["n", "log_upper", "log_lower"], rows


def run_relation(cfg: ExperimentConfig) -> tuple[bool, list[str], list[list]]:
    if cfg.kind == "subset":
        try:
            core = [int(t) for t in str(cfg.fixed).split()]
        except ValueError:
            raise ValueError(f"field 'fixed' must be space-separated labels, "
                             f"got {cfg.fixed!r}") from None
        for label in core:
            if not 1 <= label <= cfg.V:
                raise ValueError(f"fixed label {label} lies outside 1..{cfg.V}")
        pred = lambda rows: rows[:, [label - 1 for label in core]].all(axis=1)
        rel = build_subset_relation(
            enumerate_family(cfg.V, cfg.kx, pred), enumerate_family(cfg.V, cfg.ky, pred)
        )
    elif cfg.kind == "preimage":
        rel = build_preimage_relation(
            parity_class(cfg.n, "YES"), parity_class(cfg.n, "NO"), 2**cfg.n)
    else:
        raise ValueError(f"unknown relation kind {cfg.kind!r}")
    stats = relation_stats(rel)
    bound = adversary_bound(stats, cfg.epsilon)
    rows = [[stats.m, stats.m_prime, stats.l_max, bound]]
    return True, ["m", "m_prime", "l_max", "bound"], rows


def run_wtrace(cfg: ExperimentConfig) -> tuple[bool, list[str], list[list]]:
    cap_trial_entries("queries", cfg.queries, 8 * 8, offset=1)
    rel = build_preimage_relation(parity_class(1, "YES"), parity_class(1, "NO"), 2)
    traces = []
    for part in trial_stacks(cfg.trials, (cfg.queries + 1) * 8 * 8):
        rngs = [philox_stream(cfg.seed, trial) for trial in range(cfg.trials)[part]]
        traces += progress_trace(rel, QueryAlgorithm(4, 2, haar_stack(8, cfg.queries + 1, rngs)))
    rows = []
    worst = None  # (largest drop of any trial, sqrt(l_max)); l_max is one per relation
    for trace in traces:
        for t, w in enumerate(trace.w_values):
            drop = "" if t == 0 else trace.drops[t - 1]
            rows.append([t, w, drop, trace.sqrt_lmax])
        if trace.drops and (worst is None or trace.max_drop > worst[0]):
            worst = (trace.max_drop, trace.sqrt_lmax)
    if worst is not None:
        drop, bound = worst
        print(f"W trace: worst drop {drop:.6g} against sqrt(l_max) = {bound:.6g} "
              f"(slack {bound - drop:+.3g})", file=sys.stderr)
    return worst is None or worst[0] <= worst[1] + 1e-9, ["t", "w_t", "drop", "sqrt_lmax"], rows


def suite_table(results: Sequence[suite_mod.CriterionResult]) -> tuple[list[str], list[list]]:
    """The CSV header and rows of `permlab suite`, one row per criterion."""
    rows = [[r.index, r.name, r.passed, r.summary] for r in results]
    return ["criterion", "name", "passed", "summary"], rows


def run_suite(cfg: ExperimentConfig) -> tuple[bool, list[str], list[list]]:
    results = suite_mod.run_all(cfg.seed)
    for result in results:
        print(f"{result.line()} [{result.seconds:.3f} s]", file=sys.stderr)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed", file=sys.stderr)
    return all(r.passed for r in results), *suite_table(results)


_RUNNERS = {
    "verify": run_verify,
    "dilate": run_dilate,
    "fix": run_fix,
    "crossover": run_crossover,
    "relation": run_relation,
    "wtrace": run_wtrace,
    "suite": run_suite,
}


def execute(cfg: ExperimentConfig) -> tuple[int, list[str], list[list]]:
    """Run one configuration; exit status 0 only if every pass/fail flag holds."""
    ok, header, rows = _RUNNERS[cfg.subcommand](with_defaults(cfg))
    return (0 if ok else 1), header, rows


def run(cfg: ExperimentConfig) -> int:
    code, header, rows = execute(cfg)
    _emit(cfg, header, rows)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="Deterministic experiments over permutation oracles and subset verification",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="flat JSON config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--trials", type=int, default=None)
    common.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify", parents=[common], help="verifier sweep (CSV per instance)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=None, dest="N")
    p.add_argument("--exhaustive-no", action="store_true", default=None, dest="exhaustive_no")

    p = sub.add_parser("dilate", parents=[common], help="dilation trace-distance runs")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--queries", type=int, default=None)
    p.add_argument("--dim-b", type=int, default=None, dest="dim_b")
    p.add_argument("--tau-samples", type=int, default=None, dest="tau_samples")

    p = sub.add_parser("fix", parents=[common], help="fixing procedure over random families")
    p.add_argument("--V", type=int, default=None, dest="V")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--nref", type=float, default=None)
    p.add_argument("--target-k", type=int, default=None, dest="target_k")

    p = sub.add_parser("crossover", parents=[common], help="counting-bound crossover curves")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p-coeffs", type=str, default=None, dest="p_coeffs",
                   help="comma-separated polynomial coefficients, constant first")
    p.add_argument("--variant", choices=("uniform", "parity"), default=None)

    p = sub.add_parser("relation", parents=[common], help="relation statistics and bound")
    p.add_argument("--V", type=int, default=None, dest="V")
    p.add_argument("--kx", type=int, default=None)
    p.add_argument("--ky", type=int, default=None)
    p.add_argument("--kind", choices=("subset", "preimage"), default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--fixed", type=str, default=None, help="space-separated core labels")

    p = sub.add_parser("wtrace", parents=[common], help="progress-measure trace")
    p.add_argument("--queries", type=int, default=None)

    sub.add_parser("suite", parents=[common], help="run every acceptance criterion")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("config",) and value is not None
    }
    try:
        if args.config:
            return run(replace(load_config(args.config), **overrides))
        return run(ExperimentConfig(**overrides))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
