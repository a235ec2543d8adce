"""The benchmark's workloads: their items, and the reference check of each item.

An item is one call through a public entry point: `harness.execute` on one
CLI configuration followed by `harness.render_csv` (what the CLI does before
it writes), or one acceptance criterion inside `suite.run_all`. A pass is the
workload's fixed list of items; every item seed is derived from the run seed,
so one seed always gives the same inputs.

Each check returns None when the output matches its reference, or a short
reason. Two outcomes are expected and are not failures: `verify` exits 1
because its NO instance beats 2/3, and criterion 2 of the suite reports FAIL
(the soundness gap the README documents). Criterion 2 passing is a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from permlab import harness

LAMBDA_TOL = 1e-9
HONEST_TOL = 1e-12
DILATION_TOL = 1e-9
SOUNDNESS_FLAG = 2.0 / 3.0 + 1e-9
SOUNDNESS_CRITERION = 2


def item_seed(seed: int, index: int) -> int:
    """Seed of item `index` in a run seeded with `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class CliItem:
    """One CLI configuration and the check its output must pass."""

    label: str
    config: harness.ExperimentConfig
    check: Callable[[int, list[str], list[list]], str | None]

    def run(self) -> tuple[int, list[str], list[list]]:
        code, header, rows = harness.execute(self.config)
        harness.render_csv(header, rows)
        return code, header, rows


def check_verify(code: int, header: list[str], rows: list[list]) -> str | None:
    """Closed forms of test (ii) and of the optimal witness, per instance."""
    col = {name: i for i, name in enumerate(header)}
    expected_code = 0
    for row in rows:
        big_n = 2 ** row[col["n_or_N"]]
        k_even = row[col["k_even"]]
        lam = 0.5 * (1.0 + math.sqrt(k_even / big_n))
        honest = 0.5 * (1.0 + k_even / big_n)
        if abs(row[col["lambda_max"]] - lam) > LAMBDA_TOL:
            return f"lambda_max {row[col['lambda_max']]!r} != {lam!r}"
        if abs(row[col["p_honest"]] - honest) > HONEST_TOL:
            return f"p_honest {row[col['p_honest']]!r} != {honest!r}"
        label = row[col["label"]]
        if (label == "NO" and lam > SOUNDNESS_FLAG) or (label == "YES" and lam < 2.0 / 3.0):
            expected_code = 1
    if code != expected_code:
        return f"exit status {code}, expected {expected_code}"
    return None


def check_dilate(code: int, header: list[str], rows: list[list]) -> str | None:
    """Every query's reduced dilated state equals the channel state."""
    worst = max(row[header.index("trace_distance")] for row in rows)
    if worst > DILATION_TOL:
        return f"trace distance {worst!r} > {DILATION_TOL}"
    if code != 0:
        return f"exit status {code}"
    return None


def check_criterion(result) -> str | None:
    """Every criterion passes except criterion 2, which must keep failing."""
    if result.index == SOUNDNESS_CRITERION:
        return "passed; the documented soundness gap is hidden" if result.passed else None
    return None if result.passed else f"failed: {result.summary}"


def _cfg(subcommand: str, **fields) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(subcommand=subcommand, **fields)


def verify_sweep(seed: int) -> list[CliItem]:
    return [
        CliItem("verify", _cfg("verify", n=4, trials=2, seed=item_seed(seed, i)), check_verify)
        for i in range(8)
    ]


def dilate_deep(seed: int) -> list[CliItem]:
    return [
        CliItem(
            "dilate",
            _cfg("dilate", n=1, queries=4, trials=1, seed=item_seed(seed, i)),
            check_dilate,
        )
        for i in range(4)
    ]


CLI_WORKLOADS: dict[str, Callable[[int], list[CliItem]]] = {
    "verify-sweep": verify_sweep,
    "dilate-deep": dilate_deep,
}
SUITE_WORKLOAD = "suite"
WORKLOADS = (*CLI_WORKLOADS, SUITE_WORKLOAD)
