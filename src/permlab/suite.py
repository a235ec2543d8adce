"""The acceptance suite: eleven numbered criteria, each an exact check.

Shared by the `suite` CLI subcommand and by tests/test_acceptance.py so both
run identical code. Every criterion returns a CriterionResult with a PASS or
FAIL verdict and a one-line summary; nothing here loosens a tolerance to
force a verdict.
"""

from __future__ import annotations

import functools
import io
import math
import time
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .adversary import (
    build_preimage_relation,
    build_subset_relation,
    end_to_end_bound_check,
    progress_trace,
    relation_stats,
)
from .core import (
    FLOAT32_EXACT_COUNT,
    Subset,
    enumerate_family,
    philox_stream,
    random_densities,
    validated_densities,
)
from .dilation import DILATION_TOL, QueryAlgorithm, haar_stack, random_dilation_runs, trial_stacks
from .oracles import block_average, block_group_chunks, block_group_order
from .structure import (
    TargetClass,
    bound_crossovers,
    check_distributed_stack,
    fixing_procedure_stack,
    witness_pigeonhole,
)
from .verifier import (
    THRESHOLD_LO,
    even_count,
    meets_threshold,
    parity_class,
    random_instance_row,
    sweep_honest,
    sweep_lambda,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    summary: str
    # wall time of the criterion; reported on stderr, never in the CSV
    seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} ({self.name}): {verdict} - {self.summary}"


def criterion_01_completeness(seed: int) -> CriterionResult:
    """Honest-witness acceptance: 5/6 at N=6 and (1 + ceil(2N/3)/N)/2 at n <= 3."""
    cases = [("N=6", Subset(36, (1, 2, 3, 4, 6, 8)), 5.0 / 6.0, 1e-10)]
    fixed_sets = {1: (2, 4), 2: (1, 2, 4, 6), 3: (1, 2, 3, 4, 6, 8, 10, 12)}
    for n, members in fixed_sets.items():
        expected = 0.5 * (1.0 + even_count(2**n, "YES") / 2**n)
        cases.append((f"n={n}", Subset(4**n, members), expected, 1e-12))
    # one sweep per size: every case has its own dimension
    checks = [
        (tag, float(sweep_honest(s.incidence[None])[2][0]), want, t) for tag, s, want, t in cases
    ]
    bad = [(tag, got, want) for tag, got, want, tol in checks if abs(got - want) > tol]
    summary = "; ".join(f"{tag}: {got:.12g} (want {want:.12g})" for tag, got, want, _ in checks)
    return CriterionResult(1, "completeness", not bad, summary)


def criterion_02_soundness(seed: int) -> CriterionResult:
    """Optimal-witness acceptance of every NO instance against the 2/3 target."""
    lam_n1 = float(np.max(sweep_lambda(parity_class(1, "NO").incidence)))
    lams_n2 = sweep_lambda(parity_class(2, "NO").incidence)
    lam_frac = float(sweep_lambda(Subset(36, (1, 2, 3, 4, 5, 7)).incidence[None])[0])
    above_n2 = int(np.count_nonzero(~meets_threshold("NO", lams_n2)))
    passed = not above_n2 and meets_threshold("NO", lam_n1) and meets_threshold("NO", lam_frac)
    summary = (
        f"n=1 max {lam_n1:.6g}; n=2 max {np.max(lams_n2):.6g} over {lams_n2.size} "
        f"instances ({above_n2} above 2/3); "
        f"N=6 {lam_frac:.6g}; target {THRESHOLD_LO:.6g}"
    )
    return CriterionResult(2, "soundness 2/3", passed, summary)


def criterion_03_test_i_perfection(seed: int) -> CriterionResult:
    """Honest witness passes test (i) with probability exactly 1 on random YES inputs."""
    worst = 0.0
    for n in (1, 2, 3):  # one sweep per size; run i has n = 1 + i % 3
        runs = range(n - 1, 50, 3)
        rows = np.stack([
            random_instance_row(2**n, "YES", philox_stream(seed, 300 + i)) for i in runs
        ])
        worst = max(worst, float(np.max(np.abs(sweep_honest(rows)[0] - 1.0))))
    return CriterionResult(
        3, "test (i) perfection", worst <= 1e-12, f"max |p-1| = {worst:.3g} over 50 runs"
    )


def criterion_04_dilation(seed: int) -> CriterionResult:
    """Channel picture equals the traced dilated picture for random algorithms.

    Trials 400..499 read streams 400..499, and trial 400 + j makes 1 + j % 3
    queries; the trials of one query count are one `random_dilation_runs` call.
    """
    worst = max(run.max_trace_distance for t in (1, 2, 3) for run in random_dilation_runs(
        seed, range(399 + t, 500, 3), 1, t, 2))
    return CriterionResult(
        4, "dilation equality", worst <= DILATION_TOL, f"max trace distance {worst:.3g} over 100 runs"
    )


# Rows of group elements per Gram product in criterion 5: bounds its memory
# (the full group at V = N = 8 has 40,320 elements; a chunk's one-hot rows at
# V = 8 take 512 KB).
TWIRL_CHUNK_ROWS = 2048


def exhaustive_block_average(stack: np.ndarray, block: int) -> tuple[np.ndarray, int]:
    """Average of P rho P^T over the whole block group, for each V x V matrix of the stack.

    Enumerates every group element and accumulates the V^2 x V^2 count matrix
    C = sum_tau P_tau (x) P_tau, whose entry (tau(a) V + tau(b), a V + b) counts
    the elements sending entry (a, b) to (tau(a), tau(b)). Row tau of a chunk's
    matrix Q is one-hot in column a V + tau(a) for each label a, so the chunk's
    Gram product Q^T Q holds, at ((a, i), (b, j)), the number of its elements
    sending a to i and b to j: C's entry (i V + j, a V + b). The averages are
    then one matmul. Returns them with the number of elements enumerated.
    """
    v = stack.shape[-1]
    d = v * v
    order = block_group_order(v, block)
    if order >= FLOAT32_EXACT_COUNT:
        raise ValueError(f"block group of {order} elements is too large to count in float32")
    gram = np.zeros((d, d), dtype=np.float32)
    # flat index of column a V in row r of a chunk's Q
    lanes = np.arange(TWIRL_CHUNK_ROWS)[:, None] * d + np.arange(v) * v
    enumerated = 0
    for rows in block_group_chunks(v, block, TWIRL_CHUNK_ROWS):
        onehot = np.zeros(len(rows) * d, dtype=np.float32)
        onehot[rows + lanes[: len(rows)]] = 1.0
        onehot = onehot.reshape(len(rows), d)
        gram += onehot.T @ onehot
        enumerated += len(rows)
    if enumerated != order:
        raise RuntimeError(
            f"enumerated {enumerated} block-group elements at V={v}, N={block}, "
            f"expected {block}!*{v - block}!"
        )
    # C^T, indexed ((a, b), (i, j)), from the Gram matrix indexed ((a, i), (b, j))
    counts_t = gram.reshape(v, v, v, v).transpose(0, 2, 1, 3).reshape(d, d).astype(np.float64)
    flat = stack.reshape(-1, d) @ counts_t
    return (flat / enumerated).reshape(stack.shape), enumerated


def criterion_05_twirl(seed: int) -> CriterionResult:
    """Closed-form twirl equals the exhaustive block-group average for V <= 8.

    Each (V, N) cell draws its 20 densities as one validated stack and twirls it
    with one orbit-label mean; the reference counts the whole group, one Gram
    product per chunk of one-hot image rows, into one count matrix
    (`exhaustive_block_average`).
    """
    worst = 0.0
    stream_idx = 500
    for v in range(2, 9):
        for block in range(1, v + 1):
            rng = philox_stream(seed, stream_idx)
            stream_idx += 1
            rhos = validated_densities(random_densities(v, 20, rng))
            averages, _ = exhaustive_block_average(rhos, block)
            worst = max(worst, float(np.max(np.abs(block_average(rhos, block) - averages))))
    return CriterionResult(
        5, "twirl correctness", worst <= 1e-12,
        f"max |closed - exhaustive| = {worst:.3g} across all (V, N), V <= 8",
    )


def criterion_06_fixing(seed: int) -> CriterionResult:
    """Fixing Procedure terminates quickly and certifies on random families.

    Each family is one index sample without replacement over the enumerated
    rows of C(16,4): distinct sets, uniformly at random and in random order,
    the distribution of `sample_family`: one `Generator.choice` per draw. The 100
    families of each p run as one stack through the Fixing Procedure and the
    distributedness check.
    """
    table = enumerate_family(16, 4).incidence
    total = len(table)
    target = TargetClass.fixed_size(16, 3)
    failures = 0
    max_iter = 0
    for p_bits in (2, 4):
        size = witness_pigeonhole(total, p_bits)
        # np.take gathers whole rows; indexing with the (100, size) array takes
        # ten times as long at this size
        stack = np.take(table, np.stack([
            philox_stream(seed, 600 + 1000 * p_bits + s).choice(total, size=size, replace=False)
            for s in range(100)
        ]), axis=0)
        run = fixing_procedure_stack(stack, 0.25, 4)
        max_iter = max(max_iter, int(run.iterations.max()))
        ok, _ = check_distributed_stack(stack, run.alive, run.fixed, 0.25, target, 4)
        failures += int(np.count_nonzero((run.iterations > 16) | ~ok))
    return CriterionResult(
        6, "fixing procedure", not failures,
        f"200 families over C(16,4), p in (2,4); max iterations {max_iter}; "
        f"{failures} failures",
    )


def criterion_07_crossover(seed: int) -> CriterionResult:
    """Finite crossover with a single sign flip; monotone in alpha."""
    problems = []
    stars = {}
    for variant in ("uniform", "parity"):
        rep, *sweep = bound_crossovers((0.25, 0.1, 0.2, 0.3, 0.4), (0.0, 1.0), variant)
        if rep.n_star is None:
            problems.append(f"{variant}: no crossover")
        if rep.sign_flips != 1:
            problems.append(f"{variant}: {rep.sign_flips} sign flips")
        ns = [r.n_star for r in sweep]
        stars[variant] = ns
        if any(x is None for x in ns) or any(a > b for a, b in zip(ns, ns[1:])):
            problems.append(f"{variant}: n* not monotone over alpha: {ns}")
    summary = (
        f"uniform n*(alpha=0.1..0.4) = {stars['uniform']}, "
        f"parity n* = {stars['parity']}"
    )
    if problems:
        summary += "; " + "; ".join(problems)
    return CriterionResult(7, "bound crossover", not problems, summary)


def _brute_force_stats(rel) -> tuple[int, int, int]:
    """Naive recount of m, m', l_max straight from the pair list; l_x is counted
    once per (x, label) and l_y once per (y, label)."""
    pairs = rel.pairs.tolist()
    pair_set = set(map(tuple, pairs))
    xs, ys = range(len(rel.x_items)), range(len(rel.y_items))
    m = min(sum((xi, yi) in pair_set for yi in ys) for xi in xs)
    m_prime = min(sum((xi, yi) in pair_set for xi in xs) for yi in ys)

    @functools.cache
    def l_x(xi: int, lab: int) -> int:
        return sum((xi, yj) in pair_set and rel.disagrees(xi, yj, lab) for yj in ys)

    @functools.cache
    def l_y(yi: int, lab: int) -> int:
        return sum((xj, yi) in pair_set and rel.disagrees(xj, yi, lab) for xj in xs)

    return m, m_prime, max((l_x(xi, lab) * l_y(yi, lab) for xi, yi in pairs
                            for lab in range(1, rel.universe + 1)
                            if rel.disagrees(xi, yi, lab)), default=0)


def criterion_08_adversary_stats(seed: int) -> CriterionResult:
    """Stats match a brute-force recount and obey the distributed-fraction bound."""
    def contains_one(rows: np.ndarray) -> np.ndarray:
        return rows[:, 0]

    problems = []
    for v in (6, 8):
        sx = enumerate_family(v, 2, contains_one)
        sy = enumerate_family(v, 3, contains_one)
        rel = build_subset_relation(sx, sy)
        stats = relation_stats(rel)
        brute = _brute_force_stats(rel)
        if (stats.m, stats.m_prime, stats.l_max) != brute:
            problems.append(f"V={v}: stats {stats.m, stats.m_prime, stats.l_max} != brute {brute}")
        counts = sx.element_counts()
        fraction = max(
            nu / len(sx) for lab, nu in counts.items() if lab != 1
        )
        cap = len(sx) * len(sy) * fraction
        (rx, ry), (px, py) = rel.rows, rel.pair_index
        prods = stats.per_input_l["l_x"][px] * stats.per_input_l["l_y"][py]
        # sign -1 marks a member: the one-sided difference points of x \ y
        for k, j in zip(*np.nonzero((rx[px] < ry[py]) & (prods > cap + 1e-9))):
            problems.append(f"V={v}: l_x*l_y = {prods[k, j]} > {cap} at label {j + 1}")
    return CriterionResult(
        8, "adversary statistics", not problems,
        "V=6 and V=8 subset relations: exact recount agreement and "
        "fraction bound on one-sided difference points"
        + ("; " + "; ".join(problems[:3]) if problems else ""),
    )


def criterion_09_preimage_matching(seed: int) -> CriterionResult:
    """Every matched pair at n=1 satisfies the three agreement conditions.

    Items are 0-based image rows, so an item's preimage set holds the labels its
    row sends below the block, and each condition is one array test over all pairs.
    """
    sx, sy = parity_class(1, "YES"), parity_class(1, "NO")
    rel = build_preimage_relation(sx, sy, 2)
    problems = []
    if len(rel.pairs) != 4:
        problems.append(f"expected 4 matched pairs, got {len(rel.pairs)}")
    in_x, in_y = sx.incidence[0], sy.incidence[0]
    for side, items, members in (("x", rel.x_items, in_x), ("y", rel.y_items, in_y)):
        if np.any((items < 2) != members):
            problems.append(f"a {side}-side item has the wrong preimage set")
        if len(set(map(tuple, items.tolist()))) != 4:
            problems.append(f"the {side}-side coset is not fully enumerated")
    px, py = rel.x_items[rel.pairs[:, 0]], rel.y_items[rel.pairs[:, 1]]
    # [pair, j, i]: label i + 1 of y - x is transpose-linked to label j + 1
    linked = (px[:, :, None] == py[:, None, :]) & (px[:, None, :] == py[:, :, None]) & in_y & ~in_x
    for bad, message in (
        ((px != py) & (in_x == in_y), "differs at an agreed label"),
        (in_x & ~in_y & ~linked.any(axis=-1), "lacks a transpose partner"),
        ((px != py) != (in_x != in_y), "disagreement set is not the symmetric difference"),
    ):
        problems += [f"pair {tuple(rel.pairs[k].tolist())} {message}"
                     for k in np.flatnonzero(bad.any(axis=-1))]
    return CriterionResult(
        9, "preimage matching", not problems,
        f"4 matched pairs at n=1, all agreement conditions verified exhaustively"
        + ("; " + "; ".join(problems[:3]) if problems else ""),
    )


def criterion_10_progress_measure(seed: int) -> CriterionResult:
    """Per-step W drop bound, the exact initial W, and no bound violations."""
    rel = build_preimage_relation(parity_class(1, "YES"), parity_class(1, "NO"), 2)
    stats = relation_stats(rel)
    w0_expected = len(rel.pairs) / (2.0 * math.sqrt(len(rel.x_items) * len(rel.y_items)))
    problems = []
    # 100 five-query algorithms, then 200 two-query ones, each trial drawn from
    # its own stream and each stack of trials run at once
    traces = []
    for part in trial_stacks(100, 6 * 8 * 8):
        rngs = [philox_stream(seed, 1000 + trial) for trial in range(100)[part]]
        traces += progress_trace(rel, QueryAlgorithm(4, 2, haar_stack(8, 6, rngs)))
    worst_w0 = max(abs(trace.w_values[0] - w0_expected) for trace in traces)
    worst_drop_excess = max(trace.max_drop - trace.sqrt_lmax for trace in traces)
    if worst_w0 > 1e-12:
        problems.append(f"W_0 error {worst_w0:.3g}")
    if worst_drop_excess > 1e-9:
        problems.append(f"drop exceeds sqrt(l_max) by {worst_drop_excess:.3g}")
    reports = []
    for part in trial_stacks(200, 4 * 8 * 8):
        rngs = [philox_stream(seed, 1200 + trial) for trial in range(200)[part]]
        # each trial's three unitaries, then one whose first column is its accept vector
        u = haar_stack(8, 4, rngs)
        vecs = u[:, 3, :, 0]
        reports += end_to_end_bound_check(
            rel, QueryAlgorithm(4, 2, u[:, :3]), vecs[:, :, None] * vecs[:, None, :].conj()
        )
    bound_failures = sum(not report.satisfied for report in reports)
    if bound_failures:
        problems.append(f"{bound_failures} distinguishers beat the bound")
    return CriterionResult(
        10, "progress measure", not problems,
        f"W_0 err {worst_w0:.2g}, max drop excess {worst_drop_excess:.2g}, "
        f"sqrt(l_max) = {stats.l_max ** 0.5:.3g}, 200 end-to-end checks"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def criterion_11_determinism(seed: int) -> CriterionResult:
    """Identical configurations render byte-identical CSV outputs and diagnostics."""
    from . import harness  # deferred: harness imports this module

    def render(cfg) -> tuple[str, str]:
        # The runners' stderr diagnostics are captured, so they stay out of the
        # suite's report and must repeat along with the CSV bytes.
        diagnostics = io.StringIO()
        with redirect_stderr(diagnostics):
            _, header, rows = harness.execute(cfg)
        return harness.render_csv(header, rows), diagnostics.getvalue()

    checks = []
    verify_cfg = harness.ExperimentConfig(
        subcommand="verify", n=2, exhaustive_no=True, seed=seed
    )
    checks.append(render(verify_cfg) == render(verify_cfg))
    fix_cfg = harness.ExperimentConfig(
        subcommand="fix", V=16, k=4, alpha=0.25, p=2.0, seed=seed, trials=5
    )
    checks.append(render(fix_cfg) == render(fix_cfg))
    wtrace_cfg = harness.ExperimentConfig(subcommand="wtrace", queries=4, seed=seed)
    checks.append(render(wtrace_cfg) == render(wtrace_cfg))
    return CriterionResult(
        11, "determinism", all(checks),
        f"verify/fix/wtrace rendered twice each: byte-equal = {checks}",
    )


ALL_CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_01_completeness,
    criterion_02_soundness,
    criterion_03_test_i_perfection,
    criterion_04_dilation,
    criterion_05_twirl,
    criterion_06_fixing,
    criterion_07_crossover,
    criterion_08_adversary_stats,
    criterion_09_preimage_matching,
    criterion_10_progress_measure,
    criterion_11_determinism,
)


def run_all(seed: int) -> list[CriterionResult]:
    results = []
    for idx, fn in enumerate(ALL_CRITERIA, start=1):
        start = time.perf_counter()
        try:
            result = fn(seed)
        except Exception as exc:  # keep the suite reporting even on crashes
            traceback.print_exc()
            result = CriterionResult(idx, fn.__name__, False, f"error: {exc}")
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
