"""Fixing Procedure, distributed-family certification, and counting bounds.

The Fixing Procedure repeatedly extracts an element occurring in at least an
N^(-alpha) fraction (but not all) of the working family, shrinking the family
to the sets containing it, until no such element remains. Elements occurring
in every member are absorbed into the fixed core without shrinking, since a
distributed certificate cannot leave a full-frequency element outside the
core. Both the procedure and the distributedness check run on a stack of
families' 0/1 incidence rows, (families, rows, V): label frequencies are
column counts over each family's alive rows, a shrink clears rows of its
alive mask, and "the core lies in every member" is one `all` over the core
columns. Each step counts only the families still running, and the
one-family `fixing_procedure` and `check_distributed` are stacks of one. A
`TargetClass` is the size-subsets of a universe, or one promise class of
`verifier.even_count`; a core extends into it when some even count k the class
allows covers the core's evens and leaves size - k places for its odds.
Counting comparisons are carried out in log2 space with high-precision
log-gamma binomials; float64 loses the sign of the difference near n = 60.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath
import numpy as np

from .core import FLOAT32_EXACT_COUNT, Subset, SubsetFamily, first_repeats
from .verifier import even_count

CROSSOVER_PRECISION_DPS = 50
FRACTION_TOL = 1e-12
# Label counts convert at most this many incidence entries to float32 at a time.
COUNT_CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class TargetClass:
    """The class a fixed core must extend into: the `size`-subsets of [universe], or with
    `even` set, the promise class whose majority parity is even (True) or odd (False)."""

    universe: int
    size: int
    even: bool | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.size <= self.universe:
            raise ValueError(f"target size {self.size} must lie in 0..{self.universe}")

    def feasible_cores(self, cores: np.ndarray) -> np.ndarray:
        """Can each (..., V) bool core row over this universe be completed to some
        member of this class?"""
        evens = cores[..., 1::2].sum(axis=-1)
        odds = cores.sum(axis=-1) - evens
        # the even labels that a size-subset of [universe] can hold
        lo, hi = max(0, self.size - (self.universe + 1) // 2), min(self.size, self.universe // 2)
        if self.even is not None:
            want = even_count(self.size, "YES" if self.even else "NO")
            lo, hi = max(lo, want), min(hi, want)
        return np.maximum(evens, lo) <= np.minimum(self.size - odds, hi)


@dataclass(frozen=True)
class DistributedCertificate:
    """Output of the Fixing Procedure: shrunk family, fixed core, and diagnostics."""

    family_prime: SubsetFamily
    s_fixed: Subset
    beta: float
    max_offfixed_fraction: float
    target_feasible: bool | None
    iterations: int
    shrink_log: tuple[tuple[int, int, int], ...]  # (element, nu, size before)


@dataclass(frozen=True)
class FixingStack:
    """The Fixing Procedure on each family of a (families, rows, V) incidence
    stack: the rows each family keeps (its family_prime), its fixed core, and
    the diagnostics of a `DistributedCertificate`, one entry per family."""

    alive: np.ndarray  # (families, rows) bool
    fixed: np.ndarray  # (families, V) bool
    max_offfixed_fraction: np.ndarray  # (families,) float
    iterations: np.ndarray  # (families,) int
    shrink_logs: tuple[tuple[tuple[int, int, int], ...], ...]  # (element, nu, size before)


def fixing_procedure_stack(incidence: np.ndarray, alpha: float, n_ref: float) -> FixingStack:
    """Run the Fixing Procedure on every family of a (families, rows, V) bool
    stack at once. A shrink clears rows of a family's alive mask, and each step
    takes one column count of the alive rows of the families still running."""
    stack = np.asarray(incidence)
    if stack.dtype != bool or stack.ndim != 3:
        raise ValueError(f"incidence must be a (families, rows, V) bool stack, got {stack.shape}")
    families, count, universe = stack.shape
    if count == 0:
        raise ValueError("empty family")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    if n_ref <= 1:
        raise ValueError(f"reference size must exceed 1, got {n_ref}")
    repeats = first_repeats(stack)
    if (repeats >= 0).any():
        family = int(np.argmax(repeats >= 0))
        members = tuple(int(i) + 1 for i in np.flatnonzero(stack[family, repeats[family]]))
        raise ValueError(f"family {family}: duplicate subset {members}")
    threshold_factor = n_ref ** (-alpha)
    alive = np.ones((families, count), dtype=bool)
    fixed = np.zeros((families, universe), dtype=bool)
    fraction = np.zeros(families)
    iterations = np.zeros(families, dtype=np.int64)
    logs: list[list[tuple[int, int, int]]] = [[] for _ in range(families)]
    running = np.arange(families)
    sizes = np.full(families, count)
    while running.size:
        counts = _column_counts(stack, alive, running).astype(np.int64)
        size = sizes[running]
        free = ~fixed[running]
        # a label in every member joins the core without a shrink, one iteration each
        full = free & (counts == size[:, None])
        fixed[running] |= full
        iterations[running] += full.sum(axis=1)
        free &= ~full
        cut = size * threshold_factor
        eligible = free & (counts < size[:, None]) & (counts >= cut[:, None])
        shrinks = eligible.any(axis=1)
        stop = ~shrinks
        top = np.where(free[stop], counts[stop], 0).max(axis=1, initial=0)
        fraction[running[stop]] = top / size[stop]
        running, counts, size, cut = running[shrinks], counts[shrinks], size[shrinks], cut[shrinks]
        element = eligible[shrinks].argmax(axis=1)
        nu = counts[np.arange(len(running)), element]
        alive[running] &= stack[running, :, element]
        fixed[running, element] = True
        iterations[running] += 1
        sizes[running] = alive[running].sum(axis=1)
        for family, label, kept, before, least in zip(
            running.tolist(), element.tolist(), nu.tolist(), size.tolist(), cut.tolist()
        ):
            logs[family].append((label + 1, kept, before))
            # each shrink keeps at least an N^(-alpha) fraction
            if sizes[family] != kept or kept < least - FRACTION_TOL:
                raise RuntimeError(
                    f"shrinking on element {label + 1} kept {sizes[family]} of {before} sets, "
                    f"expected {kept} >= {least:.6g}"
                )
    return FixingStack(alive, fixed, fraction, iterations, tuple(map(tuple, logs)))


def _column_counts(stack: np.ndarray, alive: np.ndarray, families: np.ndarray) -> np.ndarray:
    """(len(families), V) label counts over the alive rows of the listed families
    of a (families, rows, V) stack, as float32 matmuls over a few families at a
    time, so that their float32 copies stay small."""
    count, universe = stack.shape[1:]
    if count >= FLOAT32_EXACT_COUNT:
        raise ValueError(f"families of {count} sets are too large to count in float32")
    step = max(1, COUNT_CHUNK_ENTRIES // max(1, count * universe))
    out = np.empty((len(families), universe), dtype=np.float32)
    for start in range(0, len(families), step):
        part = families[start:start + step]
        rows = alive[part, None].astype(np.float32)
        out[start:start + step] = np.matmul(rows, stack[part].astype(np.float32))[:, 0]
    return out


def fixing_procedure(
    family: SubsetFamily,
    alpha: float,
    n_ref: float,
    target: TargetClass | None = None,
) -> DistributedCertificate:
    """Extract frequent elements until every residual frequency drops below N^(-alpha):
    `fixing_procedure_stack` on a stack of one family."""
    if target is not None and target.universe != family.universe:
        raise ValueError(f"universe mismatch: {target.universe} vs {family.universe}")
    run = fixing_procedure_stack(family.incidence[None], alpha, n_ref)
    s_fixed = Subset(family.universe, tuple((np.flatnonzero(run.fixed[0]) + 1).tolist()))
    feasible = bool(target.feasible_cores(run.fixed[0])) if target is not None else None
    return DistributedCertificate(
        SubsetFamily(family.universe, family.incidence[run.alive[0]]), s_fixed, alpha,
        float(run.max_offfixed_fraction[0]), feasible, int(run.iterations[0]),
        run.shrink_logs[0],
    )


def check_distributed_stack(
    incidence: np.ndarray,
    alive: np.ndarray,
    cores: np.ndarray,
    beta: float,
    target: TargetClass,
    n_ref: float,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Verify the three distributedness points for each family of a (families,
    rows, V) stack, family f being its rows marked in alive[f] and its core the
    bool row cores[f]; returns (ok, diagnostics), one entry per family."""
    stack = np.asarray(incidence, dtype=bool)
    cores = np.asarray(cores, dtype=bool)
    counts = _column_counts(stack, alive, np.arange(len(stack)))
    size = alive.sum(axis=1)
    core_in_all = ((counts == size[:, None]) | ~cores).all(axis=1)
    feasible = target.feasible_cores(cores)
    top = np.where(cores, 0.0, counts).max(axis=1, initial=0.0)
    max_fraction = np.divide(top, size, out=np.zeros(len(stack)), where=top > 0)
    bound = n_ref ** (-beta)
    fraction_ok = max_fraction <= bound + FRACTION_TOL
    return core_in_all & feasible & fraction_ok, {
        "core_in_all_members": core_in_all,
        "target_feasible": feasible,
        "max_offfixed_fraction": max_fraction,
        "fraction_bound": np.full(len(stack), bound),
        "fraction_ok": fraction_ok,
    }


def check_distributed(
    family: SubsetFamily,
    s_fixed: Subset,
    beta: float,
    target: TargetClass,
    n_ref: float,
) -> tuple[bool, dict]:
    """Verify the three distributedness points; returns (ok, diagnostics):
    `check_distributed_stack` on a stack of one family."""
    if s_fixed.universe != family.universe:
        raise ValueError(f"universe mismatch: {s_fixed.universe} vs {family.universe}")
    ok, diag = check_distributed_stack(
        family.incidence[None], np.ones((1, len(family)), dtype=bool),
        s_fixed.incidence[None], beta, target, n_ref,
    )
    return bool(ok[0]), {key: value[0].item() for key, value in diag.items()}


def witness_pigeonhole(family_size: int, witness_bits: float) -> int:
    """Least bucket size when family_size items share 2^witness_bits witnesses."""
    if family_size < 0 or witness_bits < 0:
        raise ValueError("family size and witness bits must be nonnegative")
    if float(witness_bits).is_integer():
        return -((-family_size) // 2 ** int(witness_bits))
    # ceil(family_size / 2^shift) first, so that neither float below overflows;
    # below 65 bits the shift is 0
    shift = max(0, int(witness_bits) - 64)
    return math.ceil(-((-family_size) >> shift) / 2.0 ** (witness_bits - shift))


def eval_poly(coeffs: Sequence[float], x: float) -> float:
    """Polynomial with coefficient i multiplying x^i."""
    return float(sum(c * x**i for i, c in enumerate(coeffs)))


@dataclass(frozen=True)
class CrossoverReport:
    variant: str
    alpha: float
    p_coeffs: tuple[float, ...]
    fix_fraction: float
    n_star: int | None
    rows: tuple[tuple[int, float, float, bool], ...]  # (n, log_upper, log_lower, crossed)
    message: str

    @property
    def sign_flips(self) -> int:
        marks = [crossed for (_, _, _, crossed) in self.rows]
        return sum(1 for a, b in zip(marks, marks[1:]) if a != b)


def bound_crossover(
    alpha: float, p_coeffs: Sequence[float], variant: str, n_max: int = 64
) -> CrossoverReport:
    """The least n where the counting lower bound wins: `bound_crossovers` at one alpha."""
    return bound_crossovers((alpha,), p_coeffs, variant, n_max)[0]


def bound_crossovers(
    alphas: Sequence[float], p_coeffs: Sequence[float], variant: str, n_max: int = 64
) -> tuple[CrossoverReport, ...]:
    """For each alpha, the least n where the counting lower bound beats the upper.

    The uniform variant compares C(N^2, fN) * N^alpha against
    C(N^2, N) * 2^(-p(n)) * N^(-alpha fN); the parity variant compares
    C(N^2/2, fN/2)^2 * N^alpha against the even-class count
    C(N^2/2, 2N/3) * C(N^2/2, N/3) * 2^(-p(n)) * N^(-alpha fN). Each binomial
    is the continuous log-gamma form, good to N = 2^64; the parity count
    overstates log2 of the integer class size C(N^2/2, ceil(2N/3)) *
    C(N^2/2, N - ceil(2N/3)) by 0.33 to 1.79 bits at n <= 8. The fraction f
    fixed is a half (uniform) or two thirds (parity). The log-binomial terms do
    not depend on alpha, so they are computed once per n for all alphas, each
    distinct log-gamma and log 2 once per call.
    """
    # variant: (alpha upper limit, as text, fix fraction)
    limits = {"uniform": (1.0, "1", 0.5), "parity": (0.5, "1/2", 2.0 / 3.0)}
    if variant not in limits:
        raise ValueError(f"unknown variant {variant!r}")
    alpha_hi, alpha_text, f = limits[variant]
    for alpha in alphas:
        if not 0.0 < alpha < alpha_hi:
            raise ValueError(f"{variant} variant needs alpha in (0, {alpha_text}), got {alpha}")

    coeffs = tuple(float(c) for c in p_coeffs)
    reports = []
    with mpmath.workdps(CROSSOVER_PRECISION_DPS):
        f_mp = mpmath.mpf(f)
        ln2 = mpmath.log(2)
        # each distinct log-gamma once: N^2 + 1 (N^2/2 + 1 for parity) is the
        # top of two or three binomials of one n, and N/2 + 1 (2N/3 + 1) comes
        # back as N + 1 (N/3 + 1) at the next n
        loggamma = functools.cache(mpmath.loggamma)
        terms = []  # (n, n as mpf, N n, upper log-binomials, lower ones minus p(n)) per n
        for n in range(1, n_max + 1):
            big_n = mpmath.mpf(2) ** n
            if variant == "uniform":
                up_bin = _log2_binomial(big_n**2, f_mp * big_n, loggamma, ln2)
                low_bin = _log2_binomial(big_n**2, big_n, loggamma, ln2)
            else:
                half = big_n**2 / 2
                up_bin = 2 * _log2_binomial(half, f_mp * big_n / 2, loggamma, ln2)
                low_bin = (_log2_binomial(half, 2 * big_n / 3, loggamma, ln2)
                           + _log2_binomial(half, big_n / 3, loggamma, ln2))
            p_of_n = mpmath.mpf(eval_poly(p_coeffs, n))
            # N n is exact, as N is a power of two, so alpha f (N n) rounds
            # once, to the same value as (alpha f N) n
            terms.append((n, mpmath.mpf(n), big_n * n, up_bin, low_bin - p_of_n))
        for alpha in alphas:
            alpha_mp = mpmath.mpf(alpha)
            alpha_f = alpha_mp * f_mp
            rows = []
            for n, n_mp, big_n_n, up_bin, low_less_p in terms:
                upper = up_bin + alpha_mp * n_mp
                lower = low_less_p - alpha_f * big_n_n
                rows.append((n, float(upper), float(lower), bool(lower > upper)))
            n_star = next((n for n, _, _, crossed in rows if crossed), None)
            message = f"crossover at n = {n_star}" if n_star else f"no crossover found <= {n_max}"
            reports.append(CrossoverReport(variant, alpha, coeffs, f, n_star, tuple(rows), message))
    return tuple(reports)


def _log2_binomial(
    x: "mpmath.mpf", y: "mpmath.mpf", loggamma: Callable, ln2: "mpmath.mpf"
) -> "mpmath.mpf":
    """Continuous log2 binomial via log-gamma; requires 0 <= y <= x. The caller
    passes `loggamma` and ln 2, so that it can share them across binomials."""
    if y < 0 or y > x:
        raise ValueError(f"binomial arguments out of range: ({x}, {y})")
    return (loggamma(x + 1) - loggamma(y + 1) - loggamma(x - y + 1)) / ln2
