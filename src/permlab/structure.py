"""Fixing Procedure, distributed-family certification, and counting bounds.

The Fixing Procedure repeatedly extracts an element occurring in at least an
N^(-alpha) fraction (but not all) of the working family, shrinking the family
to the sets containing it, until no such element remains. Elements occurring
in every member are absorbed into the fixed core without shrinking, since a
distributed certificate cannot leave a full-frequency element outside the
core. Both the procedure and the distributedness check run on the family's
0/1 incidence rows: label frequencies are column sums, a shrink is a row
mask, and "the core lies in every member" is one `all` over the core columns.
Counting comparisons are carried out in log2 space with high-precision
log-gamma binomials; float64 loses the sign of the difference near n = 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

from .core import Subset, SubsetFamily

CROSSOVER_PRECISION_DPS = 50
FRACTION_TOL = 1e-12


@dataclass(frozen=True)
class TargetClass:
    """The class a fixed core must extend into: all k-subsets, or a parity class."""

    kind: str
    universe: int
    size: int | None = None
    block: int | None = None
    majority: str | None = None
    majority_count: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "fixed_size":
            if self.size is None or not 0 <= self.size <= self.universe:
                raise ValueError("fixed_size target needs 0 <= size <= universe")
        elif self.kind == "parity":
            if self.block is None or self.universe != self.block**2:
                raise ValueError("parity target needs universe = N^2")
            if self.majority not in ("even", "odd"):
                raise ValueError("parity target majority must be 'even' or 'odd'")
            if self.majority_count is None or not 0 <= self.majority_count <= self.block:
                raise ValueError("parity target needs 0 <= majority_count <= N")
        else:
            raise ValueError(f"unknown target kind {self.kind!r}")

    @classmethod
    def fixed_size(cls, universe: int, size: int) -> "TargetClass":
        return cls("fixed_size", universe, size=size)

    @classmethod
    def parity(
        cls, block: int, majority: str, majority_count: int | None = None
    ) -> "TargetClass":
        if majority_count is None:
            majority_count = -((-2 * block) // 3)
        return cls(
            "parity", block**2, block=block, majority=majority,
            majority_count=majority_count,
        )

    def feasible_extension(self, s_fixed: Subset) -> bool:
        """Can the fixed core be completed to some member of this class?"""
        if s_fixed.universe != self.universe:
            return False
        if self.kind == "fixed_size":
            return len(s_fixed) <= self.size
        k_even = int(s_fixed.incidence[1::2].sum())
        k_odd = len(s_fixed) - k_even
        maj, minr = (k_odd, k_even) if self.majority == "odd" else (k_even, k_odd)
        need_maj = self.majority_count - maj
        need_min = (self.block - self.majority_count) - minr
        if need_maj < 0 or need_min < 0:
            return False
        evens_total = self.universe // 2
        odds_total = self.universe - evens_total
        free_odd = odds_total - k_odd
        free_even = evens_total - k_even
        if self.majority == "odd":
            return need_maj <= free_odd and need_min <= free_even
        return need_maj <= free_even and need_min <= free_odd


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


def fixing_procedure(
    family: SubsetFamily,
    alpha: float,
    n_ref: float,
    target: TargetClass | None = None,
) -> DistributedCertificate:
    """Extract frequent elements until every residual frequency drops below N^(-alpha)."""
    if len(family) == 0:
        raise ValueError("empty family")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    if n_ref <= 1:
        raise ValueError(f"reference size must exceed 1, got {n_ref}")
    threshold_factor = n_ref ** (-alpha)
    current = family
    fixed = np.zeros(family.universe, dtype=bool)
    log: list[tuple[int, int, int]] = []
    iterations = 0
    while True:
        size = len(current)
        counts = current.incidence.sum(axis=0)
        full = np.flatnonzero((counts == size) & ~fixed)
        if full.size:
            fixed[full[0]] = True
            iterations += 1
            continue
        cut = size * threshold_factor
        eligible = np.flatnonzero(~fixed & (counts < size) & (counts >= cut))
        if not eligible.size:
            break
        element = int(eligible[0]) + 1
        nu = int(counts[element - 1])
        log.append((element, nu, size))
        current = current.restrict_to(element)
        fixed[element - 1] = True
        iterations += 1
        # each shrink keeps at least an N^(-alpha) fraction
        if len(current) != nu or nu < cut - FRACTION_TOL:
            raise RuntimeError(
                f"shrinking on element {element} kept {len(current)} of {size} sets, "
                f"expected {nu} >= {cut:.6g}"
            )
    s_fixed = Subset(family.universe, tuple(int(i) + 1 for i in np.flatnonzero(fixed)))
    feasible = target.feasible_extension(s_fixed) if target is not None else None
    return DistributedCertificate(
        current, s_fixed, alpha, _max_off_core_fraction(current, fixed), feasible,
        iterations, tuple(log),
    )


def _max_off_core_fraction(family: SubsetFamily, core: np.ndarray) -> float:
    """Largest share of member sets holding one label outside the boolean core mask."""
    top = int(family.incidence[:, ~core].sum(axis=0).max(initial=0))
    return top / len(family) if top else 0.0


def check_distributed(
    family: SubsetFamily,
    s_fixed: Subset,
    beta: float,
    target: TargetClass,
    n_ref: float,
) -> tuple[bool, dict]:
    """Verify the three distributedness points; returns (ok, diagnostics)."""
    if s_fixed.universe != family.universe:
        raise ValueError(f"universe mismatch: {s_fixed.universe} vs {family.universe}")
    core = s_fixed.incidence
    core_in_all = bool(family.incidence[:, core].all())
    feasible = target.feasible_extension(s_fixed)
    max_fraction = _max_off_core_fraction(family, core)
    bound = n_ref ** (-beta)
    fraction_ok = max_fraction <= bound + FRACTION_TOL
    ok = core_in_all and feasible and fraction_ok
    return ok, {
        "core_in_all_members": core_in_all,
        "target_feasible": feasible,
        "max_offfixed_fraction": max_fraction,
        "fraction_bound": bound,
        "fraction_ok": fraction_ok,
    }


def witness_pigeonhole(family_size: int, witness_bits: float) -> int:
    """Least bucket size when family_size items share 2^witness_bits witnesses."""
    if family_size < 0 or witness_bits < 0:
        raise ValueError("family size and witness bits must be nonnegative")
    if float(witness_bits).is_integer():
        denom = 2 ** int(witness_bits)
        return -((-family_size) // denom)
    return math.ceil(family_size / 2.0**witness_bits)


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
    alpha: float, p_coeffs: Sequence[float], variant: str,
    fix_fraction: float | None = None, n_max: int = 64,
) -> CrossoverReport:
    """The least n where the counting lower bound wins: `bound_crossovers` at one alpha."""
    return bound_crossovers((alpha,), p_coeffs, variant, fix_fraction, n_max)[0]


def bound_crossovers(
    alphas: Sequence[float],
    p_coeffs: Sequence[float],
    variant: str,
    fix_fraction: float | None = None,
    n_max: int = 64,
) -> tuple[CrossoverReport, ...]:
    """For each alpha, the least n where the counting lower bound beats the upper.

    The uniform variant compares C(N^2, fN) * N^alpha against
    C(N^2, N) * 2^(-p(n)) * N^(-alpha fN); the parity variant compares
    C(N^2/2, fN/2)^2 * N^alpha against the even-class count
    C(N^2/2, 2N/3) * C(N^2/2, N/3) * 2^(-p(n)) * N^(-alpha fN). Each binomial
    is the continuous log-gamma form, good to N = 2^64; the parity count
    overstates log2 of the integer class size C(N^2/2, ceil(2N/3)) *
    C(N^2/2, N - ceil(2N/3)) by 0.33 to 1.79 bits at n <= 8. Defaults fix half
    the elements (uniform) or two thirds (parity). The log-binomial terms do
    not depend on alpha, so they are computed once per n for all alphas.
    """
    # variant: (alpha upper limit, as text, default fix fraction)
    limits = {"uniform": (1.0, "1", 0.5), "parity": (0.5, "1/2", 2.0 / 3.0)}
    if variant not in limits:
        raise ValueError(f"unknown variant {variant!r}")
    alpha_hi, alpha_text, default_f = limits[variant]
    f = default_f if fix_fraction is None else fix_fraction
    for alpha in alphas:
        if not 0.0 < alpha < alpha_hi:
            raise ValueError(f"{variant} variant needs alpha in (0, {alpha_text}), got {alpha}")
    if not 0.0 < f <= 1.0:
        raise ValueError(f"fix fraction must lie in (0, 1], got {f}")

    coeffs = tuple(float(c) for c in p_coeffs)
    reports = []
    with mpmath.workdps(CROSSOVER_PRECISION_DPS):
        f_mp = mpmath.mpf(f)
        terms = []  # (n, N, p(n), upper log-binomials, lower log-binomials) per n
        for n in range(1, n_max + 1):
            big_n = mpmath.mpf(2) ** n
            if variant == "uniform":
                up_bin = _log2_binomial(big_n**2, f_mp * big_n)
                low_bin = _log2_binomial(big_n**2, big_n)
            else:
                half = big_n**2 / 2
                up_bin = 2 * _log2_binomial(half, f_mp * big_n / 2)
                low_bin = _log2_binomial(half, 2 * big_n / 3) + _log2_binomial(half, big_n / 3)
            terms.append((n, big_n, mpmath.mpf(eval_poly(p_coeffs, n)), up_bin, low_bin))
        for alpha in alphas:
            alpha_mp = mpmath.mpf(alpha)
            rows = []
            for n, big_n, p_of_n, up_bin, low_bin in terms:
                upper = up_bin + alpha_mp * mpmath.mpf(n)
                lower = low_bin - p_of_n - alpha_mp * f_mp * big_n * mpmath.mpf(n)
                rows.append((n, float(upper), float(lower), bool(lower > upper)))
            n_star = next((n for n, _, _, crossed in rows if crossed), None)
            message = f"crossover at n = {n_star}" if n_star else f"no crossover found <= {n_max}"
            reports.append(CrossoverReport(variant, alpha, coeffs, f, n_star, tuple(rows), message))
    return tuple(reports)


def _log2_binomial(x: "mpmath.mpf", y: "mpmath.mpf") -> "mpmath.mpf":
    """Continuous log2 binomial via log-gamma; requires 0 <= y <= x."""
    if y < 0 or y > x:
        raise ValueError(f"binomial arguments out of range: ({x}, {y})")
    return (
        mpmath.loggamma(x + 1) - mpmath.loggamma(y + 1) - mpmath.loggamma(x - y + 1)
    ) / mpmath.log(2)
