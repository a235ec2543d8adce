"""Relation builders, adversary statistics, and the coherence progress measure.

A relation pairs YES oracles with NO oracles. Subset relations pair phase
oracles completely bipartitely; preimage relations pair in-place permutation
oracles through a one-to-one matching of the two cosets, built so that two
matched permutations agree everywhere except on the symmetric difference of
their preimage sets, where they are transpose-linked.

Families arrive as incidence rows, and each side of a relation is one
(count, V) row array: the two oracles of a pair disagree at a label exactly
where their rows differ. Phase relations and analytic preimage relations
hold the sets' sign rows, since matched permutations disagree exactly on
the symmetric difference of their preimage sets; a preimage relation is
materialized exactly when its block group has at most MAX_COSET_ITEMS
elements, and then holds 0-based image rows, one gather of the group's rows.
The statistics m, m' and l_max are one array formula over `x_items`,
`y_items` and the columns of the (P, 2) `pairs` array; W and the end-to-end
check apply all the oracles at once, as one sign multiply or one gather per
query, and run a stack of algorithms with one `relation_stats` call per stack.

The progress measure W sums the absolute control-register coherences across
related pairs; each oracle query can lower it by at most sqrt(l_max), which
is what turns relation statistics into query lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PureState, SubsetFamily
from .dilation import QueryAlgorithm
from .oracles import (
    block_group_order, block_permutations, permutation_rows, phase_signs, representative_rows,
    sign_rows,
)

# progress_trace materializes a control register per oracle; cap its size
MAX_CONTROL_ITEMS = 4096
# build_preimage_relation materializes the cosets only up to this group size
MAX_COSET_ITEMS = 1000
BOUND_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OracleRelation:
    """Pairs of YES/NO oracles, each side one read-only (count, V) row array.

    The two oracles of a pair disagree at label j exactly where their rows
    differ in column j - 1. A phase relation, and an analytic in-place
    relation, hold sign rows (`phase_signs` of the oracle's set, checked to
    be +-1): matched permutations disagree exactly on the symmetric
    difference of their preimage sets. A materialized coset relation holds
    0-based image rows, checked to permute. `pairs` is a read-only (P, 2)
    array of (x item, y item) indices.
    """

    kind: str
    universe: int
    x_items: np.ndarray
    y_items: np.ndarray
    pairs: np.ndarray
    analytic: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("phase", "in_place"):
            raise ValueError(f"unknown relation kind {self.kind!r}")
        pairs = np.array(self.pairs, dtype=np.intp)
        if not pairs.size:
            raise ValueError("relation has no pairs")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs have shape {pairs.shape}, expected (P, 2)")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)
        check = permutation_rows if self.kind == "in_place" and not self.analytic else sign_rows
        for side in ("x_items", "y_items"):
            what = f"{self.kind.replace('_', '-')} {side}"
            object.__setattr__(self, side, check(getattr(self, side), self.universe, what))
        px, py = pairs.T
        bad = (px < 0) | (px >= len(self.x_items)) | (py < 0) | (py >= len(self.y_items))
        if bad.any():
            xi, yi = pairs[int(np.argmax(bad))]
            raise ValueError(f"pair ({xi}, {yi}) references a missing item")

    def disagrees(self, xi: int, yi: int, label: int) -> bool:
        """Do the two oracles of a pair act differently on this input label?"""
        return bool(self.x_items[xi, label - 1] != self.y_items[yi, label - 1])


def _check_families(sx: SubsetFamily, sy: SubsetFamily) -> None:
    if sx.universe != sy.universe:
        raise ValueError("families must share a universe")
    if len(sx) == 0 or len(sy) == 0:
        raise ValueError("both families must be nonempty")
    try:
        SubsetFamily(sx.universe, np.concatenate([sx.incidence, sy.incidence]))
    except ValueError as exc:
        raise ValueError(
            f"families overlap ({exc}); YES and NO oracle classes must be disjoint") from exc


def _complete_relation(kind: str, sx: SubsetFamily, sy: SubsetFamily,
                       analytic: bool = False) -> OracleRelation:
    """Every (x, y) set pair related, x-major, each set's oracle its sign row."""
    pairs = np.stack(np.divmod(np.arange(len(sx) * len(sy)), len(sy)), axis=1)
    return OracleRelation(kind, sx.universe, phase_signs(sx.incidence),
                          phase_signs(sy.incidence), pairs, analytic)


def build_subset_relation(sx: SubsetFamily, sy: SubsetFamily) -> OracleRelation:
    """Complete bipartite relation between two disjoint phase-oracle families."""
    _check_families(sx, sy)
    return _complete_relation("phase", sx, sy)


def matched_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matched image rows for (..., V) incidence arrays of equal-size sets x and y,
    broadcast together: sigma_x is x's `representative_rows`, and sigma_y is
    sigma_x after swapping the r-th smallest labels of x \\ y and y \\ x, so the
    two agree on the intersection and outside the union, and are
    transpose-linked on the symmetric difference. Each row holds as many labels
    of x \\ y as of y \\ x, so masked reads and writes pair up row by row."""
    x, y = np.broadcast_arrays(x, y)
    only_x, only_y = x & ~y, y & ~x
    sigma_x = representative_rows(x)
    sigma_y = sigma_x.copy()
    sigma_y[only_y], sigma_y[only_x] = sigma_x[only_x], sigma_x[only_y]
    return sigma_x, sigma_y


def build_preimage_relation(
    sx: SubsetFamily,
    sy: SubsetFamily,
    block: int,
) -> OracleRelation:
    """Relation between in-place oracles whose preimage sets lie in sx vs sy.

    When the block group has at most MAX_COSET_ITEMS elements the full cosets
    are materialized and matched element by element (pair (tau o sigma_x*,
    tau o sigma_y*) for every block permutation tau): tau o sigma is the
    gather taus[:, sigma] over the group's image rows, and equal y candidates
    become one item, ranked by first appearance. Otherwise the relation is
    analytic: each subset is one item, held as its sign row, and every subset
    pair is related.
    """
    _check_families(sx, sy)
    if (sx.incidence.sum(axis=1) != block).any() or (sy.incidence.sum(axis=1) != block).any():
        raise ValueError(f"every subset must have exactly {block} members")
    v = sx.universe
    if block_group_order(v, block) > MAX_COSET_ITEMS:
        return _complete_relation("in_place", sx, sy, analytic=True)
    taus = block_permutations(v, block)
    # x items run over (x set, tau); y candidates over (x set, y set, tau)
    x_items = taus[:, representative_rows(sx.incidence)].swapaxes(0, 1).reshape(-1, v)
    sigma_y = matched_rows(sx.incidence[:, None], sy.incidence[None])[1]
    candidates = taus[:, sigma_y].transpose(1, 2, 0, 3).reshape(-1, v)
    y_items, first, inverse = np.unique(
        candidates, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    # candidate (x set, y set, tau) pairs x item (x set, tau) with its first-ranked y item
    c, t = np.arange(len(candidates)), len(taus)
    pairs = np.stack([c // (len(sy) * t) * t + c % t, np.argsort(order)[inverse.reshape(-1)]], 1)
    return OracleRelation("in_place", v, x_items, y_items[order], pairs)


@dataclass(frozen=True)
class AdversaryStats:
    m: int
    m_prime: int
    l_max: int
    per_input_l: dict | None = None

    def __post_init__(self) -> None:
        if self.m < 1 or self.m_prime < 1:
            raise ValueError("minimum degrees must be at least 1")
        if self.l_max < 0:
            raise ValueError("l_max must be nonnegative")


def relation_stats(rel: OracleRelation) -> AdversaryStats:
    """Exact m, m', and l_max of a relation, with its per-label l tables.

    differ marks, per pair and label, where the two oracles disagree;
    per_input_l["l_x"][x, j - 1] counts the partners of x that disagree with
    it at label j (l_y likewise), and l_max is the largest l_x * l_y over the
    disagreeing points of the pairs.
    """
    rx, ry, (px, py), v = rel.x_items, rel.y_items, rel.pairs.T, rel.universe
    differ = rx[px] != ry[py]
    # bincount each oracle's disagreeing (pair, label) cells into its row of the table
    l_x, l_y = (
        np.bincount((idx[:, None] * v + np.arange(v))[differ], minlength=len(r) * v).reshape(-1, v)
        for idx, r in ((px, rx), (py, ry))
    )
    l_max = int(np.max(differ * l_x[px] * l_y[py]))
    m = int(np.bincount(px, minlength=len(rx)).min())
    m_prime = int(np.bincount(py, minlength=len(ry)).min())
    return AdversaryStats(m, m_prime, l_max, {"l_x": l_x, "l_y": l_y})


def adversary_bound(stats: AdversaryStats, epsilon: float) -> float:
    """Query lower bound (1 - 2 sqrt(eps(1-eps))) sqrt(m m' / l_max)."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"degenerate error rate {epsilon}; need 0 <= epsilon <= 1/2")
    if stats.l_max == 0:
        raise ValueError("relation has no disagreement anywhere; no bound follows")
    coeff = 1.0 - 2.0 * math.sqrt(epsilon * (1.0 - epsilon))
    return coeff * math.sqrt(stats.m * stats.m_prime / stats.l_max)


@dataclass(frozen=True)
class ProgressTrace:
    relation: OracleRelation
    w_values: tuple[float, ...]
    drops: tuple[float, ...]
    sqrt_lmax: float

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.w_values):
            raise ValueError("progress values must be nonnegative")

    @property
    def max_drop(self) -> float:
        return max(self.drops) if self.drops else 0.0


def _query_states(
    rel: OracleRelation,
    alg: QueryAlgorithm,
    initial_aq: PureState | np.ndarray | None,
    weights: np.ndarray,
) -> list[np.ndarray]:
    """The (trials, c, V*Q) stack of every trial's run against every oracle,
    before and after each query.

    Row i of a trial starts as weights[i] times its initial state and meets
    oracle i at each query: all trials and oracles act at once, as one batched
    matmul and one sign multiply or one gather per query.
    """
    if rel.analytic:
        raise ValueError(
            "this relation is analytic: its cosets were never materialized, so it has "
            "no oracle items to run; use relation_stats on it instead"
        )
    v = rel.universe
    if alg.dim_a != v:
        raise ValueError(f"algorithm register A has dim {alg.dim_a}, oracles act on {v}")
    d_aq = alg.dim_a * alg.dim_b
    amps = alg.initial_rows(np.eye(1, d_aq) if initial_aq is None else initial_aq)
    rows = np.concatenate([rel.x_items, rel.y_items])
    # an in-place oracle moves the amplitude of label a to its image
    sources = np.argsort(rows, axis=1)[None, :, :, None] if rel.kind == "in_place" else None
    shape = (len(alg.stack), len(rows), d_aq)
    states = [np.broadcast_to(weights[:, None] * amps[:, None, :], shape)]
    for k in range(alg.queries):
        mats = (states[-1] @ alg.stack[:, k].mT).reshape(*shape[:2], v, -1)
        if rel.kind == "phase":
            mats = mats * rows[:, :, None]
        else:
            mats = np.take_along_axis(mats, sources, axis=2)
        states.append(mats.reshape(shape))
    return states


def progress_trace(
    rel: OracleRelation,
    alg: QueryAlgorithm,
    initial_aq: PureState | np.ndarray | None = None,
) -> ProgressTrace | tuple[ProgressTrace, ...]:
    """Track the coherence measure W across the queries of an algorithm.

    A stacked algorithm gives one trace per trial, from one run of the whole
    stack and one `relation_stats` call; its initial state is shared, or one
    row per trial. The control register spans the individual oracles of the
    relation, so analytic relations (whose cosets were never materialized)
    are rejected; use relation_stats on those.
    """
    n_x, n_y = len(rel.x_items), len(rel.y_items)
    if n_x + n_y > MAX_CONTROL_ITEMS:
        raise ValueError(f"control register over {n_x + n_y} oracles exceeds the cap")
    weights = np.repeat([1.0 / math.sqrt(2 * n_x), 1.0 / math.sqrt(2 * n_y)], [n_x, n_y])
    states = _query_states(rel, alg, initial_aq, weights)
    sqrt_lmax = math.sqrt(relation_stats(rel).l_max)
    px, py = rel.pairs.T
    # W sums |<x|y>| over the related pairs of control states
    w = np.stack([
        np.abs((s[:, :n_x] @ s[:, n_x:].conj().mT)[:, px, py]).sum(axis=-1) for s in states
    ], axis=1)
    traces = tuple(
        ProgressTrace(rel, tuple(values), tuple(drops), sqrt_lmax)
        for values, drops in zip(w.tolist(), (w[:, :-1] - w[:, 1:]).tolist())
    )
    return traces if alg.stacked else traces[0]


@dataclass(frozen=True)
class BoundCheckReport:
    per_item_success: tuple[float, ...]
    worst_success: float
    epsilon: float
    queries: int
    bound: float
    satisfied: bool


def end_to_end_bound_check(
    rel: OracleRelation,
    alg: QueryAlgorithm,
    accept_element: np.ndarray,
    initial_aq: PureState | np.ndarray | None = None,
) -> BoundCheckReport | tuple[BoundCheckReport, ...]:
    """Verify that no distinguisher beats the adversary bound.

    Runs the algorithm against every oracle item, scores the worst-case
    success (accepting on YES items, rejecting on NO items), and checks that
    the query count is at least the bound implied by that success rate. A
    stacked algorithm takes one accept element shared by every trial or a
    (trials, d, d) stack of them, checked at once, and gives one report per
    trial from one `relation_stats` call.
    """
    d_aq = alg.dim_a * alg.dim_b
    e = np.asarray(accept_element, dtype=np.complex128)
    if e.shape != (d_aq, d_aq) and (not alg.stacked or e.shape != (len(alg.stack), d_aq, d_aq)):
        raise ValueError(f"accept element has shape {e.shape}, expected ({d_aq}, {d_aq})")
    e = e.reshape(-1, d_aq, d_aq)
    eigs = np.linalg.eigvalsh(e)
    for bad, need in (
        (np.max(np.abs(e - e.conj().mT), axis=(1, 2)) > 1e-10, "be Hermitian"),
        ((eigs[:, 0] < -1e-9) | (eigs[:, -1] > 1 + 1e-9), "satisfy 0 <= E <= identity"),
    ):
        if bad.any():
            raise ValueError(f"accept element {int(np.argmax(bad))} must {need}")

    n_x = len(rel.x_items)
    ones = np.ones(n_x + len(rel.y_items))
    state = _query_states(rel, alg, initial_aq, ones)[-1] @ alg.stack[:, -1].mT
    p_accept = np.einsum("tid,tid->ti", state.conj(), state @ e.mT).real
    successes = np.concatenate([p_accept[:, :n_x], 1.0 - p_accept[:, n_x:]], axis=1)
    # worst-case success at or below a coin flip carries no constraint
    stats = relation_stats(rel) if np.any(successes.min(axis=1) > 0.5) else None
    reports = []
    for row in successes.tolist():
        epsilon = 1.0 - min(row)
        bound = 0.0 if epsilon >= 0.5 else adversary_bound(stats, epsilon)
        reports.append(BoundCheckReport(
            tuple(row), min(row), epsilon, alg.queries, bound, alg.queries >= bound - BOUND_TOL
        ))
    return tuple(reports) if alg.stacked else reports[0]
