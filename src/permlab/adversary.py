"""Relation builders, adversary statistics, and the coherence progress measure.

A relation pairs YES oracles with NO oracles. Subset relations pair phase
oracles completely bipartitely; preimage relations pair in-place permutation
oracles through a one-to-one matching of the two cosets, built so that two
matched permutations agree everywhere except on the symmetric difference of
their preimage sets, where they are transpose-linked.

The progress measure W sums the absolute control-register coherences across
related pairs; each oracle query can lower it by at most sqrt(l_max), which
is what turns relation statistics into query lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Permutation, PureState, Subset, SubsetFamily
from .dilation import QueryAlgorithm
from .oracles import block_permutations, phase_signs, representative_sigma

# progress_trace materializes a control register per oracle; cap its size
MAX_CONTROL_ITEMS = 4096
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class OracleRelation:
    """Pairs of YES/NO oracles plus the structure needed for statistics.

    kind 'phase' stores Subsets as items; kind 'in_place' stores Permutations.
    Analytic relations keep only subset-level items (one per preimage set);
    their statistics are computed from element frequencies instead of
    materialized pairs.
    """

    kind: str
    universe: int
    x_items: tuple
    y_items: tuple
    pairs: tuple[tuple[int, int], ...]
    x_sets: tuple[Subset, ...] | None = None
    y_sets: tuple[Subset, ...] | None = None
    analytic: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("phase", "in_place"):
            raise ValueError(f"unknown relation kind {self.kind!r}")
        if not self.pairs:
            raise ValueError("relation has no pairs")
        for xi, yi in self.pairs:
            if not (0 <= xi < len(self.x_items) and 0 <= yi < len(self.y_items)):
                raise ValueError(f"pair ({xi}, {yi}) references a missing item")

    def disagrees(self, xi: int, yi: int, label: int) -> bool:
        """Do the two oracles of a pair act differently on this input label?"""
        x, y = self.x_items[xi], self.y_items[yi]
        if self.kind == "phase":
            return (label in x) != (label in y)
        return x(label) != y(label)

    def disagreement_labels(self, xi: int, yi: int) -> tuple[int, ...]:
        return tuple(
            lab for lab in range(1, self.universe + 1) if self.disagrees(xi, yi, lab)
        )


def build_subset_relation(sx: SubsetFamily, sy: SubsetFamily) -> OracleRelation:
    """Complete bipartite relation between two disjoint phase-oracle families."""
    if sx.universe != sy.universe:
        raise ValueError("families must share a universe")
    if len(sx) == 0 or len(sy) == 0:
        raise ValueError("both families must be nonempty")
    members_x = {s.members for s in sx}
    if any(s.members in members_x for s in sy):
        raise ValueError("families overlap; YES and NO oracle classes must be disjoint")
    pairs = tuple((xi, yi) for xi in range(len(sx)) for yi in range(len(sy)))
    return OracleRelation(
        "phase", sx.universe, tuple(sx.sets), tuple(sy.sets), pairs,
        x_sets=tuple(sx.sets), y_sets=tuple(sy.sets),
    )


def matched_representatives(
    sx: Subset, sy: Subset, block: int
) -> tuple[Permutation, Permutation]:
    """A matched pair of permutations with preimage sets sx and sy.

    The second permutation equals the first composed with the involution
    swapping the i-th smallest elements of sx\\sy and sy\\sx, so the two agree
    on the intersection and outside the union, and are transpose-linked on
    the symmetric difference.
    """
    if len(sx) != block or len(sy) != block:
        raise ValueError("both subsets must have exactly `block` members")
    sigma_x = representative_sigma(sx, block)
    only_x = sx.difference(sy).members
    only_y = sy.difference(sx).members
    swap = list(range(1, sx.universe + 1))
    for a, b in zip(only_x, only_y):
        swap[a - 1], swap[b - 1] = b, a
    pi = Permutation(sx.universe, tuple(swap))
    sigma_y = sigma_x.compose(pi)
    return sigma_x, sigma_y


def build_preimage_relation(
    sx: SubsetFamily,
    sy: SubsetFamily,
    block: int,
    materialize_cosets: bool | None = None,
    coset_cap: int = 1000,
) -> OracleRelation:
    """Relation between in-place oracles whose preimage sets lie in sx vs sy.

    When the block group is small enough the full cosets are materialized and
    matched element by element (pair (tau o sigma_x*, tau o sigma_y*) for
    every block permutation tau). Otherwise one representative pair per
    subset pair is kept and statistics come from the subset structure.
    """
    if sx.universe != sy.universe:
        raise ValueError("families must share a universe")
    if any(len(s) != block for s in sx) or any(len(s) != block for s in sy):
        raise ValueError(f"every subset must have exactly {block} members")
    members_x = {s.members for s in sx}
    if any(s.members in members_x for s in sy):
        raise ValueError("families overlap; YES and NO oracle classes must be disjoint")
    v = sx.universe
    group_size = math.factorial(block) * math.factorial(v - block)
    if materialize_cosets is None:
        materialize_cosets = group_size <= coset_cap
    if materialize_cosets:
        if group_size > coset_cap:
            raise ValueError(
                f"block group has {group_size} elements, above the cap {coset_cap}; "
                "build the relation analytically instead"
            )
        taus = block_permutations(v, block)
        x_items = [
            tau.compose(representative_sigma(s, block)) for s in sx for tau in taus
        ]
        y_items: list[Permutation] = []
        y_index: dict[tuple[int, ...], int] = {}
        pairs: list[tuple[int, int]] = []
        t_count = len(taus)
        for ix, s_x in enumerate(sx):
            for s_y in sy:
                _, sigma_y = matched_representatives(s_x, s_y, block)
                for it, tau in enumerate(taus):
                    y_perm = tau.compose(sigma_y)
                    key = y_perm.image
                    if key not in y_index:
                        y_index[key] = len(y_items)
                        y_items.append(y_perm)
                    pairs.append((ix * t_count + it, y_index[key]))
        return OracleRelation(
            "in_place", v, tuple(x_items), tuple(y_items), tuple(pairs),
            x_sets=tuple(sx.sets), y_sets=tuple(sy.sets),
        )
    pairs = tuple((xi, yi) for xi in range(len(sx)) for yi in range(len(sy)))
    x_items = tuple(representative_sigma(s, block) for s in sx)
    y_reps = tuple(
        matched_representatives(sx.sets[0], s, block)[1] for s in sy
    )
    return OracleRelation(
        "in_place", v, x_items, y_reps, pairs,
        x_sets=tuple(sx.sets), y_sets=tuple(sy.sets), analytic=True,
    )


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


def relation_stats(rel: OracleRelation, keep_tables: bool = False) -> AdversaryStats:
    """Exact m, m', and l_max of a relation.

    For analytic preimage relations the counts come from subset element
    frequencies: a matched pair disagrees at a label exactly when the label
    lies in the symmetric difference of the two preimage sets, so
    l_{x,j} counts related NO sets on the wrong side of j and vice versa.
    """
    if rel.analytic:
        return _analytic_stats(rel, keep_tables)
    x_adj: list[list[int]] = [[] for _ in rel.x_items]
    y_adj: list[list[int]] = [[] for _ in rel.y_items]
    for xi, yi in rel.pairs:
        x_adj[xi].append(yi)
        y_adj[yi].append(xi)
    m = min(len(a) for a in x_adj)
    m_prime = min(len(a) for a in y_adj)
    labels = range(1, rel.universe + 1)
    l_x = {
        (xi, lab): sum(1 for yi in x_adj[xi] if rel.disagrees(xi, yi, lab))
        for xi in range(len(rel.x_items))
        for lab in labels
    }
    l_y = {
        (yi, lab): sum(1 for xi in y_adj[yi] if rel.disagrees(xi, yi, lab))
        for yi in range(len(rel.y_items))
        for lab in labels
    }
    l_max = 0
    for xi, yi in rel.pairs:
        for lab in labels:
            if rel.disagrees(xi, yi, lab):
                l_max = max(l_max, l_x[(xi, lab)] * l_y[(yi, lab)])
    tables = {"l_x": l_x, "l_y": l_y} if keep_tables else None
    return AdversaryStats(m, m_prime, l_max, tables)


def _analytic_stats(rel: OracleRelation, keep_tables: bool) -> AdversaryStats:
    x_sets, y_sets = rel.x_sets, rel.y_sets
    x_deg: dict[int, int] = {}
    y_deg: dict[int, int] = {}
    for xi, yi in rel.pairs:
        x_deg[xi] = x_deg.get(xi, 0) + 1
        y_deg[yi] = y_deg.get(yi, 0) + 1
    m = min(x_deg.values())
    m_prime = min(y_deg.values())
    nu_x = SubsetFamily(rel.universe, x_sets).element_counts()
    nu_y = SubsetFamily(rel.universe, y_sets).element_counts()
    n_x, n_y = len(x_sets), len(y_sets)
    l_max = 0
    l_x_tab: dict = {}
    l_y_tab: dict = {}
    for xi, yi in rel.pairs:
        s_x, s_y = x_sets[xi], y_sets[yi]
        for lab in s_x.symmetric_difference(s_y).members:
            l_x = n_y - nu_y.get(lab, 0) if lab in s_x else nu_y.get(lab, 0)
            l_y = n_x - nu_x.get(lab, 0) if lab in s_y else nu_x.get(lab, 0)
            l_max = max(l_max, l_x * l_y)
            if keep_tables:
                l_x_tab[(xi, lab)] = l_x
                l_y_tab[(yi, lab)] = l_y
    tables = {"l_x": l_x_tab, "l_y": l_y_tab} if keep_tables else None
    return AdversaryStats(m, m_prime, l_max, tables)


def adversary_bound(stats: AdversaryStats, epsilon: float) -> float:
    """Query lower bound (1 - 2 sqrt(eps(1-eps))) sqrt(m m' / l_max)."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"degenerate error rate {epsilon}; need 0 <= epsilon <= 1/2")
    if stats.l_max == 0:
        raise ValueError("relation has no disagreement anywhere; no bound follows")
    coeff = 1.0 - 2.0 * math.sqrt(epsilon * (1.0 - epsilon))
    return coeff * math.sqrt(stats.m * stats.m_prime / stats.l_max)


def contrapositive_bias_bound(stats: AdversaryStats, queries: float) -> float:
    """Bias reachable with q queries: epsilon < (1/2) sqrt(2 q / sqrt(m m'/l_max))."""
    if queries < 0:
        raise ValueError("query count must be nonnegative")
    base = math.sqrt(stats.m * stats.m_prime / stats.l_max)
    return 0.5 * math.sqrt(2.0 * queries / base)


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


def _apply_item(state: np.ndarray, rel: OracleRelation, item) -> np.ndarray:
    """Apply one oracle to the A axis of a (..., V, Q)-shaped state."""
    if rel.kind == "phase":
        return state * phase_signs(item)[:, None]
    inv = np.argsort(item.zero_based())
    return state[..., inv, :]


def progress_trace(
    rel: OracleRelation,
    alg: QueryAlgorithm,
    initial_aq: PureState | None = None,
) -> ProgressTrace:
    """Track the coherence measure W across the queries of an algorithm.

    The control register spans the individual oracles of the relation, so
    analytic relations (whose cosets were never materialized) are rejected;
    use the analytic statistics path for those.
    """
    if rel.analytic:
        raise ValueError(
            "progress_trace needs materialized oracle items; this relation is "
            "analytic, use relation_stats on it instead"
        )
    n_x, n_y = len(rel.x_items), len(rel.y_items)
    c = n_x + n_y
    if c > MAX_CONTROL_ITEMS:
        raise ValueError(f"control register over {c} oracles exceeds the cap")
    v = rel.universe
    if alg.dim_a != v:
        raise ValueError(f"algorithm register A has dim {alg.dim_a}, oracles act on {v}")
    d_aq = alg.dim_a * alg.dim_b
    if initial_aq is None:
        initial_aq = PureState.basis(d_aq, 1)
    if initial_aq.dim != d_aq:
        raise ValueError(f"initial AQ state has dim {initial_aq.dim}, expected {d_aq}")

    weights = np.empty(c, dtype=np.complex128)
    weights[:n_x] = 1.0 / math.sqrt(2 * n_x)
    weights[n_x:] = 1.0 / math.sqrt(2 * n_y)
    state = weights[:, None] * initial_aq.amplitudes[None, :]  # (c, V*Q)

    stats = relation_stats(rel)
    sqrt_lmax = math.sqrt(stats.l_max)

    def w_of(mat: np.ndarray) -> float:
        rho_c = mat @ mat.conj().T
        return float(
            sum(abs(rho_c[xi, n_x + yi]) for xi, yi in rel.pairs)
        )

    w_values = [w_of(state)]
    for u in alg.query_unitaries:
        state = state @ u.T
        shaped = state.reshape(c, v, alg.dim_b)
        rows = [
            _apply_item(shaped[i], rel, (rel.x_items + rel.y_items)[i])
            for i in range(c)
        ]
        state = np.stack(rows).reshape(c, d_aq)
        w_values.append(w_of(state))
    drops = tuple(a - b for a, b in zip(w_values, w_values[1:]))
    return ProgressTrace(rel, tuple(w_values), drops, sqrt_lmax)


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
    initial_aq: PureState | None = None,
) -> BoundCheckReport:
    """Verify that no distinguisher beats the adversary bound.

    Runs the algorithm against every oracle item, scores the worst-case
    success (accepting on YES items, rejecting on NO items), and checks that
    the query count is at least the bound implied by that success rate.
    """
    if rel.analytic:
        raise ValueError("end_to_end_bound_check needs materialized oracle items")
    v = rel.universe
    if alg.dim_a != v:
        raise ValueError(f"algorithm register A has dim {alg.dim_a}, oracles act on {v}")
    d_aq = alg.dim_a * alg.dim_b
    if initial_aq is None:
        initial_aq = PureState.basis(d_aq, 1)
    e = np.asarray(accept_element, dtype=np.complex128)
    if e.shape != (d_aq, d_aq):
        raise ValueError(f"accept element has shape {e.shape}, expected ({d_aq}, {d_aq})")
    if np.max(np.abs(e - e.conj().T)) > 1e-10:
        raise ValueError("accept element must be Hermitian")
    eigs = np.linalg.eigvalsh(e)
    if eigs[0] < -1e-9 or eigs[-1] > 1 + 1e-9:
        raise ValueError("accept element must satisfy 0 <= E <= identity")

    successes = []
    for side, items in (("x", rel.x_items), ("y", rel.y_items)):
        for item in items:
            psi = initial_aq.amplitudes.copy()
            for u in alg.query_unitaries:
                psi = u @ psi
                psi = _apply_item(psi.reshape(v, alg.dim_b), rel, item).reshape(d_aq)
            psi = alg.final_unitary @ psi
            p_accept = float(np.real(psi.conj() @ e @ psi))
            successes.append(p_accept if side == "x" else 1.0 - p_accept)
    worst = min(successes)
    epsilon = 1.0 - worst
    if epsilon >= 0.5:
        # worst-case success at or below a coin flip carries no constraint
        bound = 0.0
    else:
        bound = adversary_bound(relation_stats(rel), epsilon)
    return BoundCheckReport(
        tuple(successes), worst, epsilon, alg.queries, bound,
        alg.queries >= bound - BOUND_TOL,
    )
