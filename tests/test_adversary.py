import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import adversary, harness, suite
from permlab.adversary import (
    AdversaryStats,
    OracleRelation,
    _complete_relation,
    adversary_bound,
    build_preimage_relation,
    build_subset_relation,
    end_to_end_bound_check,
    matched_rows,
    progress_trace,
    relation_stats,
)
from permlab.core import (
    PureState,
    Subset,
    SubsetFamily,
    enumerate_family,
    philox_stream,
)
from permlab.dilation import QueryAlgorithm, random_query_algorithm
from permlab.oracles import phase_signs, representative_sigma
from permlab.verifier import parity_class
from reference import (
    Permutation,
    as_permutation,
    basis_state,
    block_permutation_objects,
    brute_stats,
    compose,
    family_of_sets,
    haar_unitary,
    identity_algorithm,
    invert,
    preimage_set,
    sets_of,
)


def contrapositive_bias_bound(stats, queries):
    """Bias reachable with q queries: epsilon < (1/2) sqrt(2 q / sqrt(m m'/l_max))."""
    if queries < 0:
        raise ValueError("query count must be nonnegative")
    base = math.sqrt(stats.m * stats.m_prime / stats.l_max)
    return 0.5 * math.sqrt(2.0 * queries / base)


def family_of(universe, *member_tuples):
    return family_of_sets(universe, tuple(Subset(universe, m) for m in member_tuples))


def matched_pair(sx, sy):
    """The package's `matched_rows` for two subsets, as `Permutation`s."""
    labels = np.arange(1, sx.universe + 1)
    rows = matched_rows(np.isin(labels, sx.members), np.isin(labels, sy.members))
    return tuple(as_permutation(row) for row in rows)


def reference_matched_pair(sx, sy):
    """Reference route on `Permutation`s: sigma_x* composed with the involution
    swapping the i-th smallest labels of sx - sy and sy - sx."""
    sigma_x = as_permutation(representative_sigma(sx, len(sx)))
    swap = list(range(1, sx.universe + 1))
    only_x, only_y = set(sx.members) - set(sy.members), set(sy.members) - set(sx.members)
    for a, b in zip(sorted(only_x), sorted(only_y)):
        swap[a - 1], swap[b - 1] = b, a
    return sigma_x, compose(sigma_x, Permutation(sx.universe, tuple(swap)))


def reference_coset_relation(sx, sy, block):
    """The coset relation built one `Permutation` at a time: x items tau o sigma_x*
    per (x set, tau), y items tau o sigma_y* per (x set, y set, tau), each new
    image appended once, in order of first appearance."""
    taus = block_permutation_objects(sx.universe, block)
    x_items = [compose(tau, as_permutation(representative_sigma(s, block)))
               for s in sets_of(sx) for tau in taus]
    y_items, y_index, pairs = [], {}, []
    for ix, s_x in enumerate(sets_of(sx)):
        for s_y in sets_of(sy):
            sigma_y = reference_matched_pair(s_x, s_y)[1]
            for it, tau in enumerate(taus):
                y_perm = compose(tau, sigma_y)
                if y_perm.image not in y_index:
                    y_index[y_perm.image] = len(y_items)
                    y_items.append(y_perm)
                pairs.append((ix * len(taus) + it, y_index[y_perm.image]))
    return x_items, y_items, pairs


def brute_tables(rel):
    """l_x and l_y recounted from `disagrees`, label j in column j - 1."""
    related = set(map(tuple, rel.pairs.tolist()))
    labels = range(1, rel.universe + 1)
    n_x, n_y = len(rel.x_items), len(rel.y_items)
    l_x = [
        [sum(1 for y in range(n_y) if (x, y) in related and rel.disagrees(x, y, lab)) for lab in labels]
        for x in range(n_x)
    ]
    l_y = [
        [sum(1 for x in range(n_x) if (x, y) in related and rel.disagrees(x, y, lab)) for lab in labels]
        for y in range(n_y)
    ]
    return np.array(l_x), np.array(l_y)


def apply_item(state, rel, item):
    """Apply one oracle, a sign row or an image row, to the A axis of a
    (..., V, Q)-shaped state."""
    if rel.kind == "phase":
        return state * item[:, None]
    inv = np.argsort(item)
    return state[..., inv, :]


def reference_w_values(rel, alg, initial_aq):
    """W after each query, one oracle at a time, from the whole control Gram matrix."""
    n_x, n_y = len(rel.x_items), len(rel.y_items)
    items = [*rel.x_items, *rel.y_items]
    weights = np.array([1 / math.sqrt(2 * n_x)] * n_x + [1 / math.sqrt(2 * n_y)] * n_y)
    state = weights[:, None] * initial_aq.amplitudes[None, :]

    def w_of(mat):
        rho_c = mat @ mat.conj().T
        return sum(abs(rho_c[xi, n_x + yi]) for xi, yi in rel.pairs.tolist())

    values = [w_of(state)]
    for u in alg.unitaries[:-1]:
        shaped = (state @ u.T).reshape(len(items), rel.universe, alg.dim_b)
        state = np.stack(
            [apply_item(shaped[i], rel, item) for i, item in enumerate(items)]
        ).reshape(len(items), -1)
        values.append(w_of(state))
    return values


def reference_successes(rel, alg, accept, initial_aq):
    """Per-item success, running the algorithm against one oracle at a time."""
    successes = []
    for side, items in (("x", rel.x_items), ("y", rel.y_items)):
        for item in items:
            psi = initial_aq.amplitudes.copy()
            for u in alg.unitaries[:-1]:
                psi = u @ psi
                psi = apply_item(psi.reshape(rel.universe, alg.dim_b), rel, item).reshape(-1)
            psi = alg.unitaries[-1] @ psi
            p_accept = float(np.real(psi.conj() @ accept @ psi))
            successes.append(p_accept if side == "x" else 1.0 - p_accept)
    return successes


def subset_of_mask(v, mask):
    return Subset(v, tuple(j + 1 for j in range(v) if mask >> j & 1))


@st.composite
def direct_relations(draw):
    """Phase or in-place relations over V <= 6 with arbitrary pairs, every item
    paired: phase items are the sign rows of subsets, in-place items image rows."""
    v = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["phase", "in_place"]))
    if kind == "phase":
        item = st.integers(0, 2**v - 1).map(
            lambda mask: phase_signs([mask >> j & 1 for j in range(v)]))
    else:
        item = st.permutations(range(v))
    x_items = tuple(draw(st.lists(item, min_size=1, max_size=4)))
    y_items = tuple(draw(st.lists(item, min_size=1, max_size=4)))
    n_x, n_y = len(x_items), len(y_items)
    grid = draw(st.lists(st.booleans(), min_size=n_x * n_y, max_size=n_x * n_y))
    pairs = {(x, y) for x in range(n_x) for y in range(n_y) if grid[x * n_y + y]}
    pairs |= {(x, draw(st.integers(0, n_y - 1))) for x in range(n_x)}
    pairs |= {(draw(st.integers(0, n_x - 1)), y) for y in range(n_y)}
    order = draw(st.permutations(sorted(pairs)))
    return OracleRelation(kind, v, x_items, y_items, tuple(order))


@st.composite
def preimage_families(draw):
    """Two disjoint families of block-2 or block-3 subsets of [6]."""
    block = draw(st.sampled_from([2, 3]))
    subsets = [Subset(6, c) for c in itertools.combinations(range(1, 7), block)]
    chosen = draw(st.lists(st.sampled_from(subsets), min_size=2, max_size=5, unique=True))
    split = draw(st.integers(1, len(chosen) - 1))
    return family_of_sets(6, chosen[:split]), family_of_sets(6, chosen[split:]), block


@st.composite
def traced_relations(draw):
    """Subset relations over V <= 5, or materialized preimage relations over [6]."""
    if draw(st.booleans()):
        v = draw(st.integers(2, 5))
        masks = draw(st.lists(st.integers(0, 2**v - 1), min_size=2, max_size=6, unique=True))
        split = draw(st.integers(1, len(masks) - 1))
        return build_subset_relation(
            family_of_sets(v, [subset_of_mask(v, m) for m in masks[:split]]),
            family_of_sets(v, [subset_of_mask(v, m) for m in masks[split:]]),
        )
    sx, sy, block = draw(preimage_families())
    return build_preimage_relation(sx, sy, block)


def analytic_relation(sx, sy):
    """The analytic in-place relation of two families, as `build_preimage_relation`
    builds it past MAX_COSET_ITEMS: each set one sign row, every pair related."""
    return _complete_relation("in_place", sx, sy, analytic=True)


def contains_one(rows):
    return rows[:, 0]


N1_X = family_of(4, (2, 4))
N1_Y = family_of(4, (1, 3))


class TestSubsetRelation:
    def test_complete_bipartite_degrees(self):
        rel = build_subset_relation(family_of(6, (1, 2), (1, 3)),
                                    family_of(6, (1, 4, 5), (1, 4, 6), (1, 5, 6)))
        assert len(rel.pairs) == 6
        stats = relation_stats(rel)
        assert stats.m == 3 and stats.m_prime == 2

    def test_singleton_families(self):
        rel = build_subset_relation(family_of(4, (1,)), family_of(4, (2,)))
        assert rel.pairs.tolist() == [[0, 0]]

    def test_core_containment_construction(self):
        core = (1,)
        sy = enumerate_family(6, 3, lambda rows: rows[:, [c - 1 for c in core]].all(axis=1))
        assert all(1 in s.members for s in sets_of(sy))
        assert len(sy) == 10

    def test_overlapping_families_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            build_subset_relation(family_of(4, (1, 2)), family_of(4, (1, 2)))

    def test_stats_match_brute_force_v6(self):
        sx = enumerate_family(6, 2, contains_one)
        sy = enumerate_family(6, 3, contains_one)
        rel = build_subset_relation(sx, sy)
        stats = relation_stats(rel)
        assert (stats.m, stats.m_prime, stats.l_max) == brute_stats(rel)

    def test_distributed_fraction_bound_one_sided(self):
        sx = enumerate_family(6, 2, contains_one)
        sy = enumerate_family(6, 3, contains_one)
        rel = build_subset_relation(sx, sy)
        stats = relation_stats(rel)
        fraction = max(
            nu / len(sx) for lab, nu in sx.element_counts().items() if lab != 1
        )
        cap = len(sx) * len(sy) * fraction
        for xi, yi in rel.pairs:
            for lab in set(sets_of(sx)[xi].members) - set(sets_of(sy)[yi].members):
                prod = (
                    stats.per_input_l["l_x"][xi, lab - 1]
                    * stats.per_input_l["l_y"][yi, lab - 1]
                )
                assert prod <= cap + 1e-9


def spectral_sides(rel):
    """Both sides of ||Gamma|| / max_j ||Gamma_j|| >= sqrt(m m' / l_max), the
    left from dense 2-norms: Gamma is the 0/1 pair matrix and Gamma_j its
    restriction to the pairs whose oracles disagree at label j; the right
    from relation_stats."""
    rx, ry, (px, py) = rel.x_items, rel.y_items, rel.pairs.T
    gammas = np.zeros((rel.universe + 1, len(rx), len(ry)))
    gammas[0, px, py] = 1.0
    gammas[1:, px, py] = (rx[px] != ry[py]).T
    # ||A||^2 is the top eigenvalue of A A^T, taken on A's shorter side
    short = gammas if len(rx) <= len(ry) else gammas.mT
    norms = np.sqrt(np.linalg.eigvalsh(short @ short.mT)[:, -1])
    stats = relation_stats(rel)
    return norms[0] / norms[1:].max(), math.sqrt(stats.m * stats.m_prime / stats.l_max)


class TestStatsMatchReference:
    @staticmethod
    def assert_stats_match_brute_force(rel):
        stats = relation_stats(rel)
        assert (stats.m, stats.m_prime, stats.l_max) == brute_stats(rel)
        l_x, l_y = brute_tables(rel)
        assert np.array_equal(stats.per_input_l["l_x"], l_x)
        assert np.array_equal(stats.per_input_l["l_y"], l_y)

    @given(direct_relations())
    @settings(max_examples=60, deadline=None)
    def test_direct_relations_match_brute_force(self, rel):
        self.assert_stats_match_brute_force(rel)

    @given(direct_relations())
    @settings(max_examples=60, deadline=None)
    def test_suite_recount_matches_the_per_pair_loop(self, rel):
        assert suite._brute_force_stats(rel) == brute_stats(rel)

    def test_suite_recount_matches_the_per_pair_loop_on_subset_relations(self):
        for v in (6, 8):  # criterion 8's relations
            family = lambda k: enumerate_family(v, k, lambda rows: rows[:, 0])
            rel = build_subset_relation(family(2), family(3))
            assert suite._brute_force_stats(rel) == brute_stats(rel)
        rng = philox_stream(8)
        sx, sy = enumerate_family(7, 2), enumerate_family(7, 4)
        pairs = np.argwhere(rng.random((len(sx), len(sy))) < 0.3)
        pairs = np.concatenate([pairs, np.stack([np.arange(len(sx)), np.zeros(len(sx), int)], 1),
                                np.stack([np.zeros(len(sy), int), np.arange(len(sy))], 1)])
        rel = OracleRelation("phase", 7, phase_signs(sx.incidence), phase_signs(sy.incidence),
                             np.unique(pairs, axis=0))
        assert suite._brute_force_stats(rel) == brute_stats(rel)

    @given(preimage_families())
    @settings(max_examples=25, deadline=None)
    def test_analytic_relations_match_brute_force(self, families):
        sx, sy, block = families
        rel = analytic_relation(sx, sy)
        assert rel.analytic
        self.assert_stats_match_brute_force(rel)

    def test_n2_analytic_parity_relations_match_brute_force(self):
        # random 5 x 5 relations between the n = 2 parity classes
        yes, no = parity_class(2, "YES"), parity_class(2, "NO")
        for seed in range(4):
            rng = philox_stream(seed)
            rel = build_preimage_relation(
                SubsetFamily(16, yes.incidence[rng.choice(len(yes), 5, replace=False)]),
                SubsetFamily(16, no.incidence[rng.choice(len(no), 5, replace=False)]), 4)
            assert rel.analytic
            self.assert_stats_match_brute_force(rel)

    @given(preimage_families())
    @settings(max_examples=25, deadline=None)
    def test_materialized_and_analytic_twins_agree(self, families):
        sx, sy, block = families
        materialized = build_preimage_relation(sx, sy, block)
        analytic = analytic_relation(sx, sy)
        a, b = relation_stats(materialized), relation_stats(analytic)
        assert (a.m, a.m_prime, a.l_max) == (b.m, b.m_prime, b.l_max)
        # every coset element carries the l table of its preimage set
        x_sets, y_sets = sets_of(sx), sets_of(sy)
        x_of = [x_sets.index(preimage_set(as_permutation(p), block)) for p in materialized.x_items]
        y_of = [y_sets.index(preimage_set(as_permutation(p), block)) for p in materialized.y_items]
        assert np.array_equal(a.per_input_l["l_x"], b.per_input_l["l_x"][x_of])
        assert np.array_equal(a.per_input_l["l_y"], b.per_input_l["l_y"][y_of])


class TestSpectralReference:
    """An independent reference for m, m' and l_max: the spectral form of the
    adversary bound, ||Gamma|| >= sqrt(m m') and ||Gamma_j||^2 <= the largest
    l_x l_y over Gamma_j's pairs, so the spectral ratio bounds the bound."""

    @given(direct_relations())
    @settings(max_examples=60, deadline=None)
    def test_spectral_ratio_bounds_the_statistics(self, rel):
        if relation_stats(rel).l_max == 0:
            return  # no disagreement anywhere: both sides are undefined
        spectral, bound = spectral_sides(rel)
        assert spectral >= bound * (1 - 1e-12)

    @pytest.mark.parametrize("overrides,want", [
        (dict(V=6, kx=2, ky=3), 1.767767),
        (dict(V=16, kx=3, ky=4), 2.401922),
        (dict(kind="preimage", n=1), 1.0),
        (dict(kind="preimage", n=2), 1.745743),
    ])
    def test_golden_relations_meet_it_with_equality(self, monkeypatch, overrides, want):
        relations = []
        original = harness.relation_stats

        def capture(rel):
            relations.append(rel)
            return original(rel)

        monkeypatch.setattr(harness, "relation_stats", capture)
        harness.execute(harness.ExperimentConfig(subcommand="relation", **overrides))
        spectral, bound = spectral_sides(relations[0])
        assert spectral == pytest.approx(bound, rel=1e-12)
        assert bound == pytest.approx(want, abs=5e-7)


class TestCosetRelationMatchesReference:
    @given(preimage_families())
    @settings(max_examples=25, deadline=None)
    def test_items_and_pairs_equal_the_per_permutation_build_in_order(self, families):
        sx, sy, block = families
        rel = build_preimage_relation(sx, sy, block)
        x_items, y_items, pairs = reference_coset_relation(sx, sy, block)
        assert np.array_equal(rel.x_items, np.stack([p.zero_based() for p in x_items]))
        assert np.array_equal(rel.y_items, np.stack([p.zero_based() for p in y_items]))
        assert rel.pairs.tolist() == [list(pair) for pair in pairs]

    def test_n1_relation_equals_the_reference(self):
        rel = build_preimage_relation(N1_X, N1_Y, 2)
        x_items, y_items, pairs = reference_coset_relation(N1_X, N1_Y, 2)
        assert rel.x_items.tolist() == [list(p.zero_based()) for p in x_items]
        assert rel.y_items.tolist() == [list(p.zero_based()) for p in y_items]
        assert rel.pairs.tolist() == [list(pair) for pair in pairs]


class TestBatchedMatchesPerItem:
    @given(traced_relations(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_w_values_and_successes(self, rel, dim_b, queries, seed):
        rng = philox_stream(seed)
        alg = random_query_algorithm(rel.universe, dim_b, queries, rng)
        d = rel.universe * dim_b
        initial = PureState(d, haar_unitary(d, rng)[:, 0])
        trace = progress_trace(rel, alg, initial_aq=initial)
        want = reference_w_values(rel, alg, initial)
        assert np.allclose(trace.w_values, want, rtol=0.0, atol=1e-12)
        vec = haar_unitary(d, rng)[:, 0]
        accept = np.outer(vec, vec.conj())
        report = end_to_end_bound_check(rel, alg, accept, initial_aq=initial)
        want = reference_successes(rel, alg, accept, initial)
        assert np.allclose(report.per_item_success, want, rtol=0.0, atol=1e-12)


class TestTrialStacks:
    @given(
        traced_relations(), st.integers(1, 3), st.integers(0, 3), st.integers(1, 4),
        st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_stacked_runs_match_per_trial_reference(self, rel, dim_b, queries, trials, seed):
        # every trial has its own algorithm, initial state and accept element
        d = rel.universe * dim_b
        rngs = [philox_stream(seed, k) for k in range(trials)]
        algs = [random_query_algorithm(rel.universe, dim_b, queries, rng) for rng in rngs]
        initials = [PureState(d, haar_unitary(d, rng)[:, 0]) for rng in rngs]
        vecs = [haar_unitary(d, rng)[:, 0] for rng in rngs]
        accepts = np.stack([np.outer(v, v.conj()) for v in vecs])
        stack = QueryAlgorithm(rel.universe, dim_b, np.stack([alg.unitaries for alg in algs]))
        rows = np.stack([psi.amplitudes for psi in initials])
        traces = progress_trace(rel, stack, initial_aq=rows)
        reports = end_to_end_bound_check(rel, stack, accepts, initial_aq=rows)
        assert len(traces) == len(reports) == trials
        for k in range(trials):
            want = reference_w_values(rel, algs[k], initials[k])
            assert np.allclose(traces[k].w_values, want, rtol=0.0, atol=1e-12)
            want = reference_successes(rel, algs[k], accepts[k], initials[k])
            assert np.allclose(reports[k].per_item_success, want, rtol=0.0, atol=1e-12)
            one = end_to_end_bound_check(rel, algs[k], accepts[k], initial_aq=initials[k])
            assert (reports[k].satisfied, reports[k].queries) == (one.satisfied, one.queries)
            assert abs(reports[k].bound - one.bound) <= 1e-12

    def test_relation_stats_run_once_per_stack(self, monkeypatch):
        calls = []
        original = adversary.relation_stats

        def counted(relation):
            calls.append(relation)
            return original(relation)

        monkeypatch.setattr(adversary, "relation_stats", counted)
        rel = build_preimage_relation(N1_X, N1_Y, 2)
        stack = QueryAlgorithm(4, 2, np.stack([
            random_query_algorithm(4, 2, 2, philox_stream(70 + k)).unitaries for k in range(6)
        ]))
        assert len(progress_trace(rel, stack)) == 6
        assert len(calls) == 1
        # the swap detector of TestEndToEnd, three times: every trial carries a bound
        swap = OracleRelation("in_place", 2, [[0, 1]], [[1, 0]], ((0, 0),))
        reports = end_to_end_bound_check(
            swap, QueryAlgorithm(2, 1, np.tile(np.eye(2), (3, 2, 1, 1))), np.diag([1.0, 0.0])
        )
        assert [report.bound for report in reports] == [pytest.approx(1.0)] * 3
        assert len(calls) == 2

    def test_accept_element_of_a_member_is_named(self):
        rel = build_preimage_relation(N1_X, N1_Y, 2)
        stack = QueryAlgorithm(4, 2, np.tile(np.eye(8), (3, 2, 1, 1)))
        accepts = np.tile(np.eye(8), (3, 1, 1))
        accepts[2] *= 2.0
        with pytest.raises(ValueError, match="accept element 2 must satisfy"):
            end_to_end_bound_check(rel, stack, accepts)
        with pytest.raises(ValueError, match="shape"):
            end_to_end_bound_check(rel, identity_algorithm(4, 2, 1), accepts)


class TestMatchedRepresentatives:
    def test_agreement_conditions_nonvacuous(self):
        sx, sy = Subset(6, (1, 2, 3)), Subset(6, (1, 4, 5))
        px, py = matched_pair(sx, sy)
        assert preimage_set(px, 3) == sx
        assert preimage_set(py, 3) == sy
        assert px(1) == py(1)  # shared member
        assert px(6) == py(6)  # outside the union
        only_x, only_y = (2, 3), (4, 5)
        for j in only_x:
            assert any(px(j) == py(i) and px(i) == py(j) for i in only_y)

    def test_disagreement_is_symmetric_difference(self):
        sx, sy = Subset(6, (1, 2, 3)), Subset(6, (1, 4, 5))
        px, py = matched_pair(sx, sy)
        diff = tuple(j for j in range(1, 7) if px(j) != py(j))
        assert diff == tuple(sorted(set(sx.members) ^ set(sy.members)))

    @pytest.mark.parametrize("v,block", [(4, 2), (6, 3), (7, 2)])
    def test_broadcast_rows_equal_the_reference_permutations(self, v, block):
        family = enumerate_family(v, block)
        sigma_x, sigma_y = matched_rows(family.incidence[:, None], family.incidence[None])
        assert sigma_x.shape == sigma_y.shape == (len(family), len(family), v)
        for i, sx in enumerate(sets_of(family)):
            for j, sy in enumerate(sets_of(family)):
                px, py = reference_matched_pair(sx, sy)
                assert np.array_equal(sigma_x[i, j], px.zero_based())
                assert np.array_equal(sigma_y[i, j], py.zero_based())

    def test_identical_subsets_give_identical_permutations(self):
        s = Subset(6, (1, 2, 3))
        px, py = matched_pair(s, s)
        assert px == py


class TestPreimageRelation:
    def test_n1_full_matching(self):
        rel = build_preimage_relation(N1_X, N1_Y, 2)
        assert not rel.analytic
        assert len(rel.pairs) == 4
        assert len(rel.x_items) == 4 and len(rel.y_items) == 4
        # perfect matching: every item appears in exactly one pair
        assert sorted(x for x, _ in rel.pairs) == [0, 1, 2, 3]
        assert sorted(y for _, y in rel.pairs) == [0, 1, 2, 3]

    def test_n1_stats(self):
        rel = build_preimage_relation(N1_X, N1_Y, 2)
        stats = relation_stats(rel)
        assert (stats.m, stats.m_prime, stats.l_max) == (1, 1, 1)
        assert (stats.m, stats.m_prime, stats.l_max) == brute_stats(rel)

    def test_enumerated_and_analytic_stats_agree(self):
        enumerated = build_preimage_relation(N1_X, N1_Y, 2)
        analytic = analytic_relation(N1_X, N1_Y)
        assert analytic.analytic
        a = relation_stats(enumerated)
        b = relation_stats(analytic)
        assert (a.m, a.m_prime, a.l_max) == (b.m, b.m_prime, b.l_max)

    def test_larger_analytic_relation_consistency(self):
        # several subsets per side at block 2 over [4] is impossible (only one
        # even and one odd pair), so use block 2 over [6]
        sx = family_of(6, (2, 4), (2, 6), (4, 6))
        sy = family_of(6, (1, 3), (1, 5), (3, 5))
        enumerated = build_preimage_relation(sx, sy, 2)
        analytic = analytic_relation(sx, sy)
        a = relation_stats(enumerated)
        b = relation_stats(analytic)
        assert (a.m, a.m_prime, a.l_max) == (b.m, b.m_prime, b.l_max)
        assert (a.m, a.m_prime, a.l_max) == brute_stats(enumerated)

    def test_every_matched_pair_satisfies_bullets(self):
        sx = family_of(6, (2, 4), (2, 6))
        sy = family_of(6, (1, 3), (3, 5))
        rel = build_preimage_relation(sx, sy, 2)
        for xi, yi in rel.pairs:
            px, py = as_permutation(rel.x_items[xi]), as_permutation(rel.y_items[yi])
            s_x = set(preimage_set(px, 2).members)
            s_y = set(preimage_set(py, 2).members)
            for j in (s_x & s_y) | (set(range(1, 7)) - (s_x | s_y)):
                assert px(j) == py(j)
            only_x, only_y = s_x - s_y, s_y - s_x
            for j in only_x:
                assert any(px(j) == py(i) and px(i) == py(j) for i in only_y)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            build_preimage_relation(N1_X, N1_X, 2)

    def test_families_and_relations_build_no_subset(self, monkeypatch):
        def refuse(subset):
            raise AssertionError(f"built {subset.members}")

        monkeypatch.setattr(Subset, "__post_init__", refuse)
        sx, sy = enumerate_family(6, 2, contains_one), enumerate_family(6, 3, contains_one)
        relation_stats(build_subset_relation(sx, sy))
        yes, no = parity_class(1, "YES"), parity_class(1, "NO")
        for rel in (build_preimage_relation(yes, no, 2), analytic_relation(yes, no)):
            relation_stats(rel)


class TestCancellationIdentity:
    def agreement_sets_coincide(self, px, py):
        v = px.size
        t = {i for i in range(1, v + 1) if px(i) == py(i)}
        ix, iy = invert(px), invert(py)
        u = {ix(i) for i in range(1, v + 1) if ix(i) == iy(i)}
        return t == u

    def test_all_pairs_small_sizes(self):
        for v in (2, 3, 4, 5):
            perms = [
                Permutation(v, img)
                for img in itertools.permutations(range(1, v + 1))
            ]
            for px in perms:
                for py in perms:
                    assert self.agreement_sets_coincide(px, py)

    def test_all_pairs_v6_vectorized(self):
        # membership masks: label j+1 agrees under images vs under inverses
        perms = np.array(list(itertools.permutations(range(1, 7))))
        count = len(perms)
        inverses = np.empty_like(perms)
        rows = np.arange(count)[:, None]
        inverses[rows, perms - 1] = np.arange(1, 7)
        for idx in range(count):
            agree_img = perms == perms[idx]  # (count, 6) mask over labels
            agree_inv = inverses == inverses[idx]
            mapped = np.zeros_like(agree_inv)
            mapped[:, inverses[idx] - 1] = agree_inv
            assert np.array_equal(agree_img, mapped)


class TestAdversaryBound:
    def test_zero_error(self):
        stats = AdversaryStats(9, 4, 4)
        assert abs(adversary_bound(stats, 0.0) - math.sqrt(9 * 4 / 4)) < 1e-12

    def test_half_error_vanishes(self):
        assert adversary_bound(AdversaryStats(9, 4, 4), 0.5) == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            adversary_bound(AdversaryStats(1, 1, 1), 0.6)

    def test_distributed_family_numbers(self):
        # m = m' = family size, l_max = |X||Y| N^(-delta) gives N^(delta/2)
        n_ref, delta = 16, 0.5
        size_x = size_y = 64
        l_max = int(size_x * size_y * n_ref ** (-delta))
        stats = AdversaryStats(size_y, size_x, l_max)
        expected = math.sqrt(size_x * size_y / l_max)
        assert abs(adversary_bound(stats, 0.0) - expected) < 1e-12
        assert abs(expected - n_ref ** (delta / 2)) < 1e-12

    def test_monotonicity(self):
        base = adversary_bound(AdversaryStats(4, 4, 4), 0.1)
        assert adversary_bound(AdversaryStats(8, 4, 4), 0.1) > base
        assert adversary_bound(AdversaryStats(4, 8, 4), 0.1) > base
        assert adversary_bound(AdversaryStats(4, 4, 8), 0.1) < base
        assert adversary_bound(AdversaryStats(4, 4, 4), 0.2) < base

    def test_contrapositive_form(self):
        stats = AdversaryStats(4, 4, 1)
        # bias below (1/2) sqrt(2 q / sqrt(m m'/l))
        assert abs(contrapositive_bias_bound(stats, 2) - 0.5 * math.sqrt(4 / 4)) < 1e-12


class TestProgressTrace:
    def rel(self):
        return build_preimage_relation(N1_X, N1_Y, 2)

    def test_initial_value(self):
        rel = self.rel()
        trace = progress_trace(rel, identity_algorithm(4, 2, 3))
        expected = len(rel.pairs) / (2 * math.sqrt(len(rel.x_items) * len(rel.y_items)))
        assert abs(trace.w_values[0] - expected) < 1e-12

    def test_trivial_oracles_keep_w_constant(self):
        # phase oracles that cannot touch the initial support leave W at W_0
        rel = build_subset_relation(family_of(4, (2,)), family_of(4, (3,)))
        for seed in range(5):
            alg = random_query_algorithm(4, 1, 3, philox_stream(seed))
            eye = np.eye(4, dtype=complex)
            trivial = QueryAlgorithm(4, 1, tuple(eye for _ in range(4)))
            trace = progress_trace(rel, trivial, initial_aq=basis_state(4, 1))
            assert all(abs(w - trace.w_values[0]) < 1e-12 for w in trace.w_values)

    def test_aq_unitaries_do_not_change_w(self):
        # algorithms made only of AQ unitaries (no oracle effect on support)
        rel = build_subset_relation(family_of(4, (2,)), family_of(4, (3,)))
        for seed in range(5):
            alg = random_query_algorithm(4, 2, 4, philox_stream(50 + seed))
            # oracle flips labels 2 or 3; start on label 1 and keep A there
            u = np.kron(np.eye(4), haar_unitary(2, philox_stream(60 + seed)))
            alg_aq = QueryAlgorithm(4, 2, tuple(u for _ in range(5)))
            trace = progress_trace(rel, alg_aq, initial_aq=basis_state(8, 1))
            assert all(abs(w - trace.w_values[0]) < 1e-12 for w in trace.w_values)

    def test_drop_bound_on_preimage_relation(self):
        rel = self.rel()
        for seed in range(30):
            alg = random_query_algorithm(4, 2, 5, philox_stream(100 + seed))
            trace = progress_trace(rel, alg)
            assert trace.max_drop <= trace.sqrt_lmax + 1e-9

    def test_drop_bound_on_subset_relation(self):
        sx = enumerate_family(4, 2, contains_one)
        sy = enumerate_family(4, 1, lambda rows: ~contains_one(rows))
        rel = build_subset_relation(sx, sy)
        sqrt_lmax = math.sqrt(relation_stats(rel).l_max)
        for seed in range(30):
            alg = random_query_algorithm(4, 2, 4, philox_stream(200 + seed))
            trace = progress_trace(rel, alg)
            assert trace.max_drop <= sqrt_lmax + 1e-9

    def test_analytic_relation_rejected(self):
        rel = analytic_relation(N1_X, N1_Y)
        with pytest.raises(ValueError, match="analytic"):
            progress_trace(rel, identity_algorithm(4, 2, 1))

    def test_w_can_actually_drop(self):
        rel = self.rel()
        seen_drop = 0.0
        for seed in range(10):
            alg = random_query_algorithm(4, 2, 5, philox_stream(300 + seed))
            trace = progress_trace(rel, alg)
            seen_drop = max(seen_drop, trace.w_values[0] - min(trace.w_values))
        assert seen_drop > 1e-3


class TestEndToEnd:
    def test_swap_detector_saturates_bound(self):
        rel = OracleRelation("in_place", 2, [[0, 1]], [[1, 0]], ((0, 0),))
        eye = np.eye(2, dtype=complex)
        alg = QueryAlgorithm(2, 1, (eye, eye))  # one query, trivial unitaries
        accept = np.diag([1.0, 0.0]).astype(complex)  # accept when A stays on label 1
        report = end_to_end_bound_check(rel, alg, accept, initial_aq=basis_state(2, 1))
        assert report.worst_success == pytest.approx(1.0)
        assert report.epsilon == pytest.approx(0.0)
        assert report.bound == pytest.approx(1.0)
        assert report.queries == 1
        assert report.satisfied

    def test_zero_query_algorithm_consistent(self):
        rel = build_preimage_relation(N1_X, N1_Y, 2)
        eye = np.eye(8, dtype=complex)
        alg = QueryAlgorithm(4, 2, (eye,))
        accept = np.zeros((8, 8), dtype=complex)
        report = end_to_end_bound_check(rel, alg, accept)
        assert report.queries == 0
        assert report.worst_success <= 0.5
        assert report.bound <= 1e-12
        assert report.satisfied

    def test_random_search_never_violates(self):
        rel = build_preimage_relation(N1_X, N1_Y, 2)
        for seed in range(50):
            rng = philox_stream(400 + seed)
            alg = random_query_algorithm(4, 2, 2, rng)
            v = haar_unitary(8, rng)[:, 0]
            report = end_to_end_bound_check(rel, alg, np.outer(v, v.conj()))
            assert report.satisfied

    def test_invalid_accept_element(self):
        rel = build_preimage_relation(N1_X, N1_Y, 2)
        alg = identity_algorithm(4, 2, 1)
        with pytest.raises(ValueError, match="Hermitian"):
            end_to_end_bound_check(rel, alg, np.triu(np.ones((8, 8))))
        with pytest.raises(ValueError, match="identity"):
            end_to_end_bound_check(rel, alg, 2.0 * np.eye(8))


class TestRelationValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            OracleRelation("weird", 2, [[-1.0, 1.0]], [[1.0, -1.0]], ((0, 0),))

    def test_empty_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            OracleRelation("phase", 2, [[-1.0, 1.0]], [[1.0, -1.0]], ())

    def test_phase_and_analytic_items_must_be_sign_rows(self):
        for x_items in ([[0, 1]], [[-1, 1, 1]], [[True, False]], [-1, 1], (Subset(2, (1,)),)):
            with pytest.raises(ValueError, match="phase x_items must be rows of 2 signs"):
                OracleRelation("phase", 2, x_items, [[1.0, -1.0]], ((0, 0),))
            with pytest.raises(ValueError, match="in-place x_items must be rows of 2 signs"):
                OracleRelation("in_place", 2, x_items, [[1.0, -1.0]], ((0, 0),), analytic=True)

    def test_in_place_items_must_be_permutation_rows(self):
        for x_items in ([[0, 0]], [[1, 2]], [[0.0, 1.0]], (Permutation(2, (1, 2)),)):
            with pytest.raises(ValueError, match="in-place x_items must be rows permuting"):
                OracleRelation("in_place", 2, x_items, [[1, 0]], ((0, 0),))

    def test_pairs_must_be_index_pairs(self):
        with pytest.raises(ValueError, match=r"expected \(P, 2\)"):
            OracleRelation("phase", 2, [[-1.0, 1.0]], [[1.0, -1.0]], ((0, 0, 0),))

    def test_items_and_pairs_are_read_only(self):
        for rel in (build_preimage_relation(N1_X, N1_Y, 2),
                    analytic_relation(N1_X, N1_Y),
                    build_subset_relation(N1_X, N1_Y)):
            for arr in (rel.x_items, rel.y_items, rel.pairs):
                with pytest.raises(ValueError):
                    arr[0, 0] = 1

    def test_pair_index_out_of_range(self):
        with pytest.raises(ValueError, match="missing item"):
            OracleRelation("phase", 2, [[-1.0, 1.0]], [[1.0, -1.0]], ((0, 1),))
