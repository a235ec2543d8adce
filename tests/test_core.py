import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab import core
from permlab.core import (
    DensityMatrix,
    PureState,
    Subset,
    SubsetFamily,
    enumerate_family,
    partial_trace,
    philox_stream,
    random_densities,
    sample_family,
    subset_state,
    trace_distance,
    validated_densities,
    validated_states,
)
from reference import (
    Permutation,
    compose,
    family_of_sets,
    identity,
    incidence_rows,
    invert,
    issubset,
    maximally_mixed,
    preimage_set,
    random_density,
    random_permutation,
    reference_enumerate_family,
    subset_from_text,
)


def transposition(size, a, b):
    image = list(range(1, size + 1))
    image[a - 1], image[b - 1] = image[b - 1], image[a - 1]
    return Permutation(size, tuple(image))


def subset_to_text(subset):
    return " ".join(str(m) for m in subset.members)


perms = st.integers(2, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(
        lambda img: Permutation(n, tuple(img))
    )
)


class TestPermutation:
    def test_compose_identity(self):
        sigma = Permutation(3, (2, 3, 1))
        assert compose(identity(3), sigma) == sigma
        assert compose(sigma, identity(3)) == sigma

    def test_compose_swap_involution(self):
        swap = transposition(2, 1, 2)
        assert compose(swap, swap) == identity(2)

    def test_compose_hand_example(self):
        # j -> a(b(j)) for a=(2,3,1), b=(3,1,2) gives the identity
        a = Permutation(3, (2, 3, 1))
        b = Permutation(3, (3, 1, 2))
        assert compose(a, b) == Permutation(3, (1, 2, 3))

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))

    def test_invert_examples(self):
        assert invert(identity(4)) == identity(4)
        assert invert(Permutation(3, (2, 3, 1))) == Permutation(3, (3, 1, 2))

    def test_invert_random_seeded(self):
        p = random_permutation(16, philox_stream(7))
        assert compose(p, invert(p)) == identity(16)

    @given(perms)
    def test_inverse_properties(self, p):
        assert compose(p, invert(p)) == identity(p.size)
        assert invert(invert(p)) == p

    def test_preimage_examples(self):
        assert preimage_set(identity(4), 2).members == (1, 2)
        assert preimage_set(Permutation(4, (3, 4, 1, 2)), 2).members == (3, 4)
        with pytest.raises(ValueError):
            preimage_set(identity(4), 5)

    @given(perms, st.data())
    def test_preimage_always_has_block_size(self, p, data):
        block = data.draw(st.integers(1, p.size))
        assert len(preimage_set(p, block)) == block

    def test_preimage_size_at_v16(self):
        p = random_permutation(16, philox_stream(3))
        assert len(preimage_set(p, 4)) == 4


class TestSubset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Subset(4, (1, 1))
        with pytest.raises(ValueError):
            Subset(4, (2, 1))
        with pytest.raises(ValueError):
            Subset(4, (0,))
        with pytest.raises(ValueError):
            Subset(4, (5,))

    def test_set_algebra(self):
        a = Subset(6, (1, 2, 3))
        assert a.complement().members == (4, 5, 6)
        assert Subset(6, ()).complement().members == (1, 2, 3, 4, 5, 6)
        assert issubset(Subset(6, (1, 2)), a)

    def test_empty_subset_allowed(self):
        empty = Subset(4, ())
        assert len(empty) == 0
        assert not empty.incidence.any()

    def test_incidence_row(self):
        row = Subset(6, (1, 4, 5)).incidence
        assert row.dtype == bool and row.tolist() == [True, False, False, True, True, False]
        # three even and one odd label, the majority split at N=4
        assert Subset(16, (1, 2, 4, 6)).incidence[1::2].sum() == 3

    def test_text_round_trip(self):
        s = subset_from_text(6, "4 1 5")
        assert s.members == (1, 4, 5)
        assert subset_to_text(s) == "1 4 5"


class TestSubsetFamily:
    def test_duplicate_rejected(self):
        s = Subset(4, (1, 2))
        with pytest.raises(ValueError):
            family_of_sets(4, (s, Subset(4, (1, 2))))

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SubsetFamily(4, incidence_rows(5, (Subset(5, (1,)),)))

    def test_element_counts(self):
        fam = family_of_sets(4, (Subset(4, (1, 2)), Subset(4, (1, 3))))
        assert fam.element_counts() == {1: 2, 2: 1, 3: 1}

    def test_incidence_rows_and_sets_agree(self):
        sets = (Subset(5, (2, 4)), Subset(5, ()), Subset(5, (1, 2, 5)))
        fam = family_of_sets(5, sets)
        rows = [[0, 1, 0, 1, 0], [0, 0, 0, 0, 0], [1, 1, 0, 0, 1]]
        assert fam.incidence.tolist() == np.array(rows, dtype=bool).tolist()
        assert not fam.incidence.flags.writeable
        from_rows = SubsetFamily(5, np.array(rows))
        assert from_rows.sets == sets

    def test_rows_are_copied_and_validated(self):
        rows = np.zeros((3, 70), dtype=bool)
        rows[[0, 2], 64] = True
        rows[1, 3] = True
        with pytest.raises(ValueError, match=r"duplicate subset \(65,\)"):
            SubsetFamily(70, rows)
        with pytest.raises(ValueError, match="shape"):
            SubsetFamily(4, np.zeros((2, 5), dtype=bool))
        with pytest.raises(ValueError, match=r"duplicate subset \(1, 3\)"):
            family_of_sets(4, (Subset(4, (1, 3)), Subset(4, (2,)), Subset(4, (1, 3))))
        assert len(SubsetFamily(4, np.zeros((0, 4), dtype=bool))) == 0
        fam = SubsetFamily(70, rows[:2])
        rows[0, 0] = True
        assert not fam.incidence[0, 0] and rows.flags.writeable


class TestStates:
    def test_subset_state_two_element(self):
        psi = subset_state(Subset(4, (1, 2)), 4)
        np.testing.assert_allclose(
            psi.amplitudes, [math.sqrt(0.5), math.sqrt(0.5), 0, 0], atol=1e-15
        )

    def test_subset_state_singleton(self):
        psi = subset_state(Subset(4, (3,)), 4)
        np.testing.assert_allclose(psi.amplitudes, np.eye(4)[2], atol=1e-15)

    def test_subset_state_first_block_of_sixteen(self):
        psi = subset_state(Subset(16, (1, 2, 3, 4)), 16)
        np.testing.assert_allclose(psi.amplitudes[:4], [0.5] * 4, atol=1e-15)
        np.testing.assert_allclose(psi.amplitudes[4:], 0, atol=1e-15)

    def test_subset_state_errors(self):
        with pytest.raises(ValueError, match="empty subset has no state"):
            subset_state(Subset(4, ()), 4)
        with pytest.raises(ValueError, match="dimension"):
            subset_state(Subset(8, (5,)), 4)

    @given(st.integers(2, 10).flatmap(
        lambda v: st.sets(st.integers(1, v), min_size=1).map(
            lambda m: Subset(v, tuple(sorted(m)))
        )
    ))
    def test_subset_state_norm_and_support(self, s):
        psi = subset_state(s, s.universe)
        assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1) < 1e-12
        support = {i + 1 for i in np.nonzero(psi.amplitudes)[0]}
        assert support == set(s.members)

    def test_pure_state_norm_checked(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(2, np.array([1.0, 1.0]))

    def test_density_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(2, np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2, np.eye(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(2, np.array([[1.5, 0.0], [0.0, -0.5]]))


    @pytest.mark.parametrize("dim,count", [(1, 3), (2, 1), (5, 20), (8, 7), (17, 2)])
    def test_random_densities_equal_per_matrix_draws_bit_for_bit(self, dim, count):
        def one_draw(rng):  # the per-matrix normalized Wishart draw, written out
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mat = g @ g.conj().T
            return mat / np.trace(mat)

        stack = random_densities(dim, count, philox_stream(dim, count))
        rng = philox_stream(dim, count)
        by_class = [random_density(dim, rng).entries for _ in range(count)]
        rng = philox_stream(dim, count)
        written_out = [one_draw(rng) for _ in range(count)]
        assert stack.shape == (count, dim, dim)
        assert np.array_equal(stack, np.stack(by_class))
        assert np.array_equal(stack, np.stack(written_out))
        validated_densities(stack)


# One bad member of each kind, and the message a single object raises for it.
BAD_DENSITIES = {
    "hermitian": ([[1.0, 1.0], [0.0, 0.0]], r"matrix is not Hermitian: max asymmetry 1\.0"),
    "trace": (np.eye(2), r"trace is \(2\+0j\), expected 1"),
    "negative": ([[1.5, 0.0], [0.0, -0.5]], r"matrix has negative eigenvalue -0\.5"),
}


class TestStackValidation:
    @pytest.mark.parametrize("kind", sorted(BAD_DENSITIES))
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_bad_density_member_is_named(self, kind, k):
        bad, message = BAD_DENSITIES[kind]
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix(2, np.array(bad))
        stack = np.stack([np.diag([0.5, 0.5])] * 5).astype(np.complex128)
        stack[k] = bad
        with pytest.raises(ValueError, match=f"^member {k}: {message}$"):
            validated_densities(stack)

    @pytest.mark.parametrize("k", [0, 3])
    def test_unnormalized_state_member_is_named(self, k):
        message = r"state is not normalized: \|psi\|\^2 = 2\.0"
        with pytest.raises(ValueError, match=f"^{message}$"):
            PureState(2, np.array([1.0, 1.0]))
        stack = np.tile(np.array([0.6, 0.8j]), (4, 1))
        stack[k] = [1.0, 1.0]
        with pytest.raises(ValueError, match=f"^member {k}: {message}$"):
            validated_states(stack)

    def test_first_bad_member_is_the_one_named(self):
        stack = np.stack([np.diag([0.5, 0.5])] * 4).astype(np.complex128)
        stack[1] = stack[3] = np.eye(2)
        with pytest.raises(ValueError, match=r"^member 1: trace is"):
            validated_densities(stack)

    def test_valid_stacks_come_back_read_only(self):
        states = np.eye(3, dtype=np.complex128)
        assert validated_states(states) is states
        mats = np.stack([np.diag([1.0, 0.0]), np.diag([0.25, 0.75])]).astype(np.complex128)
        assert validated_densities(mats) is mats
        for arr in (states, mats):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.0

    def test_stack_length_is_capped(self):
        with pytest.raises(ValueError, match="exceeds the dense-matrix cap"):
            validated_states(np.zeros((2, 4097), dtype=np.complex128))


@st.composite
def masked_enumerations(draw):
    """(V, k, row mask, the same rule as a member-tuple predicate) over V <= 10,
    every k from 0 to V; a None pair keeps every subset."""
    v = draw(st.integers(1, 10))
    k = draw(st.integers(0, v))
    kind = draw(st.sampled_from(["all", "parity", "core", "even", "odd"]))
    if kind == "parity":
        j = draw(st.integers(0, k))
        return v, k, (lambda rows: rows[:, 1::2].sum(axis=1) == j), (
            lambda m: sum(x % 2 == 0 for x in m) == j)
    if kind == "core":
        fixed = sorted(draw(st.sets(st.integers(1, v), max_size=3)))
        return v, k, (lambda rows: rows[:, [c - 1 for c in fixed]].all(axis=1)), (
            lambda m: all(c in m for c in fixed))
    if kind == "even":
        return v, k, (lambda rows: ~rows[:, 0::2].any(axis=1)), (
            lambda m: all(x % 2 == 0 for x in m))
    if kind == "odd":
        return v, k, (lambda rows: ~rows[:, 1::2].any(axis=1)), (
            lambda m: all(x % 2 == 1 for x in m))
    return v, k, None, None


class TestEnumerateAndSample:
    def test_enumerate_counts(self):
        assert len(enumerate_family(4, 2)) == 6
        fam = enumerate_family(4, 2, lambda rows: ~rows[:, 0::2].any(axis=1))
        assert [s.members for s in fam] == [(2, 4)]

    def test_enumerate_parity_split_count(self):
        fam = enumerate_family(16, 4, lambda rows: rows[:, 1::2].sum(axis=1) == 3)
        assert len(fam) == 448  # C(8,3) * C(8,1)

    @given(masked_enumerations())
    def test_rows_equal_the_per_combination_reference_in_order(self, case):
        v, k, mask, pred = case
        fam = enumerate_family(v, k, mask)
        want = incidence_rows(v, reference_enumerate_family(v, k, pred))
        assert fam.incidence.dtype == bool
        assert np.array_equal(fam.incidence, want)

    @pytest.mark.parametrize("v,k,chunk", [(10, 4, 7), (10, 4, 1), (9, 9, 1), (6, 0, 3)])
    def test_rows_cross_chunk_boundaries(self, monkeypatch, v, k, chunk):
        monkeypatch.setattr(core, "ENUMERATION_CHUNK_ROWS", chunk)
        for mask, pred in ((None, None), (lambda rows: rows[:, 1::2].sum(axis=1) == 2,
                                          lambda m: sum(x % 2 == 0 for x in m) == 2)):
            want = incidence_rows(v, reference_enumerate_family(v, k, pred))
            assert np.array_equal(enumerate_family(v, k, mask).incidence, want)

    def test_predicate_must_return_a_row_mask(self):
        for pred in (lambda m: 1 in m, lambda rows: rows.sum(axis=1), lambda rows: rows[:, 0][:2]):
            with pytest.raises(ValueError, match="bool mask"):
                enumerate_family(5, 2, pred)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="sample_family"):
            enumerate_family(64, 8)

    @pytest.mark.parametrize("k", [-1, 6])
    def test_set_size_must_fit_the_universe(self, k):
        with pytest.raises(ValueError, match=rf"^k={k} must lie in 0\.\.5$"):
            enumerate_family(5, k)

    def test_sample_family_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sample_family allocated before refusing")

        rng = philox_stream(1)
        for name in ("arange", "tile", "zeros"):
            monkeypatch.setattr(core.np, name, refuse)
        with pytest.raises(ValueError, match="above the cap 10000000"):
            sample_family(30, 15, core.ENUMERATION_CAP + 1, rng)

    def test_sample_family_distinct_and_deterministic(self):
        fam1 = sample_family(16, 4, 50, philox_stream(11))
        fam2 = sample_family(16, 4, 50, philox_stream(11))
        assert [s.members for s in fam1] == [s.members for s in fam2]
        assert len({s.members for s in fam1}) == 50
        assert all(len(s) == 4 for s in fam1)


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = philox_stream(5)
        a = random_density(3, rng)
        b = random_density(4, rng)
        joint = DensityMatrix(12, np.kron(a.entries, b.entries))
        np.testing.assert_allclose(
            partial_trace(joint, (3, 4), (0,)).entries, a.entries, atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(joint, (3, 4), (1,)).entries, b.entries, atol=1e-12
        )

    def test_maximally_entangled_marginal(self):
        bell = PureState(4, np.array([1, 0, 0, 1]) / math.sqrt(2))
        reduced = partial_trace(DensityMatrix.from_pure(bell), (2, 2), (0,))
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-14)

    def test_trace_and_hermiticity_preserved(self):
        rho = random_density(8, philox_stream(9))
        reduced = partial_trace(rho, (2, 2, 2), (0, 2))
        assert abs(np.trace(reduced.entries) - 1) < 1e-12
        assert np.max(np.abs(reduced.entries - reduced.entries.conj().T)) < 1e-12

    def test_layout_mismatch(self):
        rho = maximally_mixed(4)
        with pytest.raises(ValueError, match="layout"):
            partial_trace(rho, (3, 2), (0,))


class TestTraceDistanceAndRng:
    def test_trace_distance_orthogonal_states(self):
        a = DensityMatrix.from_pure(PureState.basis(2, 1))
        b = DensityMatrix.from_pure(PureState.basis(2, 2))
        assert abs(trace_distance(a, b) - 1.0) < 1e-12
        assert trace_distance(a, a) < 1e-15

    def test_philox_streams_are_independent_and_reproducible(self):
        a = philox_stream(1, 0).integers(0, 2**32, 8)
        b = philox_stream(1, 1).integers(0, 2**32, 8)
        assert list(a) != list(b)
        assert list(a) == list(philox_stream(1, 0).integers(0, 2**32, 8))
