import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import dilation, harness
from permlab.core import (
    DensityMatrix,
    PureState,
    Subset,
    partial_trace,
    philox_stream,
    subset_state,
    trace_distance,
)
from permlab.dilation import (
    QueryAlgorithm,
    check_dilation,
    chi_state,
    haar_stack,
    random_query_algorithm,
    run_channel_picture,
    run_dilated_picture,
    trial_stacks,
)
from permlab.oracles import (
    block_average_on_first_factor,
    block_permutations,
    block_twirl,
    random_representative,
    representative_rows,
    representative_sigma,
)
from reference import (
    as_permutation,
    block_permutation_objects,
    haar_unitary,
    identity_algorithm,
    incidence_rows,
    random_density,
)

TAUS = block_permutations(4, 2)
S_EVEN = Subset(4, (2, 4))
S_ODD = Subset(4, (1, 3))


def reference_haar_unitary(dim, rng):
    """Reference route: one Ginibre matrix, one QR and the phase fix per call."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_product_initial(dim, seed):
    rng = philox_stream(seed)
    return PureState(dim, haar_unitary(dim, rng)[:, 0])


def build_control_permutation(taus):
    """|i>|j> -> |i>|tau_i(j)> as a dense unitary on control (x) A, from 0-based image rows."""
    if not len(taus):
        raise ValueError("need at least one permutation")
    v = len(taus[0])
    if any(len(t) != v for t in taus):
        raise ValueError("all permutations must share one size")
    c = len(taus)
    out = np.zeros((c * v, c * v))
    for i, tau in enumerate(taus):
        out[i * v : (i + 1) * v, i * v : (i + 1) * v] = as_permutation(tau).matrix()
    return out


def reference_channel_picture(alg, subset, initial):
    """Reference route: one `DensityMatrix` per query, sigma as a kron'd permutation matrix."""
    block = len(subset)
    sigma = as_permutation(representative_sigma(subset, block))
    p_joint = np.kron(sigma.matrix(), np.eye(alg.dim_b))
    states = [DensityMatrix.from_pure(initial)]
    rho = states[0].entries
    for u in alg.unitaries[:-1]:
        rho = u @ rho @ u.conj().T
        rho = p_joint @ rho @ p_joint.T
        rho = block_average_on_first_factor(rho, block, alg.dim_a, alg.dim_b)
        states.append(DensityMatrix(initial.dim, rho))
    return states


def reference_dilated_picture(alg, sigma, taus, initial):
    """Reference route: one `PureState` per query, the initial state as a t-fold kron
    and each query gathered on a five-axis view of the state."""
    t = alg.queries
    c = len(taus)
    d_ab = alg.dim_a * alg.dim_b
    full = (c**t) * d_ab
    chi = chi_state(c).amplitudes
    psi = initial.amplitudes
    for _ in range(t):
        psi = np.kron(chi, psi)
    inv_sigma = np.argsort(np.asarray(sigma))
    gather = np.stack([inv_sigma[np.argsort(tau)] for tau in taus])
    states = [PureState(full, psi)]
    for k in range(1, t + 1):
        mat = psi.reshape(c**t, d_ab) @ alg.unitaries[:-1][k - 1].T
        view = mat.reshape(c ** (k - 1), c, c ** (t - k), alg.dim_a, alg.dim_b)
        psi = np.take_along_axis(view, gather[None, :, None, :, None], axis=3).reshape(full)
        states.append(PureState(full, psi))
    return states


def reference_check_dilation(alg, subset, sigma, taus, initial):
    """Reference route: reduce each state on its own and compare by `trace_distance`.

    Returns the channel states, the reduced states, the distances and the
    consistency flag."""
    consistent = np.array_equal(np.asarray(sigma) < len(subset), subset.incidence)
    rhos = reference_channel_picture(alg, subset, initial)
    reduced = []
    for psi in reference_dilated_picture(alg, sigma, taus, initial):
        mat = psi.amplitudes.reshape(-1, initial.dim)
        reduced.append(DensityMatrix(initial.dim, mat.T @ mat.conj()))
    distances = [trace_distance(r, rho) for r, rho in zip(reduced, rhos)]
    return rhos, reduced, distances, consistent


def dense_dilated_picture(alg, sigma, taus, initial):
    """Reference route: full density matrices rho~_0..rho~_t on C^t (x) A (x) B.

    Each query applies the algorithm unitary on AB, the fixed permutation on
    A, then the control permutation between C_k and A one control value at a
    time; every snapshot is a dense `DensityMatrix` of dimension c^t * d_AB.
    """
    t = alg.queries
    c = len(taus)
    d_ab = alg.dim_a * alg.dim_b
    full = (c**t) * d_ab
    chi = chi_state(c).amplitudes
    psi = initial.amplitudes
    for _ in range(t):
        psi = np.kron(chi, psi)
    inv_sigma = np.argsort(np.asarray(sigma))
    inv_taus = [np.argsort(tau) for tau in taus]

    snapshots = [DensityMatrix.from_pure(PureState(full, psi))]
    for k in range(1, t + 1):
        mat = psi.reshape(c**t, d_ab) @ alg.unitaries[:-1][k - 1].T
        shaped = mat.reshape((c,) * t + (alg.dim_a, alg.dim_b))
        shaped = shaped[..., inv_sigma, :]
        out = np.empty_like(shaped)
        for i in range(c):
            sel = [slice(None)] * (t + 2)
            sel[k - 1] = i
            sub = shaped[tuple(sel)]
            out[tuple(sel)] = sub[..., inv_taus[i], :]
        psi = out.reshape(full)
        snapshots.append(DensityMatrix.from_pure(PureState(full, psi)))
    return snapshots



class TestQueryAlgorithm:
    def test_rejects_non_unitary(self):
        bad = np.ones((8, 8))
        with pytest.raises(ValueError, match="unitary"):
            QueryAlgorithm(4, 2, (bad,))

    def test_random_algorithm_is_unitary(self):
        alg = random_query_algorithm(4, 2, 3, philox_stream(0))
        assert alg.queries == 3
        for u in alg.unitaries:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            QueryAlgorithm(4, 2, (np.eye(4),))

    def test_first_non_unitary_index_is_named(self):
        eye = np.eye(8)
        with pytest.raises(ValueError, match=r"^matrix 2 is not unitary \(deviation 3\.0\)$"):
            QueryAlgorithm(4, 2, (eye, eye, 2 * eye, 3 * eye))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_unitary_is_named_before_any_non_unitary_one(self, bad):
        eye = np.eye(4, dtype=np.complex128)
        broken = eye.copy()
        broken[1, 1] = bad
        with pytest.raises(ValueError, match=r"^matrix 1 has a non-finite entry$"):
            QueryAlgorithm(2, 2, (2 * eye, broken))
        with pytest.raises(ValueError, match=r"^matrix 0 has a non-finite entry$"):
            QueryAlgorithm(2, 2, np.full((2, 4, 4), bad, dtype=np.complex128))
        stack = np.tile(eye, (3, 2, 1, 1))
        stack[0, 0] *= 2.0
        stack[1, 1, 2, 3] = bad
        with pytest.raises(ValueError, match=r"^trial 1: matrix 1 has a non-finite entry$"):
            QueryAlgorithm(2, 2, stack)

    def test_shape_mismatch_names_the_unitary(self):
        with pytest.raises(ValueError, match=r"^unitary 1 has shape \(4, 4\), expected \(8, 8\)$"):
            QueryAlgorithm(4, 2, (np.eye(8), np.eye(4), 2 * np.eye(8)))

    def test_stored_unitaries_are_read_only_copies(self):
        given_unitaries = [np.eye(8, dtype=np.complex128) for _ in range(3)]
        alg = QueryAlgorithm(4, 2, tuple(given_unitaries))
        given_unitaries[0][0, 0] = 5.0
        for u in alg.unitaries:
            assert not u.flags.writeable
            with pytest.raises(ValueError):
                u[0, 0] = 2.0
        assert alg.unitaries[0][0, 0] == 1.0


class TestHaarUnitaries:
    @given(
        dim=st.integers(1, 16), count=st.integers(1, 6), streams=st.integers(0, 3),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_matrix_reference(self, dim, count, streams, seed):
        rngs = [philox_stream(seed, i) for i in range(streams)]
        ref_rngs = [philox_stream(seed, i) for i in range(streams)]
        got = haar_stack(dim, count, rngs)
        assert got.shape == (streams, count, dim, dim)
        for stack, rng, ref_rng in zip(got, rngs, ref_rngs, strict=True):
            want = np.stack([reference_haar_unitary(dim, ref_rng) for _ in range(count)])
            assert np.array_equal(stack, want)
            assert rng.random() == ref_rng.random()  # same stream position afterwards

    def test_single_unitary_and_algorithm_use_the_same_draws(self):
        rng, ref_rng = philox_stream(11), philox_stream(11)
        assert np.array_equal(haar_unitary(8, rng), reference_haar_unitary(8, ref_rng))
        alg = random_query_algorithm(4, 2, 3, rng)
        want = [reference_haar_unitary(8, ref_rng) for _ in range(4)]
        assert all(np.array_equal(u, w) for u, w in zip(alg.unitaries, want, strict=True))
        assert rng.random() == ref_rng.random()


class TestChiAndControl:
    def test_chi_examples(self):
        assert np.allclose(chi_state(1).amplitudes, [1.0])
        np.testing.assert_allclose(chi_state(4).amplitudes, [0.5] * 4, atol=1e-15)
        for count in (1, 3, 7):
            assert abs(np.linalg.norm(chi_state(count).amplitudes) - 1) < 1e-12

    def test_single_identity_tau(self):
        mat = build_control_permutation([np.arange(3)])
        np.testing.assert_allclose(mat, np.eye(3), atol=1e-15)

    def test_four_block_permutations(self):
        mat = build_control_permutation(TAUS)
        assert mat.shape == (16, 16)
        np.testing.assert_allclose(mat @ mat.T, np.eye(16), atol=1e-12)
        assert set(np.unique(mat)) == {0.0, 1.0}

    def test_control_on_chi_traces_to_twirl(self):
        mat = build_control_permutation(TAUS)
        for label in range(1, 5):
            joint = np.kron(chi_state(4).amplitudes, np.eye(4)[label - 1])
            out = mat @ joint
            rho_full = DensityMatrix(16, np.outer(out, out.conj()))
            reduced = partial_trace(rho_full, (4, 4), (1,))
            expected = block_twirl(DensityMatrix.from_pure(PureState.basis(4, label)), 2)
            np.testing.assert_allclose(reduced.entries, expected.entries, atol=1e-13)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError, match="share"):
            build_control_permutation([np.arange(3), np.arange(4)])


class TestChannelPicture:
    def test_zero_queries(self):
        alg = identity_algorithm(4, 2, 0)
        initial = random_product_initial(8, 1)
        states = run_channel_picture(alg, S_EVEN, initial)
        assert len(states) == 1
        np.testing.assert_allclose(
            states[0], np.outer(initial.amplitudes, initial.amplitudes.conj())
        )

    def test_single_identity_query_sends_subset_state_to_target(self):
        alg = identity_algorithm(4, 2, 1)
        initial = PureState(8, np.kron(subset_state(S_EVEN, 4).amplitudes, np.eye(2)[0]))
        states = run_channel_picture(alg, S_EVEN, initial)
        marginal = partial_trace(DensityMatrix(8, states[1]), (4, 2), (0,))
        psi = subset_state(Subset(4, (1, 2)), 4)
        np.testing.assert_allclose(
            marginal.entries, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-13
        )

    def test_traces_stay_one(self):
        alg = random_query_algorithm(4, 2, 2, philox_stream(2))
        states = run_channel_picture(alg, S_EVEN, random_product_initial(8, 3))
        for rho in states:
            assert abs(np.trace(rho) - 1) < 1e-12


class TestDilatedPicture:
    def test_initial_state_reduces_exactly(self):
        alg = identity_algorithm(4, 2, 2)
        initial = random_product_initial(8, 4)
        sigma = representative_sigma(S_EVEN, 2)
        tildes = run_dilated_picture(alg, sigma, TAUS, initial)
        first = DensityMatrix.from_pure(PureState(128, tildes[0]))
        reduced = partial_trace(first, (4, 4, 4, 2), (2, 3))
        np.testing.assert_allclose(
            reduced.entries, np.outer(initial.amplitudes, initial.amplitudes.conj()),
            atol=1e-14,
        )

    def test_one_query_equality(self):
        alg = random_query_algorithm(4, 2, 1, philox_stream(5))
        initial = random_product_initial(8, 6)
        sigma = representative_sigma(S_EVEN, 2)
        run = check_dilation(alg, S_EVEN, sigma, TAUS, initial)
        assert run.consistent
        assert run.max_trace_distance < 1e-12

    def test_three_query_equality_seeded(self):
        alg = random_query_algorithm(4, 2, 3, philox_stream(7))
        initial = random_product_initial(8, 8)
        sigma = representative_sigma(S_EVEN, 2)
        run = check_dilation(alg, S_EVEN, sigma, TAUS, initial)
        assert len(run.trace_distances) == 4
        assert run.max_trace_distance < 1e-9

    def test_dimension_cap(self):
        alg = identity_algorithm(4, 2, 5)
        initial = random_product_initial(8, 9)
        sigma = representative_sigma(S_EVEN, 2)
        with pytest.raises(ValueError, match="cap"):
            run_dilated_picture(alg, sigma, TAUS, initial)

    def test_tau_rows_must_permute_register_a(self):
        alg = identity_algorithm(4, 2, 1)
        initial = random_product_initial(8, 12)
        sigma = representative_sigma(S_EVEN, 2)
        bad_taus = (
            np.array([[0, 1, 2, 2]]),  # not a bijection
            TAUS + 1,  # 1-based labels
            TAUS[:, :3],  # the wrong length
            TAUS.astype(float),  # not integers
            block_permutation_objects(4, 2),  # Permutation objects, not rows
        )
        for taus in bad_taus:
            with pytest.raises(ValueError, match="every tau must be rows permuting the 4 labels"):
                run_dilated_picture(alg, sigma, taus, initial)
            with pytest.raises(ValueError, match="every tau must be rows permuting the 4 labels"):
                check_dilation(alg, S_EVEN, sigma, taus, initial)
        with pytest.raises(ValueError, match="sigma must be rows permuting the 4 labels"):
            run_dilated_picture(alg, representative_sigma(Subset(6, (2, 4)), 2), TAUS, initial)

    def test_identity_algorithm_zero_distance_each_step(self):
        alg = identity_algorithm(4, 2, 3)
        initial = PureState(8, np.kron(subset_state(S_EVEN, 4).amplitudes, np.eye(2)[0]))
        run = check_dilation(alg, S_EVEN, representative_sigma(S_EVEN, 2), TAUS, initial)
        assert all(d < 1e-12 for d in run.trace_distances)

    def test_mismatched_sigma_is_flagged_and_far(self):
        alg = identity_algorithm(4, 2, 1)
        initial = PureState(8, np.kron(subset_state(S_EVEN, 4).amplitudes, np.eye(2)[0]))
        wrong_sigma = representative_sigma(S_ODD, 2)
        run = check_dilation(alg, S_EVEN, wrong_sigma, TAUS, initial)
        assert not run.consistent
        assert run.max_trace_distance > 0.1

    def test_representative_independence(self):
        alg = random_query_algorithm(4, 2, 2, philox_stream(10))
        initial = random_product_initial(8, 11)
        for k in range(5):
            sigma = random_representative(S_EVEN.incidence, philox_stream(12 + k))
            run = check_dilation(alg, S_EVEN, sigma, TAUS, initial)
            assert run.max_trace_distance < 1e-10

    def test_povm_statistics_agree_after_final_unitary(self):
        alg = random_query_algorithm(4, 2, 2, philox_stream(20))
        initial = random_product_initial(8, 21)
        sigma = representative_sigma(S_EVEN, 2)
        rhos = run_channel_picture(alg, S_EVEN, initial)
        tildes = run_dilated_picture(alg, sigma, TAUS, initial)
        final = alg.unitaries[-1]
        rho_final = final @ rhos[-1] @ final.conj().T
        last = DensityMatrix.from_pure(PureState(128, tildes[-1]))
        reduced = partial_trace(last, (4, 4, 4, 2), (2, 3)).entries
        tilde_final = final @ reduced @ final.conj().T
        rng = philox_stream(22)
        for _ in range(20):
            v = haar_unitary(8, rng)[:, 0]
            p_channel = float(np.real(v.conj() @ rho_final @ v))
            p_dilated = float(np.real(v.conj() @ tilde_final @ v))
            assert abs(p_channel - p_dilated) < 1e-9

    def test_sampled_taus_only_approximate(self):
        # a strict subset of the block group does not reproduce the channel
        alg = identity_algorithm(4, 2, 1)
        initial = PureState(8, np.kron(np.eye(4)[1], np.eye(2)[0]))
        sigma = representative_sigma(S_EVEN, 2)
        run = check_dilation(alg, S_EVEN, sigma, TAUS[:1], initial)
        assert run.max_trace_distance > 1e-3


class TestPureMatchesDenseReference:
    @given(
        t=st.integers(0, 3),
        dim_b=st.integers(1, 3),
        subset_index=st.integers(0, 5),
        sigma_offset=st.sampled_from([0, 0, 1, 2, 3, 4, 5]),
        tau_mask=st.one_of(st.just(15), st.integers(1, 15)),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_states_and_reductions_match_dense_route(
        self, t, dim_b, subset_index, sigma_offset, tau_mask, seed
    ):
        # V = 4, block 2: the block group has 4 elements; tau_mask picks a
        # non-empty subset of them (15 is the full group). sigma's preimage
        # set is the subset itself at offset 0 and another pair otherwise.
        pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        subset = Subset(4, pairs[subset_index])
        rng = philox_stream(seed)
        sigma = random_representative(
            Subset(4, pairs[(subset_index + sigma_offset) % 6]).incidence, rng)
        taus = [tau for bit, tau in enumerate(TAUS) if tau_mask >> bit & 1]
        alg = random_query_algorithm(4, dim_b, t, rng)
        initial = random_product_initial(4 * dim_b, seed + 1)

        states = run_dilated_picture(alg, sigma, taus, initial)
        dense = dense_dilated_picture(alg, sigma, taus, initial)
        assert len(states) == len(dense) == t + 1
        for psi, rho in zip(states, dense):
            outer = np.outer(psi, psi.conj())
            assert np.max(np.abs(outer - rho.entries)) <= 1e-12

        run = check_dilation(alg, subset, sigma, taus, initial)
        assert run.consistent == (sigma_offset == 0)
        layout = (len(taus),) * t + (4, dim_b)
        for got, rho in zip(run.reduced, dense):
            want = partial_trace(rho, layout, (t, t + 1))
            assert got.shape == (4 * dim_b, 4 * dim_b)
            assert np.max(np.abs(got - want.entries)) <= 1e-12


class TestStacksMatchPerStateReference:
    @given(
        t=st.integers(0, 4),
        dim_b=st.integers(1, 3),
        subset_index=st.integers(0, 5),
        sigma_offset=st.sampled_from([0, 0, 1, 2, 3, 4, 5]),
        tau_indices=st.lists(st.integers(0, 3), min_size=1, max_size=4),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacks_and_distances_match_reference(
        self, t, dim_b, subset_index, sigma_offset, tau_indices, seed
    ):
        # V = 4, block 2. tau_indices picks up to four block-group elements,
        # repeats allowed, so a control value may carry the same tau twice.
        # sigma's preimage set is the subset at offset 0 and another pair otherwise.
        pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        subset = Subset(4, pairs[subset_index])
        rng = philox_stream(seed)
        sigma = random_representative(
            Subset(4, pairs[(subset_index + sigma_offset) % 6]).incidence, rng)
        taus = [TAUS[i] for i in tau_indices]
        alg = random_query_algorithm(4, dim_b, t, rng)
        initial = random_product_initial(4 * dim_b, seed + 1)
        d_ab = 4 * dim_b

        rhos = run_channel_picture(alg, subset, initial)
        want_rhos = np.stack([rho.entries for rho in reference_channel_picture(alg, subset, initial)])
        assert rhos.shape == (t + 1, d_ab, d_ab)
        assert np.max(np.abs(rhos - want_rhos)) <= 1e-12

        states = run_dilated_picture(alg, sigma, taus, initial)
        want_states = reference_dilated_picture(alg, sigma, taus, initial)
        assert states.shape == (t + 1, len(taus) ** t * d_ab)
        assert np.max(np.abs(states - np.stack([psi.amplitudes for psi in want_states]))) <= 1e-12

        run = check_dilation(alg, subset, sigma, taus, initial)
        ref_rhos, ref_reduced, ref_distances, ref_consistent = reference_check_dilation(
            alg, subset, sigma, taus, initial
        )
        assert run.consistent == ref_consistent == (sigma_offset == 0)
        assert np.max(np.abs(run.rhos - np.stack([r.entries for r in ref_rhos]))) <= 1e-12
        assert np.max(np.abs(run.reduced - np.stack([r.entries for r in ref_reduced]))) <= 1e-12
        assert len(run.trace_distances) == t + 1
        assert max(abs(a - b) for a, b in zip(run.trace_distances, ref_distances)) <= 1e-12

    def test_returned_stacks_are_read_only(self):
        alg = random_query_algorithm(4, 2, 2, philox_stream(40))
        initial = random_product_initial(8, 41)
        sigma = representative_sigma(S_EVEN, 2)
        run = check_dilation(alg, S_EVEN, sigma, TAUS, initial)
        stacks = (
            run_channel_picture(alg, S_EVEN, initial),
            run_dilated_picture(alg, sigma, TAUS, initial),
            run.rhos,
            run.reduced,
        )
        for stack in stacks:
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[(0,) * stack.ndim] = 0.0


PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def _trial_stack(t, dim_b, seeds):
    """One stacked algorithm with t queries, one trial per seed, and each trial's
    algorithm on its own: the same unitaries, drawn from the trial's stream."""
    algs = [random_query_algorithm(4, dim_b, t, philox_stream(seed)) for seed in seeds]
    return QueryAlgorithm(4, dim_b, np.stack([alg.unitaries for alg in algs])), algs


class TestTrialStacks:
    @given(
        t=st.integers(0, 3),
        dim_b=st.integers(1, 2),
        trials=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from([0, 0, 1, 3]), st.integers(0, 10**6)),
            min_size=1, max_size=4,
        ),
        tau_rows=st.lists(st.integers(0, 3), min_size=1, max_size=3),
        shared_taus=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_stacked_check_matches_per_trial_reference(
        self, t, dim_b, trials, tau_rows, shared_taus
    ):
        # trial i: its own subset, sigma (with the subset's preimage set at offset 0),
        # initial state and, unless shared, its own taus
        stack, algs = _trial_stack(t, dim_b, [seed for _, _, seed in trials])
        subsets = [Subset(4, PAIRS[i]) for i, _, _ in trials]
        sigmas = [
            random_representative(
                Subset(4, PAIRS[(i + offset) % 6]).incidence, philox_stream(seed, 1))
            for i, offset, seed in trials
        ]
        initials = [random_product_initial(4 * dim_b, seed + 2) for _, _, seed in trials]
        per_trial_taus = [[TAUS[(row + k) % 4] for row in tau_rows] for k in range(len(trials))]
        taus = per_trial_taus[0] if shared_taus else np.stack(per_trial_taus, axis=1)
        runs = check_dilation(
            stack, incidence_rows(4, subsets), np.stack(sigmas), taus,
            np.stack([psi.amplitudes for psi in initials]),
        )
        assert len(runs) == len(trials)
        for k, run in enumerate(runs):
            own_taus = per_trial_taus[0 if shared_taus else k]
            rhos, reduced, distances, consistent = reference_check_dilation(
                algs[k], subsets[k], sigmas[k], own_taus, initials[k]
            )
            assert run.consistent == consistent == (trials[k][1] == 0)
            assert np.max(np.abs(run.rhos - np.stack([r.entries for r in rhos]))) <= 1e-12
            assert np.max(np.abs(run.reduced - np.stack([r.entries for r in reduced]))) <= 1e-12
            gaps = [abs(a - b) for a, b in zip(run.trace_distances, distances, strict=True)]
            assert max(gaps) <= 1e-12

    def test_mixed_stack_flags_only_the_wrong_sigma(self):
        stack, _ = _trial_stack(3, 2, [1, 2, 3])
        # trial 1's sigma has the wrong preimage set
        wanted = (S_EVEN.incidence, S_ODD.incidence, S_EVEN.incidence)
        sigmas = representative_rows(np.stack(wanted))
        runs = check_dilation(stack, S_EVEN.incidence, sigmas, TAUS, random_product_initial(8, 4))
        assert [run.consistent for run in runs] == [True, False, True]
        assert runs[0].max_trace_distance < 1e-12 and runs[2].max_trace_distance < 1e-12
        assert runs[1].max_trace_distance > 0.1

    def test_chunk_size_leaves_results_bit_for_bit(self, monkeypatch):
        # (n, queries, tau_samples): 20 trials each, and the stack sizes that
        # TRIAL_STACK_ENTRIES at its default, at 3 * 2048 and at 1 give: the larger
        # of a trial's draws, (queries+2) d^2, and dilated states, (queries+1) c^queries d
        cases = {
            (1, 1, None): ([20], [20]),  # 192 draws, 64 amplitudes
            (1, 2, None): ([20], [16, 4]),  # 256 draws, 384 amplitudes
            (1, 3, None): ([8, 8, 4], [3] * 6 + [2]),  # 320 draws, 2048 amplitudes
            (2, 1, 3): ([5] * 4, [2] * 10),  # 3072 draws, 192 amplitudes
        }
        sizes = []
        picture = dilation.run_dilated_picture

        def counted(alg, *args):
            sizes.append(len(alg.stack))
            return picture(alg, *args)

        monkeypatch.setattr(dilation, "run_dilated_picture", counted)
        configs = [
            harness.ExperimentConfig(subcommand=name, queries=2, trials=9, seed=3)
            for name in ("dilate", "wtrace")
        ]
        cli = [harness.execute(cfg) for cfg in configs]
        whole = {}
        for (n, queries, tau_samples), (default, _) in cases.items():
            sizes.clear()
            whole[n, queries] = dilation.random_dilation_runs(
                5, range(20), n, queries, 2, tau_samples)
            assert sizes == default
        for entries in (3 * 2048, 1):
            monkeypatch.setattr(dilation, "TRIAL_STACK_ENTRIES", entries)
            for (n, queries, tau_samples), (_, mid) in cases.items():
                sizes.clear()
                runs = dilation.random_dilation_runs(5, range(20), n, queries, 2, tau_samples)
                assert sizes == (mid if entries > 1 else [1] * 20)
                for a, b in zip(whole[n, queries], runs, strict=True):
                    assert a.trace_distances == b.trace_distances and a.consistent == b.consistent
                    assert np.array_equal(a.rhos, b.rhos) and np.array_equal(a.reduced, b.reduced)
            assert [harness.execute(cfg) for cfg in configs] == cli

    def test_non_unitary_member_is_named(self):
        unitaries = np.tile(np.eye(8, dtype=complex), (3, 4, 1, 1))
        unitaries[1, 2] *= 2.0
        message = r"^trial 1: matrix 2 is not unitary \(deviation 3\.0\)$"
        with pytest.raises(ValueError, match=message):
            QueryAlgorithm(4, 2, unitaries)

    def test_single_algorithm_is_a_stack_of_one(self):
        alg = random_query_algorithm(4, 2, 2, philox_stream(8))
        initial = random_product_initial(8, 9)
        sigma = representative_sigma(S_EVEN, 2)
        one = check_dilation(alg, S_EVEN, sigma, TAUS, initial)
        (stacked,) = check_dilation(
            QueryAlgorithm(4, 2, alg.unitaries[None]), S_EVEN.incidence[None],
            sigma[None], TAUS, initial
        )
        assert one.trace_distances == stacked.trace_distances
        assert np.array_equal(one.rhos, stacked.rhos)
        assert np.array_equal(one.reduced, stacked.reduced)
        assert all(isinstance(d, float) for d in one.trace_distances)

    def test_trial_entries_are_capped_at_one_dense_matrix(self):
        dilation.cap_trial_entries("queries", 262143, 64, offset=1)
        with pytest.raises(ValueError, match=r"^field 'queries' must be at most 262143, got "
                           r"262144: one trial would hold 16777280 entries, above MAX_DIM\^2 = "
                           r"16777216$"):
            dilation.cap_trial_entries("queries", 262144, 64, offset=1)
        dilation.cap_trial_entries("tau_samples", 1048576, 16)
        with pytest.raises(ValueError, match="field 'tau_samples' must be at most 1048576"):
            dilation.cap_trial_entries("tau_samples", 1048577, 16)

    def test_trial_stacks_cover_every_trial_within_the_bound(self):
        assert list(trial_stacks(5, 2**13)) == [slice(0, 2), slice(2, 4), slice(4, 6)]
        assert list(trial_stacks(3, 2**20)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert list(trial_stacks(0, 64)) == []


class TestDistanceHelpers:
    def test_trace_distance_symmetry(self):
        rng = philox_stream(30)
        a = random_density(6, rng)
        b = random_density(6, rng)
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-14


def test_dilation_demo_script_runs():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "dilation_demo.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "consistent = True" in proc.stdout
    distances = [float(d) for d in re.findall(r"trace distance (\S+)", proc.stdout)]
    assert distances and all(d < 1e-12 for d in distances)
    control = re.search(r"consistent = False, max distance (\S+)", proc.stdout)
    assert control is not None and float(control.group(1)) > 0.1
