import itertools
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permlab import oracles, suite
from permlab.core import (
    DensityMatrix,
    PureState,
    Subset,
    philox_stream,
    subset_state,
)
from permlab.oracles import (
    apply_randomized_preimage,
    block_average,
    block_average_on_first_factor,
    block_permutations,
    permutation_table,
    phase_signs,
    random_representative,
    representative_sigma,
    sample_block_permutations,
)
from reference import (
    Permutation,
    as_permutation,
    basis_state,
    block_permutation_objects,
    block_twirl,
    diagonal,
    identity,
    incidence_rows,
    maximally_mixed,
    permutation_from_text,
    preimage_set,
    pure_density,
    random_density,
    random_permutation,
    sample_block_permutation_objects,
    subset_from_text,
)


def reference_random_representative(subset, block, rng):
    """Reference route for `random_representative`: the first block's labels are
    popped off a shuffled list, one per member in increasing order, and then the
    rest's labels, one per non-member."""
    firsts = [int(x) + 1 for x in rng.permutation(block)]
    rests = [int(x) + block + 1 for x in rng.permutation(subset.universe - block)]
    image = [firsts.pop() if j in subset.members else rests.pop()
             for j in range(1, subset.universe + 1)]
    return Permutation(subset.universe, tuple(image))


# The state maps of the standard, in-place and phase oracles: the package runs
# their rows (phase signs and zero-based images), so they live with their tests.
def apply_in_place(perm, psi):
    """Route amplitude at label j to label sigma(j)."""
    if psi.dim != perm.size:
        raise ValueError(f"state dim {psi.dim} does not match permutation size {perm.size}")
    out = np.empty_like(psi.amplitudes)
    out[perm.zero_based()] = psi.amplitudes
    return PureState(psi.dim, out)


def _standard_targets(perm):
    """Where |i>|b> lands under the standard oracle, as 0-based joint indices."""
    v = perm.size
    sigma0 = perm.zero_based()
    idx = np.arange(v * v)
    return (idx // v) * v + ((idx % v) ^ sigma0[idx // v])


def apply_standard(perm, psi):
    """|i>|b> -> |i>|b XOR sigma(i)> on two V-dim registers, XOR on 0-based indices."""
    v = perm.size
    if v & (v - 1):
        raise ValueError(f"standard oracle needs a power-of-2 size, got {v}")
    if psi.dim != v * v:
        raise ValueError(f"state dim {psi.dim} does not match two registers of size {v}")
    out = np.empty_like(psi.amplitudes)
    out[_standard_targets(perm)] = psi.amplitudes
    return PureState(psi.dim, out)


def apply_phase(subset, psi):
    """Flip the sign of every amplitude whose label lies in the subset."""
    if psi.dim != subset.universe:
        raise ValueError(f"state dim {psi.dim} does not match universe {subset.universe}")
    signs = phase_signs(incidence_rows(subset.universe, [subset])[0])
    return PureState(psi.dim, psi.amplitudes * signs)


# The tagged oracle wrapper: the package never runs it, so it lives with its tests.
@dataclass(frozen=True)
class OracleChannel:
    """One oracle tagged with its kind, Hilbert dimension, and payload."""

    kind: str
    dim: int
    perm: Permutation | None = None
    subset: Subset | None = None
    block: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "standard":
            if self.perm is None or self.dim != self.perm.size**2:
                raise ValueError("standard oracle needs a permutation and dim V^2")
        elif self.kind == "in_place":
            if self.perm is None or self.dim != self.perm.size:
                raise ValueError("in_place oracle needs a permutation and dim V")
        elif self.kind == "phase":
            if self.subset is None or self.dim != self.subset.universe:
                raise ValueError("phase oracle needs a subset and dim equal to its universe")
        elif self.kind == "randomized_preimage":
            if self.subset is None or self.block is None:
                raise ValueError("randomized oracle needs a subset and block size")
            if self.dim != self.subset.universe or self.block > self.dim:
                raise ValueError("randomized oracle needs dim = universe and block <= dim")
            if len(self.subset) != self.block:
                raise ValueError("randomized oracle subset size must equal the block size")
        else:
            raise ValueError(f"unknown oracle kind {self.kind!r}")

    @property
    def is_unitary(self) -> bool:
        return self.kind != "randomized_preimage"

    def apply_to_state(self, psi: PureState) -> PureState:
        if self.kind == "standard":
            return apply_standard(self.perm, psi)
        if self.kind == "in_place":
            return apply_in_place(self.perm, psi)
        if self.kind == "phase":
            return apply_phase(self.subset, psi)
        raise ValueError("the randomized oracle is not unitary; use apply_to_density")

    def apply_to_density(self, rho: DensityMatrix) -> DensityMatrix:
        if self.kind == "randomized_preimage":
            return apply_randomized_preimage(self.subset, rho)
        if self.kind == "phase":
            s = phase_signs(incidence_rows(self.dim, [self.subset])[0])
            return DensityMatrix(self.dim, rho.entries * np.outer(s, s))
        if self.kind == "in_place":
            p = self.perm.matrix()
            return DensityMatrix(self.dim, p @ rho.entries @ p.T)
        idx = _standard_targets(self.perm)
        out = rho.entries[np.ix_(np.argsort(idx), np.argsort(idx))]
        return DensityMatrix(self.dim, out)

    @classmethod
    def from_spec(cls, spec: dict) -> "OracleChannel":
        """Build from a flat config entry like {"kind": ..., "perm": "3 4 1 2"}."""
        kind = spec.get("kind")
        if kind in ("standard", "in_place"):
            perm = permutation_from_text(spec["perm"])
            dim = perm.size**2 if kind == "standard" else perm.size
            return cls(kind, dim, perm=perm)
        if kind == "phase":
            universe = int(spec["universe"])
            return cls(kind, universe, subset=subset_from_text(universe, spec["subset"]))
        if kind == "randomized_preimage":
            block = int(spec["N"])
            universe = int(spec.get("universe", block * block))
            subset = subset_from_text(universe, spec["subset"])
            return cls(kind, universe, subset=subset, block=block)
        raise ValueError(f"unknown oracle kind {kind!r}")


def random_state(dim, rng):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(dim, z / np.linalg.norm(z))


def exhaustive_channel(subset, rho):
    """Independent path: average over every permutation with the right preimage."""
    v = subset.universe
    block = len(subset)
    members = []
    for img in itertools.permutations(range(1, v + 1)):
        if tuple(sorted(j for j in range(1, v + 1) if img[j - 1] <= block)) == subset.members:
            members.append(Permutation(v, img))
    acc = np.zeros_like(rho.entries)
    for p in members:
        mat = p.matrix()
        acc += mat @ rho.entries @ mat.T
    return acc / len(members), len(members)


class TestInPlace:
    def test_identity(self):
        psi = random_state(4, philox_stream(0))
        np.testing.assert_allclose(
            apply_in_place(identity(4), psi).amplitudes, psi.amplitudes
        )

    def test_basis_swap(self):
        out = apply_in_place(Permutation(2, (2, 1)), basis_state(2, 1))
        np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)

    def test_subset_state_transport(self):
        psi = subset_state(Subset(4, (1, 2)), 4)
        out = apply_in_place(Permutation(4, (3, 4, 1, 2)), psi)
        np.testing.assert_allclose(
            out.amplitudes, subset_state(Subset(4, (3, 4)), 4).amplitudes, atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_in_place(identity(3), basis_state(4, 1))

    @given(st.integers(2, 6), st.integers(0, 100))
    def test_norm_preserved(self, v, seed):
        rng = philox_stream(seed)
        p = random_permutation(v, rng)
        psi = random_state(v, rng)
        out = apply_in_place(p, psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


class TestStandard:
    def test_involution_on_every_basis_state(self):
        p = Permutation(4, (2, 4, 1, 3))
        for label in range(1, 17):
            e = basis_state(16, label)
            out = apply_standard(p, apply_standard(p, e))
            np.testing.assert_allclose(out.amplitudes, e.amplitudes, atol=1e-15)

    def test_single_basis_state(self):
        # i=1, b=0-index: second register index becomes 0 XOR (sigma(1)-1) = 1
        out = apply_standard(Permutation(2, (2, 1)), basis_state(4, 1))
        np.testing.assert_allclose(out.amplitudes, np.eye(4)[1], atol=1e-15)

    def test_identity_permutation_encodes_index(self):
        p = identity(4)
        for i in range(1, 5):
            joint_label = (i - 1) * 4 + 1  # |i>|b=0-index>
            out = apply_standard(p, basis_state(16, joint_label))
            expected_index = (i - 1) * 4 + ((i - 1) ^ 0)
            np.testing.assert_allclose(out.amplitudes, np.eye(16)[expected_index], atol=1e-15)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-2"):
            apply_standard(identity(3), basis_state(9, 1))

    def test_norm_preserved(self):
        rng = philox_stream(1)
        p = random_permutation(4, rng)
        psi = random_state(16, rng)
        assert abs(np.linalg.norm(apply_standard(p, psi).amplitudes) - 1) < 1e-12


class TestPhase:
    def test_empty_subset_is_identity(self):
        psi = random_state(4, philox_stream(2))
        np.testing.assert_allclose(
            apply_phase(Subset(4, ()), psi).amplitudes, psi.amplitudes
        )

    def test_single_flip(self):
        psi = subset_state(Subset(2, (1, 2)), 2)
        out = apply_phase(Subset(2, (1,)), psi)
        a = 1 / math.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, [-a, a], atol=1e-15)

    def test_involution(self):
        psi = random_state(6, philox_stream(3))
        s = Subset(6, (2, 3, 5))
        out = apply_phase(s, apply_phase(s, psi))
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)


class TestBlockTwirl:
    def test_basis_projector(self):
        rho = pure_density(basis_state(4, 1))
        out = block_twirl(rho, 2)
        np.testing.assert_allclose(out.entries, np.diag([0.5, 0.5, 0, 0]), atol=1e-15)

    def test_maximally_mixed_invariant(self):
        rho = maximally_mixed(4)
        np.testing.assert_allclose(block_twirl(rho, 2).entries, rho.entries, atol=1e-15)

    def test_matches_exhaustive_four_term_average(self):
        rho = random_density(4, philox_stream(4))
        taus = block_permutation_objects(4, 2)
        assert len(taus) == 4
        acc = sum(t.matrix() @ rho.entries @ t.matrix().T for t in taus) / 4
        np.testing.assert_allclose(block_twirl(rho, 2).entries, acc, atol=1e-13)

    @pytest.mark.parametrize("v,block", [(4, 2), (5, 2), (6, 3), (4, 4), (5, 1)])
    def test_idempotent_trace_hermitian_psd(self, v, block):
        rho = random_density(v, philox_stream(v * 10 + block))
        once = block_twirl(rho, block)
        twice = block_twirl(once, block)
        np.testing.assert_allclose(once.entries, twice.entries, atol=1e-13)
        assert abs(np.trace(once.entries) - 1) < 1e-12
        once.validate_psd()

    def test_matches_exhaustive_average_small_sizes(self):
        for v in range(2, 7):
            for block in range(1, v + 1):
                rng = philox_stream(100 + v * 8 + block)
                rho = random_density(v, rng)
                group = block_permutation_objects(v, block)
                acc = sum(t.matrix() @ rho.entries @ t.matrix().T for t in group)
                acc /= len(group)
                np.testing.assert_allclose(
                    block_twirl(rho, block).entries, acc, atol=1e-13
                )

    @given(
        st.integers(1, 8).flatmap(lambda v: st.tuples(st.just(v), st.integers(1, v))),
        st.sampled_from((1, 2, 3)),
        st.integers(0, 10_000),
    )
    @example((1, 1), 1, 0)
    @example((8, 1), 3, 1)
    @example((8, 8), 2, 2)
    @settings(max_examples=60, deadline=None)
    def test_slicing_twirl_matches_exhaustive_group_average(self, v_block, dim_b, seed):
        v, block = v_block
        rng = philox_stream(seed)
        d = v * dim_b
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        # the exhaustive count-matrix average of every (b, b') slice, which
        # TestCountMatrixAverage pins to the per-permutation loop
        x = mat.reshape(v, dim_b, v, dim_b)
        slices = x.transpose(1, 3, 0, 2).reshape(dim_b * dim_b, v, v)
        averaged, _ = suite.exhaustive_block_average(slices, block)
        expected = averaged.reshape(dim_b, dim_b, v, v).transpose(2, 0, 3, 1).reshape(d, d)
        got = block_average_on_first_factor(mat, block, v, dim_b)
        assert np.max(np.abs(got - expected)) <= 1e-12
        if dim_b == 1:
            assert np.max(np.abs(block_average(mat, block) - expected)) <= 1e-12


    @given(
        st.integers(1, 6).flatmap(lambda v: st.tuples(st.just(v), st.integers(1, v))),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_single_calls_bit_for_bit(self, v_block, dim_b, members, seed):
        v, block = v_block
        rng = philox_stream(seed)
        d = v * dim_b
        stack = rng.normal(size=(members, d, d)) + 1j * rng.normal(size=(members, d, d))
        got = block_average_on_first_factor(stack, block, v, dim_b)
        singles = [block_average_on_first_factor(m, block, v, dim_b) for m in stack]
        assert got.shape == stack.shape
        assert np.array_equal(got, np.stack(singles))
        if dim_b == 1:
            assert np.array_equal(block_average(stack, block), got)

    def test_rejects_a_shape_that_does_not_match_the_factors(self):
        with pytest.raises(ValueError, match="does not end in"):
            block_average_on_first_factor(np.eye(6), 2, 4, 2)
        with pytest.raises(ValueError, match="out of range"):
            block_average_on_first_factor(np.eye(4), 0, 4, 1)


def permutation_loop_block_average(stack, block):
    """Reference for criterion 5: one fancy-indexed gather per group element."""
    v = stack.shape[-1]
    acc = np.zeros_like(stack)
    group = block_permutation_objects(v, block)
    for tau in group:
        inv = np.argsort(tau.zero_based())
        acc += stack[:, inv, :][:, :, inv]
    return acc / len(group)


class TestCountMatrixAverage:
    """Criterion 5's exhaustive reference against the per-`Permutation` loop."""

    @given(
        st.integers(1, 6).flatmap(lambda v: st.tuples(st.just(v), st.integers(1, v))),
        st.integers(1, 4),
        st.sampled_from((1, 5, 64, suite.TWIRL_CHUNK_ROWS)),
        st.integers(0, 10_000),
    )
    @example((6, 1), 3, suite.TWIRL_CHUNK_ROWS, 0)
    @example((6, 6), 2, 7, 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_permutation_loop(self, v_block, depth, chunk, seed):
        v, block = v_block
        rng = philox_stream(seed)
        stack = rng.normal(size=(depth, v, v)) + 1j * rng.normal(size=(depth, v, v))
        with mock.patch.object(suite, "TWIRL_CHUNK_ROWS", chunk):
            got, enumerated = suite.exhaustive_block_average(stack, block)
        assert enumerated == math.factorial(block) * math.factorial(v - block)
        assert got.shape == stack.shape
        assert np.max(np.abs(got - permutation_loop_block_average(stack, block))) <= 1e-12

    @pytest.mark.parametrize("v", range(1, 9))
    def test_group_rows_are_every_block_permutation_once(self, v):
        for block in range(1, v + 1):
            chunks = list(oracles.block_group_chunks(v, block, suite.TWIRL_CHUNK_ROWS))
            assert all(len(c) <= suite.TWIRL_CHUNK_ROWS for c in chunks)
            assert all(c.dtype == np.intp for c in chunks)
            rows = np.concatenate(chunks)
            assert len(rows) == math.factorial(block) * math.factorial(v - block)
            assert len(np.unique(rows, axis=0)) == len(rows)
            assert np.array_equal(np.sort(rows, axis=1), np.broadcast_to(np.arange(v), rows.shape))
            assert np.array_equal(np.sort(rows[:, :block], axis=1),
                                  np.broadcast_to(np.arange(block), (len(rows), block)))

    def test_group_too_large_for_float32_counts_raises(self, monkeypatch):
        # S_8 has 40,320 elements; float32 counts stay exact below 2^24
        monkeypatch.setattr(suite, "FLOAT32_EXACT_COUNT", 24)
        stack = random_density(4, philox_stream(3)).entries[None]
        with pytest.raises(ValueError, match="block group of 24 elements is too large"):
            suite.exhaustive_block_average(stack, 4)
        assert suite.exhaustive_block_average(stack, 2)[1] == 4

    def test_short_enumeration_raises(self, monkeypatch):
        rows = oracles.block_group_chunks
        monkeypatch.setattr(suite, "block_group_chunks", lambda *args: (r[1:] for r in rows(*args)))
        stack = random_density(4, philox_stream(3)).entries[None]
        with pytest.raises(RuntimeError, match="enumerated 3 block-group elements"):
            suite.exhaustive_block_average(stack, 2)


class TestBlockGroupRows:
    """The package's one enumeration and sampler against the per-`Permutation` reference."""

    @pytest.mark.parametrize("size", range(9))
    def test_permutation_table_is_itertools_order(self, size):
        # block_permutations' order fixes the control values of the dilate goldens
        table = permutation_table(size)
        want = list(itertools.permutations(range(size)))
        assert table.dtype == np.int8 and table.shape == (len(want), size)
        assert [tuple(row) for row in table.tolist()] == want

    @pytest.mark.parametrize("v", range(1, 9))
    def test_rows_equal_the_reference_in_order(self, v):
        for block in range(1, v + 1):
            rows = block_permutations(v, block)
            want = [tau.zero_based() for tau in block_permutation_objects(v, block)]
            assert rows.dtype == np.intp and not rows.flags.writeable
            assert np.array_equal(rows, np.stack(want))

    @pytest.mark.parametrize("size,block,count", [(4, 2, 8), (6, 1, 5), (9, 3, 20), (16, 4, 8)])
    def test_sampler_matches_the_reference_bit_for_bit(self, size, block, count):
        for seed in range(4):
            rng, ref_rng = philox_stream(seed, size), philox_stream(seed, size)
            rows = sample_block_permutations(size, block, count, rng)
            want = sample_block_permutation_objects(size, block, count, ref_rng)
            assert rows.shape == (count, size) and rows.dtype == np.intp
            assert np.array_equal(rows, np.stack([tau.zero_based() for tau in want]))
            assert rng.random() == ref_rng.random()  # same stream position afterwards

    @pytest.mark.parametrize("block", [0, 5, -1])
    def test_block_out_of_range_raises(self, block):
        with pytest.raises(ValueError, match="out of range"):
            block_permutations(4, block)
        with pytest.raises(ValueError, match="out of range"):
            sample_block_permutations(4, block, 3, philox_stream(1))

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="above the cap"):
            block_permutations(10, 1)

    def test_repeat_calls_share_one_read_only_array(self):
        first = block_permutations(5, 2)
        assert block_permutations(5, 2) is first and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1
        assert block_permutations(5, 3) is not first
        for _ in range(2):  # a refused call is not cached
            with pytest.raises(ValueError, match="above the cap"):
                block_permutations(10, 1)


class TestRepresentative:
    def test_canonical_examples(self):
        assert as_permutation(representative_sigma(Subset(4, (1, 2)), 2)) == identity(4)
        assert as_permutation(representative_sigma(Subset(4, (3, 4)), 2)) == Permutation(
            4, (3, 4, 1, 2))
        sigma = as_permutation(representative_sigma(Subset(4, (2, 4)), 2))
        assert (sigma(2), sigma(4), sigma(1), sigma(3)) == (1, 2, 3, 4)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            representative_sigma(Subset(4, (1, 2, 3)), 2)

    @given(st.integers(0, 50))
    @settings(max_examples=25)
    def test_preimage_round_trip(self, seed):
        rng = philox_stream(seed)
        members = tuple(sorted(int(x) + 1 for x in rng.choice(9, size=3, replace=False)))
        s = Subset(9, members)
        assert preimage_set(as_permutation(representative_sigma(s, 3)), 3) == s
        row = random_representative(s.incidence, rng)
        assert row.dtype == np.intp and np.array_equal(row < 3, s.incidence)

    @given(st.integers(1, 9).flatmap(lambda v: st.tuples(st.just(v), st.integers(0, v))),
           st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_random_row_equals_the_pop_reference_bit_for_bit(self, size_block, seed):
        v, block = size_block
        rng, ref_rng = philox_stream(seed), philox_stream(seed)
        members = tuple(sorted(int(x) + 1 for x in rng.choice(v, size=block, replace=False)))
        ref_rng.choice(v, size=block, replace=False)
        s = Subset(v, members)
        row = random_representative(s.incidence, rng)
        assert as_permutation(row) == reference_random_representative(s, block, ref_rng)
        assert rng.random() == ref_rng.random()  # same stream position afterwards


class TestRandomizedPreimage:
    def test_honest_subset_state_lands_on_target(self):
        s = Subset(4, (2, 4))
        rho = pure_density(subset_state(s, 4))
        out = apply_randomized_preimage(s, rho)
        psi = subset_state(Subset(4, (1, 2)), 4)
        np.testing.assert_allclose(
            out.entries, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-13
        )

    def test_member_basis_state_lands_in_block(self):
        s = Subset(16, (1, 2, 4, 6))
        out = apply_randomized_preimage(s, pure_density(basis_state(16, 2)))
        assert abs(np.sum(diagonal(out)[:4]) - 1) < 1e-12

    def test_non_member_basis_state_misses_block(self):
        s = Subset(16, (1, 2, 4, 6))
        out = apply_randomized_preimage(s, pure_density(basis_state(16, 3)))
        assert np.sum(diagonal(out)[:4]) < 1e-12

    def test_matches_exhaustive_coset_average(self):
        s = Subset(4, (2, 4))
        rho = random_density(4, philox_stream(6))
        expected, count = exhaustive_channel(s, rho)
        assert count == 4  # 2! * 2! coset members
        np.testing.assert_allclose(
            apply_randomized_preimage(s, rho).entries, expected, atol=1e-13
        )

    def test_independent_of_representative(self):
        s = Subset(9, (2, 5, 9))
        rho = random_density(9, philox_stream(7))
        reference = apply_randomized_preimage(s, rho).entries
        for k in range(10):
            rng = philox_stream(70 + k)
            p = as_permutation(random_representative(s.incidence, rng)).matrix()
            alt = block_average(p @ rho.entries @ p.T, 3)
            np.testing.assert_allclose(alt, reference, atol=1e-12)

    def test_block_membership_statistics_match_fixed_member(self):
        s = Subset(9, (1, 4, 7))
        rho = random_density(9, philox_stream(8))
        out = apply_randomized_preimage(s, rho)
        channel_prob = float(np.sum(diagonal(out)[:3]))
        p = as_permutation(random_representative(s.incidence, philox_stream(9))).matrix()
        fixed = p @ rho.entries @ p.T
        fixed_prob = float(np.real(np.trace(fixed[:3, :3])))
        assert abs(channel_prob - fixed_prob) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_randomized_preimage(Subset(4, (1, 2)), maximally_mixed(5))


class TestOracleChannel:
    def test_kind_invariants(self):
        p = identity(4)
        OracleChannel("standard", 16, perm=p)
        OracleChannel("in_place", 4, perm=p)
        with pytest.raises(ValueError):
            OracleChannel("standard", 4, perm=p)
        with pytest.raises(ValueError):
            OracleChannel("phase", 5, subset=Subset(4, (1,)))
        with pytest.raises(ValueError):
            OracleChannel("randomized_preimage", 4, subset=Subset(4, (1,)), block=2)
        with pytest.raises(ValueError):
            OracleChannel("mystery", 4, perm=p)

    def test_from_spec(self):
        ch = OracleChannel.from_spec({"kind": "in_place", "perm": "3 4 1 2"})
        assert ch.dim == 4 and ch.perm == Permutation(4, (3, 4, 1, 2))
        ch = OracleChannel.from_spec({"kind": "randomized_preimage", "subset": "2 4", "N": 2})
        assert ch.dim == 4 and ch.block == 2
        ch = OracleChannel.from_spec({"kind": "phase", "universe": 4, "subset": "1 3"})
        assert ch.subset.members == (1, 3)

    def test_density_matches_state_application(self):
        rng = philox_stream(10)
        psi = random_state(4, rng)
        for ch in (
            OracleChannel("in_place", 4, perm=Permutation(4, (3, 4, 1, 2))),
            OracleChannel("phase", 4, subset=Subset(4, (2, 3))),
        ):
            via_state = ch.apply_to_state(psi)
            via_density = ch.apply_to_density(pure_density(psi))
            np.testing.assert_allclose(
                via_density.entries,
                np.outer(via_state.amplitudes, via_state.amplitudes.conj()),
                atol=1e-13,
            )
        p = Permutation(2, (2, 1))
        psi2 = random_state(4, rng)
        ch = OracleChannel("standard", 4, perm=p)
        via_state = ch.apply_to_state(psi2)
        via_density = ch.apply_to_density(pure_density(psi2))
        np.testing.assert_allclose(
            via_density.entries,
            np.outer(via_state.amplitudes, via_state.amplitudes.conj()),
            atol=1e-13,
        )

    def test_randomized_channel_is_trace_preserving_and_positive(self):
        s = Subset(4, (2, 4))
        ch = OracleChannel("randomized_preimage", 4, subset=s, block=2)
        rho = random_density(4, philox_stream(11))
        out = ch.apply_to_density(rho)
        assert abs(np.trace(out.entries) - 1) < 1e-12
        out.validate_psd()

    def test_sampled_block_permutations_preserve_blocks(self):
        taus = sample_block_permutations(9, 3, 20, philox_stream(12))
        assert taus.shape == (20, 9)
        for tau in taus:
            assert tuple(np.flatnonzero(tau < 3) + 1) == (1, 2, 3)
