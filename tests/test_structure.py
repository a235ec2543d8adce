import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import core
from permlab.core import Subset, SubsetFamily, enumerate_family, philox_stream, sample_family
from permlab.structure import (
    CROSSOVER_PRECISION_DPS,
    FRACTION_TOL,
    CrossoverReport,
    TargetClass,
    bound_crossover,
    bound_crossovers,
    check_distributed,
    check_distributed_stack,
    eval_poly,
    fixing_procedure,
    fixing_procedure_stack,
    witness_pigeonhole,
    _log2_binomial,
)
from reference import family_of_sets, incidence_rows, issubset, majority_count, sets_of


def family_of(universe, *member_tuples):
    return family_of_sets(universe, tuple(Subset(universe, m) for m in member_tuples))


def feasible(target, *cores):
    """`feasible_cores` of each core `Subset`, as a list of bools."""
    return target.feasible_cores(incidence_rows(target.universe, cores)).tolist()


class TestTargetClass:
    def test_fixed_size_feasibility(self):
        target = TargetClass(16, 3)
        assert target.even is None
        cores = (Subset(16, ()), Subset(16, (1, 2, 3)), Subset(16, (1, 2, 3, 4)))
        assert feasible(target, *cores) == [True, True, False]

    @pytest.mark.parametrize("majority,feasible", [("even", [False, False]), ("odd", [True, True])])
    def test_empty_parity_class_has_no_feasible_core(self, majority, feasible):
        # at N = 1 the one member of [1] is odd, so the even-majority class is empty
        target = TargetClass(1, 1, majority == "even")
        assert target.feasible_cores(np.array([[False], [True]])).tolist() == feasible
        for s_fixed, want in zip((Subset(1, ()), Subset(1, (1,))), feasible):
            assert reference_feasible_extension(target, s_fixed) is want

    def test_parity_feasibility_limits_minority(self):
        # a member of the odd class at N=4 has only one even element; more than
        # ceil(N/3) evens can never extend into the odd class
        target = TargetClass(16, 4, even=False)
        cores = (Subset(16, (2,)), Subset(16, (2, 4)), Subset(16, (2, 4, 6)))
        assert feasible(target, *cores) == [True, False, False]

    def test_parity_feasibility_majority_slots(self):
        target = TargetClass(16, 4, even=False)
        assert feasible(target, Subset(16, (1, 3, 5)), Subset(16, (1, 3, 5, 7))) == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^target size 9 must lie in 0\.\.4$"):
            TargetClass(4, 9)
        with pytest.raises(ValueError, match=r"^target size -1 must lie in 0\.\.4$"):
            TargetClass(4, -1)


class TestFixingProcedure:
    def test_full_binomial_family_exits_immediately(self):
        # every element of [4] lies in 3 of the 6 two-subsets; 3 < 6*4^(-1/4)
        fam = enumerate_family(4, 2)
        cert = fixing_procedure(fam, 0.25, 4, target=TargetClass(4, 1))
        assert cert.iterations == 0
        assert cert.s_fixed.members == ()
        assert len(cert.family_prime) == 6
        assert abs(cert.max_offfixed_fraction - 0.5) < 1e-12
        ok, diag = check_distributed(
            cert.family_prime, cert.s_fixed, 0.25, TargetClass(4, 1), 4
        )
        assert ok, diag

    def test_target_over_another_universe_is_refused(self):
        with pytest.raises(ValueError, match=r"^universe mismatch: 5 vs 4$"):
            fixing_procedure(enumerate_family(4, 2), 0.25, 4, target=TargetClass(5, 1))

    def test_common_element_absorbed_without_shrink(self):
        fam = family_of(4, (1, 2), (1, 3), (1, 4))
        cert = fixing_procedure(fam, 0.25, 4)
        assert cert.s_fixed.members == (1,)
        assert len(cert.family_prime) == 3
        assert cert.shrink_log == ()

    def test_single_set_fixes_itself(self):
        fam = family_of(6, (2, 3, 5))
        cert = fixing_procedure(fam, 0.25, 4)
        assert cert.s_fixed.members == (2, 3, 5)
        assert len(cert.family_prime) == 1
        assert cert.max_offfixed_fraction == 0.0

    def test_shrink_path(self):
        # threshold 16^(-1/4) = 1/2: nu(1)=2 of 3 qualifies, then nu(2)=1 of 2
        fam = family_of(3, (1, 2), (1, 3), (2, 3))
        cert = fixing_procedure(fam, 0.25, 16)
        assert cert.s_fixed.members == (1, 2)
        assert [s.members for s in sets_of(cert.family_prime)] == [(1, 2)]
        assert cert.iterations == 2
        assert cert.shrink_log[0] == (1, 2, 3)
        for element, nu, before in cert.shrink_log:
            assert nu >= before * 16 ** (-0.25) - 1e-12

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fixing_procedure(SubsetFamily(4, np.zeros((0, 4), dtype=bool)), 0.25, 4)

    def test_alpha_range(self):
        fam = enumerate_family(4, 2)
        with pytest.raises(ValueError):
            fixing_procedure(fam, 0.7, 4)
        with pytest.raises(ValueError):
            fixing_procedure(fam, 0.0, 4)

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_terminates_within_universe_iterations(self, seed):
        rng = philox_stream(seed)
        count = int(rng.integers(1, 30))
        fam = sample_family(10, 3, min(count, math.comb(10, 3)), rng)
        cert = fixing_procedure(fam, 0.3, 8)
        assert cert.iterations <= 10
        # exit condition: every off-core frequency is below the threshold
        counts = cert.family_prime.element_counts()
        size = len(cert.family_prime)
        for element, nu in counts.items():
            if element not in cert.s_fixed.members:
                assert nu < size * 8 ** (-0.3)

    def test_certificate_core_contained_everywhere(self):
        fam = sample_family(12, 4, 40, philox_stream(77))
        cert = fixing_procedure(fam, 0.25, 4)
        for s in sets_of(cert.family_prime):
            assert issubset(cert.s_fixed, s)


class TestCheckDistributed:
    def test_detects_full_frequency_off_core_element(self):
        fam = family_of(4, (1, 2), (1, 3))
        ok, diag = check_distributed(
            fam, Subset(4, ()), 0.25, TargetClass(4, 1), 4
        )
        assert not ok
        assert not diag["fraction_ok"]

    def test_detects_infeasible_core(self):
        fam = family_of(16, (2, 4, 6))
        ok, diag = check_distributed(
            fam, Subset(16, (2, 4, 6)), 0.25, TargetClass(16, 4, even=False), 4
        )
        assert not ok
        assert not diag["target_feasible"]

    def test_detects_core_not_contained(self):
        fam = family_of(4, (1, 2), (3, 4))
        ok, diag = check_distributed(
            fam, Subset(4, (1,)), 0.25, TargetClass(4, 1), 4
        )
        assert not ok
        assert not diag["core_in_all_members"]


# The Subset-tuple implementations that the incidence-row family replaced,
# kept as the reference for the array versions.


def reference_sample_family(universe, k, count, rng):
    seen = set()
    sets = []
    while len(sets) < count:
        members = tuple(sorted(int(x) + 1 for x in rng.choice(universe, size=k, replace=False)))
        if members not in seen:
            seen.add(members)
            sets.append(Subset(universe, members))
    return tuple(sets)


def reference_element_counts(sets):
    counts = {}
    for s in sets:
        for m in s.members:
            counts[m] = counts.get(m, 0) + 1
    return counts


def reference_restrict_to(sets, label):
    return tuple(s for s in sets if label in s.members)


def reference_fixing_procedure(universe, sets, alpha, n_ref, target):
    """(family_prime sets, s_fixed, max fraction, feasible, iterations, shrink_log)."""
    threshold_factor = n_ref ** (-alpha)
    current = sets
    fixed = set()
    log = []
    iterations = 0
    while True:
        size = len(current)
        counts = reference_element_counts(current)
        full = sorted(i for i, nu in counts.items() if nu == size and i not in fixed)
        if full:
            fixed.add(full[0])
            iterations += 1
            continue
        cut = size * threshold_factor
        eligible = sorted(i for i, nu in counts.items() if i not in fixed and size > nu >= cut)
        if not eligible:
            break
        element = eligible[0]
        log.append((element, counts[element], size))
        current = reference_restrict_to(current, element)
        fixed.add(element)
        iterations += 1
    counts = reference_element_counts(current)
    off = [nu for i, nu in counts.items() if i not in fixed]
    max_fraction = max(off) / len(current) if off else 0.0
    s_fixed = Subset(universe, tuple(sorted(fixed)))
    feasible = reference_feasible_extension(target, s_fixed)
    return current, s_fixed, max_fraction, feasible, iterations, tuple(log)


def reference_check_distributed(sets, s_fixed, beta, target, n_ref):
    core_in_all = all(issubset(s_fixed, s) for s in sets)
    feasible = reference_feasible_extension(target, s_fixed)
    counts = reference_element_counts(sets)
    off = {i: nu for i, nu in counts.items() if i not in s_fixed.members}
    max_fraction = max(off.values()) / len(sets) if off else 0.0
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


@st.composite
def families(draw):
    """A random family over V <= 10: small ones shrink, larger ones mostly do not."""
    v = draw(st.integers(1, 10))
    masks = draw(st.lists(st.integers(0, 2**v - 1), min_size=1, max_size=24, unique=True))
    sets = tuple(Subset(v, tuple(i + 1 for i in range(v) if m >> i & 1)) for m in masks)
    return v, sets


class TestIncidenceMatchesReference:
    @given(
        families(),
        st.sampled_from((0.1, 0.25, 0.3, 0.49)),
        st.sampled_from((2, 4, 8, 16, 100)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_fixing_and_check_match_reference(self, fam, alpha, n_ref, data):
        v, sets = fam
        family = family_of_sets(v, sets)
        target = TargetClass(v, data.draw(st.integers(0, v)))
        assert family.element_counts() == reference_element_counts(sets)

        cert = fixing_procedure(family, alpha, n_ref, target=target)
        prime, s_fixed, fraction, feasible, iterations, log = reference_fixing_procedure(
            v, sets, alpha, n_ref, target
        )
        assert sets_of(cert.family_prime) == prime
        assert cert.s_fixed == s_fixed
        assert cert.max_offfixed_fraction == fraction
        assert type(cert.max_offfixed_fraction) is float
        assert cert.target_feasible == feasible
        assert cert.iterations == iterations
        assert cert.shrink_log == log
        assert cert.beta == alpha

        core = Subset(v, tuple(sorted(data.draw(st.sets(st.integers(1, v), max_size=3)))))
        for family_, sets_, core_ in ((cert.family_prime, prime, s_fixed), (family, sets, core)):
            ok, diag = check_distributed(family_, core_, alpha, target, n_ref)
            want_ok, want_diag = reference_check_distributed(sets_, core_, alpha, target, n_ref)
            assert ok == want_ok
            assert diag == want_diag
            assert all(type(diag[key]) is type(want_diag[key]) for key in want_diag)

    def test_three_shrinks_match_reference(self):
        sets = tuple(Subset(5, m) for m in ((1, 2), (1, 2, 3), (1, 4), (2, 5), (3,)))
        target = TargetClass(5, 2)
        cert = fixing_procedure(family_of_sets(5, sets), 0.25, 16, target)
        assert cert.shrink_log == ((1, 3, 5), (2, 2, 3), (3, 1, 2))
        assert cert.shrink_log == reference_fixing_procedure(5, sets, 0.25, 16, target)[5]

    @pytest.mark.parametrize(
        "universe,k,count,seed",
        [(16, 4, 455, 642), (16, 4, 114, 4642), (10, 3, 29, 5), (6, 2, 15, 1), (12, 4, 62, 9),
         # numpy's Generator.choice runs Floyd's algorithm at V <= 10,000 or k <= V // 50,
         # and a tail shuffle of arange(V) otherwise
         (10001, 199, 4, 3), (10001, 200, 4, 3), (10000, 201, 4, 3), (10001, 201, 4, 3),
         (10001, 10001, 1, 3),
         (8, 0, 0, 2), (8, 0, 1, 2), (8, 1, 5, 2), (8, 1, 8, 2), (8, 8, 1, 2), (8, 3, 56, 4),
         # rows of more than 64 labels are keyed as bytes, not as one word
         (70, 2, 2000, 5)],
    )
    def test_sample_family_draws_unchanged(self, universe, k, count, seed):
        got = sample_family(universe, k, count, philox_stream(seed))
        want = reference_sample_family(universe, k, count, philox_stream(seed))
        assert [s.members for s in sets_of(got)] == [s.members for s in want]

    @pytest.mark.parametrize("chunk_rows", [1, 4])
    def test_sample_family_batch_size_does_not_change_draws(self, chunk_rows, monkeypatch):
        # small batches: many rounds, and batches that grow with the kept sets
        monkeypatch.setattr(core, "ENUMERATION_CHUNK_ROWS", chunk_rows)
        got = sample_family(16, 4, 455, philox_stream(642))
        want = reference_sample_family(16, 4, 455, philox_stream(642))
        assert [s.members for s in sets_of(got)] == [s.members for s in want]

    @given(st.data(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_sample_family_draws_match_reference(self, data, seed):
        universe = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(0, universe))
        count = data.draw(st.integers(0, math.comb(universe, k)))
        got = sample_family(universe, k, count, philox_stream(seed))
        want = reference_sample_family(universe, k, count, philox_stream(seed))
        assert [s.members for s in sets_of(got)] == [s.members for s in want]


def reference_feasible_extension(target, s_fixed):
    """The per-`Subset` test that `TargetClass.feasible_cores` replaced: a core of
    at most `size` labels for a fixed-size class, the parity split for a promise class."""
    if target.even is None:
        return len(s_fixed) <= target.size
    majority = "even" if target.even else "odd"
    count, block = majority_count(target.size), target.size
    k_even = sum(1 for m in s_fixed.members if m % 2 == 0)
    k_odd = len(s_fixed) - k_even
    maj, minr = (k_odd, k_even) if majority == "odd" else (k_even, k_odd)
    need_maj = count - maj
    need_min = (block - count) - minr
    if need_maj < 0 or need_min < 0:
        return False
    evens_total = target.universe // 2
    free_odd = target.universe - evens_total - k_odd
    free_even = evens_total - k_even
    if majority == "odd":
        return need_maj <= free_odd and need_min <= free_even
    return need_maj <= free_even and need_min <= free_odd


@st.composite
def family_stacks(draw):
    """(V, one tuple of `Subset`s per family) with one row count for all: some
    families random, some with a label in every member."""
    v = draw(st.integers(2, 7))
    rows = draw(st.integers(1, min(10, 2 ** (v - 1))))
    stack = []
    for common in draw(st.lists(st.booleans(), min_size=1, max_size=6)):
        if common:  # label `at` + 1 joins every member: absorbed without a shrink
            at = draw(st.integers(0, v - 1))
            low = draw(st.lists(st.integers(0, 2 ** (v - 1) - 1), min_size=rows,
                                max_size=rows, unique=True))
            masks = [m & ((1 << at) - 1) | 1 << at | (m >> at) << (at + 1) for m in low]
        else:
            masks = draw(st.lists(st.integers(0, 2**v - 1), min_size=rows, max_size=rows,
                                  unique=True))
        stack.append(tuple(Subset(v, tuple(i + 1 for i in range(v) if m >> i & 1)) for m in masks))
    return v, stack


def assert_stack_matches_reference(v, stack_sets, alpha, n_ref, target):
    """The stacked kernel and check, family by family, against the references."""
    stack = np.stack([incidence_rows(v, sets) for sets in stack_sets])
    run = fixing_procedure_stack(stack, alpha, n_ref)
    ok, diag = check_distributed_stack(stack, run.alive, run.fixed, alpha, target, n_ref)
    outcomes = set()
    for f, sets in enumerate(stack_sets):
        prime, s_fixed, fraction, _, iterations, log = reference_fixing_procedure(
            v, sets, alpha, n_ref, target
        )
        assert np.array_equal(stack[f][run.alive[f]], incidence_rows(v, prime))
        assert np.array_equal(run.fixed[f], s_fixed.incidence)
        assert run.max_offfixed_fraction[f] == fraction
        assert run.iterations[f] == iterations
        assert run.shrink_logs[f] == log
        want_ok, want_diag = reference_check_distributed(prime, s_fixed, alpha, target, n_ref)
        assert ok[f] == want_ok
        assert {key: value[f].item() for key, value in diag.items()} == want_diag
        outcomes.add("shrinks" if log else "absorbs" if iterations else "stops")
    return outcomes


class TestFixingStackMatchesReference:
    @given(
        family_stacks(),
        st.sampled_from((0.1, 0.25, 0.3, 0.49)),
        st.sampled_from((2, 4, 8, 16, 100)),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_each_family_matches_the_reference(self, drawn, alpha, n_ref, data):
        v, stack_sets = drawn
        target = TargetClass(v, data.draw(st.integers(0, v)))
        assert_stack_matches_reference(v, stack_sets, alpha, n_ref, target)
        # the check on whole families with arbitrary cores
        stack = np.stack([incidence_rows(v, sets) for sets in stack_sets])
        cores = [Subset(v, tuple(sorted(data.draw(st.sets(st.integers(1, v), max_size=3)))))
                 for _ in stack_sets]
        ok, diag = check_distributed_stack(
            stack, np.ones(stack.shape[:2], dtype=bool),
            np.stack([core.incidence for core in cores]), alpha, target, n_ref,
        )
        for f, (sets, core) in enumerate(zip(stack_sets, cores)):
            want_ok, want_diag = reference_check_distributed(sets, core, alpha, target, n_ref)
            assert ok[f] == want_ok
            assert {key: value[f].item() for key, value in diag.items()} == want_diag

    def test_one_stack_shrinks_absorbs_and_stops(self):
        # threshold 16^(-1/4) = 1/2 of three sets: a label in two of them qualifies
        stack_sets = [
            tuple(Subset(4, m) for m in members) for members in (
                ((1, 2), (1, 3), (2, 3)),  # shrinks on 1, then on 2
                ((1, 2), (1, 3), (1, 4)),  # absorbs 1, then stops
                ((1,), (2,), (3,)),  # stops at once
                ((1, 2, 3), (1, 2, 4), (3, 4)),  # shrinks on 1, absorbs 2, shrinks on 3
            )
        ]
        target = TargetClass(4, 2)
        outcomes = assert_stack_matches_reference(4, stack_sets, 0.25, 16, target)
        assert outcomes == {"shrinks", "absorbs", "stops"}
        run = fixing_procedure_stack(
            np.stack([incidence_rows(4, sets) for sets in stack_sets]), 0.25, 16)
        assert run.iterations.tolist() == [2, 1, 0, 3]
        assert run.shrink_logs[3] == ((1, 2, 3), (3, 1, 2))

    def test_a_repeated_row_in_one_family_raises(self):
        stack = np.zeros((3, 2, 5), dtype=bool)
        stack[:, 0, 0] = True
        stack[1, 1, 0] = True  # family 1 holds {1} twice
        stack[[0, 2], 1, 4] = True
        with pytest.raises(ValueError, match=r"^family 1: duplicate subset \(1,\)$"):
            fixing_procedure_stack(stack, 0.25, 4)

    @pytest.mark.parametrize("universe", [1, 2, 5, 16])
    def test_fixed_size_feasibility_is_the_size_bound(self, universe):
        cores = philox_stream(universe).random((200, universe)) < 0.3
        for size in range(universe + 1):
            got = TargetClass(universe, size).feasible_cores(cores)
            assert np.array_equal(got, cores.sum(axis=1) <= size)

    @pytest.mark.parametrize("majority", ["odd", "even"])
    @pytest.mark.parametrize("block", [2, 3, 4])
    def test_parity_feasibility_matches_the_reference(self, majority, block):
        target = TargetClass(block**2, block, majority == "even")
        cores = philox_stream(block).random((400, block**2)) < 0.15
        got = target.feasible_cores(cores)
        for core, feasible in zip(cores, got):
            s_fixed = Subset(block**2, tuple(int(i) + 1 for i in np.flatnonzero(core)))
            assert feasible == reference_feasible_extension(target, s_fixed)
        assert got.any() and not got.all()


class TestWitnessPigeonhole:
    def test_examples(self):
        assert witness_pigeonhole(1820, 4) == 114
        assert witness_pigeonhole(37, 0) == 37
        assert witness_pigeonhole(1, 10) == 1

    @given(st.integers(0, 10**9), st.integers(0, 40))
    def test_buckets_cover_family(self, size, bits):
        assert witness_pigeonhole(size, bits) * 2**bits >= size

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            witness_pigeonhole(-1, 2)


def reference_log2_binomial(x, y):
    """`_log2_binomial` with nothing shared: mpmath's log-gamma and ln 2 on each call."""
    return _log2_binomial(x, y, mpmath.loggamma, mpmath.log(2))


def reference_crossover_rows(alpha, p_coeffs, variant, f, n_max):
    """Reference route: every log-binomial recomputed for this one alpha."""
    rows = []
    with mpmath.workdps(CROSSOVER_PRECISION_DPS):
        alpha_mp = mpmath.mpf(alpha)
        f_mp = mpmath.mpf(f)
        for n in range(1, n_max + 1):
            big_n = mpmath.mpf(2) ** n
            lg_n = mpmath.mpf(n)
            p_of_n = mpmath.mpf(eval_poly(p_coeffs, n))
            if variant == "uniform":
                upper = reference_log2_binomial(big_n**2, f_mp * big_n) + alpha_mp * lg_n
                lower = (
                    reference_log2_binomial(big_n**2, big_n)
                    - p_of_n
                    - alpha_mp * f_mp * big_n * lg_n
                )
            else:
                half = big_n**2 / 2
                upper = 2 * reference_log2_binomial(half, f_mp * big_n / 2) + alpha_mp * lg_n
                lower = (
                    reference_log2_binomial(half, 2 * big_n / 3)
                    + reference_log2_binomial(half, big_n / 3)
                    - p_of_n
                    - alpha_mp * f_mp * big_n * lg_n
                )
            rows.append((n, float(upper), float(lower), bool(lower > upper)))
    return tuple(rows)


class TestBoundCrossover:
    def test_uniform_crossover_shape(self):
        rep = bound_crossover(0.25, (0.0, 1.0), "uniform")
        assert isinstance(rep, CrossoverReport)
        assert rep.n_star is not None
        n, up, lo, crossed = rep.rows[rep.n_star - 1]
        assert n == rep.n_star and crossed and lo > up
        if rep.n_star > 1:
            _, up_prev, lo_prev, crossed_prev = rep.rows[rep.n_star - 2]
            assert not crossed_prev and lo_prev <= up_prev
        assert rep.sign_flips == 1

    def test_parity_crossover_shape(self):
        rep = bound_crossover(0.25, (0.0, 1.0), "parity")
        assert rep.n_star is not None
        assert rep.sign_flips == 1

    def test_parity_count_overstates_the_integer_class_size(self):
        # the parity variant's count C(N^2/2, 2N/3) C(N^2/2, N/3) is a continuous
        # log-gamma binomial; the class it stands for has
        # C(N^2/2, ceil(2N/3)) C(N^2/2, N - ceil(2N/3)) members
        alpha, f = 0.25, 2.0 / 3.0
        rep = bound_crossover(alpha, (0.0,), "parity")
        gaps = []
        for n, _, lower, _ in rep.rows[:8]:
            big_n, half = 2**n, 2 ** (2 * n - 1)
            want = -((-2 * big_n) // 3)
            exact = math.log2(math.comb(half, want) * math.comb(half, big_n - want))
            gaps.append(round(lower + alpha * f * big_n * n - exact, 2))
        assert gaps == [1.79, 0.45, 0.86, 0.36, 0.71, 0.34, 0.68, 0.33]

    def test_monotone_in_alpha(self):
        for variant in ("uniform", "parity"):
            stars = [
                bound_crossover(a, (0.0, 1.0), variant).n_star
                for a in (0.1, 0.2, 0.3, 0.4)
            ]
            assert all(s is not None for s in stars)
            assert all(a <= b for a, b in zip(stars, stars[1:]))

    def test_smaller_witness_budget_crosses_earlier(self):
        flat = bound_crossover(0.25, (0.0,), "uniform").n_star
        quadratic = bound_crossover(0.25, (0.0, 0.0, 1.0), "uniform").n_star
        assert flat <= quadratic

    def test_no_crossover_message(self):
        rep = bound_crossover(0.25, (0.0, 1.0), "uniform", n_max=1)
        assert rep.n_star is None
        assert "no crossover found <= 1" in rep.message

    def test_variant_and_alpha_validation(self):
        with pytest.raises(ValueError):
            bound_crossover(0.25, (0.0,), "diagonal")
        with pytest.raises(ValueError):
            bound_crossover(0.6, (0.0,), "parity")
        with pytest.raises(ValueError):
            bound_crossover(1.2, (0.0,), "uniform")
        # uniform tolerates alpha up to 1
        assert bound_crossover(0.8, (0.0,), "uniform").rows

    @pytest.mark.parametrize("variant", ["uniform", "parity"])
    def test_batched_reports_equal_per_alpha_calls(self, variant):
        alphas = (0.25, 0.1, 0.2, 0.3, 0.4)
        for coeffs, n_max in (((0.0, 1.0), 64), ((1.0, 0.5, 0.25), 12)):
            reports = bound_crossovers(alphas, coeffs, variant, n_max=n_max)
            assert reports == tuple(
                bound_crossover(a, coeffs, variant, n_max=n_max) for a in alphas
            )
            for alpha, rep in zip(alphas, reports, strict=True):
                assert rep.rows == reference_crossover_rows(alpha, coeffs, variant, rep.fix_fraction, n_max)
        assert bound_crossovers((), (0.0,), variant) == ()

    def test_batched_alpha_validation_names_the_bad_alpha(self):
        with pytest.raises(ValueError, match=r"^parity variant needs alpha in \(0, 1/2\), got 0\.6$"):
            bound_crossovers((0.1, 0.6), (0.0,), "parity")

    def test_eval_poly(self):
        assert eval_poly((1.0, 2.0, 3.0), 2.0) == 1 + 4 + 12


def test_crossover_curves_script_runs():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "crossover_curves.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(proc.stdout.splitlines()))
    assert rows[0] == ["variant", "alpha", "n", "log_upper", "log_lower", "crossed"]
    assert len(rows) == 1 + 2 * 5 * 24  # two variants, five alphas, n = 1..24
    assert proc.stderr.count("crossover at n =") == 10
