import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import verifier
from permlab.core import DensityMatrix, PureState, Subset, philox_stream, subset_state
from permlab.oracles import apply_randomized_preimage, block_average, representative_sigma
from permlab.verifier import (
    PROBABILITY_TOL,
    THRESHOLD_LO,
    PreimageInstance,
    acceptance_operator,
    analytic_optimum,
    even_count,
    meets_threshold,
    optimal_witness_prob,
    parity_class,
    promise_labels,
    random_instance,
    random_instance_row,
    sweep_honest,
    sweep_lambda,
)
from permlab.verifier import test_i as probe_i
from permlab.verifier import test_i_circuit as probe_i_circuit
from permlab.verifier import test_ii as probe_ii
from reference import as_permutation, diagonal, majority_count


YES_N2 = PreimageInstance(Subset(16, (1, 2, 4, 6)), n=2)
NO_N2 = PreimageInstance(Subset(16, (1, 2, 3, 5)), n=2)
NO_N1 = PreimageInstance(Subset(4, (1, 3)), n=1)
YES_N6 = PreimageInstance(Subset(36, (1, 2, 3, 4, 6, 8)))
NO_N6 = PreimageInstance(Subset(36, (1, 2, 3, 4, 5, 7)))


def random_witness(dim, seed):
    rng = philox_stream(seed)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(dim, z / np.linalg.norm(z))


def honest_witness(inst):
    return subset_state(inst.subset, inst.dim)


def rows_of(instances):
    """The instances' preimage sets as one (count, V) incidence array."""
    return np.stack([inst.subset.incidence for inst in instances])


def reference_instance_arrays(rows):
    """Reference route for the sweeps' arrays: each row's members as 0-based
    indices, scattered as 1/sqrt(N) into a state and, where odd, into the mask."""
    block = int(rows[0].sum())
    members = np.stack([np.flatnonzero(row) for row in rows])
    states = np.zeros(rows.shape)
    np.put_along_axis(states, members, 1.0 / math.sqrt(block), axis=1)
    even = np.zeros(rows.shape, dtype=bool)
    np.put_along_axis(even, members, members % 2 == 1, axis=1)
    return states, even


def reference_random_members(n_labels, label, rng):
    """Reference route for `random_instance_row`: choices over the even and the
    odd labels themselves, merged into sorted members."""
    k_even = majority_count(n_labels) if label == "YES" else n_labels - majority_count(n_labels)
    universe = n_labels**2
    evens = rng.choice(np.arange(2, universe + 1, 2), size=k_even, replace=False)
    odds = rng.choice(np.arange(1, universe + 1, 2), size=n_labels - k_even, replace=False)
    return tuple(sorted(int(x) for x in np.concatenate([evens, odds])))


@dataclass(frozen=True)
class VerifierReport:
    p_test_i: float
    p_test_ii: float
    p_accept: float
    witness_used: PureState

    def __post_init__(self) -> None:
        verifier._check_report(self.p_test_i, self.p_test_ii, self.p_accept)


def run_verifier(inst, witness):
    """Both tests plus their fair-coin average."""
    p1 = probe_i(inst, witness)
    p2 = probe_ii(inst, witness)
    return VerifierReport(p1, p2, 0.5 * (p1 + p2), witness)


def target_state(inst):
    """The uniform state over [N] that test (i) projects onto."""
    return subset_state(Subset(inst.dim, tuple(range(1, inst.block + 1))), inst.dim)


@dataclass(frozen=True)
class ClassifyReport:
    label: str
    p_honest: float
    lambda_max: float
    threshold_hi: float
    threshold_lo: float
    completeness_ok: bool
    soundness_ok: bool
    message: str


def classify(inst, threshold_hi=5.0 / 6.0, threshold_lo=THRESHOLD_LO):
    """Evaluate one instance against the completeness and soundness thresholds."""
    p_honest = run_verifier(inst, honest_witness(inst)).p_accept
    lam, _ = optimal_witness_prob(inst)
    completeness_ok = meets_threshold("YES", lam, threshold_lo)
    soundness_ok = meets_threshold("NO", lam, threshold_lo)
    if inst.label == "YES":
        message = (
            f"completeness holds at {p_honest:.6g} >= {threshold_lo:.6g}"
            if p_honest >= threshold_lo - PROBABILITY_TOL
            else f"completeness FAILS at {p_honest:.6g} < {threshold_lo:.6g}"
        )
    else:
        message = (
            f"soundness holds: lambda_max = {lam:.6g} <= {threshold_lo:.6g}"
            if soundness_ok
            else f"soundness FAILS: lambda_max = {lam:.6g} > {threshold_lo:.6g}"
        )
    return ClassifyReport(
        inst.label, p_honest, lam, threshold_hi, threshold_lo,
        completeness_ok, soundness_ok, message,
    )


def channel_test_i(inst, witness):
    """Reference for test (i): run the randomized channel, then project."""
    out = apply_randomized_preimage(inst.subset, DensityMatrix.from_pure(witness))
    psi = target_state(inst).amplitudes
    return float(np.real(psi.conj() @ out.entries @ psi))


def channel_test_ii(inst, witness):
    """Reference for test (ii): measure, keep the even outcomes, send that mixture
    through the channel, and take the weight that lands in [N]."""
    kept = np.abs(witness.amplitudes) ** 2
    kept[0::2] = 0.0  # 0-based index i holds label i + 1, so even indices hold odd labels
    p_even = float(np.sum(kept))
    if p_even == 0.0:
        return 0.0
    landed = apply_randomized_preimage(
        inst.subset, DensityMatrix(inst.dim, np.diag(kept / p_even))
    )
    return p_even * float(np.sum(diagonal(landed)[: inst.block]))


def channel_acceptance_operator(inst):
    """Reference for M: the adjoint channel on the target projector, plus the even part."""
    psi = target_state(inst).amplitudes
    p = as_permutation(representative_sigma(inst.subset, inst.block)).matrix()
    m_i = p.T @ block_average(np.outer(psi, psi.conj()), inst.block) @ p
    d = np.zeros((inst.dim, inst.dim), dtype=np.complex128)
    for label in inst.subset.members:
        if label % 2 == 0:
            d[label - 1, label - 1] = 1.0
    return 0.5 * (m_i + d)


# (n, N) pairs: power-of-two sizes n = 1..3 and the fractional N = 6
SIZES = ((1, 2), (2, 4), (3, 8), (None, 6))
# the same with the larger fractional sizes, for the sweep
SWEEP_SIZES = SIZES + ((None, 9), (None, 12))


class TestInstances:
    def test_majority_counts(self):
        assert even_count(2, "YES") == 2
        assert even_count(4, "YES") == 3
        assert even_count(6, "YES") == 4
        assert even_count(8, "YES") == 6

    def test_even_counts_follow_the_label(self):
        for n_labels in range(1, 13):
            assert even_count(n_labels, "YES") == majority_count(n_labels)
            assert even_count(n_labels, "NO") == n_labels - majority_count(n_labels)

    def test_labels_derived_from_parity(self):
        assert YES_N2.label == "YES" and YES_N2.k_even == 3
        assert NO_N2.label == "NO" and NO_N2.k_even == 1
        assert NO_N1.k_even == 0
        assert (YES_N6.block, YES_N6.dim, YES_N6.n) == (6, 36, None)
        assert (NO_N1.block, NO_N1.dim, NO_N1.n) == (2, 4, 1)

    def test_rejects_off_promise_subsets(self):
        with pytest.raises(ValueError, match="parity"):
            PreimageInstance(Subset(16, (1, 2, 3, 4)), n=2)

    def test_rejects_bad_shapes(self):
        # a universe that is not N^2 for N = |S|, and a set of the wrong size
        with pytest.raises(ValueError, match="N members of \\[N\\^2\\], got \\(1, 5\\)"):
            PreimageInstance(Subset(5, (2, 4)), n=1)
        with pytest.raises(ValueError, match="N members of \\[N\\^2\\], got \\(1, 4\\)"):
            PreimageInstance(Subset(4, (2,)), n=1)
        with pytest.raises(ValueError, match="2\\^n"):
            PreimageInstance(Subset(36, (1, 2, 3, 4, 6, 8)), n=2)

    def test_enumeration_counts(self):
        assert len(parity_class(1, "YES")) == 1
        assert len(parity_class(1, "NO")) == 1
        assert len(parity_class(2, "NO")) == 448
        k_even, labels = promise_labels(parity_class(2, "NO").incidence)
        assert (k_even == 1).all() and (labels == "NO").all()

    def test_random_instances_respect_label(self):
        for seed in range(5):
            inst = random_instance(4, "NO", philox_stream(seed), n=2)
            assert inst.label == "NO"
            k_even = sum(1 for m in inst.subset.members if m % 2 == 0)
            assert k_even == inst.k_even == 1 and len(inst.subset) - k_even == 3

    @pytest.mark.parametrize("n_labels", [2, 3, 4, 6, 8, 9])
    def test_random_rows_equal_the_label_choices_bit_for_bit(self, n_labels):
        for seed in range(4):
            for label in ("YES", "NO"):
                rng, ref_rng = philox_stream(seed, n_labels), philox_stream(seed, n_labels)
                row = random_instance_row(n_labels, label, rng)
                want = reference_random_members(n_labels, label, ref_rng)
                assert row.dtype == bool and row.shape == (n_labels**2,)
                assert tuple((np.flatnonzero(row) + 1).tolist()) == want
                assert rng.random() == ref_rng.random()  # same stream position afterwards
                inst = random_instance(n_labels, label, philox_stream(seed, n_labels))
                assert inst.subset.members == want and inst.label == label


class TestTestI:
    def test_honest_witness_is_perfect(self):
        for inst in (YES_N2, NO_N2, YES_N6, NO_N1):
            assert abs(probe_i(inst, honest_witness(inst)) - 1.0) < 1e-12

    def test_basis_witness_outside_subset(self):
        p = probe_i(YES_N2, PureState.basis(16, 3))
        assert 0 <= p < 1 / 4
        assert p < 1e-12

    def test_orthogonal_witness_scores_zero(self):
        # supported on S but orthogonal to |S>
        amps = np.zeros(16, dtype=complex)
        amps[0], amps[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        assert probe_i(YES_N2, PureState(16, amps)) < 1e-12

    def test_equals_overlap_with_subset_state(self):
        s_vec = subset_state(YES_N2.subset, 16).amplitudes
        for seed in range(20):
            w = random_witness(16, seed)
            direct = abs(np.vdot(s_vec, w.amplitudes)) ** 2
            assert abs(probe_i(YES_N2, w) - direct) < 1e-12

    def test_circuit_realization_matches_projector(self):
        for inst in (YES_N2, NO_N2):
            for seed in range(10):
                w = random_witness(16, 100 + seed)
                assert abs(probe_i(inst, w) - probe_i_circuit(inst, w)) < 1e-12
        inst1 = PreimageInstance(Subset(4, (2, 4)), n=1)
        for seed in range(5):
            w = random_witness(4, 200 + seed)
            assert abs(probe_i(inst1, w) - probe_i_circuit(inst1, w)) < 1e-12

    def test_witness_must_fit_the_instance(self):
        for probe in (probe_i, probe_ii):
            with pytest.raises(ValueError, match="witness dim 4 != instance dim 16"):
                probe(YES_N2, random_witness(4, 0))

    def test_circuit_requires_power_of_two(self):
        with pytest.raises(ValueError, match="2\\^n"):
            probe_i_circuit(YES_N6, honest_witness(YES_N6))


class TestTestII:
    def test_honest_yes_gives_even_fraction(self):
        assert abs(probe_ii(YES_N2, honest_witness(YES_N2)) - 3 / 4) < 1e-12
        assert abs(probe_ii(YES_N6, honest_witness(YES_N6)) - 4 / 6) < 1e-12

    def test_even_member_basis_state(self):
        assert abs(probe_ii(YES_N2, PureState.basis(16, 2)) - 1.0) < 1e-12

    def test_odd_basis_state_rejected(self):
        assert probe_ii(YES_N2, PureState.basis(16, 1)) == 0.0

    def test_even_non_member_rejected(self):
        assert probe_ii(YES_N2, PureState.basis(16, 8)) < 1e-12

    def test_matches_direct_formula(self):
        evens_in_s = [m for m in YES_N2.subset.members if m % 2 == 0]
        for seed in range(20):
            w = random_witness(16, 300 + seed)
            direct = sum(abs(w.amplitudes[m - 1]) ** 2 for m in evens_in_s)
            assert abs(probe_ii(YES_N2, w) - direct) < 1e-12


class TestAcceptanceOperator:
    def test_hermitian_and_bounded(self):
        for inst in (YES_N2, NO_N2, YES_N6):
            m = acceptance_operator(inst)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            eigs = np.linalg.eigvalsh(m)
            assert eigs[0] > -1e-12 and eigs[-1] < 1 + 1e-12

    def test_quadratic_form_reproduces_tests(self):
        for inst in (YES_N2, NO_N2):
            m = acceptance_operator(inst)
            for seed in range(100):
                w = random_witness(16, 400 + seed)
                qf = float(np.real(w.amplitudes.conj() @ m @ w.amplitudes))
                avg = 0.5 * (probe_i(inst, w) + probe_ii(inst, w))
                assert abs(qf - avg) < 1e-10

    def test_honest_yes_values(self):
        m = acceptance_operator(YES_N2)
        s = honest_witness(YES_N2).amplitudes
        assert abs(float(np.real(s @ m @ s)) - 7 / 8) < 1e-12
        m6 = acceptance_operator(YES_N6)
        s6 = honest_witness(YES_N6).amplitudes
        assert abs(float(np.real(s6 @ m6 @ s6)) - 5 / 6) < 1e-10


class TestOptimalWitness:
    def test_matches_closed_form(self):
        for inst in (YES_N2, NO_N2, NO_N1, YES_N6, NO_N6):
            lam, vec = optimal_witness_prob(inst)
            assert abs(lam - analytic_optimum(inst.subset.incidence[None])[0]) < 1e-12
            achieved = run_verifier(inst, vec).p_accept
            assert abs(achieved - lam) < 1e-10

    def test_no_instance_at_n1_meets_two_thirds(self):
        lam, _ = optimal_witness_prob(NO_N1)
        assert lam <= 2 / 3 + 1e-9

    def test_yes_optimum_dominates_honest(self):
        lam, _ = optimal_witness_prob(YES_N2)
        honest = run_verifier(YES_N2, honest_witness(YES_N2)).p_accept
        assert lam >= honest - 1e-12

    def test_no_instances_with_even_members_exceed_two_thirds(self):
        # the worst-case witness beats the 2/3 target whenever S has even
        # elements; the closed form is (1 + sqrt(k_even/N))/2
        lam2, _ = optimal_witness_prob(NO_N2)
        assert abs(lam2 - 0.75) < 1e-12
        lam6, _ = optimal_witness_prob(NO_N6)
        assert abs(lam6 - 0.5 * (1 + math.sqrt(1 / 3))) < 1e-12


class TestSoundnessChainInequality:
    def test_random_witnesses_respect_penultimate_bound(self):
        # (p_i + p_ii)/2 <= ((2/3)(1 - ((sqrt2-1)/sqrt2) p_ii)^2 + p_ii)/2
        # for haar-random witnesses on NO instances
        c = (math.sqrt(2) - 1) / math.sqrt(2)
        for inst in (NO_N2, NO_N6):
            for seed in range(1000):
                w = random_witness(inst.dim, 1000 + seed)
                p1 = probe_i(inst, w)
                p2 = probe_ii(inst, w)
                rhs = 0.5 * ((2 / 3) * (1 - c * p2) ** 2 + p2)
                assert 0.5 * (p1 + p2) <= rhs + 1e-9


class TestVerifierReport:
    def test_report_consistency(self):
        rep = run_verifier(YES_N2, honest_witness(YES_N2))
        assert rep.p_accept == 0.5 * (rep.p_test_i + rep.p_test_ii)
        with pytest.raises(ValueError, match="mean"):
            VerifierReport(1.0, 0.5, 0.9, honest_witness(YES_N2))
        with pytest.raises(ValueError, match="probability"):
            VerifierReport(1.5, 0.5, 1.0, honest_witness(YES_N2))


class TestClassify:
    def test_yes_report(self):
        rep = classify(YES_N2)
        assert isinstance(rep, ClassifyReport)
        assert rep.completeness_ok
        assert "completeness holds" in rep.message
        assert abs(rep.p_honest - 7 / 8) < 1e-12

    def test_no_n1_report(self):
        rep = classify(NO_N1)
        assert rep.soundness_ok
        assert "soundness holds" in rep.message

    def test_no_n2_report_flags_violation(self):
        rep = classify(NO_N2)
        assert not rep.soundness_ok
        assert "FAILS" in rep.message

    def test_thresholds_echoed(self):
        rep = classify(NO_N1, threshold_hi=0.9, threshold_lo=0.7)
        assert rep.threshold_hi == 0.9 and rep.threshold_lo == 0.7


class TestTargetState:
    def test_uniform_over_first_block(self):
        psi = target_state(YES_N2)
        np.testing.assert_allclose(psi.amplitudes[:4], [0.5] * 4, atol=1e-15)
        np.testing.assert_allclose(psi.amplitudes[4:], 0, atol=1e-15)


class TestClosedFormsMatchChannel:
    @given(
        st.sampled_from(SIZES),
        st.sampled_from(("YES", "NO")),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_structured_equals_channel_route(self, size, label, seed):
        n, big_n = size
        rng = philox_stream(seed)
        inst = random_instance(big_n, label, rng, n=n)
        w = random_witness(inst.dim, seed + 1)
        assert abs(probe_i(inst, w) - channel_test_i(inst, w)) <= 1e-12
        assert abs(probe_ii(inst, w) - channel_test_ii(inst, w)) <= 1e-12
        m = acceptance_operator(inst)
        assert np.max(np.abs(m - channel_acceptance_operator(inst))) <= 1e-12


class TestSweep:
    @given(
        st.sampled_from(SWEEP_SIZES),
        st.lists(st.sampled_from(("YES", "NO")), min_size=1, max_size=12),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_channel_routes_per_instance(self, size, labels, seed):
        n, big_n = size
        rng = philox_stream(seed)
        instances = [random_instance(big_n, label, rng, n=n) for label in labels]
        p_i, p_ii, p_accept = sweep_honest(rows_of(instances))
        lams = sweep_lambda(rows_of(instances))
        for k, inst in enumerate(instances):
            w = honest_witness(inst)
            assert abs(p_i[k] - channel_test_i(inst, w)) <= 1e-12
            assert abs(p_ii[k] - channel_test_ii(inst, w)) <= 1e-12
            assert abs(lams[k] - np.linalg.eigh(channel_acceptance_operator(inst))[0][-1]) <= 1e-12
        assert np.array_equal(p_accept, 0.5 * (p_i + p_ii))

    def test_equals_single_instance_calls_bit_for_bit(self):
        labels = ("YES", "NO") * 10
        instances = [random_instance(9, lab, philox_stream(5, t)) for t, lab in enumerate(labels)]
        p_i, p_ii, p_accept = sweep_honest(rows_of(instances))
        lams = sweep_lambda(rows_of(instances))
        for k, inst in enumerate(instances):
            report = run_verifier(inst, honest_witness(inst))
            assert (p_i[k], p_ii[k], p_accept[k]) == (
                report.p_test_i, report.p_test_ii, report.p_accept,
            )
            assert lams[k] == optimal_witness_prob(inst)[0]

    @pytest.mark.parametrize("n,label", [(1, "YES"), (1, "NO"), (2, "YES"), (2, "NO")])
    def test_instance_arrays_equal_the_member_route_bit_for_bit(self, n, label):
        rows = parity_class(n, label).incidence
        states, even = verifier._instance_arrays(rows)
        want_states, want_even = reference_instance_arrays(rows)
        assert np.array_equal(states, want_states) and np.array_equal(even, want_even)
        k_even, labels = promise_labels(rows)
        assert np.array_equal(k_even, want_even.sum(axis=1)) and (labels == label).all()

    def test_chunk_split_is_bit_for_bit(self, monkeypatch):
        instances = parity_class(2, "NO").incidence
        whole = (*sweep_honest(instances), sweep_lambda(instances))
        assert len(whole[0]) == len(whole[3]) == 448
        # one instance per chunk, then three per chunk with one left over
        for entries in (3, 3 * 16**2):
            monkeypatch.setattr(verifier, "SWEEP_CHUNK_ENTRIES", entries)
            for a, b in zip(whole, (*sweep_honest(instances), sweep_lambda(instances))):
                assert np.array_equal(a, b)

    @given(
        st.sampled_from(((1, 2), (2, 4), (3, 8), (4, 16), (None, 6), (None, 9), (None, 12))),
        st.lists(st.sampled_from(("YES", "NO")), min_size=1, max_size=8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_lambda_is_the_closed_form(self, size, labels, seed):
        n, big_n = size
        rng = philox_stream(seed)
        instances = rows_of([random_instance(big_n, label, rng, n=n) for label in labels])
        closed = [0.5 * (1 + math.sqrt(k / big_n)) for k in promise_labels(instances)[0]]
        assert np.array_equal(analytic_optimum(instances), closed)
        assert np.max(np.abs(sweep_lambda(instances) - closed)) <= 1e-12

    def test_chunk_rows_follow_the_entry_cap(self, monkeypatch):
        calls = {"eigh": [], "eigvalsh": []}

        def counting(name):
            original = getattr(np.linalg, name)

            def counted(m):
                calls[name].append(m.shape)
                return original(m)
            return counted

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        instances = parity_class(2, "NO").incidence
        sweep_honest(instances)
        assert calls == {"eigh": [], "eigvalsh": []}  # the honest columns need no eigensolve
        sweep_lambda(instances)
        assert calls == {"eigh": [], "eigvalsh": [(448, 16, 16)]}
        calls["eigvalsh"].clear()
        sweep_lambda(np.stack([
            random_instance_row(16, "YES", philox_stream(1, t)) for t in range(20)
        ]))
        assert calls == {"eigh": [], "eigvalsh": [(16, 256, 256), (4, 256, 256)]}

    def test_rows_off_the_promise_raise_value_error(self):
        good = rows_of([YES_N2, NO_N2])
        off_promise = rows_of([YES_N2])
        off_promise[0, [1, 2]] = off_promise[0, [2, 1]]  # labels 2 and 3 trade places
        bad = {
            "incidence rows": (good[:, :15], good.astype(int), good[0], np.zeros((2, 0), bool)),
            "parity split": (off_promise,),
        }
        wrong_size = good.copy()
        wrong_size[0, 15] = True
        bad["incidence rows"] += (wrong_size,)
        for run_sweep in (sweep_honest, sweep_lambda, promise_labels, analytic_optimum):
            for match, cases in bad.items():
                for rows in cases:
                    with pytest.raises(ValueError, match=match):
                        run_sweep(rows)

    def test_empty_sweep_returns_empty_arrays(self):
        empty = np.zeros((0, 16), dtype=bool)
        for column in (*sweep_honest(empty), sweep_lambda(empty)):
            assert column.shape == (0,) and column.dtype == np.float64

    def test_probability_checks_run_on_the_stack(self, monkeypatch):
        rows = rows_of([YES_N2, NO_N2])
        states, even = verifier._instance_arrays(rows)
        monkeypatch.setattr(verifier, "_instance_arrays", lambda rows: (1.5 * states, even))
        with pytest.raises(ValueError, match="computed probability"):
            sweep_honest(rows)
        with pytest.raises(ValueError, match="mean"):
            verifier._check_report(np.ones(2), np.full(2, 0.5), np.array([0.75, 0.8]))


def test_soundness_scan_script_runs():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "soundness_scan.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pairs = re.findall(r"optimal=(\S+)  closed-form=(\S+)", proc.stdout)
    assert len(pairs) == 12
    assert all(optimal == closed for optimal, closed in pairs)
