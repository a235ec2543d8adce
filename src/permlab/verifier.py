"""Preimage-checking verifier with exact acceptance probabilities.

An instance is a size-N subset S of [N^2] whose parity split meets the
promise: YES means ceil(2N/3) even labels, NO means ceil(2N/3) odd labels
(N a power of two is never divisible by 3, so the exact two-thirds split
only exists in the fractional variant where N is divisible by 3 and the
classic 5/6 and 2/3 figures appear verbatim).

The verifier flips a fair coin between two tests:
  (i)  apply the randomized preimage oracle to the witness and project onto
       the uniform state over [N];
  (ii) measure the witness, reject odd outcomes, then accept exactly when
       the oracle maps the outcome into [N].

Both run in closed form: the twirl fixes the [N]-uniform state and the
oracle maps S onto [N], so test (i) accepts with |<S|w>|^2, test (ii) with
the weight of w on the even members of S, and the acceptance operator is
(|S><S| + P_even)/2. The tests check these against the channel simulation.

`sweep_honest` verifies the honest witness of instances of one dimension as one
(count, V) array of subset states, reduced row by row; `sweep_lambda` takes
their lambda_max from (count, V, V) stacks of M, one batched `eigvalsh` each. A
caller runs only the sweep it reads. The one-instance functions remain for
arbitrary witnesses; `acceptance_operator` builds M as a stack of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .core import (
    DensityMatrix, PureState, Subset, SubsetFamily, enumerate_family, subset_state,
    validated_states,
)
from .oracles import apply_randomized_preimage

PROBABILITY_TOL = 1e-10
# The 2/3 mark: YES instances should reach it, NO instances should not pass it.
THRESHOLD_LO = 2.0 / 3.0
# An optimal acceptance at most this far above the mark still counts as sound.
SOUNDNESS_SLACK = 1e-9
# Float64 entries of one acceptance-operator stack in `sweep_lambda` (8 MB), the
# input of one batched `eigvalsh`: 4,096 instances at V = 16, 16 at V = 256 and
# one from V = 1024 on.
SWEEP_CHUNK_ENTRIES = 2**20


def meets_threshold(label: str, lam: float, threshold_lo: float = THRESHOLD_LO) -> bool:
    """The one rule on lambda_max: a YES instance reaches the mark, a NO one does not pass it."""
    if label == "YES":
        return lam >= threshold_lo - PROBABILITY_TOL
    return lam <= threshold_lo + SOUNDNESS_SLACK


def majority_count(n_labels: int) -> int:
    """Size of the dominant parity class in a promise instance: ceil(2N/3)."""
    return -((-2 * n_labels) // 3)


def _label_for(subset: Subset, n_labels: int) -> str:
    k_even, k_odd = subset.parity_counts()
    want = majority_count(n_labels)
    if k_even == want:
        return "YES"
    if k_odd == want:
        return "NO"
    raise ValueError(
        f"parity split ({k_even} even, {k_odd} odd) matches neither promise "
        f"class at N={n_labels} (majority count {want})"
    )


@dataclass(frozen=True)
class PreimageInstance:
    """A promise instance: the preimage set S, its size N, and its label."""

    n: int | None
    block: int
    subset: Subset
    label: str

    def __post_init__(self) -> None:
        if self.subset.universe != self.block**2:
            raise ValueError(
                f"universe {self.subset.universe} must be N^2 = {self.block ** 2}"
            )
        if len(self.subset) != self.block:
            raise ValueError(f"subset size {len(self.subset)} must equal N = {self.block}")
        if self.n is not None and 2**self.n != self.block:
            raise ValueError(f"N = {self.block} is not 2^n for n = {self.n}")
        if self.label != _label_for(self.subset, self.block):
            raise ValueError(f"label {self.label} does not match the parity counts")

    @property
    def dim(self) -> int:
        return self.block**2

    @property
    def k_even(self) -> int:
        return self.subset.parity_counts()[0]

    @classmethod
    def power_of_two(cls, n: int, subset: Subset) -> "PreimageInstance":
        return cls(n, 2**n, subset, _label_for(subset, 2**n))

    @classmethod
    def fractional(cls, n_labels: int, subset: Subset) -> "PreimageInstance":
        return cls(None, n_labels, subset, _label_for(subset, n_labels))


def parity_class(n: int, label: str) -> SubsetFamily:
    """The preimage sets of every instance at size N = 2^n with the requested
    label, lexicographic: the N-subsets of [N^2] with the label's number of
    even members (columns 1, 3, ... of the incidence rows)."""
    big_n = 2**n
    want = majority_count(big_n)
    k_even = want if label == "YES" else big_n - want
    return enumerate_family(big_n**2, big_n, lambda rows: rows[:, 1::2].sum(axis=1) == k_even)


def enumerate_instances(n: int, label: str) -> tuple[PreimageInstance, ...]:
    """Every instance at size N = 2^n with the requested label, lexicographic."""
    return tuple(PreimageInstance.power_of_two(n, s) for s in parity_class(n, label))


def random_instance(
    n_labels: int, label: str, rng: np.random.Generator, n: int | None = None
) -> PreimageInstance:
    """Sample a uniform promise instance with the requested label."""
    want = majority_count(n_labels)
    k_even = want if label == "YES" else n_labels - want
    universe = n_labels**2
    evens = np.arange(2, universe + 1, 2)
    odds = np.arange(1, universe + 1, 2)
    members = sorted(
        int(x) for x in itertools.chain(
            rng.choice(evens, size=k_even, replace=False),
            rng.choice(odds, size=n_labels - k_even, replace=False),
        )
    )
    subset = Subset(universe, tuple(members))
    return PreimageInstance(n, n_labels, subset, label)


def test_i(inst: PreimageInstance, witness: PureState) -> float:
    """Oracle the witness, then project onto the [N]-uniform state: |<S|w>|^2."""
    if witness.dim != inst.dim:
        raise ValueError(f"witness dim {witness.dim} != instance dim {inst.dim}")
    s = subset_state(inst.subset, inst.dim).amplitudes
    return float(_as_probability(abs(np.vdot(s, witness.amplitudes)) ** 2))


def test_i_circuit(inst: PreimageInstance, witness: PureState) -> float:
    """Gate realization of test (i): Hadamard the low n qubits, accept all zeros.

    Only defined when N is a power of two. Labels 1..N occupy the 0-based
    indices with all high bits zero, so the Hadamards act on the low block.
    """
    if inst.n is None:
        raise ValueError("the gate realization needs N = 2^n")
    out = apply_randomized_preimage(inst.subset, DensityMatrix.from_pure(witness))
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h_low = reduce(np.kron, [h1] * inst.n)
    u = np.kron(np.eye(inst.block), h_low)
    rotated = u @ out.entries @ u.conj().T
    return float(_as_probability(rotated[0, 0]))


def test_ii(inst: PreimageInstance, witness: PureState) -> float:
    """Measure the witness; reject odd outcomes; accept when the oracle lands in [N].

    Only the even members of S land in [N], so this is their weight in w.
    """
    if witness.dim != inst.dim:
        raise ValueError(f"witness dim {witness.dim} != instance dim {inst.dim}")
    weights = np.abs(witness.amplitudes[[m - 1 for m in inst.subset.members if m % 2 == 0]]) ** 2
    return float(_as_probability(np.sum(weights)))


def _check_report(p_i, p_ii, p_accept) -> None:
    """The invariants of a verifier report, on scalars or on a sweep's arrays."""
    _check_range(np.array([p_i, p_ii, p_accept]), "probability")
    if np.any(np.abs(p_accept - 0.5 * (np.asarray(p_i) + p_ii)) > PROBABILITY_TOL):
        raise ValueError("p_accept must be the arithmetic mean of the two tests")


def _subset_rows(instances: Sequence[PreimageInstance]) -> tuple[np.ndarray, np.ndarray]:
    """Real subset states of same-dimension instances, (count, V), and their even-member mask."""
    block = instances[0].block
    members = np.array([inst.subset.members for inst in instances], dtype=np.intp) - 1
    states = np.zeros((len(instances), block**2))
    np.put_along_axis(states, members, 1.0 / math.sqrt(block), axis=1)
    even = np.zeros(states.shape, dtype=bool)
    np.put_along_axis(even, members, members % 2 == 1, axis=1)
    return validated_states(states), even


def _acceptance_stack(states: np.ndarray, even: np.ndarray) -> np.ndarray:
    """M = (|S><S| + P_even)/2 for every row, as one (count, V, V) float64 stack."""
    m = states[:, :, None] * states[:, None, :]
    diagonal = np.arange(states.shape[1])
    m[:, diagonal, diagonal] += even
    m *= 0.5
    return m


def acceptance_operator(inst: PreimageInstance) -> np.ndarray:
    """Real symmetric M with <w|M|w> equal to the verifier's acceptance probability.

    M = (|S><S| + P_even)/2, where P_even projects onto the even members of S.
    Both terms are real, so M is built as float64 and its eigensolve is real.
    """
    return _acceptance_stack(*_subset_rows([inst]))[0]


def optimal_witness_prob(inst: PreimageInstance) -> tuple[float, PureState]:
    """Largest eigenvalue of the acceptance operator and a maximizing witness.

    The eigenvalue is `sweep_lambda`'s; `eigh` runs only for the witness.
    """
    vecs = np.linalg.eigh(acceptance_operator(inst))[1]
    return float(sweep_lambda([inst])[0]), PureState(inst.dim, vecs[:, -1])


def _sweep_dim(instances: Sequence[PreimageInstance]) -> int | None:
    """The one dimension V of a sweep's instances; None for an empty sweep."""
    dims = sorted({inst.dim for inst in instances})
    if len(dims) > 1:
        raise ValueError(f"a sweep needs instances of one dimension, got {dims}")
    return dims[0] if dims else None


def sweep_honest(instances: Sequence[PreimageInstance]) -> tuple[np.ndarray, ...]:
    """Honest-witness tests (i) and (ii) and their mean, as float64 arrays.

    The instances share one dimension V; their subset states are one (count, V)
    array, reduced as `test_i` (a complex inner product) and `test_ii` reduce,
    bit for bit.
    """
    if _sweep_dim(instances) is None:
        return tuple(np.zeros(0) for _ in range(3))
    states, even = _subset_rows(instances)
    amps = states.astype(np.complex128)
    p_i = _as_probability(np.abs((amps[:, None, :] @ amps[:, :, None])[:, 0, 0]) ** 2)
    p_ii = _as_probability(np.einsum("ij,ij,ij->i", states, states, even))
    p_accept = 0.5 * (p_i + p_ii)
    _check_report(p_i, p_ii, p_accept)
    return p_i, p_ii, p_accept


def sweep_lambda(instances: Sequence[PreimageInstance]) -> np.ndarray:
    """lambda_max of each instance's acceptance operator, as a float64 array.

    The instances share one dimension V; each chunk of at most SWEEP_CHUNK_ENTRIES
    entries of M is one stack and one batched `eigvalsh`, which computes no
    eigenvectors.
    """
    dim = _sweep_dim(instances)
    if dim is None:
        return np.zeros(0)
    rows = max(1, SWEEP_CHUNK_ENTRIES // dim**2)
    return np.concatenate([
        np.linalg.eigvalsh(_acceptance_stack(*_subset_rows(instances[start:start + rows])))[:, -1]
        for start in range(0, len(instances), rows)
    ])


def analytic_optimum(inst: PreimageInstance) -> float:
    """Closed form for the optimal-witness acceptance: (1 + sqrt(k_even/N))/2.

    The acceptance operator acts as a rank-2 matrix on the span of the
    uniform vectors over the even and odd members of S, where it reads
    [[k/N + 1, sqrt(k m)/N], [sqrt(k m)/N, m/N]]/2 with k + m = N; the top
    eigenvalue of that block is (1 + sqrt(k/N))/2 and every other eigenvalue
    is at most 1/2.
    """
    return 0.5 * (1.0 + math.sqrt(inst.k_even / inst.block))


def _check_range(p: np.ndarray, what: str) -> None:
    outside = p[(p < -PROBABILITY_TOL) | (p > 1.0 + PROBABILITY_TOL)]
    if outside.size:
        raise ValueError(f"{what} {outside.flat[0]} outside [0, 1]")


def _as_probability(value):
    """Range-check computed probabilities, a scalar or an array; clip them to [0, 1]."""
    p = np.real(value)
    _check_range(np.asarray(p), "computed probability")
    return np.clip(p, 0.0, 1.0)
