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

A batch of instances is one (count, V) bool incidence array, label i in
column i-1; k_even and the label are row sums over the even-label columns 1, 3,
..., held against `even_count`, the promise's one rule. Both tests are one
kernel over a (count, V) witness stack, run by `sweep_honest` on the honest
states rows / sqrt(N) and by `test_i`/`test_ii` on a stack of one. `sweep_lambda`
takes lambda_max from (count, V, V) stacks of M, one batched `eigvalsh` each.
`PreimageInstance` is one instance; its size, k_even and label follow from S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PureState, Subset, SubsetFamily, enumerate_family, validated_states
# perfbench's self-test checks that its span hooks rebind this name here.
from .oracles import apply_randomized_preimage  # noqa: F401

PROBABILITY_TOL = 1e-10
# The 2/3 mark: YES instances should reach it, NO instances should not pass it.
THRESHOLD_LO = 2.0 / 3.0
# An optimal acceptance at most this far above the mark still counts as sound.
SOUNDNESS_SLACK = 1e-9
# Float64 entries of one acceptance-operator stack in `sweep_lambda` (8 MB), the
# input of one batched `eigvalsh`: 4,096 instances at V = 16, 16 at V = 256 and
# one from V = 1024 on.
SWEEP_CHUNK_ENTRIES = 2**20


def meets_threshold(label: str, lam: float) -> bool:
    """The one rule on lambda_max: a YES instance reaches the mark, a NO one does not pass it."""
    if label == "YES":
        return lam >= THRESHOLD_LO - PROBABILITY_TOL
    return lam <= THRESHOLD_LO + SOUNDNESS_SLACK


def even_count(n_labels: int, label: str) -> int:
    """The even members of every promise instance of size N with this label:
    the majority ceil(2N/3) for YES, the rest of the N members for NO."""
    majority = -((-2 * n_labels) // 3)
    return majority if label == "YES" else n_labels - majority


def promise_labels(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k_even and the label of each row of a (count, V = N^2) bool incidence array:
    YES with ceil(2N/3) even labels among its N members, NO with that many odd."""
    rows = np.asarray(rows)
    block = math.isqrt(rows.shape[-1]) if rows.ndim == 2 else 0
    if (rows.dtype != bool or block < 1 or block**2 != rows.shape[1]
            or (rows.sum(axis=1) != block).any()):
        raise ValueError(
            f"instances must be bool incidence rows with N members of [N^2], got {rows.shape}")
    k_even = rows[:, 1::2].sum(axis=1)
    yes, no = k_even == even_count(block, "YES"), k_even == even_count(block, "NO")
    bad = np.flatnonzero(~(yes | no))
    if bad.size:
        k = int(k_even[bad[0]])
        raise ValueError(f"parity split ({k} even, {block - k} odd) matches neither promise "
                         f"class at N={block} (majority count {even_count(block, 'YES')})")
    return k_even, np.where(yes, "YES", "NO")


@dataclass(frozen=True)
class PreimageInstance:
    """One promise instance: its preimage set S, N members of [N^2], and n when
    N = 2^n. Its size N (`block`), V = N^2 (`dim`), k_even and label follow from S."""

    subset: Subset
    n: int | None = None
    block: int = field(init=False)
    dim: int = field(init=False)
    k_even: int = field(init=False)
    label: str = field(init=False)

    def __post_init__(self) -> None:
        (k_even,), (label,) = promise_labels(self.subset.incidence[None])
        for name, value in zip(("block", "dim", "k_even", "label"),
                               (len(self.subset), self.subset.universe, int(k_even), str(label))):
            object.__setattr__(self, name, value)
        if self.n is not None and 2**self.n != self.block:
            raise ValueError(f"N = {self.block} is not 2^n for n = {self.n}")


def parity_class(n: int, label: str) -> SubsetFamily:
    """The preimage sets of every instance at size N = 2^n with the requested
    label, lexicographic: the N-subsets of [N^2] with the label's number of
    even members (columns 1, 3, ... of the incidence rows)."""
    big_n = 2**n
    k_even = even_count(big_n, label)
    return enumerate_family(big_n**2, big_n, lambda rows: rows[:, 1::2].sum(axis=1) == k_even)


def random_instance_row(n_labels: int, label: str, rng: np.random.Generator) -> np.ndarray:
    """A uniform promise instance with the requested label, as one (V,) bool
    incidence row: one `rng.choice` of its even members, then one of its odd ones."""
    k_even = even_count(n_labels, label)
    row = np.zeros(n_labels**2, dtype=bool)
    evens, odds = row[1::2], row[0::2]  # views: labels 2, 4, ... and 1, 3, ...
    evens[rng.choice(evens.size, size=k_even, replace=False)] = True
    odds[rng.choice(odds.size, size=n_labels - k_even, replace=False)] = True
    return row


def random_instance(
    n_labels: int, label: str, rng: np.random.Generator, n: int | None = None
) -> PreimageInstance:
    """`random_instance_row`'s draw as one `PreimageInstance`."""
    members = np.flatnonzero(random_instance_row(n_labels, label, rng)) + 1
    return PreimageInstance(Subset(n_labels**2, tuple(members.tolist())), n)


def test_i(inst: PreimageInstance, witness: PureState) -> float:
    """Oracle the witness, then project onto the [N]-uniform state: |<S|w>|^2."""
    return _tests_of_one(inst, witness)[0]


def test_ii(inst: PreimageInstance, witness: PureState) -> float:
    """Measure the witness; reject odd outcomes; accept when the oracle lands in [N].

    Only the even members of S land in [N], so this is their weight in w.
    """
    return _tests_of_one(inst, witness)[1]


def _tests_of_one(inst: PreimageInstance, witness: PureState) -> tuple[float, ...]:
    """`_witness_tests` on a stack of one instance and its witness."""
    if witness.dim != inst.dim:
        raise ValueError(f"witness dim {witness.dim} != instance dim {inst.dim}")
    stack = _instance_arrays(inst.subset.incidence[None])
    return tuple(float(p[0]) for p in _witness_tests(*stack, witness.amplitudes[None]))


def _witness_tests(states: np.ndarray, even: np.ndarray, witnesses: np.ndarray) -> tuple:
    """Tests (i) and (ii) of each instance on its own witness, from (count, V)
    subset states, even-member masks and complex witness amplitudes: |<S|w>|^2,
    one complex matmul (S is real), and the weight of w on the even members of S."""
    overlap = (states.astype(np.complex128)[:, None, :] @ witnesses[:, :, None])[:, 0, 0]
    weights = np.abs(witnesses)
    return (_as_probability(np.abs(overlap) ** 2),
            _as_probability(np.einsum("ij,ij,ij->i", weights, weights, even)))


def _check_report(p_i, p_ii, p_accept) -> None:
    """The invariants of a verifier report, on scalars or on a sweep's arrays."""
    _check_range(np.array([p_i, p_ii, p_accept]), "probability")
    if np.any(np.abs(p_accept - 0.5 * (np.asarray(p_i) + p_ii)) > PROBABILITY_TOL):
        raise ValueError("p_accept must be the arithmetic mean of the two tests")


def _instance_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subset states rows / sqrt(N) of checked instance rows, and their even-member mask."""
    rows = np.asarray(rows)
    promise_labels(rows)
    states = rows / math.sqrt(math.isqrt(rows.shape[1]))
    even = np.zeros_like(rows)
    even[:, 1::2] = rows[:, 1::2]
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
    return _acceptance_stack(*_instance_arrays(inst.subset.incidence[None]))[0]


def optimal_witness_prob(inst: PreimageInstance) -> tuple[float, PureState]:
    """Largest eigenvalue of the acceptance operator and a maximizing witness.

    The eigenvalue is `sweep_lambda`'s; `eigh` runs only for the witness.
    """
    vecs = np.linalg.eigh(acceptance_operator(inst))[1]
    return float(sweep_lambda(inst.subset.incidence[None])[0]), PureState(inst.dim, vecs[:, -1])


def sweep_honest(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Honest-witness tests (i) and (ii) and their mean, as float64 arrays.

    `rows` is a (count, V) bool incidence array of instances; their subset
    states are one (count, V) array, which is also the witness stack of
    `_witness_tests`, the kernel of `test_i` and `test_ii`.
    """
    states, even = _instance_arrays(rows)
    p_i, p_ii = _witness_tests(states, even, states.astype(np.complex128))
    p_accept = 0.5 * (p_i + p_ii)
    _check_report(p_i, p_ii, p_accept)
    return p_i, p_ii, p_accept


def sweep_lambda(rows: np.ndarray) -> np.ndarray:
    """lambda_max of each instance's acceptance operator, as a float64 array.

    `rows` is a (count, V) bool incidence array of instances; each chunk of at
    most SWEEP_CHUNK_ENTRIES entries of M is one stack and one batched
    `eigvalsh`, which computes no eigenvectors.
    """
    states, even = _instance_arrays(rows)
    step = max(1, SWEEP_CHUNK_ENTRIES // states.shape[1] ** 2)
    return np.concatenate([np.zeros(0)] + [
        np.linalg.eigvalsh(_acceptance_stack(states[i:i + step], even[i:i + step]))[:, -1]
        for i in range(0, len(states), step)
    ])


def analytic_optimum(rows: np.ndarray) -> np.ndarray:
    """Closed form for the optimal-witness acceptance of each instance row:
    (1 + sqrt(k_even/N))/2.

    The acceptance operator acts as a rank-2 matrix on the span of the
    uniform vectors over the even and odd members of S, where it reads
    [[k/N + 1, sqrt(k m)/N], [sqrt(k m)/N, m/N]]/2 with k + m = N; the top
    eigenvalue of that block is (1 + sqrt(k/N))/2 and every other eigenvalue
    is at most 1/2.
    """
    k_even = promise_labels(rows)[0]
    return 0.5 * (1.0 + np.sqrt(k_even / math.isqrt(np.shape(rows)[1])))


def _check_range(p: np.ndarray, what: str) -> None:
    outside = p[(p < -PROBABILITY_TOL) | (p > 1.0 + PROBABILITY_TOL)]
    if outside.size:
        raise ValueError(f"{what} {outside.flat[0]} outside [0, 1]")


def _as_probability(value):
    """Range-check computed probabilities, a scalar or an array; clip them to [0, 1]."""
    p = np.real(value)
    _check_range(np.asarray(p), "computed probability")
    return np.clip(p, 0.0, 1.0)
