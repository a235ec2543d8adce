"""Unitary simulation of the randomized preimage oracle on an enlarged system.

The randomized channel on register A is reproduced by a fixed in-place
permutation on A followed by a control-permutation entangling A with a fresh
control register prepared in the uniform superposition over the block group.
One control register is consumed per query, so the dilated system is
C^t (x) A (x) B. That picture stays pure: its t+1 states are one (t+1, c^t*d_AB)
stack, capped in length, and each query is one matmul and one index gather.
Tracing out the controls is rho_AB = M^T conj(M) with M a state reshaped to
(c^t, d_AB), batched over the stack, so no matrix larger than d_AB is built.
Both pictures return validated stacks; one eigensolve gives every distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MAX_DIM,
    Permutation,
    PureState,
    Subset,
    trace_distance,
    validated_densities,
    validated_states,
)
from .oracles import block_average_on_first_factor, representative_sigma

UNITARY_TOL = 1e-10
# Largest trace distance an exact dilation may show: round-off only.
DILATION_TOL = 1e-9


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Haar-distributed unitaries, as a (count, dim, dim) array.

    One normal draw gives each complex Ginibre matrix its real part, then its
    imaginary part, matrix by matrix, so the stream is consumed exactly as
    `count` separate `haar_unitary` calls would. One stacked QR with the phase
    of R's diagonal folded into Q makes the distribution Haar.
    """
    normal = rng.normal(size=(count, 2, dim, dim))
    q, r = np.linalg.qr(normal[:, 0] + 1j * normal[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary."""
    return haar_unitaries(dim, 1, rng)[0]


@dataclass(frozen=True)
class QueryAlgorithm:
    """t query-interleaved unitaries plus a final one, all on A (x) B.

    The unitaries are checked for shape one by one, then for unitarity as one
    stack (U^H U - I for all of them at once), and kept as read-only views of
    that stack.
    """

    dim_a: int
    dim_b: int
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.unitaries) < 1:
            raise ValueError("need at least the final unitary")
        d = self.dim_a * self.dim_b
        for i, u in enumerate(self.unitaries):
            if np.shape(u) != (d, d):
                raise ValueError(f"unitary {i} has shape {np.shape(u)}, expected ({d}, {d})")
        stack = np.array(self.unitaries, dtype=np.complex128)
        gram = np.conj(stack.transpose(0, 2, 1)) @ stack
        errs = np.max(np.abs(gram - np.eye(d)), axis=(1, 2))
        bad = np.flatnonzero(errs > UNITARY_TOL)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"matrix {i} is not unitary (deviation {float(errs[i])})")
        stack.setflags(write=False)
        object.__setattr__(self, "unitaries", tuple(stack))

    @property
    def queries(self) -> int:
        return len(self.unitaries) - 1

    @property
    def query_unitaries(self) -> tuple[np.ndarray, ...]:
        return self.unitaries[:-1]

    @property
    def final_unitary(self) -> np.ndarray:
        return self.unitaries[-1]


def random_query_algorithm(
    dim_a: int, dim_b: int, queries: int, rng: np.random.Generator
) -> QueryAlgorithm:
    return QueryAlgorithm(
        dim_a, dim_b, tuple(haar_unitaries(dim_a * dim_b, queries + 1, rng))
    )


def chi_state(count: int) -> PureState:
    """Uniform superposition over the control basis."""
    if count < 1:
        raise ValueError("control register needs at least one basis state")
    return PureState(count, np.full(count, 1.0 / math.sqrt(count), dtype=np.complex128))


def run_channel_picture(
    alg: QueryAlgorithm, subset: Subset, initial: PureState
) -> np.ndarray:
    """States rho_0..rho_t with the randomized preimage channel applied on A.

    Returned as one validated, read-only (t+1, d_AB, d_AB) stack. The fixed
    permutation sigma acts as an index gather on both axes of rho.
    """
    if subset.universe != alg.dim_a:
        raise ValueError(
            f"oracle universe {subset.universe} does not match register A ({alg.dim_a})"
        )
    if initial.dim != alg.dim_a * alg.dim_b:
        raise ValueError(f"initial state dim {initial.dim} != dim A*B")
    block = len(subset)
    inv_sigma = np.argsort(representative_sigma(subset, block).zero_based())
    source = (inv_sigma[:, None] * alg.dim_b + np.arange(alg.dim_b)).ravel()
    rhos = np.empty((alg.queries + 1, initial.dim, initial.dim), dtype=np.complex128)
    rhos[0] = np.outer(initial.amplitudes, initial.amplitudes.conj())
    for k, u in enumerate(alg.query_unitaries, start=1):
        rho = (u @ rhos[k - 1] @ u.conj().T)[source[:, None], source]
        rhos[k] = block_average_on_first_factor(rho, block, alg.dim_a, alg.dim_b)
    return validated_densities(rhos)


def run_dilated_picture(
    alg: QueryAlgorithm,
    sigma: Permutation,
    taus: Sequence[Permutation],
    initial: PureState,
    max_dim: int = MAX_DIM,
) -> np.ndarray:
    """Pure states psi~_0..psi~_t on C^t (x) A (x) B, query k touching control k.

    Returned as one validated, read-only (t+1, c^t * d_AB) stack; control 1 is
    the most significant digit. Each query is one matmul of the (c^t, d_AB)
    state matrix by the algorithm unitary, then one flat gather for the fixed
    in-place permutation on A and the control permutation between C_k and A:
    A index j of a row whose control k holds i reads from inv_sigma[inv_tau_i[j]].
    """
    t = alg.queries
    c = len(taus)
    d_ab = alg.dim_a * alg.dim_b
    if sigma.size != alg.dim_a:
        raise ValueError(f"permutation size {sigma.size} does not match register A")
    if initial.dim != d_ab:
        raise ValueError(f"initial state dim {initial.dim} != dim A*B")
    full = (c**t) * d_ab
    if full > max_dim:
        raise ValueError(
            f"dilated dimension {c}^{t} * {d_ab} = {full} exceeds the cap {max_dim}; "
            "each query consumes a fresh control register"
        )
    inv_sigma = np.argsort(sigma.zero_based())
    inv_a = np.stack([inv_sigma[np.argsort(tau.zero_based())] for tau in taus])
    source = (inv_a[:, :, None] * alg.dim_b + np.arange(alg.dim_b)).reshape(c, d_ab)
    rows = np.arange(c**t)
    states = np.empty((t + 1, c**t, d_ab), dtype=np.complex128)
    # chi applied t times in kron's order, so psi~_0 is the t-fold kron bit for bit.
    chi = chi_state(c).amplitudes[0]
    states[0] = functools.reduce(lambda amps, _: chi * amps, range(t), initial.amplitudes)
    for k, u in enumerate(alg.query_unitaries, start=1):
        flat = rows[:, None] * d_ab + source[rows // c ** (t - k) % c]
        states[k] = (states[k - 1] @ u.T).ravel()[flat]
    return validated_states(states.reshape(t + 1, full))


@dataclass(frozen=True)
class DilationRun:
    """Channel and reduced dilated states as read-only (t+1, d_AB, d_AB) stacks, and
    the trace distance between them after each query."""

    subset: Subset
    sigma: Permutation
    rhos: np.ndarray
    reduced: np.ndarray
    trace_distances: tuple[float, ...]
    consistent: bool

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.trace_distances):
            raise ValueError("trace distances must be nonnegative")

    @property
    def max_trace_distance(self) -> float:
        return max(self.trace_distances)


def check_dilation(
    alg: QueryAlgorithm,
    subset: Subset,
    sigma: Permutation,
    taus: Sequence[Permutation],
    initial: PureState,
    max_dim: int = MAX_DIM,
) -> DilationRun:
    """Run both pictures and compare tr_C(psi~_k) against rho_k for every k.

    The reductions are one batched M^T conj(M), and the distances one stacked
    eigensolve. A sigma whose preimage set differs from the subset is reported
    through the `consistent` flag (and through large distances) rather than
    raised, so deliberate mismatches can serve as negative controls.
    """
    consistent = sigma.preimage_set(len(subset)) == subset
    rhos = run_channel_picture(alg, subset, initial)
    states = run_dilated_picture(alg, sigma, taus, initial, max_dim=max_dim)
    mats = states.reshape(alg.queries + 1, -1, initial.dim)
    reduced = validated_densities(mats.transpose(0, 2, 1) @ mats.conj())
    distances = tuple(trace_distance(reduced, rhos).tolist())
    return DilationRun(subset, sigma, rhos, reduced, distances, consistent)
