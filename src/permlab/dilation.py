"""Unitary simulation of the randomized preimage oracle on an enlarged system.

The randomized channel on register A is reproduced by a fixed in-place
permutation on A followed by a control-permutation entangling A with a fresh
control register prepared in the uniform superposition over the block group.
One control register is consumed per query, so the dilated system is
C^t (x) A (x) B. That picture stays pure, so it is simulated as a state vector
of length c^t * d_AB: memory grows with the vector length, not its square, and
the dimension cap applies to that length. Tracing out the controls is
rho_AB = M^T conj(M) with M the vector reshaped to (c^t, d_AB), so no density
matrix larger than d_AB is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MAX_DIM,
    DensityMatrix,
    Permutation,
    PureState,
    Subset,
    trace_distance,
)
from .oracles import block_average_on_first_factor, representative_sigma

UNITARY_TOL = 1e-10


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


def identity_algorithm(dim_a: int, dim_b: int, queries: int) -> QueryAlgorithm:
    eye = np.eye(dim_a * dim_b, dtype=np.complex128)
    return QueryAlgorithm(dim_a, dim_b, tuple(eye for _ in range(queries + 1)))


def chi_state(count: int) -> PureState:
    """Uniform superposition over the control basis."""
    if count < 1:
        raise ValueError("control register needs at least one basis state")
    return PureState(count, np.full(count, 1.0 / math.sqrt(count), dtype=np.complex128))


def build_control_permutation(taus: Sequence[Permutation]) -> np.ndarray:
    """|i>|j> -> |i>|tau_i(j)> as a dense unitary on control (x) A."""
    if not taus:
        raise ValueError("need at least one permutation")
    v = taus[0].size
    if any(t.size != v for t in taus):
        raise ValueError("all permutations must share one size")
    c = len(taus)
    out = np.zeros((c * v, c * v))
    for i, tau in enumerate(taus):
        out[i * v : (i + 1) * v, i * v : (i + 1) * v] = tau.matrix()
    return out


def run_channel_picture(
    alg: QueryAlgorithm, subset: Subset, initial: PureState
) -> list[DensityMatrix]:
    """States rho_0..rho_t with the randomized preimage channel applied on A."""
    if subset.universe != alg.dim_a:
        raise ValueError(
            f"oracle universe {subset.universe} does not match register A ({alg.dim_a})"
        )
    if initial.dim != alg.dim_a * alg.dim_b:
        raise ValueError(f"initial state dim {initial.dim} != dim A*B")
    block = len(subset)
    p_joint = np.kron(representative_sigma(subset, block).matrix(), np.eye(alg.dim_b))
    states = [DensityMatrix.from_pure(initial)]
    rho = states[0].entries
    for u in alg.query_unitaries:
        rho = u @ rho @ u.conj().T
        rho = p_joint @ rho @ p_joint.T
        rho = block_average_on_first_factor(rho, block, alg.dim_a, alg.dim_b)
        states.append(DensityMatrix(initial.dim, rho))
    return states


def run_dilated_picture(
    alg: QueryAlgorithm,
    sigma: Permutation,
    taus: Sequence[Permutation],
    initial: PureState,
    max_dim: int = MAX_DIM,
) -> list[PureState]:
    """Pure states psi~_0..psi~_t on C^t (x) A (x) B, query k touching control k.

    Each query applies the algorithm unitary on AB, then the fixed in-place
    permutation on A and the control permutation between C_k and A, both as
    one gather: A index j of the branch with control value i reads from
    inv_sigma[inv_tau_i[j]].
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
    chi = chi_state(c).amplitudes
    psi = initial.amplitudes
    for _ in range(t):
        psi = np.kron(chi, psi)
    inv_sigma = np.argsort(sigma.zero_based())
    gather = np.stack([inv_sigma[np.argsort(tau.zero_based())] for tau in taus])

    states = [PureState(full, psi)]
    for k in range(1, t + 1):
        mat = psi.reshape(c**t, d_ab) @ alg.query_unitaries[k - 1].T
        view = mat.reshape(c ** (k - 1), c, c ** (t - k), alg.dim_a, alg.dim_b)
        psi = np.take_along_axis(view, gather[None, :, None, :, None], axis=3).reshape(full)
        states.append(PureState(full, psi))
    return states


@dataclass(frozen=True)
class DilationRun:
    """The channel states, the reduced dilated states and their trace distances."""

    subset: Subset
    sigma: Permutation
    rho_list: tuple[DensityMatrix, ...]
    reduced_list: tuple[DensityMatrix, ...]
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

    A sigma whose preimage set differs from the subset is reported through
    the `consistent` flag (and through large distances) rather than raised,
    so deliberate mismatches can serve as negative controls.
    """
    block = len(subset)
    consistent = sigma.preimage_set(block) == subset
    rhos = run_channel_picture(alg, subset, initial)
    d_ab = alg.dim_a * alg.dim_b
    reduced = []
    for psi in run_dilated_picture(alg, sigma, taus, initial, max_dim=max_dim):
        mat = psi.amplitudes.reshape(-1, d_ab)
        reduced.append(DensityMatrix(d_ab, mat.T @ mat.conj()))
    distances = tuple(trace_distance(r, rho) for r, rho in zip(reduced, rhos))
    return DilationRun(subset, sigma, tuple(rhos), tuple(reduced), distances, consistent)
