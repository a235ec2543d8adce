"""Unitary simulation of the randomized preimage oracle on an enlarged system.

The randomized channel on register A is reproduced by a fixed in-place
permutation on A and a control-permutation between A and a fresh control
register in the uniform superposition over the taus: the block group, or a
sample of it, as 0-based image rows. With one control register per query,
the dilated system is C^t (x) A (x) B. That picture stays pure: its t+1
states are one (t+1, c^t*d_AB) stack, capped in length, and each query is
one matmul and one index gather. Tracing out the controls is rho_AB =
M^T conj(M) with M a state reshaped to (c^t, d_AB), batched over the stack.

Every layer has a trial axis: a `QueryAlgorithm` may hold a stack of
algorithms with one query count, validated once, and both pictures then run
every trial at once, with one subset, sigma and initial state per trial (or
one shared): a (trials, V) array of bool incidence rows and one of 0-based
image rows (one `Subset` is taken for a single trial, converted to its row
at the entry). `check_dilation` runs the stack it is given: each query is one
batched matmul and one gather, and one eigensolve gives every distance. One
algorithm is a stack of one on the same path. `random_dilation_runs` is the
one body of a random trial, and sizes every trial stack once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    MAX_DIM,
    PureState,
    Subset,
    philox_stream,
    trace_distance,
    validated_densities,
    validated_states,
)
from .oracles import (
    block_average_on_first_factor,
    block_group_order,
    block_permutations,
    permutation_rows,
    random_representative,
    representative_inverse,
    sample_block_permutations,
)
from .verifier import random_instance_row

UNITARY_TOL = 1e-10
# Largest trace distance an exact dilation may show: round-off only.
DILATION_TOL = 1e-9
# Complex entries of one trial stack (256 KB): random trials are drawn and run
# in stacks whose draws, and whose dilated states, hold at most this many.
TRIAL_STACK_ENTRIES = 2**14


def trial_stacks(count: int, entries: int) -> Iterator[slice]:
    """Consecutive slices of `count` trials of `entries` complex entries each,
    every slice at most TRIAL_STACK_ENTRIES entries or one trial."""
    step = max(1, TRIAL_STACK_ENTRIES // max(entries, 1))
    return (slice(start, start + step) for start in range(0, count, step))


def dilated_length(controls: int, queries: int, d_ab: int) -> int:
    """c^t * d_AB, the length of one dilated state, refused above MAX_DIM; c^t is
    formed from at most 13 factors c, as 2^13 alone passes the cap."""
    full = controls ** min(queries, MAX_DIM.bit_length()) * d_ab
    if full > MAX_DIM:
        raise ValueError(f"dilated dimension {controls}^{queries} * {d_ab} exceeds the cap "
                         f"{MAX_DIM}; each query consumes a fresh control register")
    return full


def cap_trial_entries(name: str, value: int, per_unit: int, offset: int = 0) -> None:
    """Refuse the field `name` when one trial would hold (value + offset) * per_unit
    entries, more than the MAX_DIM^2 of one matrix at the dense cap."""
    most = MAX_DIM**2 // per_unit - offset
    if value > most:
        raise ValueError(f"field '{name}' must be at most {most}, got {value}: one trial would "
                         f"hold {(value + offset) * per_unit} entries, above MAX_DIM^2 = "
                         f"{MAX_DIM**2}")


def haar_stack(dim: int, count: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """`count` Haar unitaries per stream, as one (streams, count, dim, dim) array: one
    normal draw per stream (each Ginibre matrix's real part, then its imaginary part,
    as `count` one-matrix draws would take them), written into the stack's real and
    imaginary parts, then one stacked QR for all, with the phase of R's diagonal
    folded into Q."""
    z = np.empty((len(rngs), count, dim, dim), dtype=np.complex128)
    real, imag = z.real, z.imag
    for i, rng in enumerate(rngs):
        normal = rng.normal(size=(count, 2, dim, dim))
        real[i], imag[i] = normal[:, 0], normal[:, 1]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _first_matrix(bad: np.ndarray) -> tuple[str, tuple]:
    """The first flagged unitary of a ([trials,] t+1) mask, as "[trial j: ]matrix i",
    and its index."""
    at = tuple(np.argwhere(bad)[0])
    *trial, i = at
    return "".join(f"trial {j}: " for j in trial) + f"matrix {i}", at


@dataclass(frozen=True)
class QueryAlgorithm:
    """t query-interleaved unitaries plus a final one, all on A (x) B, or a
    stack of such algorithms with one t, one per trial.

    `unitaries` is a sequence of t+1 (d, d) matrices, or a (trials, t+1, d, d)
    array for a stack. Either is checked for finite entries, then for unitarity,
    as one stack (U^H U - I for all of them at once) and kept as one read-only
    array of that shape.
    """

    dim_a: int
    dim_b: int
    unitaries: np.ndarray

    def __post_init__(self) -> None:
        d = self.dim_a * self.dim_b
        if not isinstance(self.unitaries, np.ndarray):
            for i, u in enumerate(self.unitaries):
                if np.shape(u) != (d, d):
                    raise ValueError(f"unitary {i} has shape {np.shape(u)}, expected ({d}, {d})")
        stack = np.array(self.unitaries, dtype=np.complex128)
        if stack.ndim not in (3, 4) or stack.shape[-3] < 1 or stack.shape[-2:] != (d, d):
            raise ValueError(f"unitaries have shape {stack.shape}, not ([trials,] t+1, {d}, {d})")
        finite = np.isfinite(stack).all(axis=(-2, -1))
        if not finite.all():
            raise ValueError(f"{_first_matrix(~finite)[0]} has a non-finite entry")
        gram = stack.conj().mT @ stack
        errs = np.max(np.abs(gram - np.eye(d)), axis=(-2, -1))
        bad = errs > UNITARY_TOL
        if bad.any():
            name, at = _first_matrix(bad)
            raise ValueError(f"{name} is not unitary (deviation {errs[at]})")
        stack.setflags(write=False)
        object.__setattr__(self, "unitaries", stack)

    @property
    def stacked(self) -> bool:
        return self.unitaries.ndim == 4

    @property
    def stack(self) -> np.ndarray:
        """The unitaries as a (trials, t+1, d, d) stack; one algorithm is a stack of one."""
        return self.unitaries.reshape(-1, *self.unitaries.shape[-3:])

    @property
    def queries(self) -> int:
        return self.unitaries.shape[-3] - 1

    def initial_rows(self, initial: PureState | np.ndarray) -> np.ndarray:
        """A PureState shared by every trial as one (1, d_AB) row, or a stack's
        (trials, d_AB) array of initial states, validated."""
        rows = initial.amplitudes[None] if isinstance(initial, PureState) else validated_states(
            np.array(initial, dtype=np.complex128))
        if rows.shape[1:] != (self.dim_a * self.dim_b,) or len(rows) not in (1, len(self.stack)):
            raise ValueError(f"initial states of shape {rows.shape} do not fit {len(self.stack)} "
                             f"trials on dim A*B = {self.dim_a * self.dim_b}")
        return rows


def random_query_algorithm(
    dim_a: int, dim_b: int, queries: int, rng: np.random.Generator
) -> QueryAlgorithm:
    return QueryAlgorithm(dim_a, dim_b, haar_stack(dim_a * dim_b, queries + 1, [rng])[0])


def _subset_rows(alg: QueryAlgorithm, subset: Subset | np.ndarray) -> tuple[np.ndarray, int]:
    """One `Subset`, or bool incidence rows (one (V,) row shared by every trial, or
    one per trial), as (1 or trials, V) rows, with their one member count."""
    rows = np.asarray(subset.incidence if isinstance(subset, Subset) else subset)
    sizes = rows.sum(axis=-1).reshape(-1)
    if rows.dtype != bool or rows.shape[-1:] != (alg.dim_a,) or (sizes != sizes[:1]).any():
        raise ValueError(f"subsets must be bool rows over register A's [{alg.dim_a}], "
                         "all of one size")
    return rows.reshape(-1, alg.dim_a), int(sizes.max(initial=0))


def run_channel_picture(
    alg: QueryAlgorithm, subset: Subset | np.ndarray, initial: PureState | np.ndarray
) -> np.ndarray:
    """States rho_0..rho_t with the randomized preimage channel applied on A.

    Returned as one validated, read-only (t+1, d_AB, d_AB) stack, or
    (trials, t+1, d_AB, d_AB) for a stacked algorithm, which takes one
    incidence row per trial (or one shared). The fixed permutation sigma acts
    as an index gather on both axes of rho; each query is one batched matmul
    over the trials.
    """
    rows, block = _subset_rows(alg, subset)
    amps, stack = alg.initial_rows(initial), alg.stack
    trials, d = len(stack), amps.shape[1]
    inv_sigma = representative_inverse(rows)
    source = (inv_sigma[:, :, None] * alg.dim_b + np.arange(alg.dim_b)).reshape(-1, d, 1)
    # entry (i, j) of a trial's rho after the gather reads entry (source_i, source_j)
    flat = np.arange(trials)[:, None, None] * d * d + source * d + source.mT
    rhos = np.empty((trials, alg.queries + 1, d, d), dtype=np.complex128)
    rhos[:, 0] = amps[:, :, None] * amps[:, None, :].conj()
    for k in range(alg.queries):
        u = stack[:, k]
        rho = (u @ rhos[:, k] @ u.conj().mT).ravel()[flat]
        rhos[:, k + 1] = block_average_on_first_factor(rho, block, alg.dim_a, alg.dim_b)
    return validated_densities(rhos if alg.stacked else rhos[0])


def run_dilated_picture(
    alg: QueryAlgorithm,
    sigma: np.ndarray,
    taus: np.ndarray,
    initial: PureState | np.ndarray,
) -> np.ndarray:
    """Pure states psi~_0..psi~_t on C^t (x) A (x) B, query k touching control k.

    Returned as one validated, read-only (t+1, c^t * d_AB) stack, or
    (trials, t+1, c^t * d_AB) for a stacked algorithm; control 1 is the most
    significant digit. Control value i's permutation is the 0-based image row
    taus[i] of a (c, V) array shared by every trial, or of a (c, trials, V)
    array with one per trial; sigma is one 0-based image row shared by every
    trial, or a (trials, V) array of one per trial. Each query
    is one batched matmul of the (trials, c^t, d_AB) state matrices by the
    algorithm unitaries, then one flat gather for the fixed in-place
    permutation on A and the control permutation between C_k and A: A index j
    of a row whose control k holds i reads from inv_sigma[inv_tau_i[j]].
    """
    tau_rows, stack = permutation_rows(taus, alg.dim_a, "every tau"), alg.stack
    t, c, trials = alg.queries, len(tau_rows), len(stack)
    if c < 1:
        raise ValueError("control register needs at least one basis state")
    d_ab = alg.dim_a * alg.dim_b
    # chi's amplitude applied t times in kron's order: psi~_0 is the t-fold kron bit for bit
    chi = 1.0 / math.sqrt(c)
    inv_sigma = np.argsort(permutation_rows(sigma, alg.dim_a, "sigma").reshape(-1, alg.dim_a))
    amps = alg.initial_rows(initial)
    full = dilated_length(c, t, d_ab)
    # (1 or trials, c, V): inv_sigma after control value i's inverse tau, per trial
    inv_taus = np.argsort(tau_rows, axis=-1).reshape(c, -1, alg.dim_a).swapaxes(0, 1)
    inv_a = inv_sigma.ravel()[np.arange(len(inv_sigma))[:, None, None] * alg.dim_a + inv_taus]
    source = (inv_a[..., None] * alg.dim_b + np.arange(alg.dim_b)).reshape(-1, c, d_ab)
    rows = np.arange(c**t)
    offsets = (np.arange(trials) * full)[:, None, None] + rows[:, None] * d_ab
    states = np.empty((trials, t + 1, c**t, d_ab), dtype=np.complex128)
    states[:, 0] = functools.reduce(lambda amps, _: chi * amps, range(t), amps)[:, None, :]
    for k in range(1, t + 1):
        flat = offsets + source[:, rows // c ** (t - k) % c]
        states[:, k] = (states[:, k - 1] @ stack[:, k - 1].mT).ravel()[flat]
    states = states.reshape(trials, t + 1, full)
    return validated_states(states if alg.stacked else states[0])


@dataclass(frozen=True)
class DilationRun:
    """Channel and reduced dilated states of one trial as read-only (t+1, d_AB, d_AB)
    stacks, the trace distance between them after each query, and whether
    sigma's preimage set is the subset."""

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
    subset: Subset | np.ndarray,
    sigma: np.ndarray,
    taus: np.ndarray,
    initial: PureState | np.ndarray,
) -> DilationRun | tuple[DilationRun, ...]:
    """Run both pictures and compare tr_C(psi~_k) against rho_k for every k.

    A stacked algorithm takes the pictures' per-trial arguments and gives one
    run per trial, all in one pass: the stack it is given is the stack it runs
    (`random_dilation_runs` sizes them). The subset and sigma become (trials, V)
    incidence and image rows once, here; the reductions are one batched
    M^T conj(M) and the distances one stacked eigensolve. A sigma whose
    preimage set differs from the subset is reported through the `consistent`
    flag (and through large distances) rather than raised, so deliberate
    mismatches can serve as negative controls.
    """
    trials, d_ab = len(alg.stack), alg.dim_a * alg.dim_b
    rows, block = _subset_rows(alg, subset)
    rows = np.broadcast_to(rows, (trials, alg.dim_a))
    sigmas = np.broadcast_to(permutation_rows(sigma, alg.dim_a, "sigma"), (trials, alg.dim_a))
    consistent = ((sigmas < block) == rows).all(axis=-1).tolist()
    rhos = run_channel_picture(alg, rows, initial).reshape(trials, -1, d_ab, d_ab)
    mats = run_dilated_picture(alg, sigmas, taus, initial).reshape(*rhos.shape[:2], -1, d_ab)
    reduced = validated_densities(mats.mT @ mats.conj())
    runs = tuple(
        DilationRun(r, m, tuple(dist), ok) for r, m, dist, ok in zip(
            rhos, reduced, trace_distance(reduced, rhos).tolist(), consistent)
    )
    return runs if alg.stacked else runs[0]


def random_dilation_runs(
    seed: int, trials: range, n: int, queries: int, dim_b: int,
    tau_samples: int | None = None,
) -> list[DilationRun]:
    """`check_dilation`'s runs of the random trials in the range `trials`, at
    N = 2^n. Trial i draws from stream (seed, i): a YES instance row for even
    i (NO for odd), a random sigma with that preimage set, for n > 1 its own
    `tau_samples` taus (n = 1 takes the whole block group), then queries + 2
    Haar unitaries, the last one's first column its initial state. The
    dilated length, and one trial's tau_samples * V sampled tau entries, are
    checked before anything is drawn. Each stack of trials is sized once: its
    draws, (queries+2) d^2, and its dilated states, (queries+1) c^queries d,
    hold at most TRIAL_STACK_ENTRIES complex entries, or it is one trial."""
    big_n = 2**n
    v, d = big_n**2, big_n**2 * dim_b
    controls = block_group_order(v, big_n) if n == 1 else tau_samples
    full = dilated_length(controls, queries, d)
    if n > 1:
        cap_trial_entries("tau_samples", tau_samples, v)
    runs: list[DilationRun] = []
    for part in trial_stacks(len(trials), max((queries + 2) * d * d, (queries + 1) * full)):
        stack = trials[part]
        rngs = [philox_stream(seed, i) for i in stack]
        rows = np.stack([random_instance_row(big_n, ("YES", "NO")[i % 2], rng)
                         for i, rng in zip(stack, rngs)])
        sigmas = np.stack([random_representative(row, rng) for row, rng in zip(rows, rngs)])
        # row i holds control value i's permutation: the whole group, or a sample per trial
        taus = block_permutations(v, big_n) if n == 1 else np.stack(
            [sample_block_permutations(v, big_n, tau_samples, rng) for rng in rngs], axis=1)
        u = haar_stack(d, queries + 2, rngs)
        runs += check_dilation(QueryAlgorithm(v, dim_b, u[:, : queries + 1]), rows, sigmas, taus,
                               u[:, queries + 1, :, 0])
    return runs
