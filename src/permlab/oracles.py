"""The four oracle models built from permutations and subsets.

Kinds:
  standard    |i>|b> -> |i>|b XOR sigma(i)> with XOR on 0-based indices,
  in_place    |i>   -> |sigma(i)>,
  phase       |i>   -> (-1)^{[i in S]} |i>,
  randomized_preimage   rho -> average of P_sigma rho P_sigma† over every
                        permutation whose preimage set is S.

The randomized channel is never sampled: the permutations with preimage set
S form the coset {tau o sigma* : tau block-preserving}, so the channel equals
a two-block twirl of P_sigma* rho P_sigma*†. The twirl over the block
subgroup has a closed form: every entry becomes the mean of its orbit of
index pairs, and there are six orbits (the diagonal and the off-diagonal of
each block, and the two cross blocks), each averaged by slicing. Tests
compare it against the exhaustive group average.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Permutation, PureState, Subset

# Refuse to enumerate block groups larger than this (use sampling instead).
GROUP_ENUMERATION_CAP = 50_000


def representative_sigma(subset: Subset, block: int) -> Permutation:
    """Canonical member of the permutations with preimage set `subset`.

    Sends the i-th smallest member of the subset to i and the remaining
    labels, in increasing order, to block+1..V.
    """
    if len(subset) != block:
        raise ValueError(f"subset has {len(subset)} members, block size is {block}")
    v = subset.universe
    image = [0] * v
    for rank, member in enumerate(subset.members, start=1):
        image[member - 1] = rank
    rest = iter(range(block + 1, v + 1))
    for j in range(1, v + 1):
        if image[j - 1] == 0:
            image[j - 1] = next(rest)
    return Permutation(v, tuple(image))


def random_representative(subset: Subset, block: int, rng: np.random.Generator) -> Permutation:
    """Uniformly random permutation whose preimage set is `subset`."""
    if len(subset) != block:
        raise ValueError(f"subset has {len(subset)} members, block size is {block}")
    v = subset.universe
    inside = list(rng.permutation(block) + 1)
    outside = list(rng.permutation(v - block) + block + 1)
    image = [0] * v
    members = set(subset.members)
    for j in range(1, v + 1):
        image[j - 1] = inside.pop() if j in members else outside.pop()
    return Permutation(v, tuple(image))


def block_permutations(size: int, block: int) -> tuple[Permutation, ...]:
    """Every permutation of [size] preserving the split {1..block, block+1..size}."""
    if not 1 <= block <= size:
        raise ValueError(f"block size {block} out of range for size {size}")
    count = math.factorial(block) * math.factorial(size - block)
    if count > GROUP_ENUMERATION_CAP:
        raise ValueError(
            f"block group has {count} elements, above the cap {GROUP_ENUMERATION_CAP}; "
            "use sample_block_permutations"
        )
    out = []
    for first in itertools.permutations(range(1, block + 1)):
        for second in itertools.permutations(range(block + 1, size + 1)):
            out.append(Permutation(size, first + second))
    return tuple(out)


def sample_block_permutations(
    size: int, block: int, count: int, rng: np.random.Generator
) -> tuple[Permutation, ...]:
    """Seeded iid-uniform draws from the block-preserving subgroup."""
    out = []
    for _ in range(count):
        first = tuple(int(x) + 1 for x in rng.permutation(block))
        second = tuple(int(x) + block + 1 for x in rng.permutation(size - block))
        out.append(Permutation(size, first + second))
    return tuple(out)


def apply_in_place(perm: Permutation, psi: PureState) -> PureState:
    """Route amplitude at label j to label sigma(j)."""
    if psi.dim != perm.size:
        raise ValueError(f"state dim {psi.dim} does not match permutation size {perm.size}")
    out = np.empty_like(psi.amplitudes)
    out[perm.zero_based()] = psi.amplitudes
    return PureState(psi.dim, out)


def _standard_targets(perm: Permutation) -> np.ndarray:
    """Where |i>|b> lands under the standard oracle, as 0-based joint indices."""
    v = perm.size
    sigma0 = perm.zero_based()
    idx = np.arange(v * v)
    return (idx // v) * v + ((idx % v) ^ sigma0[idx // v])


def apply_standard(perm: Permutation, psi: PureState) -> PureState:
    """|i>|b> -> |i>|b XOR sigma(i)> on two V-dim registers, XOR on 0-based indices."""
    v = perm.size
    if v & (v - 1):
        raise ValueError(f"standard oracle needs a power-of-2 size, got {v}")
    if psi.dim != v * v:
        raise ValueError(f"state dim {psi.dim} does not match two registers of size {v}")
    out = np.empty_like(psi.amplitudes)
    out[_standard_targets(perm)] = psi.amplitudes
    return PureState(psi.dim, out)


def phase_signs(subset: Subset) -> np.ndarray:
    """The phase oracle's diagonal: -1 at the members of the subset, +1 elsewhere."""
    signs = np.ones(subset.universe)
    signs[[m - 1 for m in subset.members]] = -1.0
    return signs


def apply_phase(subset: Subset, psi: PureState) -> PureState:
    """Flip the sign of every amplitude whose label lies in the subset."""
    if psi.dim != subset.universe:
        raise ValueError(f"state dim {psi.dim} does not match universe {subset.universe}")
    return PureState(psi.dim, psi.amplitudes * phase_signs(subset))


def block_average(mat: np.ndarray, block: int) -> np.ndarray:
    """Closed form of the average of P_tau mat P_tau† over the block subgroup."""
    mat = np.asarray(mat)
    return block_average_on_first_factor(mat, block, mat.shape[0], 1)


def block_average_on_first_factor(
    mat: np.ndarray, block: int, dim_a: int, dim_b: int
) -> np.ndarray:
    """Block twirl acting on the A factor of a matrix on A (x) B.

    Every entry becomes the mean of its A-orbit (see the module docstring),
    taken separately for each pair of B indices.
    """
    if not 1 <= block <= dim_a:
        raise ValueError(f"block size {block} out of range for dim {dim_a}")
    x = np.asarray(mat).reshape(dim_a, dim_b, dim_a, dim_b)
    out = np.empty(x.shape, dtype=np.complex128)
    first, second = (0, block), (block, dim_a)
    for lo, hi in (first, second):
        size = hi - lo
        if size == 0:
            continue
        within = x[lo:hi, :, lo:hi, :]
        diag_sum = np.einsum("ibic->bc", within)
        if size > 1:
            off_mean = (within.sum(axis=(0, 2)) - diag_sum) / (size * (size - 1))
            out[lo:hi, :, lo:hi, :] = off_mean[None, :, None, :]
        idx = np.arange(lo, hi)
        out[idx, :, idx, :] = diag_sum / size
    if block < dim_a:
        for (r0, r1), (c0, c1) in ((first, second), (second, first)):
            cross = x[r0:r1, :, c0:c1, :].mean(axis=(0, 2))
            out[r0:r1, :, c0:c1, :] = cross[None, :, None, :]
    return out.reshape(dim_a * dim_b, dim_a * dim_b)


def block_twirl(rho: DensityMatrix, block: int) -> DensityMatrix:
    """Average rho over conjugation by every block-preserving permutation."""
    return DensityMatrix(rho.dim, block_average(rho.entries, block))


def apply_randomized_preimage(subset: Subset, rho: DensityMatrix) -> DensityMatrix:
    """Apply a uniformly random permutation with preimage set `subset`.

    Equals block_twirl(P rho P†, |subset|) for any representative P; the
    output does not depend on which representative is used.
    """
    if rho.dim != subset.universe:
        raise ValueError(f"rho dim {rho.dim} does not match universe {subset.universe}")
    block = len(subset)
    p = representative_sigma(subset, block).matrix()
    return DensityMatrix(rho.dim, block_average(p @ rho.entries @ p.T, block))


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
            s = phase_signs(self.subset)
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
            perm = Permutation.from_text(spec["perm"])
            dim = perm.size**2 if kind == "standard" else perm.size
            return cls(kind, dim, perm=perm)
        if kind == "phase":
            universe = int(spec["universe"])
            return cls(kind, universe, subset=Subset.from_text(universe, spec["subset"]))
        if kind == "randomized_preimage":
            block = int(spec["N"])
            universe = int(spec.get("universe", block * block))
            subset = Subset.from_text(universe, spec["subset"])
            return cls(kind, universe, subset=subset, block=block)
        raise ValueError(f"unknown oracle kind {kind!r}")

