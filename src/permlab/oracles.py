"""Oracle models built from permutations and subsets.

An in-place oracle is |i> -> |sigma(i)>, a phase oracle |i> -> (-1)^{[i in S]} |i>
(its diagonal is `phase_signs`), and the randomized preimage oracle is the
channel rho -> average of P_sigma rho P_sigma† over every permutation whose
preimage set is S. The state maps of the standard, in-place and phase oracles
are references in tests/test_oracles.py; the package runs their rows.

The randomized channel is never sampled: the permutations with preimage set
S form the coset {tau o sigma* : tau block-preserving}, so the channel equals
a two-block twirl of P_sigma* rho P_sigma*†. The twirl over the block
subgroup has a closed form: every entry becomes the mean of its orbit of
index pairs, and there are six orbits (the diagonal and the off-diagonal of
each block, and the two cross blocks). Each entry gets one integer label,
its orbit kind together with its pair of B indices and its member of a
stack, so one `bincount` per real and imaginary part sums every orbit of a
whole (..., d, d) stack, and a gather writes the means back. Tests compare
it against the exhaustive group average.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import DensityMatrix, Permutation, Subset

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


def phase_signs(subset: Subset) -> np.ndarray:
    """The phase oracle's diagonal: -1 at the members of the subset, +1 elsewhere."""
    signs = np.ones(subset.universe)
    signs[[m - 1 for m in subset.members]] = -1.0
    return signs


def block_average(mat: np.ndarray, block: int) -> np.ndarray:
    """Closed form of the average of P_tau mat P_tau† over the block subgroup (stacks too)."""
    mat = np.asarray(mat)
    return block_average_on_first_factor(mat, block, mat.shape[-1], 1)


def block_average_on_first_factor(
    mat: np.ndarray, block: int, dim_a: int, dim_b: int
) -> np.ndarray:
    """Block twirl acting on the A factor of a matrix on A (x) B, or of each
    matrix of a (..., d, d) stack: every entry becomes the mean of its A-orbit,
    per pair of B indices and per member (see the module docstring)."""
    if not 1 <= block <= dim_a:
        raise ValueError(f"block size {block} out of range for dim {dim_a}")
    x = np.asarray(mat, dtype=np.complex128)
    d, pairs = dim_a * dim_b, dim_b * dim_b
    if x.shape[-2:] != (d, d):
        raise ValueError(f"matrix shape {x.shape} does not end in ({d}, {d})")
    # kind(a, a') * d_B^2, kinds 0/1 the diagonal/off-diagonal of the first
    # block, 2/3 those of the second and 4/5 the two cross blocks
    kind = np.full((dim_a, dim_a), 3 * pairs, dtype=np.intp)
    kind[:block, :block] = pairs
    kind[:block, block:] = 4 * pairs
    kind[block:, :block] = 5 * pairs
    kind.flat[:: dim_a + 1] -= pairs
    # orbit sizes; an empty orbit sums to 0, so its size may read 1
    sizes = np.maximum(np.bincount(kind.reshape(-1), minlength=6 * pairs)[::pairs], 1)
    members = x.size // (d * d)
    head = (6 * pairs * np.arange(members)).reshape(-1, 1, 1, 1, 1) + kind[:, None, :, None]
    labels = (head + np.arange(pairs).reshape(dim_b, 1, dim_b)).reshape(-1)
    bins = 6 * pairs * members
    re, im = (np.bincount(labels, part.reshape(-1), bins) for part in (x.real, x.imag))
    means = (re + 1j * im).reshape(members, 6, pairs) / sizes[:, None]
    return means.reshape(-1)[labels].reshape(x.shape)


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
