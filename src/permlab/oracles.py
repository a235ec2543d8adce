"""Oracle models built from permutations and subsets.

An in-place oracle is |i> -> |sigma(i)>, a phase oracle |i> -> (-1)^{[i in S]} |i>
(its diagonal is `phase_signs`), and the randomized preimage oracle averages
P_sigma rho P_sigma† over every sigma with preimage set S. The package runs
the oracles' rows (their state maps are references in tests/test_oracles.py):
a permutation is a 0-based intp image row, even a set's canonical
representative (`representative_sigma`), and the block group has one
enumeration, `block_group_chunks`, which `block_permutations` holds whole.
Its rows join the two blocks' `permutation_table`s, numpy int8 tables in
`itertools.permutations` order; that order fixes which control value holds
which group element in a dilation.

The randomized channel is never sampled: the permutations with preimage set
S form the coset {tau o sigma* : tau block-preserving}, so the channel equals
a two-block twirl of P_sigma* rho P_sigma*† (rho gathered at the inverse of
sigma* on both axes). The twirl over the block subgroup has a closed form:
every entry becomes the mean of its orbit of index pairs, and there are six
orbits (the diagonal and the off-diagonal of each block, and the two cross
blocks). Each entry gets one integer label, its orbit kind together with its
pair of B indices and its member of a stack, so one `bincount` per real and
imaginary part sums every orbit of a whole (..., d, d) stack, and a gather
writes the means back.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .core import DensityMatrix, Subset

# Refuse to enumerate block groups larger than this (use sampling instead).
GROUP_ENUMERATION_CAP = 50_000


def block_group_order(size: int, block: int) -> int:
    """block! (size - block)!, the order of the block-preserving subgroup of [size]."""
    if not 1 <= block <= size:
        raise ValueError(f"block size {block} out of range for size {size}")
    return math.factorial(block) * math.factorial(size - block)


def permutation_rows(rows, size: int, what: str) -> np.ndarray:
    """A read-only intp copy of `rows`, each last-axis row checked to permute 0..size-1."""
    out = np.asarray(rows)
    if not (np.issubdtype(out.dtype, np.integer) and out.shape[-1:] == (size,)
            and (np.sort(out, axis=-1) == np.arange(size)).all()):
        raise ValueError(f"{what} must be rows permuting the {size} labels 0..{size - 1}")
    out = out.astype(np.intp)
    out.setflags(write=False)
    return out


def sign_rows(rows, size: int, what: str) -> np.ndarray:
    """A read-only float copy of `rows`, checked to be (count, size) signs +-1."""
    out = np.asarray(rows)
    if not (np.issubdtype(out.dtype, np.number) and out.ndim == 2 and out.shape[1] == size
            and (np.abs(out) == 1).all()):
        raise ValueError(f"{what} must be rows of {size} signs +-1")
    out = out.astype(float)
    out.setflags(write=False)
    return out


def representative_inverse(incidence: np.ndarray) -> np.ndarray:
    """The inverse of each set's `representative_rows`: its members, then the rest, in order."""
    return np.argsort(~incidence, axis=-1, kind="stable")


def representative_rows(incidence: np.ndarray) -> np.ndarray:
    """Each set's canonical representative, for a (..., V) incidence array, as 0-based image
    rows: its i-th smallest member goes to i - 1, and the other labels in order to block..V-1."""
    return np.argsort(representative_inverse(incidence), axis=-1)


def representative_sigma(subset: Subset, block: int) -> np.ndarray:
    """Canonical member of the permutations with preimage set `subset`: the
    `representative_rows` of its incidence row, one 0-based image row."""
    if len(subset) != block:
        raise ValueError(f"subset has {len(subset)} members, block size is {block}")
    return representative_rows(subset.incidence)


def random_representative(incidence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random 0-based image row whose preimage set is the incidence row's:
    members, in increasing order, take one `rng.permutation`'s draws from its
    end, as pops would, and the other labels a second one's."""
    inside = np.asarray(incidence, dtype=bool)
    block = int(inside.sum())
    image = np.empty(inside.size, dtype=np.intp)
    image[inside] = rng.permutation(block)[::-1]
    image[~inside] = rng.permutation(inside.size - block)[::-1] + block
    return image


def permutation_table(size: int) -> np.ndarray:
    """Every permutation of 0..size-1 as one (size!, size) int8 array, in
    `itertools.permutations(range(size))` order. Rows are built first label
    first: the table for m labels puts each first label i in front of the
    table for m - 1 labels, whose labels from i up shift by one, so each
    block of rows stays in lexicographic order."""
    table = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, size + 1):
        first = np.repeat(np.arange(m, dtype=np.int8), len(table))[:, None]
        rest = np.tile(table, (m, 1))
        table = np.concatenate([first, rest + (rest >= first)], axis=1)
    return table


def block_group_chunks(size: int, block: int, chunk_rows: int) -> Iterator[np.ndarray]:
    """Every permutation preserving {0..block-1, block..size-1}, as chunks of at
    most `chunk_rows` 0-based intp image rows. Element i joins row i // |second|
    of the first block's `permutation_table` to row i % |second| of the
    second's, so the group is never held whole."""
    total = block_group_order(size, block)
    first, second = permutation_table(block), permutation_table(size - block) + block
    for start in range(0, total, chunk_rows):
        i, j = np.divmod(np.arange(start, min(start + chunk_rows, total)), len(second))
        yield np.concatenate([first[i], second[j]], axis=1, dtype=np.intp)


@functools.cache
def block_permutations(size: int, block: int) -> np.ndarray:
    """The whole block group of [size] as one read-only (count, size) array of
    0-based image rows, in `block_group_chunks` order; built once per (size, block)."""
    count = block_group_order(size, block)
    if count > GROUP_ENUMERATION_CAP:
        raise ValueError(
            f"block group has {count} elements, above the cap {GROUP_ENUMERATION_CAP}; "
            "use sample_block_permutations"
        )
    rows = next(block_group_chunks(size, block, count))
    rows.setflags(write=False)
    return rows


def sample_block_permutations(
    size: int, block: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """`count` seeded iid-uniform draws from the block-preserving subgroup, as a
    (count, size) array of 0-based image rows: per draw, one `rng.permutation`
    of the first block, then one of the second."""
    block_group_order(size, block)
    rows = np.empty((count, size), dtype=np.intp)
    for row in rows:
        row[:block] = rng.permutation(block)
        row[block:] = rng.permutation(size - block) + block
    return rows


def phase_signs(incidence: np.ndarray) -> np.ndarray:
    """The phase oracles' diagonals of a (..., V) incidence array: -1 at the
    members of each set, +1 elsewhere."""
    return 1.0 - 2.0 * np.asarray(incidence, dtype=bool)


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


def apply_randomized_preimage(subset: Subset, rho: DensityMatrix) -> DensityMatrix:
    """Apply a uniformly random permutation with preimage set `subset`.

    Equals the block average of P rho P† over |subset| for any representative P,
    here the canonical one, gathered through its inverse.
    """
    if rho.dim != subset.universe:
        raise ValueError(f"rho dim {rho.dim} does not match universe {subset.universe}")
    inv = representative_inverse(subset.incidence)
    return DensityMatrix(rho.dim, block_average(rho.entries[np.ix_(inv, inv)], len(subset)))
