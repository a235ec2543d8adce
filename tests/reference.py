"""Helpers shared by several test files: constructors and views that only the
tests need, kept out of the package.

The test files import this module by name: `pyproject.toml` puts `tests/` on
pytest's import path, whatever the import mode.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from permlab.core import DensityMatrix, Subset, SubsetFamily, random_densities
from permlab.dilation import QueryAlgorithm, haar_stack


@dataclass(frozen=True)
class Permutation:
    """A bijection on the 1-based labels [V], stored as its image array: the
    tests' reference for the package's 0-based image rows."""

    size: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("permutation size must be positive")
        if len(self.image) != self.size:
            raise ValueError(f"image has length {len(self.image)}, expected {self.size}")
        if sorted(self.image) != list(range(1, self.size + 1)):
            raise ValueError("image is not a bijection on 1..V")

    def __call__(self, label: int) -> int:
        return self.image[label - 1]

    def matrix(self) -> np.ndarray:
        """V x V zero-one matrix sending basis vector j-1 to image[j]-1."""
        mat = np.zeros((self.size, self.size))
        for j, i in enumerate(self.image, start=1):
            mat[i - 1, j - 1] = 1.0
        return mat

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.image, dtype=np.intp) - 1


def identity(size):
    return Permutation(size, tuple(range(1, size + 1)))


def invert(perm):
    inv = [0] * perm.size
    for j, i in enumerate(perm.image, start=1):
        inv[i - 1] = j
    return Permutation(perm.size, tuple(inv))


def compose(a, b):
    """The permutation mapping j to a(b(j))."""
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    return Permutation(a.size, tuple(a.image[i - 1] for i in b.image))


def preimage_set(perm, block):
    """The labels `perm` maps into the first `block` positions, as a `Subset`."""
    if block > perm.size:
        raise ValueError(f"block size {block} exceeds permutation size {perm.size}")
    members = tuple(j for j in range(1, perm.size + 1) if perm.image[j - 1] <= block)
    return Subset(perm.size, members)


def random_permutation(size, rng):
    return Permutation(size, tuple(int(i) + 1 for i in rng.permutation(size)))


def permutation_from_text(text):
    image = tuple(int(tok) for tok in text.split())
    return Permutation(len(image), image)


def subset_from_text(universe, text):
    return Subset(universe, tuple(sorted(int(tok) for tok in text.split())))


def issubset(a, b):
    if a.universe != b.universe:
        raise ValueError(f"universe mismatch: {a.universe} vs {b.universe}")
    return all(m in b for m in a.members)


def maximally_mixed(dim):
    return DensityMatrix(dim, np.eye(dim, dtype=np.complex128) / dim)


def random_density(dim, rng):
    """Random full-rank density matrix (normalized Wishart)."""
    return DensityMatrix(dim, random_densities(dim, 1, rng)[0])


def diagonal(rho):
    return np.real(np.diag(rho.entries)).copy()


def haar_unitary(dim, rng):
    """One Haar-distributed unitary from one stream."""
    return haar_stack(dim, 1, [rng])[0, 0]


def identity_algorithm(dim_a, dim_b, queries):
    """The identity before every query and at the end."""
    return QueryAlgorithm(dim_a, dim_b, (np.eye(dim_a * dim_b),) * (queries + 1))


def as_permutation(row):
    """A 0-based image row as a `Permutation` on 1-based labels."""
    return Permutation(len(row), tuple(int(i) + 1 for i in row))


def block_permutation_objects(size, block):
    """Every permutation of [size] preserving the split {1..block, block+1..size},
    one `Permutation` per element, first block outermost."""
    out = []
    for first in itertools.permutations(range(1, block + 1)):
        for second in itertools.permutations(range(block + 1, size + 1)):
            out.append(Permutation(size, first + second))
    return tuple(out)


def sample_block_permutation_objects(size, block, count, rng):
    """Seeded iid-uniform draws from the block-preserving subgroup, one
    `Permutation` per draw."""
    out = []
    for _ in range(count):
        first = tuple(int(x) + 1 for x in rng.permutation(block))
        second = tuple(int(x) + block + 1 for x in rng.permutation(size - block))
        out.append(Permutation(size, first + second))
    return tuple(out)


def majority_count(n_labels):
    """ceil(2N/3), the dominant parity's share of a promise instance's N members."""
    return (2 * n_labels + 2) // 3


def incidence_rows(universe, sets):
    """`Subset`s of [universe] as a (count, universe) bool incidence array,
    label i in column i - 1."""
    if any(s.universe != universe for s in sets):
        raise ValueError("all member subsets must share the family universe")
    rows = [np.isin(np.arange(1, universe + 1), s.members) for s in sets]
    return np.array(rows, dtype=bool).reshape(-1, universe)


def family_of_sets(universe, sets):
    """The `SubsetFamily` whose rows are `sets`, in order."""
    return SubsetFamily(universe, incidence_rows(universe, sets))


def reference_enumerate_family(universe, k, predicate=None):
    """Every k-subset of [universe] whose member tuple passes `predicate`, one
    `Subset` per combination, in lexicographic order."""
    return tuple(
        Subset(universe, combo)
        for combo in itertools.combinations(range(1, universe + 1), k)
        if predicate is None or predicate(combo)
    )
