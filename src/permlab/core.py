"""Exact linear-algebra and combinatorics substrate.

Labels are 1-based everywhere: a permutation on [V] maps labels 1..V, a
subset holds labels from 1..V, and the amplitude slot of label i is index
i-1. All values are immutable after construction and all operations are
pure functions.

A set family is one (count, V) bool incidence array (`SubsetFamily`), and a
family predicate is a row mask over a chunk of such rows. `Subset` is the
type of one set, such as an instance's preimage set or a fixed core; a
family builds its `Subset`s only when its `sets` view is read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Dense complex matrices only; desk-scale instances must fit under this cap.
MAX_DIM = 4096
# enumerate_family refuses above this many subsets; use sample_family instead.
ENUMERATION_CAP = 10**7
# enumerate_family builds and filters this many incidence rows at a time.
ENUMERATION_CHUNK_ROWS = 2**14

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9
# Positivity is checked eagerly only below this dimension (the check is cubic).
_EAGER_PSD_DIM = 128


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the dense-matrix cap {MAX_DIM}")


def tuple_table(tuples: Iterable[tuple[int, ...]], count: int, width: int, dtype) -> np.ndarray:
    """`count` tuples of length `width` as one (count, width) array, never a list."""
    flat = np.fromiter(itertools.chain.from_iterable(tuples), dtype=dtype, count=count * width)
    return flat.reshape(count, width)


@dataclass(frozen=True)
class Permutation:
    """A bijection on the 1-based labels [V], stored as its image array."""

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

    def compose(self, other: "Permutation") -> "Permutation":
        """Return the permutation mapping j to self(other(j))."""
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return Permutation(self.size, tuple(self.image[i - 1] for i in other.image))

    def preimage_set(self, block: int) -> "Subset":
        """Labels mapped into the first `block` positions; always has `block` members."""
        if block > self.size:
            raise ValueError(f"block size {block} exceeds permutation size {self.size}")
        members = tuple(j for j in range(1, self.size + 1) if self.image[j - 1] <= block)
        return Subset(self.size, members)

    def matrix(self) -> np.ndarray:
        """V x V zero-one matrix sending basis vector j-1 to image[j]-1."""
        mat = np.zeros((self.size, self.size))
        for j, i in enumerate(self.image, start=1):
            mat[i - 1, j - 1] = 1.0
        return mat

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.image, dtype=np.intp) - 1

    def to_text(self) -> str:
        return " ".join(str(i) for i in self.image)


@dataclass(frozen=True)
class Subset:
    """A set of 1-based labels inside the universe [V]."""

    universe: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.universe < 1:
            raise ValueError("universe must be positive")
        members = tuple(self.members)
        if any(m < 1 or m > self.universe for m in members):
            raise ValueError(f"members must lie in 1..{self.universe}")
        if list(members) != sorted(set(members)):
            raise ValueError("members must be strictly increasing without duplicates")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_member_set", frozenset(members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, label: int) -> bool:
        return label in self._member_set  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def parity_counts(self) -> tuple[int, int]:
        """(number of even labels, number of odd labels)."""
        k_even = sum(1 for m in self.members if m % 2 == 0)
        return k_even, len(self.members) - k_even

    def complement(self) -> "Subset":
        inside = self._member_set  # type: ignore[attr-defined]
        return Subset(self.universe, tuple(m for m in range(1, self.universe + 1) if m not in inside))


class SubsetFamily:
    """Distinct subsets of one universe, held as a (count, V) 0/1 incidence array.

    Row r of `incidence` marks the members of set r, label i in column i-1.
    `sets` gives the same sets as `Subset`s in row order, built once on first
    use. Counting, restriction and the Fixing Procedure work on the rows.
    """

    def __init__(self, universe: int, rows: np.ndarray) -> None:
        """The family whose set r has the labels i with rows[r, i-1] set."""
        if universe < 1:
            raise ValueError("universe must be positive")
        rows = np.array(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != universe:
            raise ValueError(
                f"incidence has shape {rows.shape}, expected (count, {universe})"
            )
        # Duplicates sit next to each other once the rows, packed into uint64
        # words, are sorted; the stable sort keeps the earlier copy first.
        packed = np.packbits(rows, axis=1)
        words = np.zeros((len(rows), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        words = words.view(np.uint64)
        order = np.lexsort(words.T[::-1])
        ranked = words[order]
        repeats = order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]
        if repeats.size:
            members = tuple(int(i) + 1 for i in np.flatnonzero(rows[repeats.min()]))
            raise ValueError(f"duplicate subset {members}")
        rows.setflags(write=False)
        self.universe = universe
        self.incidence = rows
        self._sets: tuple[Subset, ...] | None = None

    @property
    def sets(self) -> tuple[Subset, ...]:
        """The member sets as `Subset`s, in row order."""
        if self._sets is None:
            sizes = self.incidence.sum(axis=1).tolist()
            labels = (np.nonzero(self.incidence)[1] + 1).tolist()
            ends = itertools.accumulate(sizes)
            self._sets = tuple(
                Subset(self.universe, tuple(labels[end - size:end]))
                for size, end in zip(sizes, ends)
            )
        return self._sets

    def __len__(self) -> int:
        return len(self.incidence)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.sets)

    def element_counts(self) -> dict[int, int]:
        """nu(i): for each label, the number of member sets containing it."""
        counts = self.incidence.sum(axis=0)
        return {int(i) + 1: int(counts[i]) for i in np.flatnonzero(counts)}

    def restrict_to(self, label: int) -> "SubsetFamily":
        """The member sets that contain `label`."""
        if not 1 <= label <= self.universe:
            raise ValueError(f"label {label} outside 1..{self.universe}")
        return SubsetFamily(self.universe, self.incidence[self.incidence[:, label - 1]])


@dataclass(frozen=True)
class PureState:
    """A normalized complex state vector; label i lives at amplitude index i-1."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dim,):
            raise ValueError(f"amplitudes have shape {amps.shape}, expected ({self.dim},)")
        object.__setattr__(self, "amplitudes", validated_states(amps))

    @classmethod
    def basis(cls, dim: int, label: int) -> "PureState":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[label - 1] = 1.0
        return cls(dim, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite complex matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        mat = np.array(self.entries, dtype=np.complex128)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"entries have shape {mat.shape}, expected square of dim {self.dim}")
        object.__setattr__(self, "entries", validated_densities(mat))

    def validate_psd(self) -> None:
        _check_psd(self.entries)

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        return cls(psi.dim, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def random_densities(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` random full-rank density matrices, normalized Wishart G G† / tr(G G†),
    as one unvalidated (count, dim, dim) array."""
    normal = rng.normal(size=(count, 2, dim, dim))
    g = normal[:, 0] + 1j * normal[:, 1]
    mats = g @ np.swapaxes(g, -1, -2).conj()
    return mats / np.trace(mats, axis1=-2, axis2=-1)[:, None, None]


def _raise_first(bad: np.ndarray, values: np.ndarray, message: str, stacked: bool) -> None:
    """Raise `message` with the first flagged member's value; a stack's error names it."""
    hits = np.flatnonzero(bad)
    if hits.size:
        k = int(hits[0])
        text = message.format(values.flat[k].item())
        raise ValueError(f"member {k}: {text}" if stacked else text)


def validated_states(amps: np.ndarray) -> np.ndarray:
    """Check one state vector, or a stack of them, for norm 1; return it read-only."""
    _check_dim(amps.shape[-1])
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    bad = np.abs(norm_sq - 1.0) > NORM_TOL
    _raise_first(bad, norm_sq, "state is not normalized: |psi|^2 = {}", amps.ndim > 1)
    amps.setflags(write=False)
    return amps


def validated_densities(mats: np.ndarray) -> np.ndarray:
    """Check one matrix, or a stack, for Hermitian, unit trace and (up to
    `_EAGER_PSD_DIM`) positive semidefinite; return it read-only."""
    _check_dim(mats.shape[-1])
    stacked = mats.ndim > 2
    herm = np.max(np.abs(mats - np.swapaxes(mats, -1, -2).conj()), axis=(-2, -1))
    _raise_first(herm > HERMITIAN_TOL, herm, "matrix is not Hermitian: max asymmetry {}", stacked)
    trace = np.trace(mats, axis1=-2, axis2=-1)
    _raise_first(np.abs(trace - 1.0) > TRACE_TOL, trace, "trace is {}, expected 1", stacked)
    if mats.shape[-1] <= _EAGER_PSD_DIM:
        _check_psd(mats)
    mats.setflags(write=False)
    return mats


def _check_psd(mats: np.ndarray) -> None:
    lo = np.linalg.eigvalsh(mats)[..., 0]
    _raise_first(lo < -EIGENVALUE_TOL, lo, "matrix has negative eigenvalue {}", mats.ndim > 2)


def subset_state(subset: Subset, dim: int) -> PureState:
    """The uniform superposition over the labels of a nonempty subset."""
    if len(subset) == 0:
        raise ValueError("empty subset has no state")
    if subset.members[-1] > dim:
        raise ValueError(
            f"subset member {subset.members[-1]} does not fit in dimension {dim}"
        )
    amps = np.zeros(dim, dtype=np.complex128)
    amps[[m - 1 for m in subset.members]] = 1.0 / math.sqrt(len(subset))
    return PureState(dim, amps)


def enumerate_family(
    universe: int,
    k: int,
    predicate: Callable[[np.ndarray], np.ndarray] | None = None,
    cap: int = ENUMERATION_CAP,
) -> SubsetFamily:
    """All k-subsets of [universe] passing the predicate, in lexicographic order.

    The subsets are built as incidence rows, `ENUMERATION_CHUNK_ROWS` at a time;
    the predicate maps each (count, universe) bool chunk to a (count,) bool mask
    of the rows to keep.
    """
    if k > universe:
        raise ValueError(f"k={k} exceeds universe {universe}")
    total = math.comb(universe, k)
    if total > cap:
        raise ValueError(
            f"C({universe},{k}) = {total} exceeds the enumeration cap {cap}; "
            "use sample_family for seeded uniform sampling instead"
        )
    combos = itertools.combinations(range(universe), k)
    kept = []
    for start in range(0, total, ENUMERATION_CHUNK_ROWS):
        count = min(ENUMERATION_CHUNK_ROWS, total - start)
        members = tuple_table(itertools.islice(combos, count), count, k, np.intp)
        rows = np.zeros((count, universe), dtype=bool)
        rows[np.arange(count)[:, None], members] = True
        if predicate is not None:
            mask = np.asarray(predicate(rows))
            if mask.shape != (count,) or mask.dtype != bool:
                raise ValueError("predicate must map (count, V) rows to a (count,) bool mask")
            rows = rows[mask]
        kept.append(rows)
    return SubsetFamily(universe, np.concatenate(kept))


def sample_family(
    universe: int, k: int, count: int, rng: np.random.Generator
) -> SubsetFamily:
    """Uniformly sample `count` distinct k-subsets of [universe].

    One `rng.choice` per draw, in order; a draw equal to an earlier one is
    skipped. The distinct draws become the family's incidence rows in draw
    order, with no `Subset` built per set.
    """
    total = math.comb(universe, k)
    if count > total:
        raise ValueError(f"cannot draw {count} distinct subsets, only {total} exist")
    drawn = np.empty((count, k), dtype=np.intp)
    seen: set[bytes] = set()
    while len(seen) < count:
        draw = rng.choice(universe, size=k, replace=False)
        draw.sort()
        key = draw.tobytes()
        if key not in seen:
            drawn[len(seen)] = draw
            seen.add(key)
    rows = np.zeros((count, universe), dtype=bool)
    rows[np.arange(count)[:, None], drawn] = True
    return SubsetFamily(universe, rows)


def partial_trace(
    rho: DensityMatrix, layout: Sequence[int], keep: Sequence[int]
) -> DensityMatrix:
    """Trace out the factors of `layout` that are not listed in `keep`.

    `layout` gives the tensor-factor dimensions (their product must equal
    rho.dim); `keep` lists the factor positions to retain, in order.
    """
    dims = tuple(int(d) for d in layout)
    if math.prod(dims) != rho.dim:
        raise ValueError(f"layout {dims} does not multiply to dim {rho.dim}")
    keep = tuple(int(i) for i in keep)
    if any(i < 0 or i >= len(dims) for i in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"keep indices {keep} invalid for layout of {len(dims)} factors")
    n = len(dims)
    tensor = rho.entries.reshape(dims + dims)
    # Contract each traced factor's row index with its column index.
    src = list(range(2 * n))
    for i in range(n):
        if i not in keep:
            src[n + i] = src[i]
    out_axes = [src[i] for i in keep] + [src[n + i] for i in keep]
    reduced = np.einsum(tensor, src, out_axes)
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return DensityMatrix(d_keep, reduced.reshape(d_keep, d_keep))


def trace_distance(a: DensityMatrix | np.ndarray,
                   b: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Half the trace norm of the difference of two Hermitian matrices; for two
    equal-shaped stacks, an array of one distance per member from one eigensolve."""
    ma = a.entries if isinstance(a, DensityMatrix) else np.asarray(a)
    mb = b.entries if isinstance(b, DensityMatrix) else np.asarray(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(ma - mb)), axis=-1)
    return float(dist) if ma.ndim == 2 else dist


def philox_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based RNG stream fully determined by (seed, index).

    The 128-bit Philox key is seed in the high 64 bits and the stream index
    in the low 64, so per-trial streams drawn serially or in parallel agree.
    """
    mask = (1 << 64) - 1
    key = ((int(seed) & mask) << 64) | (int(index) & mask)
    return np.random.Generator(np.random.Philox(key=key))
