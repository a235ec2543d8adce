"""Exact linear-algebra and combinatorics substrate.

A subset holds 1-based labels from 1..V, and the amplitude slot of label i
is index i-1. A permutation has no class here: the package carries it as a
0-based image row (see `oracles`), and the tests keep a 1-based permutation
class as their reference. All values are immutable after construction and
all operations are pure functions.

A set family is one (count, V) bool incidence array (`SubsetFamily`), and a
family predicate is a row mask over a chunk of such rows. `Subset` is the
type of one set, such as a fixed core, and its `incidence` is its row; a
family builds its `Subset`s only when its `sets` view is read.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Dense complex matrices only; desk-scale instances must fit under this cap.
MAX_DIM = 4096
# enumerate_family refuses above this many subsets (use sample_family instead),
# and sample_family refuses to draw more.
ENUMERATION_CAP = 10**7
# enumerate_family builds and filters this many incidence rows at a time.
ENUMERATION_CHUNK_ROWS = 2**14
# Sums of float32 zeros and ones are exact integers below this.
FLOAT32_EXACT_COUNT = 2**24

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

    @property
    def incidence(self) -> np.ndarray:
        """The set as a (V,) bool incidence row, label i in column i-1."""
        row = np.zeros(self.universe, dtype=bool)
        row[np.array(self.members, dtype=np.intp) - 1] = True
        return row

    def complement(self) -> "Subset":
        inside = self._member_set  # type: ignore[attr-defined]
        return Subset(self.universe, tuple(m for m in range(1, self.universe + 1) if m not in inside))


def first_repeats(rows: np.ndarray) -> np.ndarray:
    """For each family of a (..., count, V) bool incidence stack, the index of its
    first row that repeats an earlier row of the family, or -1 if its rows are
    distinct. Rows are packed into bytes; once a family's rows are sorted, stably,
    by their bytes, its duplicates sit next to each other, the earliest copy
    first, and neighbours are compared as uint64 words."""
    count, universe = rows.shape[-2:]
    families = math.prod(rows.shape[:-2])
    nbytes = -(-universe // 8)
    # each row padded to whole bytes, so one flat packbits packs the rows apart
    pad = np.zeros(rows.shape[:-1] + (8 * nbytes - universe,), dtype=bool)
    packed = np.packbits(np.concatenate([rows, pad], axis=-1)).reshape(families, count, nbytes)
    # one uint8 key per byte, last byte first: radix sorts, far faster than uint64 keys
    order = np.lexsort(packed.transpose(2, 0, 1)[::-1], axis=-1)
    width = -(-nbytes // 8)
    words = np.zeros((families, count, 8 * width), dtype=np.uint8)
    words[..., :nbytes] = packed
    words = words.view(np.uint64).reshape(families * count, width)
    ranked = words[order + count * np.arange(families)[:, None]]
    repeats = (ranked[:, 1:] == ranked[:, :-1]).all(axis=-1)
    first = np.where(repeats, order[:, 1:], count).min(axis=-1, initial=count)
    return np.where(first < count, first, -1).reshape(rows.shape[:-2])


class SubsetFamily:
    """Distinct subsets of one universe, held as a (count, V) 0/1 incidence array.

    Row r of `incidence` marks the members of set r, label i in column i-1.
    `sets` gives the same sets as `Subset`s in row order, built once on first
    use. Counting and the Fixing Procedure work on the rows.
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
        repeat = int(first_repeats(rows))
        if repeat >= 0:
            members = tuple(int(i) + 1 for i in np.flatnonzero(rows[repeat]))
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


def _raise_first(bad: np.ndarray, values: np.ndarray | None, message: str,
                 stacked: bool) -> None:
    """Raise `message` with the first flagged member's value, if it takes one; a
    stack's error names the member."""
    hits = np.flatnonzero(bad)
    if hits.size:
        k = int(hits[0])
        text = message if values is None else message.format(values.flat[k].item())
        raise ValueError(f"member {k}: {text}" if stacked else text)


def validated_states(amps: np.ndarray) -> np.ndarray:
    """Check one state vector, or a stack of them, for finite entries and norm 1;
    return it read-only."""
    _check_dim(amps.shape[-1])
    stacked = amps.ndim > 1
    _raise_first(~np.isfinite(amps).all(axis=-1), None, "state has a non-finite entry", stacked)
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    bad = np.abs(norm_sq - 1.0) > NORM_TOL
    _raise_first(bad, norm_sq, "state is not normalized: |psi|^2 = {}", stacked)
    amps.setflags(write=False)
    return amps


def validated_densities(mats: np.ndarray) -> np.ndarray:
    """Check one matrix, or a stack, for finite entries, Hermitian, unit trace and
    (up to `_EAGER_PSD_DIM`) positive semidefinite; return it read-only."""
    _check_dim(mats.shape[-1])
    stacked = mats.ndim > 2
    _raise_first(~np.isfinite(mats).all(axis=(-2, -1)), None, "matrix has a non-finite entry",
                 stacked)
    herm = np.max(np.abs(mats - np.swapaxes(mats, -1, -2).conj()), axis=(-2, -1))
    _raise_first(herm > HERMITIAN_TOL, herm, "matrix is not Hermitian: max asymmetry {}", stacked)
    trace = np.trace(mats, axis1=-2, axis2=-1)
    _raise_first(np.abs(trace - 1.0) > TRACE_TOL, trace, "trace is {}, expected 1", stacked)
    if mats.shape[-1] <= _EAGER_PSD_DIM:
        _check_psd(mats)
    mats.setflags(write=False)
    return mats


def _check_psd(mats: np.ndarray) -> None:
    """Refuse the first member with an eigenvalue below -EIGENVALUE_TOL. One stacked
    Cholesky of mats + EIGENVALUE_TOL I passes a stack whose members are all
    positive definite after that shift; only if it fails does an eigensolve find
    the first member below and its least eigenvalue."""
    try:
        np.linalg.cholesky(mats + EIGENVALUE_TOL * np.eye(mats.shape[-1]))
    except np.linalg.LinAlgError:
        lo = np.linalg.eigvalsh(mats)[..., 0]
        _raise_first(lo < -EIGENVALUE_TOL, lo, "matrix has negative eigenvalue {}",
                     mats.ndim > 2)


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
) -> SubsetFamily:
    """All k-subsets of [universe] passing the predicate, in lexicographic order.

    The subsets are built as incidence rows, `ENUMERATION_CHUNK_ROWS` at a time;
    the predicate maps each (count, universe) bool chunk to a (count,) bool mask
    of the rows to keep. C(universe, k) is built as C(universe, j) for j up to
    min(k, universe - k), which only grow, so it is refused at the first above the cap.
    """
    if not 0 <= k <= universe:
        raise ValueError(f"k={k} must lie in 0..{universe}")
    total = 1
    for j in range(min(k, universe - k)):
        total = total * (universe - j) // (j + 1)
        if total > ENUMERATION_CAP:
            raise ValueError(f"C({universe},{k}) exceeds the enumeration cap {ENUMERATION_CAP}; "
                             "use sample_family for seeded uniform sampling instead")
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


def _choice_rows(universe: int, k: int, floyd: bool, draws: np.ndarray) -> np.ndarray:
    """The (batch, universe) incidence rows of the sets `Generator.choice`
    builds from the rows of `draws` (see `sample_family`)."""
    at = np.arange(len(draws))
    rows = np.zeros((len(draws), universe), dtype=bool)
    if floyd:  # a value picked before step t is replaced by universe - k + t
        for t in range(k):
            val = np.where(rows[at, draws[:, t]], universe - k + t, draws[:, t])
            rows[at, val] = True
        return rows
    perm = np.tile(np.arange(universe), (len(draws), 1))
    for t in range(draws.shape[1]):  # swap position universe - 1 - t with draw t
        held = perm[:, universe - 1 - t].copy()
        perm[:, universe - 1 - t] = perm[at, draws[:, t]]
        perm[at, draws[:, t]] = held
    rows[at[:, None], perm[:, universe - k:]] = True
    return rows


def sample_family(
    universe: int, k: int, count: int, rng: np.random.Generator
) -> SubsetFamily:
    """Uniformly sample `count` distinct k-subsets of [universe].

    The family holds the same sets, in the same order, as one
    `rng.choice(universe, k, replace=False)` per draw with repeats skipped;
    `rng` is left further along than that loop would leave it. Each batch of
    draws is one `rng.integers` call, sized from the draws expected to give
    the sets still missing, and capped at `ENUMERATION_CHUNK_ROWS` rows and
    64 times as many incidence entries, or at a quarter of the sets kept so
    far if more: then a batch's draws take at most half the memory of the
    loop's (count, k) array, and few rounds re-check the kept sets.
    """
    total = math.comb(universe, k)
    if count > total:
        raise ValueError(f"cannot draw {count} distinct subsets, only {total} exist")
    if count > ENUMERATION_CAP:
        raise ValueError(f"cannot draw {count} subsets, above the cap {ENUMERATION_CAP}")
    if universe < 1:
        raise ValueError("universe must be positive")
    # choice runs Floyd's algorithm, k draws below universe - k + 1, ...,
    # universe and k - 1 shuffle draws below k, ..., 2, unless universe > 10,000
    # and k > universe // 50: then it swaps positions universe - 1, ...,
    # max(universe - k, 1) of arange(universe), each with a draw below it plus
    # 1. Each draw is one bounded integer, as in rng.integers(0, highs).
    floyd = universe <= 10_000 or k <= universe // 50
    highs = np.arange(universe, max(universe - k, 1), -1)
    if floyd:
        highs = np.concatenate([np.arange(universe - k + 1, universe + 1), np.arange(k, 1, -1)])
    cap = max(1, min(ENUMERATION_CHUNK_ROWS, ENUMERATION_CHUNK_ROWS * 64 // universe))
    kept = [np.zeros((0, universe), dtype=bool)]
    # a set's key is its packed row, as one uint64 word when it fits
    width = -(-universe // 64)
    keys = np.zeros(0, dtype=np.uint64 if width == 1 else np.dtype((np.void, 8 * width)))
    while len(keys) < count:
        need = count - len(keys)
        batch = min(max(cap, len(keys) // 4), -(-need * total // (total - len(keys))))
        draws = rng.integers(0, np.tile(highs, batch)).reshape(batch, len(highs))
        rows = _choice_rows(universe, k, floyd, draws)
        words = np.zeros((batch, 8 * width), dtype=np.uint8)
        words[:, :-(-universe // 8)] = np.packbits(rows, axis=1)
        fresh = words.view(keys.dtype).ravel()
        _, first = np.unique(np.concatenate([keys, fresh]), return_index=True)
        is_first = np.zeros(len(keys) + batch, dtype=bool)
        is_first[first] = True
        new = np.flatnonzero(is_first[len(keys):])[:need]
        keys = np.concatenate([keys, fresh[new]])
        kept.append(rows[new])
    return SubsetFamily(universe, np.concatenate(kept))


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


@functools.cache
def _philox_key_type() -> type:
    """A seed sequence type that hands Philox its two 64-bit key words as they are.

    `Philox(key=...)` still builds a `SeedSequence` (from OS entropy, as no seed
    is given) and splits the 128-bit key into words, which takes longer than
    the draws of a small trial. Philox seeded from this type reads its key from
    `generate_state(2, uint64)` instead, with the counter at zero, so its state
    and its draws are those of `Philox(key=...)`. The type is made on first
    use, so importing permlab does not import numpy.random.
    """

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return PhiloxKey


def philox_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based RNG stream fully determined by (seed, index).

    The 128-bit Philox key is seed in the high 64 bits and the stream index
    in the low 64, so per-trial streams drawn serially or in parallel agree.
    The stream is built from that key alone: no seed sequence, no OS entropy.
    """
    mask = (1 << 64) - 1
    key = _philox_key_type()(np.array([int(index) & mask, int(seed) & mask], dtype=np.uint64))
    return np.random.Generator(np.random.Philox(key))
