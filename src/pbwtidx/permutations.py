"""Per-column sorted-suffix permutations built by a right-to-left radix sort.

Column ``j`` of the table is the permutation pi_j ordering the strings by
their suffixes starting at column ``j``; ties between equal suffixes resolve
to ascending string index because every counting-sort pass is stable and the
sweep is seeded with the identity.

:func:`build_permutations` keeps every column, so it sorts by one column per
pass.  :func:`rebuild_column` needs only the last one, so its radix digit is
as many columns as fit in a uint64 beside a row rank (McIlroy, Bostic &
McIlroy 1993, "Engineering radix sort"): a span of g columns costs
ceil(g / w) sorts instead of g, with w at least 4 for ASCII alphabets.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .collection import StringCollection
from .errors import IndexOutOfRangeError


@dataclass(frozen=True)
class ColumnCounts:
    """Symbol frequencies of one collection column and their exclusive prefix sums."""

    freq: np.ndarray = field(compare=False)
    c_array: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class PermutationTable:
    """The (length+1, n) table of permutations; row ``j`` is pi_j, row ``length`` the identity."""

    table: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.table.shape[1]

    @property
    def length(self) -> int:
        return self.table.shape[0] - 1

    def column(self, j: int) -> np.ndarray:
        if not 0 <= j <= self.length:
            raise IndexOutOfRangeError(f"column {j} not in [0, {self.length}]")
        return self.table[j]


def build_permutations(collection: StringCollection) -> PermutationTable:
    """Radix-sort the collection right to left, keeping every intermediate column."""
    seed = np.arange(collection.n, dtype=np.int32)
    table = _kernels.radix_sweep(collection.codes, seed, collection.alphabet.sigma)
    return PermutationTable(table=table)


def rebuild_column(collection: StringCollection, start: np.ndarray, j_start: int, j_target: int) -> np.ndarray:
    """Recompute pi_{j_target} from a known pi_{j_start}, j_target <= j_start.

    Right-to-left radix passes over the column span, each taking as many
    columns as one uint64 key holds above the low ``pos_bits`` bits.  A pass
    packs its columns (leftmost most significant), gathers the packed keys in
    the current pi order and ORs each row's rank into the low bits.  The keys
    are then unique, so one plain sort is stable, and the low bits of the
    sorted keys say where each row came from.
    """
    if j_target == j_start:
        return start
    n, codes = collection.n, collection.codes
    sym_bits = max(1, (collection.alphabet.sigma - 1).bit_length())
    pos_bits = max(1, (n - 1).bit_length())
    width = (64 - pos_bits) // sym_bits
    rows = np.arange(n, dtype=np.uint64)
    pi = np.asarray(start, dtype=np.int32)
    for hi in range(j_start, j_target, -width):
        lo = max(j_target, hi - width)
        packed = np.zeros(n, np.uint64)
        for j in range(lo, hi):
            packed <<= np.uint64(sym_bits)
            packed |= codes[:, j]
        keys = np.sort((packed[pi] << np.uint64(pos_bits)) | rows)
        pi = pi[keys & np.uint64((1 << pos_bits) - 1)]
    return pi


def counts_for_column(codes_column: np.ndarray, sigma: int) -> ColumnCounts:
    freq = np.bincount(codes_column, minlength=sigma).astype(np.int64)
    c_array = np.zeros(sigma, dtype=np.int64)
    np.cumsum(freq[:-1], out=c_array[1:])
    return ColumnCounts(freq=freq, c_array=c_array)


def column_counts(collection: StringCollection, j: int) -> ColumnCounts:
    """Counts over the multiset of column-``j`` characters of the collection."""
    if not 0 <= j < collection.length:
        raise IndexOutOfRangeError(f"column {j} not in [0, {collection.length})")
    return counts_for_column(collection.codes[:, j], collection.alphabet.sigma)
