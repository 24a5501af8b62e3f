"""Per-column sorted-suffix permutations built by a right-to-left radix sort.

The permutation pi_j orders the strings by their suffixes starting at column
``j``; ties between equal suffixes resolve to ascending string index because
every counting-sort pass is stable and the sweep is seeded with the identity.

:func:`build_permutations` keeps every column, so it sorts by one column per
pass.  :func:`rebuild_column` needs only the last one, so its radix digit is
as many columns as fit in a uint64 beside a row rank (McIlroy, Bostic &
McIlroy 1993, "Engineering radix sort"): a span of g columns costs
ceil(g / w) sorts instead of g, with w at least 4 for ASCII alphabets.

Conventions: string matrices are (n, L) uint8 rank codes, permutations int32.
"""

import numpy as np

from .collection import StringCollection


def radix_sweep(codes: np.ndarray, seed: np.ndarray, sigma: int) -> np.ndarray:
    """Right-to-left radix sort of the rows of ``codes``, one stable argsort per column.

    Returns the (L+1, n) int32 table whose row ``j`` sorts the row suffixes
    starting at column ``j``, ties in ``seed`` order; row ``L`` is ``seed``.
    ``sigma`` bounds the codes, as a counting sort needs; the argsort does not.
    """
    n, width = codes.shape
    out = np.empty((width + 1, n), np.int32)
    out[width] = seed
    for j in range(width - 1, -1, -1):
        prev = out[j + 1]
        order = np.argsort(codes[prev, j], kind="stable")
        out[j] = prev[order]
    return out


def build_permutations(collection: StringCollection) -> np.ndarray:
    """Radix-sort the collection right to left, keeping every intermediate column.

    Returns the (length+1, n) int32 array whose row ``j`` is pi_j; row
    ``length`` is the identity.
    """
    seed = np.arange(collection.n, dtype=np.int32)
    return radix_sweep(collection.codes, seed, collection.alphabet.sigma)


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

