"""Per-column sorted-suffix permutations built by a right-to-left radix sort.

The permutation pi_j orders the strings by their suffixes starting at column
``j``; ties between equal suffixes resolve to ascending string index because
every pass is stable and the sweep is seeded with the identity.

:func:`build_permutations` is the paper's construction, one pass per column
from right to left.  Pass ``j`` sorts PBWT column ``j`` (the column-``j``
codes in pi_{j+1} order) once, and that one sort yields the column, its LF
mapping (the sort's inverse) and pi_j; a permutation outlives its pass only
where the storage policy keeps it.  :func:`rebuild_column` needs only the
last one, so its radix digit is as many columns as fit in a uint64 beside a
row rank (McIlroy, Bostic & McIlroy 1993, "Engineering radix sort"): a span
of g columns costs ceil(g / w) sorts instead of g, with w at least 4 for
ASCII alphabets.  Its columns are grouped into bytes before they enter the
wide key, and a pass whose digit and rank fit in 32 bits sorts uint32 keys.

Conventions: string matrices are (n, L) uint8 rank codes, permutations int32.
"""

import numpy as np

from .collection import StringCollection


# what one right-to-left pass over the columns yields: a uint8 code matrix,
# the int32 LF mapping and the kept permutations by column
Sweep = tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]


def radix_sweep(codes: np.ndarray, seed: np.ndarray, keep=()) -> Sweep:
    """Right-to-left radix sort of the rows of ``codes``, one stable argsort per column.

    Column ``j``'s pass gathers ``codes[pi_{j+1}, j]``, which is PBWT column
    ``j``, and sorts it stably: the order is pi_j as positions of pi_{j+1},
    and its inverse is the column's LF mapping.  Returns ``(cols, lf, perms)``:
    the (L, n) uint8 PBWT columns, the (L, n) int32 LF mapping and pi_j for
    each ``j`` in ``keep``, where pi_L is ``seed`` and ties keep its order.
    """
    n, width = codes.shape
    cols = np.empty((width, n), np.uint8)
    lf = np.empty((width, n), np.int32)
    rows = np.arange(n, dtype=np.int32)
    pi, wanted, perms = np.asarray(seed, np.int32), set(keep), {}
    for j in range(width, -1, -1):
        if j < width:
            np.take(codes[:, j], pi, out=cols[j])
            order = np.argsort(cols[j], kind="stable")
            lf[j][order] = rows
            pi = pi[order]
        if j in wanted:
            perms[j] = pi
    return cols, lf, {j: perms[j] for j in keep}


def build_permutations(collection: StringCollection, keep) -> Sweep:
    """One right-to-left sweep over the collection: its PBWT columns, their LF
    mapping and pi_j for each ``j`` in ``keep`` (pi_length is the identity).

    See :func:`radix_sweep`; each column is sorted once and only the kept
    permutations outlive their pass.
    """
    return radix_sweep(collection.codes, np.arange(collection.n, dtype=np.int32), keep)


def _packed_span(codes: np.ndarray, lo: int, hi: int, sym_bits: int, key) -> np.ndarray:
    """Columns ``lo..hi-1`` of ``codes`` as one ``key`` integer per row, leftmost most significant.

    Runs of ``8 // sym_bits`` columns are first combined in a uint8 with a
    multiply and an add, which numpy vectorises where it does not vectorise
    a uint8 shift; the wide key then takes one shift and one OR per byte.
    """
    per_byte = 8 // sym_bits
    packed = None
    for b in range(lo, hi, per_byte):
        e = min(b + per_byte, hi)
        byte = codes[:, b].copy()
        for j in range(b + 1, e):
            byte *= 1 << sym_bits
            byte += codes[:, j]
        if packed is None:
            packed = byte.astype(key)
        else:
            packed <<= key((e - b) * sym_bits)
            packed |= byte
    return packed


def rebuild_column(collection: StringCollection, start: np.ndarray, j_start: int, j_target: int) -> np.ndarray:
    """Recompute pi_{j_target} from a known pi_{j_start}, j_target <= j_start.

    Right-to-left radix passes over the column span, each taking as many
    columns as one uint64 key holds above the low ``pos_bits`` bits.  A pass
    packs its columns a byte at a time (:func:`_packed_span`), gathers the
    packed keys in the current pi order and ORs each row's rank into the low
    bits.  The keys are then unique, so one plain sort is stable, and the low
    bits of the sorted keys say where each row came from.  A pass whose
    columns and rank fit in 32 bits uses uint32 keys, which sort in about
    half the time of uint64 ones.
    """
    if j_target == j_start:
        return start
    n, codes = collection.n, collection.codes
    sym_bits = max(1, (collection.alphabet.sigma - 1).bit_length())
    pos_bits = max(1, (n - 1).bit_length())
    width = (64 - pos_bits) // sym_bits
    pi = np.asarray(start, dtype=np.int32)
    for hi in range(j_start, j_target, -width):
        lo = max(j_target, hi - width)
        key = np.uint32 if (hi - lo) * sym_bits + pos_bits <= 32 else np.uint64
        keys = _packed_span(codes, lo, hi, sym_bits, key).take(pi)
        keys <<= key(pos_bits)
        keys |= np.arange(n, dtype=key)
        keys.sort()
        keys &= key((1 << pos_bits) - 1)
        pi = pi.take(keys)
    return pi
