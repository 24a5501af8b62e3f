"""Per-column sorted-suffix permutations built by a right-to-left radix sort.

The permutation pi_j orders the strings by their suffixes starting at column
``j``; ties between equal suffixes resolve to ascending string index because
every pass is stable and the sweep is seeded with the identity.

:func:`radix_sweep` is the paper's construction and the only loop that sorts
a PBWT column.  It runs from pi_length, the seed, down to pi_0; pass ``j``
stably sorts PBWT column ``j`` (the column-``j`` codes in pi_{j+1} order)
once, and that one sort yields the column's LF mapping (the sort's inverse)
and pi_j = pi_{j+1}[order].  A permutation outlives its pass only where the
caller keeps it.  The caller supplies the column: the build gathers it from
the strings (:func:`build_permutations`), an index made from its columns
scatters it back (:func:`~pbwtidx.pbwt.invert_pbwt`), a :class:`~pbwtidx.pbwt.PbwtMatrix`
handed no LF mapping reads its own columns, and the cyclic-shift check in
:mod:`pbwtidx.fm` reads the shifts of the text, whose PBWT is the BWT.

:func:`rebuild_column` needs only the last permutation, so its radix digit
is as many columns as fit in a uint64 beside a row rank (McIlroy, Bostic &
McIlroy 1993, "Engineering radix sort"): a span of g columns costs
ceil(g / w) sorts instead of g, with w at least 4 for ASCII alphabets.  Its
columns are grouped into bytes before they enter the wide key, and a pass
whose digit and rank fit in 32 bits sorts uint32 keys.

Conventions: string matrices are (n, L) uint8 rank codes, kept permutations
int32.
"""

from collections.abc import Callable

import numpy as np

from .collection import StringCollection


def radix_sweep(n: int, width: int, column: Callable[[int, np.ndarray], np.ndarray], seed=None, keep=()):
    """The right-to-left sweep over ``width`` columns of ``n`` rows.

    ``column(j, pi)`` returns PBWT column ``j`` given pi_{j+1}.  Returns
    ``(lf, perms)``: the (width, n) int32 LF mapping and a dict holding the
    int32 pi_j for each ``j`` in ``keep``, in that order, where pi_width is
    ``seed`` (the identity when None) and ties keep its order.
    """
    lf = np.empty((width, n), np.int32)
    rows = np.arange(n, dtype=np.int32)
    # pi is intp: numpy casts any other index array on every gather and
    # scatter, which made the loader's sweep 12% slower with int32 at
    # 20 000 x 200
    pi = np.arange(n, dtype=np.intp) if seed is None else np.asarray(seed, np.intp)
    wanted, perms = set(keep), {}
    for j in range(width, -1, -1):
        if j < width:
            order = np.argsort(column(j, pi), kind="stable")
            lf[j][order] = rows
            pi = pi.take(order)
        if j in wanted:
            perms[j] = pi.astype(np.int32)
    return lf, {j: perms[j] for j in keep}


def build_permutations(collection: StringCollection,
                       keep) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """The collection's (length, n) uint8 PBWT columns, their LF mapping and
    pi_j for each ``j`` in ``keep``, from one :func:`radix_sweep` that
    gathers each column from the strings.  The columns are handed over
    read-only, as :class:`~pbwtidx.pbwt.PbwtMatrix` states."""
    codes, length, n = collection.codes, collection.length, collection.n
    cols = np.frombuffer(bytearray(length * n), np.uint8).reshape(length, n)

    def gather(j, pi):
        return np.take(codes[:, j], pi, out=cols[j])

    lf, perms = radix_sweep(n, length, gather, keep=keep)
    cols.setflags(write=False)  # a flags.writeable store keeps 57 B per array on numpy 2.4
    return cols, lf, perms


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
