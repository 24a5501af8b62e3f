"""Per-column sorted-suffix permutations built by a right-to-left radix sort.

The permutation pi_j orders the strings by their suffixes starting at column
``j``; ties between equal suffixes resolve to ascending string index because
every pass is stable and the sweep is seeded with the identity.

:func:`radix_sweep` is the paper's construction and the only loop that sorts
a PBWT column.  It runs from pi_length, the seed, down to pi_0; pass ``j``
stably sorts PBWT column ``j`` (the column-``j`` codes in pi_{j+1} order)
once and takes pi_j = pi_{j+1}[order].  It is a generator of ``(j, pi_j)``:
a permutation outlives its pass only where the caller keeps it, and a
caller that stops early sorts no further column.  The caller supplies the
column: the build gathers it from the strings (:func:`build_permutations`),
an index made from its columns scatters it back, sweeping only as far as
its queries read (:class:`~pbwtidx.pbwt.PbwtInversion`), and the
cyclic-shift check in :mod:`pbwtidx.fm` reads the shifts of the text, whose
PBWT is the BWT.  The sort's inverse is the column's LF mapping, which
:class:`~pbwtidx.pbwt.PbwtMatrix` fills from the column when a search first
reads it, so the sweep writes none.

:func:`rebuild_column` needs only the last permutation, so its radix digit
is as many columns as fit in a uint64 beside a row rank (McIlroy, Bostic &
McIlroy 1993, "Engineering radix sort"): a span of g columns costs
ceil(g / w) sorts instead of g, with w at least 4 for ASCII alphabets.  Its
columns are grouped into bytes before they enter the wide key, and a pass
whose digit and rank fit in 32 bits sorts uint32 keys.  Its first pass
from a stored column c reads the *rebuild digits* its caller hands over:
the columns that pass can cross, packed and gathered into pi_c order
(:func:`pass_digits`).  A caller that keeps them, as an index does for
each stored column, derives them once and rebuilds from c with one mask,
one sort and one gather.

A search needs pi_k only at the ranks its pattern holds, and those a pass
gives as counts (:func:`select_pass`), the C-array and occ of the wide
digit: the rows whose digit sorts below the pattern's come first, and
those that start with it follow, in the order of the permutation the pass
sorts.  So a ``rebuild`` query runs only the passes before its last
(:func:`last_pass`), none where one pass spans its gap, and sorts no more
than the rows it selects.  :func:`rebuild_column` still makes the whole of
pi_k for any other reader: a ``binary`` or ``backward`` query under
``none``, and a locate outside the selected ranks.

Conventions: string matrices are (n, L) uint8 rank codes, kept permutations
int32.
"""

from collections.abc import Callable

import numpy as np

from .collection import StringCollection


def radix_sweep(n: int, width: int, column: Callable[[int, np.ndarray], np.ndarray], seed=None):
    """The right-to-left sweep over ``width`` columns of ``n`` rows, as a
    generator of ``(j, pi_j)`` from ``j = width`` down to 0.

    ``column(j, pi)`` returns PBWT column ``j`` given pi_{j+1}.  pi_width is
    ``seed`` (the identity when None), and ties keep its order.  Each pi_j
    is a new intp array that the sweep never writes to, so a caller keeps
    one by holding it.  The pass for column ``j`` runs when the caller asks
    for its pair.
    """
    # pi is intp: numpy casts any other index array on every gather and
    # scatter, which made the loader's sweep 12% slower with int32 at
    # 20 000 x 200
    pi = np.arange(n, dtype=np.intp) if seed is None else np.asarray(seed, np.intp)
    yield width, pi
    for j in range(width - 1, -1, -1):
        pi = pi.take(np.argsort(column(j, pi), kind="stable"))
        yield j, pi


def build_permutations(collection: StringCollection, keep) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The collection's (length, n) uint8 PBWT columns and pi_j, as int32, for
    each ``j`` in ``keep``, in that order, from one :func:`radix_sweep` that
    gathers each column from the strings.  The columns are handed over
    read-only, as :class:`~pbwtidx.pbwt.PbwtMatrix` states."""
    codes, length, n = collection.codes, collection.length, collection.n
    cols = np.frombuffer(bytearray(length * n), np.uint8).reshape(length, n)

    def gather(j, pi):
        return np.take(codes[:, j], pi, out=cols[j])

    wanted = set(keep)
    perms = {j: pi.astype(np.int32) for j, pi in radix_sweep(n, length, gather) if j in wanted}
    cols.setflags(write=False)  # a flags.writeable store keeps 57 B per array on numpy 2.4
    return cols, {j: perms[j] for j in keep}


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


def _pass_shape(collection: StringCollection) -> tuple[int, int, int]:
    """``(sym_bits, pos_bits, width)``: bits per code, bits per row rank, and the
    columns one uint64 key holds above the rank."""
    sym_bits = max(1, (collection.alphabet.sigma - 1).bit_length())
    pos_bits = max(1, (collection.n - 1).bit_length())
    return sym_bits, pos_bits, (64 - pos_bits) // sym_bits


def pass_digits(collection: StringCollection, pi: np.ndarray, hi: int, lo: int) -> np.ndarray:
    """The digits of a :func:`rebuild_column` pass from pi_{``hi``} down to
    column ``lo``, and so of every first pass from pi_{``hi``} to a column at or
    above ``lo``: columns ``max(lo, hi - w)..hi-1``, w the pass width, packed
    (:func:`_packed_span`) with column ``hi - 1`` in the low bits, gathered
    into ``pi`` order, and held as uint32 when they fit in 32 bits, else as
    uint64.  The caller of :func:`rebuild_column` derives those of the first
    pass, and :func:`rebuild_column` those of each later one."""
    sym_bits, _, width = _pass_shape(collection)
    lo = max(lo, hi - width)
    key = np.uint32 if (hi - lo) * sym_bits <= 32 else np.uint64
    return _packed_span(collection.codes, lo, hi, sym_bits, key).take(pi)


def rebuild_column(collection: StringCollection, start: np.ndarray, j_start: int, j_target: int,
                   digits: np.ndarray) -> np.ndarray:
    """Recompute pi_{j_target} from a known pi_{j_start}, j_target <= j_start.

    Right-to-left radix passes over the column span, each taking as many
    columns as one uint64 key holds above the low ``pos_bits`` bits.  A pass
    reads its columns as :func:`pass_digits`: the first pass the ``digits``
    handed over, ``pass_digits(collection, start, j_start, lo)`` for any
    ``lo <= j_target``; each later pass those of the current pi.  The pass
    masks the digits down to its span and ORs each row's rank into the low
    bits.  The keys are then unique, so one plain sort is stable, and the
    low bits of the sorted keys say where each row came from.  A pass whose
    columns and rank fit in 32 bits uses uint32 keys, which sort in about
    half the time of uint64 ones.
    """
    if j_target == j_start:
        return start
    sym_bits, pos_bits, width = _pass_shape(collection)
    pi = np.asarray(start, dtype=np.int32)
    for hi in range(j_start, j_target, -width):
        lo = max(j_target, hi - width)
        if hi < j_start:
            digits = pass_digits(collection, pi, hi, lo)
        pi = pi.take(_stable_order(digits, (hi - lo) * sym_bits, pos_bits))
    return pi


def last_pass(collection: StringCollection, j_start: int, j_target: int) -> int:
    """The top column of :func:`rebuild_column`'s last pass from ``j_start``
    down to ``j_target < j_start``, which spans 1 to w columns, w the pass width."""
    width = _pass_shape(collection)[2]
    return j_start - (j_start - j_target - 1) // width * width


def _stable_order(digits: np.ndarray, bits: int, pos_bits: int, rows: np.ndarray | None = None) -> np.ndarray:
    """The positions ``rows``, all of ``digits`` when None, in the order a stable
    sort of their digits, masked to the low ``bits``, puts them.

    Each position's digit and position make one key with the position in the
    low ``pos_bits`` bits.  The keys are then unique, so one plain sort is
    stable, and the low bits of the sorted keys say where each came from.  A
    key whose digit and position fit in 32 bits is a uint32, which sorts in
    about half the time of a uint64 one.  A stable ``argsort`` of the digits
    runs numpy's timsort: 1.1-1.2 ms against 50 us (uint32 keys) and 101 us
    (uint64) at 20 000 rows (numpy 2.4.6, 2-vCPU VM).
    """
    key = np.uint32 if bits + pos_bits <= 32 else np.uint64
    # a uint64 digit cast to a uint32 key keeps its low 32 bits, which hold
    # every bit of a span that fits that key
    keys = np.bitwise_and(digits, key((1 << bits) - 1), dtype=key, casting="unsafe")
    keys <<= key(pos_bits)
    np.bitwise_or(keys, np.arange(len(keys), dtype=key) if rows is None else rows, out=keys, dtype=key,
                  casting="unsafe")
    keys.sort()
    keys &= key((1 << pos_bits) - 1)
    return keys


def select_pass(collection: StringCollection, digits: np.ndarray, span: int, prefix: bytes) -> tuple[int, np.ndarray]:
    """A radix pass over ``span`` columns, as counts, for the rows whose digit
    starts with the codes ``prefix``, at most ``span`` of them.

    ``digits`` are the pass's (:func:`pass_digits`), in the order of the
    permutation pi the pass sorts, and may hold columns above the span.
    Returns ``(f, rows)``: ``f`` rows have a digit whose top ``len(prefix)``
    columns sort below ``prefix``, and ``rows`` lists the positions in pi of
    those whose top columns equal it, in the order the pass puts them.  So
    the permutation the pass makes holds ``pi[rows]`` at ranks ``f`` to
    ``f + len(rows) - 1``.  Where ``prefix`` covers the whole span, the rows
    share one digit and keep pi's order; otherwise they are sorted on the
    columns below the prefix (:func:`_stable_order`).  No pass sorts all
    ``n`` rows, and pi is not read.
    """
    sym_bits, pos_bits, _ = _pass_shape(collection)
    p = 0
    for code in prefix:
        p = p << sym_bits | code
    shift = (span - len(prefix)) * sym_bits
    top = np.right_shift(digits, shift)
    top &= (1 << len(prefix) * sym_bits) - 1
    f = int(np.count_nonzero(top < p))
    rows = np.flatnonzero(top == p)
    if shift:
        rows = _stable_order(digits.take(rows), shift, pos_bits, rows)
    return f, rows
