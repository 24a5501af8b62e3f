"""BWT of a single string via the cyclic-shift PBWT, plus FM-index count/locate.

Appending a sentinel below every symbol makes all cyclic shifts distinct, and
the PBWT of the set of shifts then has a single distinct column: the BWT.
Substring search becomes prefix search over that one column, and locate uses
suffix-array samples taken at regularly spaced text positions (sampling
diagonals of the unsorted shift matrix), so every backward walk ends within
one stride.

Building takes O(n) memory and O(lg n) rounds of whole-array numpy
operations: the shifts are sorted by prefix doubling over integer ranks, from
a first key that packs the first s symbols of each shift into one int64 (s =
32 at 1 bit per code, 16 for ACGT, at least 4) without sorting, then one
O(n log n) sort per round, at most 1 + ceil(lg(n / s)) sorts.  The sorted
order, the suffix array, gives every row its text position.  A loaded BWT
has no suffix array, so the loader ranks each row by its distance along the
LF cycle with a sparse ruling set (Helman & JaJa 2001), O(n) work: one ruler
in each block of rows, at an offset hashed from the block so that no repeat
in the text lines the rulers up, a lockstep walk from every ruler to the
next, then pointer jumping over the rulers alone.  The index holds the BWT
as a one-column :class:`~pbwtidx.pbwt.PbwtMatrix`, so counting is that
class's PBWT backward search with every step in column 0: each step reads
the LF values of the first and last rows of the interval that hold the
symbol, found by a byte search of at most 64 rows from each end (a
checkpoint lookup and a short byte count where that window holds none), and
each locate step one read of the int32 LF mapping.

Conventions: rank codes are uint8, the LF mapping is int32, and text
positions are int64.
"""

import math
from dataclasses import InitVar, dataclass, field
from itertools import repeat

import numpy as np

from .alphabet import Alphabet, as_int
from .errors import EmptyInputError, PbwtIndexError, UnknownCharacterError
from .pbwt import Interval, PbwtMatrix
from .permutations import radix_sweep

# the codes of the terminated text: the sentinel is 0 and each symbol its rank
# plus one.  A translate by _SHIFT_UP takes symbol ranks to their codes.
_SHIFT_UP = bytes(range(1, 256)) + b"\0"


@dataclass(frozen=True)
class SentinelText:
    """A text over the alphabet plus its sentinel-terminated form.

    ``_ext`` holds the codes of the terminated text (``_SHIFT_UP``), encoded
    once when the text is validated.
    """

    text: str
    alphabet: Alphabet
    _ext: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.text:
            raise EmptyInputError("text is empty")
        if self.alphabet.sentinel in self.text:
            raise UnknownCharacterError(
                f"text must not contain the sentinel {self.alphabet.sentinel!r}"
            )
        ext = self.alphabet._code_bytes(self.text).translate(_SHIFT_UP) + b"\0"
        object.__setattr__(self, "_ext", np.frombuffer(ext, np.uint8))

    @property
    def terminated(self) -> str:
        return self.text + self.alphabet.sentinel

    @property
    def n(self) -> int:
        return len(self.text)


def sorted_rotations(st: SentinelText) -> np.ndarray:
    """Start positions of the cyclic shifts of the terminated text, in lexicographic order.

    Prefix doubling over integer ranks (Manber & Myers 1993).  The first key
    packs the codes of the first s symbols of each shift, b bits each, where
    b is the bit width of the largest code and s the largest power of two
    with s * b <= 62 (32 symbols at 1 bit, 16 of ACGT at 3 bits, 4 at 8
    bits): doubling shifts and ORs in the key s shifts on, with no sort.
    Each round then sorts the shifts by their key and re-ranks them, and the
    next key is the pair (rank of the first k symbols, rank of the next k),
    so the ranks order ever longer prefixes.  The sentinel is unique and
    smallest, so cyclic order equals suffix order, and the loop stops once
    every rank is distinct, which the first n symbols always make them: at
    most 1 + ceil(lg(n / s)) sorts (one when s >= n; an all-equal text is
    the worst case).  :func:`verify_column_collapse` cross-checks the order
    with one radix sweep, and :func:`pbwtidx.oracle.naive_sorted_rotations`
    is the brute-force reference.
    """
    key = st._ext.astype(np.int64)
    size, shift = key.shape[0], 1
    bits = int(st._ext.max()).bit_length()  # at least 1: the text is not empty
    # key holds the first shift codes of each shift, the first in the high
    # bits, and stays below 2**62.  No temporary may outlive its doubling:
    # one kept through the rank rounds adds 8 B/char to the build's peak.
    while 2 * shift * bits <= 62 and shift < size:
        key = key << shift * bits | np.roll(key, -shift)
        shift *= 2
    while True:
        # ties may land in any order: they share a rank, and the last round has none
        order = np.argsort(key)
        ordered = key[order]
        del key
        # each int64 array is dropped once the next exists, and the run
        # starts stay bool: a round peaks at 33 B/char, not the 48 of an
        # int64 mask and cumsum made while ``key`` and ``ordered`` lived
        starts = np.empty(size, bool)
        starts[0] = False
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        del ordered
        rank = np.empty(size, np.int64)
        rank[order] = np.cumsum(starts, out=np.empty(size, np.int64))
        del starts
        if rank[order[-1]] == size - 1:
            return order
        # ranks are below size, so the pair key stays below size**2, which fits
        # int64 for any text shorter than 3e9 characters
        key = rank * size + np.roll(rank, -shift)
        shift *= 2


def verify_column_collapse(st: SentinelText) -> bool:
    """Check that every column of the cyclic-shift PBWT equals the BWT.

    Column ``j`` of the shift starting at ``p`` is ``ext[(p + j) % size]``.
    One radix sweep, seeded with the order of :func:`sorted_rotations`, which
    the BWT is read from, breaks every truncated-suffix tie by the
    wrapped-around context, which makes the columns collapse, and compares
    each PBWT column with the BWT as it reaches it.  The shifts are distinct,
    so its pi_0 is their order whatever the seed, and must equal the seed.
    """
    ext = st._ext
    size = ext.shape[0]
    order = sorted_rotations(st)
    bwt = ext[(order - 1) % size]
    differ = []

    def compared(j, pi):
        col = ext.take((pi + j) % size)
        if not np.array_equal(col, bwt):
            differ.append(j)
        return col

    for _, pi in radix_sweep(size, size, compared, order):
        pass  # the last pair is pi_0
    return not differ and np.array_equal(pi, order)


def _ruler_spacing(rows: int) -> int:
    """Rows between rulers: 1 below 2**16 rows, where pointer jumping over
    every row measured faster than any walk, and above that about
    sqrt(rows) / 32, at least 16, the fastest spacing measured from 2**16 to
    2**22 rows of uniform ACGT text on a 2-vCPU VM."""
    return 1 if rows < 1 << 16 else max(16, math.isqrt(rows) >> 5)


def _rank_cycle(matrix: PbwtMatrix) -> np.ndarray:
    """Each row's text position, from its distance along the LF cycle of the
    one-column ``matrix`` to row 0, the rotation at position n.

    Raises :class:`PbwtIndexError` unless the codes are a BWT.  LF is a
    permutation, and the first row that holds the sentinel maps to row 0, so
    they are one exactly when they hold one sentinel and the cycle through
    row 0 covers every row.

    A sparse ruling set (Helman & JaJa 2001) ranks the cycle in O(n) work.
    Each block of g rows (:func:`_ruler_spacing`) holds one ruler, at an
    offset hashed from the block's first row, and row 0 is the first block's.
    A lockstep walk, one gather per step over the walkers still out, leads
    every ruler along LF to the next ruler on its cycle, in as many steps as
    the longest gap between rulers along a cycle.  Rulers on a grid, every
    g-th row, let a repeat line up with them.  In a text of copies of one
    piece, the rows of the copies at one offset into the piece lie next to
    each other, and LF keeps a walk on its copy to the piece's start.  With a
    multiple of g copies, the grid's rulers fall on the same few copies at
    every offset, so the walk crosses each other copy whole: 32 copies of a
    32 768-character piece took 918 287 steps against 364 for a uniform text
    of the same length.  Hashed offsets follow no period of the text, so the
    rulers fall as Helman and JaJa's random ones would, and the walk stays
    short.  Pointer jumping then ranks the rulers alone by their distance to
    row 0, and a row ``s`` steps past its ruler is ``s`` steps nearer row 0.
    The walks share no row and each stays on its own cycle, so they pass
    every row exactly when every cycle holds a ruler, and then the cycle
    through row 0 covers every row exactly when it meets every ruler.  With
    g = 1 every row is a ruler and this is pointer jumping over all rows.
    """
    sentinels = matrix._bytes.count(0)
    if sentinels != 1:
        raise PbwtIndexError(f"the BWT codes are not a BWT: they hold {sentinels} sentinels, not 1")
    lf, rows = matrix.lf[0], matrix.n
    g = _ruler_spacing(rows)
    # per step s: the rows that walkers stand on s steps past their rulers,
    # with those walkers, and the rulers reached, by the walkers finished
    passed, reached, finished = [], [], []
    if g == 1:  # every row a ruler, one step from the next: no walk
        rulers, nxt, dist = slice(None), lf.astype(np.intp), np.ones(rows, np.int64)
    else:
        start = np.arange(0, rows, g)
        rulers = start + (start * 0x9E3779B1 >> 16) % np.minimum(g, rows - start)
        is_ruler = np.zeros(rows, bool)
        is_ruler[rulers] = True
        at, walker = lf.take(rulers), np.arange(rulers.shape[0], dtype=np.int32)
        while at.size:
            done = is_ruler.take(at)
            reached.append(at[done])
            finished.append(walker[done])
            out = ~done
            at, walker = at[out], walker[out]
            passed.append((at, walker))
            at = lf.take(at)
        # ruler w reaches ruler nxt[w], the one in block row // g, after dist[w] steps
        nxt, dist = np.empty(rulers.shape[0], np.intp), np.empty(rulers.shape[0], np.int64)
        finished = np.concatenate(finished)
        nxt[finished] = np.concatenate(reached) // g
        dist[finished] = np.repeat(np.arange(1, len(reached) + 1), [r.shape[0] for r in reached])
    # after round t, nxt[w] is 2**t rulers on from w, or ruler 0 if the walk
    # met it first, and dist[w] counts the LF steps taken.  nxt is intp:
    # numpy casts any other index array on every gather, which made the
    # rounds 1.7x slower with int32 at 1M rows.
    nxt[0], dist[0] = 0, 0
    for _ in range((nxt.shape[0] - 1).bit_length()):
        dist += dist[nxt]
        nxt = nxt[nxt]
    if nxt.any() or nxt.shape[0] + sum(at.shape[0] for at, _ in passed) != rows:
        raise PbwtIndexError("the BWT codes are not a BWT: the LF cycle through row 0 misses rows")
    # a row at text position p takes p + 1 steps to reach row 0, and row 0,
    # position n, takes the whole cycle
    dist[0] = rows
    pos = np.empty(rows, np.int64)
    pos[rulers] = dist
    for s, (at, walker) in enumerate(passed, 1):
        pos[at] = dist.take(walker) - s
    pos -= 1
    return pos


@dataclass(frozen=True)
class FmIndex:
    """The BWT as rank codes, with the text and everything else derived from it.

    ``bwt_codes`` holds the codes of the terminated text (``_SHIFT_UP``).
    ``matrix`` holds it as a one-column PBWT over ``sigma + 1`` codes,
    and ``bwt_codes`` becomes a read-only view of ``matrix.cols[0]``.  The
    matrix fills its one LF column on construction, and ``lf`` is
    ``matrix.lf[0]``, which the count and the locate walk read with no
    check.  Every row's text position comes from the suffix array that
    :func:`fm_build` hands over through the private ``_sa``, or else from
    ranking the LF cycle (:func:`_rank_cycle`), which also checks that the
    codes are a BWT.  From those positions come the text and
    ``sampled_pos[r]``, the text position of row ``r`` when it lies on the
    sampling grid and -1 otherwise.  ``stride`` may be any integer, a numpy
    one included, but not a bool, and is held as an ``int``.
    """

    alphabet: Alphabet
    bwt_codes: np.ndarray = field(repr=False, compare=False)
    stride: int = 1
    text: str = field(init=False, repr=False)
    matrix: PbwtMatrix = field(init=False, repr=False, compare=False)
    lf: np.ndarray = field(init=False, repr=False, compare=False)
    sampled_pos: np.ndarray = field(init=False, repr=False, compare=False)
    _sa: InitVar[np.ndarray | None] = field(default=None, kw_only=True)  # the suffix array: text position per row

    def __post_init__(self, _sa):
        stride = as_int(self.stride, ValueError, "stride must be an integer >= 1, not {!r}", least=1)
        object.__setattr__(self, "stride", stride)
        if not isinstance(self.bwt_codes, (np.ndarray, np.generic)):
            raise PbwtIndexError(f"the BWT codes must be a numpy array, not {type(self.bwt_codes).__name__}")
        if self.bwt_codes.ndim != 1:
            raise PbwtIndexError(f"the BWT codes must be one row, not {self.bwt_codes.ndim}-D")
        if self.bwt_codes.shape[0] < 2:
            raise PbwtIndexError("the BWT codes are not a BWT of a non-empty text")
        matrix = PbwtMatrix(self.bwt_codes[None, :], self.alphabet.sigma + 1)
        bwt, lf = matrix.cols[0], matrix.lf[0]
        pos = _rank_cycle(matrix) if _sa is None else _sa
        # the row at text position p holds the code at p - 1
        ext = np.empty_like(bwt)
        ext[pos - 1] = bwt
        object.__setattr__(self, "bwt_codes", bwt)
        object.__setattr__(self, "text", self.alphabet.decode(ext[:-1] - 1))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "lf", lf)
        # a grid lookup, not an int64 modulo of every position: 22-36 against
        # 71-78 us at 16 384 rows (numpy 2.4, 2-vCPU VM)
        grid = np.zeros(self.rows, bool)
        grid[::stride] = True
        object.__setattr__(self, "sampled_pos", np.where(grid.take(pos), pos, -1))

    @property
    def n(self) -> int:
        return self.rows - 1

    @property
    def rows(self) -> int:
        return self.bwt_codes.shape[0]

    @property
    def bwt(self) -> str:
        """The BWT as a string, sentinel included."""
        ext = (self.alphabet.sentinel + self.alphabet.symbols).encode("latin-1")
        return np.frombuffer(ext, np.uint8)[self.bwt_codes].tobytes().decode("latin-1")


def fm_build(st: SentinelText, stride: int = 1) -> FmIndex:
    """Index the text for substring search, sampling text positions p with p % stride == 0.

    The suffix array gives the BWT and, handed over, every row's text
    position: its sort is the check that ranking a loaded BWT makes.
    """
    sa = sorted_rotations(st)
    return FmIndex(st.alphabet, st._ext[sa - 1], stride, _sa=sa)


def stored_bwt(index: FmIndex) -> tuple[int, np.ndarray]:
    """The BWT as an index file stores it: the row of its one sentinel, and
    the other rows' symbol ranks (``_SHIFT_UP`` undone) in row order.

    Both conversions shift with numpy: a translate by ``_SHIFT_UP``'s
    inverse took 3.3 ms against 0.8 ms for 4M rows on a 2-vCPU VM.
    """
    sentinel = index.matrix._bytes.find(0)
    return sentinel, np.delete(index.bwt_codes, sentinel) - 1


def bwt_from_stored(sentinel: int, ranks: np.ndarray) -> np.ndarray:
    """The BWT codes whose stored form (:func:`stored_bwt`) is ``sentinel``,
    a row at most n, and the n ``ranks``, as a uint8 array over a new
    ``bytearray``, handed over read-only (:class:`PbwtMatrix` states the
    rule).  A rank of 255 becomes a second sentinel, which the index refuses."""
    codes = np.frombuffer(bytearray(ranks.shape[0] + 1), np.uint8)
    codes[:sentinel], codes[sentinel + 1 :] = ranks[:sentinel] + 1, ranks[sentinel:] + 1
    codes.setflags(write=False)
    return codes


def _pattern_ranks(index: FmIndex, pattern: str) -> bytes:
    """The pattern's codes in the terminated text, last first.  The leftmost
    bad character is named with its column, unless it is the sentinel."""
    alphabet = index.alphabet
    try:
        return alphabet._code_bytes(pattern)[::-1].translate(_SHIFT_UP)
    except UnknownCharacterError:
        if alphabet.sentinel not in pattern:
            raise
    alphabet._code_bytes(pattern.partition(alphabet.sentinel)[0])  # names a bad character left of the sentinel
    raise UnknownCharacterError("patterns must not contain the sentinel")


def count_trace(index: FmIndex, pattern: str) -> list[tuple[int, Interval]]:
    """Backward-search trace: (characters consumed, interval) per step, widest first."""
    return list(enumerate(index.matrix.backward_trace(repeat(0), _pattern_ranks(index, pattern))))


def fm_count(index: FmIndex, pattern: str) -> Interval:
    """BWT-row interval of sorted shifts prefixed by ``pattern`` (equivalently, suffixes)."""
    return index.matrix.backward(repeat(0), _pattern_ranks(index, pattern))


def _lf_walk(rows, lf, sampled_pos):
    """Walk each BWT row backwards until a sampled row; report position and step count.

    ``lf`` is the LF mapping (the row of the rotation one text position
    earlier), and ``sampled_pos[r]`` is the text position of row ``r``'s
    rotation when that position is on the sampling grid, -1 otherwise.
    """
    # The walk is a data-dependent chase, so it runs as a scalar loop.  A
    # lockstep form (one numpy gather per step over every row still unsampled)
    # lowered the p99 of locate_with_steps on the substring benchmark's
    # queries from 311 to 147 us, but raised the median from 16 to 76 us and
    # the mean from 73 to 83 us: 74% of those queries have one to eight hits,
    # whose few scalar steps cost less than numpy's per-call overhead.
    m = rows.shape[0]
    pos = np.empty(m, np.int64)
    steps = np.empty(m, np.int64)
    for t in range(m):
        r = rows[t]
        d = 0
        while sampled_pos[r] < 0:
            r = lf[r]
            d += 1
        pos[t] = sampled_pos[r] + d
        steps[t] = d
    return pos, steps


def locate_with_steps(index: FmIndex, interval: Interval) -> tuple[list[int], list[int]]:
    """Text positions for an interval, plus the number of LF steps each walk took."""
    if interval.is_empty:
        return [], []
    f, l = index.matrix.check_interval(interval)
    rows = np.arange(f, l + 1, dtype=np.int64)
    pos, steps = _lf_walk(rows, index.lf, index.sampled_pos)
    return [int(p) for p in pos], [int(d) for d in steps]


def fm_locate(index: FmIndex, interval: Interval) -> list[int]:
    """Starting positions of the occurrences in the interval, in row order."""
    return locate_with_steps(index, interval)[0]
