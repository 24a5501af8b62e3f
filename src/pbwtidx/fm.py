"""BWT of a single string via the cyclic-shift PBWT, plus FM-index count/locate.

Appending a sentinel below every symbol makes all cyclic shifts distinct, and
the PBWT of the set of shifts then has a single distinct column: the BWT.
Substring search becomes prefix search over that one column, and locate uses
suffix-array samples taken at regularly spaced text positions (sampling
diagonals of the unsorted shift matrix), so every backward walk ends within
one stride.

Building and loading take O(n) memory and O(lg n) rounds of whole-array
numpy operations: the shifts are sorted by prefix doubling over integer ranks
(one O(n log n) sort per round), and the loader ranks the LF cycle by pointer
jumping (two O(n) gathers per round).  The index holds the BWT as a
one-column :class:`~pbwtidx.pbwt.PbwtMatrix`, so counting is that class's
PBWT backward search with every step in column 0: each step reads the LF
values of the first and last rows of the interval that hold the symbol,
found by a byte search of at most 64 rows from each end (a checkpoint
lookup and a short byte count where that window holds none), and each
locate step one read of the int32 LF mapping.

Conventions: rank codes are uint8, the LF mapping is int32, and text
positions are int64.
"""

import operator
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .alphabet import Alphabet
from .errors import EmptyInputError, PbwtIndexError, UnknownCharacterError
from .pbwt import Interval, PbwtMatrix
from .permutations import radix_sweep


@dataclass(frozen=True)
class SentinelText:
    """A text over the alphabet plus its sentinel-terminated form.

    ``_ext`` holds the rank codes of the terminated text, encoded once when
    the text is validated: the sentinel at rank 0, symbols shifted up by one.
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
        codes = self.alphabet.encode(self.text) + 1
        object.__setattr__(self, "_ext", np.concatenate([codes, np.zeros(1, np.uint8)]))

    @property
    def terminated(self) -> str:
        return self.text + self.alphabet.sentinel

    @property
    def n(self) -> int:
        return len(self.text)


def sorted_rotations(st: SentinelText) -> np.ndarray:
    """Start positions of the cyclic shifts of the terminated text, in lexicographic order.

    Prefix doubling over integer ranks (Manber & Myers 1993): each round sorts
    the shifts by the pair (rank of the first k symbols, rank of the next k)
    and re-ranks them, so the ranks order ever longer prefixes.  The sentinel
    is unique and smallest, so cyclic order equals suffix order, and the loop
    stops once every rank is distinct: after the sort by single symbols, at
    most ceil(lg(n+1)) doubling rounds (an all-equal text is the worst case).
    The radix-based cyclic-shift PBWT in :func:`verify_column_collapse` is an
    independent cross-check, and :func:`pbwtidx.oracle.naive_sorted_rotations`
    the brute-force reference.
    """
    key = st._ext.astype(np.int64)
    size, shift = key.shape[0], 1
    while True:
        # ties may land in any order: they share a rank, and the last round has none
        order = np.argsort(key)
        ordered = key[order]
        rank = np.empty(size, np.int64)
        rank[order] = np.cumsum(np.concatenate(([0], ordered[1:] != ordered[:-1])))
        if rank[order[-1]] == size - 1:
            return order
        # ranks are below size, so the pair key stays below size**2, which fits
        # int64 for any text shorter than 3e9 characters
        key = rank * size + np.roll(rank, -shift)
        shift *= 2


def verify_column_collapse(st: SentinelText) -> bool:
    """Check that every column of the cyclic-shift PBWT equals the BWT.

    Column ``j`` of the shift starting at ``p`` is ``ext[(p + j) % size]``.
    The shifts are sorted with two radix sweeps: the first, seeded with the
    identity, yields the full cyclic order at column 0; the second, seeded
    with that order, breaks every truncated-suffix tie by the wrapped-around
    context, which is what makes the columns collapse, and compares each of
    its PBWT columns with the BWT as the sweep reaches it.
    """
    ext = st._ext
    size = ext.shape[0]
    bwt = ext[(sorted_rotations(st) - 1) % size]
    differ = []

    def shifted(j, pi):
        return ext.take((pi + j) % size)

    def compared(j, pi):
        col = shifted(j, pi)
        if not np.array_equal(col, bwt):
            differ.append(j)
        return col

    first = radix_sweep(size, size, shifted, keep=[0])[1][0]
    radix_sweep(size, size, compared, first)
    return not differ


@dataclass(frozen=True)
class FmIndex:
    """The BWT as rank codes, with the text and everything else derived from it.

    ``bwt_codes`` puts the sentinel at rank 0 and shifts every symbol up by
    one.  ``matrix`` holds it as a one-column PBWT over ``sigma + 1`` codes,
    and ``bwt_codes`` becomes a read-only view of ``matrix.cols[0]``.
    Pointer jumping over its LF mapping ``matrix.lf[0]`` ranks every row by
    its distance from row 0 (the rotation at text position n) along the LF
    cycle, which is its text position; from those positions come the text,
    the check that the codes are a BWT, and ``sampled_pos[r]``, the text
    position of row ``r`` when it lies on the sampling grid and -1 otherwise.
    ``stride`` may be any integer, a numpy one included, and is held as an ``int``.
    """

    alphabet: Alphabet
    bwt_codes: np.ndarray = field(repr=False, compare=False)
    stride: int = 1
    text: str = field(init=False, repr=False)
    matrix: PbwtMatrix = field(init=False, repr=False, compare=False)
    sampled_pos: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.stride, (int, np.integer)) or self.stride < 1:
            raise ValueError(f"stride must be an integer >= 1, not {self.stride!r}")
        object.__setattr__(self, "stride", operator.index(self.stride))
        if self.bwt_codes.ndim != 1:
            raise PbwtIndexError(f"the BWT codes must be one row, not {self.bwt_codes.ndim}-D")
        rows = self.bwt_codes.shape[0]
        if rows < 2:
            raise PbwtIndexError("the BWT codes are not a BWT of a non-empty text")
        matrix = PbwtMatrix(self.bwt_codes[None, :], self.alphabet.sigma + 1)
        bwt, lf = matrix.cols[0], matrix.lf[0]
        # list ranking: after round t, nxt[r] is 2**t LF steps on from r, or
        # row 0 if the walk met it first, and dist[r] counts the steps taken.
        # nxt is intp: numpy casts any other index array on every gather,
        # which made the rounds 1.7x slower with int32 at 1M rows.
        nxt, dist = lf.astype(np.intp), np.ones(rows, np.int64)
        nxt[0], dist[0] = 0, 0
        for _ in range((rows - 1).bit_length()):
            dist += dist[nxt]
            nxt = nxt[nxt]
        # LF is a permutation, so the codes are a BWT exactly when the cycle
        # through row 0 covers every row and meets the sentinel only at its
        # last step.  A row on that cycle at text position p takes p + 1 steps
        # to reach row 0, and row 0 itself is position n.
        pos = (dist - 1) % rows
        ext = np.empty_like(bwt)
        ext[pos - 1] = bwt
        if nxt.any() or ext[-1] != 0 or not ext[:-1].all():
            raise PbwtIndexError("the BWT codes are not a BWT: the LF cycle through row 0 misses rows")
        object.__setattr__(self, "bwt_codes", bwt)
        object.__setattr__(self, "text", self.alphabet.decode(ext[:-1] - 1))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "sampled_pos", np.where(pos % self.stride == 0, pos, -1))

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
    """Index the text for substring search, sampling text positions p with p % stride == 0."""
    ext = st._ext
    return FmIndex(st.alphabet, ext[(sorted_rotations(st) - 1) % ext.shape[0]], stride)


_SHIFT_UP = bytes(range(1, 256)) + b"\0"  # rank code -> code in the terminated text


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
    index.matrix.check_interval(interval)
    rows = np.arange(interval.f, interval.l + 1, dtype=np.int64)
    pos, steps = _lf_walk(rows, index.matrix.lf[0], index.sampled_pos)
    return [int(p) for p in pos], [int(d) for d in steps]


def fm_locate(index: FmIndex, interval: Interval) -> list[int]:
    """Starting positions of the occurrences in the interval, in row order."""
    return locate_with_steps(index, interval)[0]
