"""The PBWT matrix with its LF mapping and rank checkpoints.

Column ``j`` of the matrix lists the column-``j`` characters of the strings
reordered by pi_{j+1}, i.e. by the lexicographic rank of the suffix that
follows each character.  Row ``r`` of pi_{j+1} order moves to row
``C_j[a] + occ_j(a, r)`` of pi_j order, the BWT's LF mapping applied to one
column, and :class:`PbwtMatrix` holds that mapping once for every column: an
int32 ``lf`` array for walking a row with its own symbol (locate, inversion)
and int32 checkpoints every 64 rows for any other symbol.  The backward step
needs both: the first and last rows of the interval that hold the pattern's
symbol map through ``lf`` to the new interval, and an end with no such row
within 64 rows takes a checkpoint instead.  A column's ``lf`` is the inverse
of its stable sort, filled when a search first reads the column, and its
checkpoints are counted by the first step in it: a query reads only the
columns its pattern and its locate walk cross, and a build, a save or a load
reads none.  The BWT is the PBWT of a text's cyclic
shifts, whose columns are all equal, so :mod:`pbwtidx.fm` holds it as a
one-column :class:`PbwtMatrix`, whose :meth:`~PbwtMatrix.backward` search in
column 0 is the FM count.  :class:`PbwtInversion` turns the columns back
into the strings and their sorted orders, as far down as a reader asks.
"""

from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, as_int, check_codes, handed_over
from .collection import StringCollection
from .errors import IndexOutOfRangeError, PbwtIndexError
from .permutations import radix_sweep


@dataclass(frozen=True)
class Interval:
    """Inclusive pair (f, l) of lexicographic ranks; f > l is normalized to the empty value."""

    f: int
    l: int

    def __post_init__(self):
        if self.f > self.l:
            object.__setattr__(self, "f", 0)
            object.__setattr__(self, "l", -1)

    @property
    def is_empty(self) -> bool:
        return self.l < self.f

    @property
    def width(self) -> int:
        return 0 if self.is_empty else self.l - self.f + 1


EMPTY = Interval(0, -1)


BLOCK = 64
MAX_ROWS = np.iinfo(np.int32).max


def check_rows(rows: int):
    """Reject a row count whose LF values would not fit the int32 arrays of :class:`PbwtMatrix`."""
    if rows > MAX_ROWS:
        raise PbwtIndexError(f"{rows} rows do not fit the int32 LF mapping (at most {MAX_ROWS})")


class PbwtMatrix:
    """PBWT columns as a (width, n) rank-code matrix, with their LF mapping and
    rank checkpoints every ``BLOCK`` rows; the BWT is a one-column matrix.

    Row ``r`` of column ``j`` maps, for a symbol ``a``, to ``C_j[a] + occ_j(a, r)``,
    where ``C_j[a]`` counts the column's symbols below ``a`` and ``occ_j(a, r)``
    the ``a`` among its first ``r`` rows.  That is the PBWT backward step and
    the BWT's LF mapping alike.

    * ``lf[j, r]`` is the value for the row's own symbol: the inverse of the
      column's stable sort, so a walk of many rows costs one gather per column.
      Column ``j`` is filled from ``cols[j]`` the first time something reads
      it, and one flag per column, in the ``bytearray`` ``_filled``, says
      which are.  Each reader fills the span it reads once per call
      (:meth:`fill`), never per step, and a read of ``lf`` fills them all.
      The array is allocated by the first fill, so a build, a save or a load
      allocates none.
    * ``checkpoints(j)[a, b]`` is ``C_j[a] + occ_j(a, min(BLOCK * b, n))``,
      so its first column holds the C-array and its last the column totals;
      :meth:`step` gives the value for any symbol and row from one
      checkpoint and a count over at most ``BLOCK - 1`` bytes of the column.
      Column ``j``'s checkpoints are counted from ``cols[j]`` alone by the
      first :meth:`step` in that column, or the first call of
      :meth:`checkpoints`, and kept in the list ``_base``, None until then: a
      build, a save, a load or a search whose windows find every symbol
      counts none, and a traced search only the columns it steps through.

    The columns are kept as one ``bytes`` or ``bytearray`` object, whose
    ``count`` is the in-block scan and whose ``find`` and ``rfind`` give
    :meth:`backward` the rows at an interval's ends, and ``cols`` is a
    read-only view of it.  The hand-over rule: codes that are a read-only,
    C-ordered uint8 view of a whole ``bytearray`` are handed over, and the
    matrix keeps that view as ``cols`` without a copy; the code producers
    (the build's sweep, the loader and :func:`pbwtidx.fm.bwt_from_stored`)
    make their columns so.  Any other array, a writable one included, is
    copied into ``bytes``, so a caller who writes to it later changes no
    answer.
    """

    def __init__(self, cols: np.ndarray, sigma: int):
        if not isinstance(cols, (np.ndarray, np.generic)):
            raise PbwtIndexError(f"codes must be a numpy array, not {type(cols).__name__}")
        if cols.ndim != 2:
            raise PbwtIndexError(f"codes must be a (width, n) matrix, not {cols.ndim}-D")
        width, n = cols.shape
        check_rows(n)
        check_codes(cols, sigma, "code matrix")
        owner = handed_over(cols)
        if owner is None:
            owner = np.asarray(cols, np.uint8).tobytes()
            cols = np.frombuffer(owner, np.uint8).reshape(width, n)
        self._bytes, self.cols = owner, cols
        self.n = n
        self.sigma = sigma
        self._filled = bytearray(width)
        self._base = [None] * width

    def fill(self, lo: int, hi: int) -> np.ndarray:
        """The (width, n) LF mapping, with columns ``lo..hi-1`` filled; the
        others hold what they held.  Once every column is filled, the flat
        memoryview ``_flat_lf`` is bound, and :meth:`backward` reads it
        without a check."""
        try:
            lf = self._lf
        except AttributeError:  # the first fill allocates the array
            lf = self._lf = np.empty(self.cols.shape, np.int32)
        filled = self._filled
        j = filled.find(0, lo, hi)
        if j < 0:
            return lf
        rows = np.arange(self.n, dtype=np.int32)
        while j >= 0:
            lf[j][np.argsort(self.cols[j], kind="stable")] = rows
            filled[j] = 1
            j = filled.find(0, j + 1, hi)
        if filled.find(0) < 0:
            # lf flat, at the offsets of _bytes; a view of the C-contiguous array, read as Python ints
            self._flat_lf = memoryview(lf.reshape(-1))
        return lf

    @property
    def lf(self) -> np.ndarray:
        """The (width, n) int32 LF mapping, every column filled."""
        return self.fill(0, self.cols.shape[0])

    def checkpoints(self, j: int) -> np.ndarray:
        """Column ``j``'s (sigma, n // BLOCK + 2) int32 checkpoints, counted from
        ``cols[j]`` alone when first asked for and then kept."""
        base = self._base[j]
        if base is None:
            n, sigma = self.n, self.sigma
            blocks = n // BLOCK + 2
            # row r's symbol counts towards every checkpoint after its block
            slot = np.repeat(np.arange(sigma, blocks * sigma, sigma), BLOCK)[:n] + self.cols[j]
            base = np.bincount(slot, minlength=blocks * sigma).reshape(blocks, sigma).T.cumsum(1, np.int32)
            totals = base[:, -1]
            base += (np.cumsum(totals) - totals)[:, None]
            self._base[j] = base
        return base

    def step(self, j: int, a: int, i: int) -> int:
        """``C_j[a] + occ_j(a, i)`` for a Python int ``a``, unchecked; column
        ``j``'s checkpoints are counted by its first step.

        A numpy integer ``a`` would be read by ``bytes.count`` as a byte
        string of its own width, hence the int.
        """
        base = self._base[j]
        if base is None:
            base = self.checkpoints(j)
        at = j * self.n
        return base.item(a, i // BLOCK) + self._bytes.count(a, at + i // BLOCK * BLOCK, at + i)

    def check_interval(self, interval: Interval) -> tuple[int, int]:
        """The ends ``(f, l)`` of a non-empty ``interval`` as ints, in which ``l + 1`` cannot wrap
        as a numpy end's would.  Raises :class:`IndexOutOfRangeError` unless both ends are
        integers (:func:`as_int`) and the interval lies within rows [0, n)."""
        f, l = interval.f, interval.l
        if type(f) is not int or type(l) is not int:  # the searches' plain ints skip the conversion
            f, l = (as_int(end, IndexOutOfRangeError, "interval end {!r} is not an integer") for end in (f, l))
        if f < 0 or l >= self.n:
            raise IndexOutOfRangeError(f"interval [{f}, {l}] not within [0, {self.n})")
        return f, l

    def backward(self, columns, ranks) -> Interval:
        """The interval of the pattern whose codes are ``ranks``, last first: one step
        per ``(j, a)`` pair from the full interval, :data:`EMPTY` at the first empty one.

        LF is increasing over the rows of one symbol, so the step maps
        [f, l] to [``lf[j, r1]``, ``lf[j, r2]``] for the first and last rows
        r1, r2 of the interval that hold ``a``.  ``bytes.find`` and ``rfind``
        look for them within ``BLOCK`` rows of each end; an end whose window
        holds no ``a`` takes :meth:`step`, so a step reads O(``BLOCK``) bytes
        at any n.

        ``columns`` descend, as a ``range``, unless every column is filled:
        the search then fills columns ``columns[-1]`` to ``columns[0]`` before
        its first step.  The FM index fills its one column on construction,
        so its search, stepping ``repeat(0)``, checks nothing.
        """
        try:
            lf = self._flat_lf
        except AttributeError:
            lf = memoryview(self.fill(columns[-1], columns[0] + 1).reshape(-1)) if columns else None
        find, rfind, step = self._bytes.find, self._bytes.rfind, self.step
        n = self.n
        f, l = 0, n - 1
        for j, a in zip(columns, ranks):
            at = j * n
            lo, hi = at + f, at + l + 1
            if hi - lo <= BLOCK:
                r1 = find(a, lo, hi)
                if r1 < 0:
                    return EMPTY
                f, l = lf[r1], lf[rfind(a, lo, hi)]
                continue
            r1, r2 = find(a, lo, lo + BLOCK), rfind(a, hi - BLOCK, hi)
            f = lf[r1] if r1 >= 0 else step(j, a, f)
            l = lf[r2] if r2 >= 0 else step(j, a, l + 1) - 1
            if f > l:
                return EMPTY
        return Interval(f, l)

    def backward_trace(self, columns, ranks) -> list[Interval]:
        """The loop of :meth:`backward`, keeping the interval before and after
        each step; an empty interval stays empty to the last step."""
        step = self.step
        f, l = 0, self.n - 1
        trace = [Interval(f, l)]
        for j, a in zip(columns, ranks):
            if f <= l:
                f, l = step(j, a, f), step(j, a, l + 1) - 1
            trace.append(Interval(f, l))
        return trace

    def walk(self, rows: np.ndarray, k: int, h: int) -> np.ndarray:
        """Map rows in column ``k``'s order to column ``h`` <= ``k``, one gather per column."""
        lf = self.fill(h, k)
        for j in range(k - 1, h - 1, -1):
            rows = lf[j].take(rows)
        return rows


def build_pbwt(collection: StringCollection, cols: np.ndarray) -> PbwtMatrix:
    """Assemble the PBWT from the columns that the build's sweep gathered.

    No column is gathered or sorted again: each LF column is filled when a
    search first reads it, and each column's checkpoints wait for its first step.
    """
    return PbwtMatrix(cols, collection.alphabet.sigma)


class PbwtInversion:
    """The collection whose PBWT columns are ``cols``, and pi_j for each ``j``
    in ``keep``, swept only as far as a reader asks.

    The build's sweep run on its own output: column ``j`` lists the
    column-``j`` codes in pi_{j+1} order, so one :func:`radix_sweep` pass
    sorts it to pi_j and scatters it back to its strings.  :meth:`perm`
    and :meth:`sweep_pi` sweep down to the column they return and
    :meth:`finish` down to column 0, each resuming where the last one
    stopped, so no column is sorted twice.  The state, ``next``, the next
    column to sort, and the pi_{next+1} that seeds its pass, advances only
    once a column's pass, scatter and kept copy are complete, so a pass
    that raises leaves the sweep resumable.

    Each pass scatters its column's codes into a row of its own, so a sweep
    that stops early allocates only the rows it sorted; a zero-filled
    (length, n) buffer allocated up front took 22 of the 50 ms that a sweep
    of 15 columns took at 200 000 rows.  The last pass joins the rows into
    one ``bytearray`` and hands it to ``collection`` as the transpose of a
    read-only view of it, which a
    :class:`~pbwtidx.collection.StringCollection` keeps without a copy, and
    orders ``perms`` by column.  A build hands its own sweep over as
    ``swept``, ``(collection, perms)``, and inverts nothing.  Any code
    matrix is the PBWT of its inverse.
    """

    def __init__(self, cols: np.ndarray, alphabet: Alphabet, keep, swept: tuple | None = None):
        self.cols, self.alphabet, self.keep = cols, alphabet, frozenset(keep)
        if swept is None:
            self.collection, self.perms, self.next = None, {}, cols.shape[0]
        else:
            (self.collection, self.perms), self.next = swept, -1
        self._pi = self._rows = None

    def perm(self, j: int) -> np.ndarray:
        """The int32 pi_j for a kept ``j``, sweeping down to column ``j`` first if need be."""
        try:
            return self.perms[j]
        except KeyError:
            self._sweep_to(j)
            return self.perms[j]

    def finish(self) -> StringCollection:
        """The collection, once the sweep has run down to column 0."""
        if self.collection is None:
            self._sweep_to(0)
        return self.collection

    def sweep_pi(self, j: int) -> np.ndarray | None:
        """pi_j as an intp array, which is kept only if ``j`` is in ``keep``:
        the sweep runs down to column ``j`` if it has not sorted it yet.  None
        once the sweep has sorted a column below ``j``."""
        if j == self.next + 1:
            return self._pi
        return self._sweep_to(j) if j <= self.next else None

    def _sweep_to(self, h: int) -> np.ndarray | None:
        at = self.next
        if h > at:
            return None
        length, n = self.cols.shape
        if self._rows is None:
            self._rows = [None] * length
        rows, cols = self._rows, self.cols

        def scatter(j, pi):
            row = np.empty(n, np.uint8)
            row[pi] = cols[j]
            rows[j] = row
            return cols[j]

        # a resumed sweep first yields its seed, pi_{at+1}, which the last call kept
        for j, pi in radix_sweep(n, min(at + 1, length), scatter, self._pi):
            if j > at:
                continue
            if j in self.keep:
                self.perms[j] = pi.astype(np.int32)
            self.next, self._pi = j - 1, pi
            if j == h:
                break
        if self.next < 0:
            # appended row by row, each freed once copied, so the codes are held about once
            whole = bytearray()
            for j in range(length):
                whole += rows[j].data
                rows[j] = None
            codes = np.frombuffer(whole, np.uint8).reshape(length, n)
            codes.setflags(write=False)
            self.collection = StringCollection(alphabet=self.alphabet, codes=codes.T)
            self.perms = dict(sorted(self.perms.items()))
            self._pi = self._rows = None
        return pi
