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
within 64 rows takes a checkpoint instead.  ``lf`` comes from the
right-to-left sweep of :mod:`pbwtidx.permutations`, which the build and
:func:`invert_pbwt` run anyway.  The BWT is the PBWT of a text's cyclic
shifts, whose columns are all equal, so :mod:`pbwtidx.fm` holds it as a
one-column :class:`PbwtMatrix`, whose :meth:`~PbwtMatrix.backward` search in
column 0 is the FM count.
"""

from dataclasses import dataclass

import numpy as np

from .alphabet import as_int, check_codes
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
      :func:`build_pbwt`, whose sweep has sorted the columns, hands it in
      through the private ``_lf``, which is not checked; otherwise a sweep
      over the columns derives it.
    * ``base[j, a, b]`` is ``C_j[a] + occ_j(a, min(BLOCK * b, n))``, so
      ``base[..., 0]`` holds the C-arrays and the last checkpoint the column
      totals; :meth:`step` gives the value for any symbol and row from one
      checkpoint and a count over at most ``BLOCK - 1`` bytes of the column.
      The checkpoints are counted on the first :meth:`step` or read of
      ``base``: a build, a save or a search whose windows find every symbol
      never reads them.

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

    def __init__(self, cols: np.ndarray, sigma: int, *, _lf: np.ndarray | None = None):
        if not isinstance(cols, (np.ndarray, np.generic)):
            raise PbwtIndexError(f"codes must be a numpy array, not {type(cols).__name__}")
        if cols.ndim != 2:
            raise PbwtIndexError(f"codes must be a (width, n) matrix, not {cols.ndim}-D")
        width, n = cols.shape
        check_rows(n)
        check_codes(cols, sigma, "code matrix")
        owner = cols
        while isinstance(owner, np.ndarray):
            owner = owner.base
        if isinstance(owner, memoryview):  # np.frombuffer's base for a bytearray
            owner = owner.obj
        whole = (type(owner) is bytearray and len(owner) == cols.nbytes and type(cols) is np.ndarray
                 and cols.dtype == np.uint8 and cols.flags.c_contiguous and not cols.flags.writeable)
        self._bytes = owner if whole else np.asarray(cols, np.uint8).tobytes()
        self.cols = cols if whole else np.frombuffer(self._bytes, np.uint8).reshape(width, n)
        self.n = n
        self.sigma = sigma
        self.lf = radix_sweep(n, width, lambda j, pi: self.cols[j])[0] if _lf is None else _lf
        # lf flat, at the offsets of _bytes; a view of the C-contiguous array, read as Python ints
        self._flat_lf = memoryview(self.lf.reshape(-1))

    @property
    def base(self) -> np.ndarray:
        """The checkpoints, counted from the columns when first read and then kept."""
        try:
            return self._base
        except AttributeError:
            pass
        width, n, sigma = self.cols.shape[0], self.n, self.sigma
        blocks = n // BLOCK + 2
        base = np.empty((width, sigma, blocks), np.int32)
        # row r's symbol counts towards every checkpoint after its block
        slot = (np.arange(n) // BLOCK + 1) * sigma
        for j, col in enumerate(self.cols):
            base[j] = np.bincount(slot + col, minlength=blocks * sigma).reshape(blocks, sigma).T
        np.cumsum(base, axis=2, out=base)
        totals = base[:, :, -1]
        base += (np.cumsum(totals, axis=1) - totals)[:, :, None]
        self._base = base
        return base

    def step(self, j: int, a: int, i: int) -> int:
        """``C_j[a] + occ_j(a, i)`` for a Python int ``a``, unchecked.

        A numpy integer ``a`` would be read by ``bytes.count`` as a byte
        string of its own width, hence the int.  Steps read the checkpoints
        from the plain attribute ``_base``: a property read, or a class
        ``__getattr__``, would slow every step.
        """
        at = j * self.n
        try:
            base = self._base
        except AttributeError:  # the first step builds them
            base = self.base
        return base.item(j, a, i // BLOCK) + self._bytes.count(a, at + i // BLOCK * BLOCK, at + i)

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
        """
        find, rfind, lf, step = self._bytes.find, self._bytes.rfind, self._flat_lf, self.step
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
        for j in range(k - 1, h - 1, -1):
            rows = self.lf[j].take(rows)
        return rows


def build_pbwt(collection: StringCollection, cols: np.ndarray, lf: np.ndarray) -> PbwtMatrix:
    """Assemble the PBWT from the columns and the LF mapping that their sweep derived.

    No column is gathered or sorted again, and the checkpoints wait for the first step.
    """
    return PbwtMatrix(cols, collection.alphabet.sigma, _lf=lf)


def invert_pbwt(cols: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """The collection whose PBWT columns are ``cols``, their LF mapping, and pi_j for each ``j`` in ``keep``.

    The build's sweep run on its own output: column ``j`` lists the
    column-``j`` codes in pi_{j+1} order, so they scatter back to their
    strings.  Returns the (n, length) column-major codes, the (length, n)
    int32 ``lf`` and the kept permutations.  Any code matrix is the PBWT of
    its inverse.
    """
    length, n = cols.shape
    codes = np.empty((length, n), np.uint8)

    def scatter(j, pi):
        codes[j][pi] = cols[j]
        return cols[j]

    return codes.T, *radix_sweep(n, length, scatter, keep=keep)
