"""The PBWT matrix with its LF mapping and rank checkpoints.

Column ``j`` of the matrix lists the column-``j`` characters of the strings
reordered by pi_{j+1}, i.e. by the lexicographic rank of the suffix that
follows each character.  Row ``r`` of pi_{j+1} order moves to row
``C_j[a] + occ_j(a, r)`` of pi_j order, the BWT's LF mapping applied to one
column, and :class:`PbwtMatrix` holds that mapping once for every column: an
int32 ``lf`` array for walking a row with its own symbol (locate, inversion)
and int32 checkpoints every 64 rows for any other symbol (the backward step,
two lookups per pattern character).  The BWT is the PBWT of a text's cyclic
shifts, whose columns are all equal, so the substring index in
:mod:`pbwtidx.fm` holds it as a one-column :class:`PbwtMatrix`.
"""

from dataclasses import dataclass

import numpy as np

from .collection import StringCollection
from .errors import PbwtIndexError, RankOutOfRangeError


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
    * ``base[j, a, b]`` is ``C_j[a] + occ_j(a, min(BLOCK * b, n))``, so
      ``base[..., 0]`` holds the C-arrays and the last checkpoint the column
      totals; :meth:`step` gives the value for any symbol and row from one
      checkpoint and a count over at most ``BLOCK - 1`` bytes of the column.

    The columns are kept as one ``bytes`` object, whose ``count`` is the
    in-block scan, and ``cols`` is a read-only view of it.
    """

    def __init__(self, cols: np.ndarray, sigma: int):
        width, n = cols.shape
        check_rows(n)
        if cols.size and cols.max() >= sigma:
            raise RankOutOfRangeError(f"code matrix holds rank code {cols.max()}, not below {sigma}")
        self._bytes = np.asarray(cols, np.uint8).tobytes()
        self.cols = np.frombuffer(self._bytes, np.uint8).reshape(width, n)
        self.sigma, self.n = sigma, n
        blocks = n // BLOCK + 2
        self.lf = np.empty((width, n), np.int32)
        self.base = np.empty((width, sigma, blocks), np.int32)
        rows = np.arange(n, dtype=np.int32)
        # row r's symbol counts towards every checkpoint after its block
        slot = (np.arange(n) // BLOCK + 1) * sigma
        for j, col in enumerate(self.cols):
            self.lf[j, np.argsort(col, kind="stable")] = rows
            self.base[j] = np.bincount(slot + col, minlength=blocks * sigma).reshape(blocks, sigma).T
        np.cumsum(self.base, axis=2, out=self.base)
        totals = self.base[:, :, -1]
        self.base += (np.cumsum(totals, axis=1) - totals)[:, :, None]

    def step(self, j: int, a: int, i: int) -> int:
        """``C_j[a] + occ_j(a, i)`` for a Python int ``a``, unchecked.

        A numpy integer ``a`` would be read by ``bytes.count`` as a byte
        string of its own width, hence the int.
        """
        at = j * self.n
        return self.base.item(j, a, i // BLOCK) + self._bytes.count(a, at + i // BLOCK * BLOCK, at + i)

    def walk(self, rows: np.ndarray, k: int, h: int) -> np.ndarray:
        """Map rows in column ``k``'s order to column ``h`` <= ``k``, one gather per column."""
        for j in range(k - 1, h - 1, -1):
            rows = self.lf[j, rows]
        return rows


def build_pbwt(collection: StringCollection, perms: np.ndarray) -> PbwtMatrix:
    """Materialize the PBWT of a collection from its (length+1, n) permutations, row ``j`` pi_j."""
    cols = collection.codes[perms[1:], np.arange(collection.length, dtype=np.intp)[:, None]]
    return PbwtMatrix(cols, collection.alphabet.sigma)


def invert_pbwt(matrix: PbwtMatrix, keep) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The (n, length) column-major codes whose PBWT is ``matrix``, and pi_j for each ``j`` in ``keep``.

    Runs from pi_length, the identity, to pi_0: column ``j`` lists the
    column-``j`` codes in pi_{j+1} order, and row ``r`` of that order is row
    ``lf[j, r]`` of pi_j order, so one scatter per column turns pi_{j+1} into
    pi_j.  Any code matrix is the PBWT of its inverse.
    """
    cols, lf = matrix.cols, matrix.lf
    length, n = cols.shape
    codes = np.empty((length, n), np.uint8)
    pi = np.arange(n, dtype=np.int32)
    wanted, perms = set(keep), {}
    for j in range(length, -1, -1):
        if j < length:
            codes[j, pi] = cols[j]
            pi, prev = np.empty(n, np.int32), pi
            pi[lf[j]] = prev
        if j in wanted:
            perms[j] = pi
    return codes.T, {j: perms[j] for j in keep}

