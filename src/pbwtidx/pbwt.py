"""The PBWT matrix with per-column counts and rank tables, and the backward step.

Column ``j`` of the matrix lists the column-``j`` characters of the strings
reordered by pi_{j+1}, i.e. by the lexicographic rank of the suffix that
follows each character.  With the per-column C-array and a rank table, the
match interval for a pattern extended one character to the left costs two
rank queries.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .alphabet import Alphabet
from .collection import StringCollection
from .errors import IndexOutOfRangeError
from .permutations import PermutationTable


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


class RankTable:
    """occ(a, i) = occurrences of symbol rank ``a`` among the first ``i`` characters.

    An argument-checking view over one exact (sigma, n+1) prefix-count table;
    nothing is copied.
    """

    def __init__(self, occ: np.ndarray):
        self._occ = occ
        self.sigma = occ.shape[0]
        self.n = occ.shape[1] - 1

    def rank(self, a: int, i: int) -> int:
        """Exact occurrence count of symbol ``a`` in the first ``i`` characters."""
        if not 0 <= a < self.sigma:
            raise IndexOutOfRangeError(f"symbol rank {a} not in [0, {self.sigma})")
        if not 0 <= i <= self.n:
            raise IndexOutOfRangeError(f"prefix length {i} not in [0, {self.n}]")
        return int(self._occ[a, i])


def c_arrays_from_occ(occ: np.ndarray) -> np.ndarray:
    """C-array(s) of rank table(s) ``occ``: exclusive prefix sums of the symbol totals."""
    c_arrays = np.zeros(occ.shape[:-1], np.int64)
    np.cumsum(occ[..., :-1, -1], axis=-1, out=c_arrays[..., 1:])
    return c_arrays


def rank_query(table: RankTable, a: int, i: int) -> int:
    """Module-level spelling of :meth:`RankTable.rank`."""
    return table.rank(a, i)


@dataclass(frozen=True)
class PbwtMatrix:
    """PBWT columns as a (length, n) rank-code matrix.

    The (length, sigma, n+1) rank table ``occ`` is counted from the columns
    and the per-column C-arrays from its totals.
    """

    cols: np.ndarray = field(repr=False, compare=False)
    alphabet: Alphabet = field(compare=False)
    occ: np.ndarray = field(init=False, repr=False, compare=False)
    c_arrays: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        occ = _kernels.occ_tables(self.cols, self.alphabet.sigma)
        object.__setattr__(self, "occ", occ)
        object.__setattr__(self, "c_arrays", c_arrays_from_occ(occ))

    @property
    def length(self) -> int:
        return self.cols.shape[0]

    @property
    def n(self) -> int:
        return self.cols.shape[1]

    @cached_property
    def ranks(self) -> list[RankTable]:
        return [RankTable(occ) for occ in self.occ]

    def column_string(self, j: int) -> str:
        if not 0 <= j < self.length:
            raise IndexOutOfRangeError(f"column {j} not in [0, {self.length})")
        return self.alphabet.decode(self.cols[j])


def build_pbwt(collection: StringCollection, perms: PermutationTable) -> PbwtMatrix:
    """Materialize the PBWT of a collection from its permutation table."""
    cols = collection.codes[perms.table[1:], np.arange(collection.length, dtype=np.intp)[:, None]]
    return PbwtMatrix(cols=np.ascontiguousarray(cols, dtype=np.uint8), alphabet=collection.alphabet)


def invert_pbwt(cols: np.ndarray, keep) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The (n, length) column-major codes whose PBWT is ``cols``, and pi_j for each ``j`` in ``keep``.

    The radix sweep of :func:`build_permutations` with the columns as keys:
    column ``j`` lists the column-``j`` codes in pi_{j+1} order, and its
    stable sort turns pi_{j+1} into pi_j.  Any code matrix is the PBWT of its inverse.
    """
    length, n = cols.shape
    codes = np.empty((length, n), np.uint8)
    pi = np.arange(n, dtype=np.int32)
    perms = {}
    for j in range(length, -1, -1):
        if j < length:
            codes[j, pi] = cols[j]
            pi = pi[np.argsort(cols[j], kind="stable")]
        if j in keep:
            perms[j] = pi
    return codes.T, {j: perms[j] for j in keep}


def backward_step(matrix: PbwtMatrix, j: int, interval: Interval, c: str) -> Interval:
    """Extend the matched pattern one character to the left.

    ``interval`` holds ranks in pi_{j+1} order; the result holds ranks in
    pi_j order for patterns starting with ``c`` at column ``j``.  An empty
    input is absorbing, so search loops can run unconditionally.
    """
    a = matrix.alphabet.rank(c)
    if not 0 <= j < matrix.length:
        raise IndexOutOfRangeError(f"column {j} not in [0, {matrix.length})")
    if interval.is_empty:
        return EMPTY
    base = int(matrix.c_arrays[j, a])
    table = matrix.ranks[j]
    f = base + table.rank(a, interval.f)
    l = base + table.rank(a, interval.l + 1) - 1
    return Interval(f, l)
