"""The positional-search index: three query strategies plus locate.

A query asks for the strings containing pattern ``P`` starting exactly at
position ``k``.  Strategy ``binary`` runs ``bisect.bisect_left`` and
``bisect_right`` over the ranks of the suffixes sorted by pi_k;
``backward`` starts from the full interval at column ``k+m`` and applies
one backward step per pattern character, two LF reads at the interval's
ends; ``rebuild`` recomputes
pi_k from the nearest stored column to its right and then bisects.  All three
return the same interval of lexicographic ranks.  :func:`search_backward`
runs :meth:`PbwtMatrix.backward`, as the FM index does; :func:`query` runs
:func:`backward_trace`, one :class:`Interval` per column, only for a trace.

A query reads pi_k from one source, a pair ``(h, pi_h)`` with h <= k: the
greatest stored column at or below ``k``, reached by walking rows back
through the PBWT, the counterpart of the FM-index's sampled suffix array;
or ``(k, pi_k)`` rebuilt once, for ``rebuild`` and where no column at or
below ``k`` is stored.  The bisect walks only the rows it probes, about
2 lg n walks instead of a rebuild of all n entries, and :func:`locate`
reads the matches from the source the search read.
"""

from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass, field

import numpy as np

from .alphabet import Alphabet, as_int, check_codes
from .collection import StringCollection
from .errors import (EmptyInputError, IndexOutOfRangeError, PatternOverrunError, PbwtIndexError,
                     PermutationNotStoredError)
from .pbwt import EMPTY, Interval, PbwtInversion, PbwtMatrix, build_pbwt, check_rows
from .permutations import build_permutations, pass_digits, rebuild_column

STRATEGIES = ("binary", "backward", "rebuild")
PiSource = tuple[int, np.ndarray]  # (h, pi_h), h <= k: pi_k at rank i is pi_h at row i walked back to h


@dataclass(frozen=True)
class StoragePolicy:
    """Which permutation columns the index retains: all, a stride grid, or none.

    :meth:`stored_columns` alone states the grid: {0, t, 2t, ...}, with t = 1
    for ``full`` and no such column for ``none``, plus the final identity
    column, so a backward locate walk always terminates at a stored column.
    The stride may be any integer but a bool, a numpy one included, and is
    held as an ``int``.
    """

    kind: str
    stride: int | None = None

    def __post_init__(self):
        if self.kind not in ("full", "sampled", "none"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "sampled":
            stride = as_int(self.stride, ValueError, "sampled policy needs an integer stride >= 1, not {!r}", least=1)
            object.__setattr__(self, "stride", stride)
        elif self.stride is not None:
            raise ValueError(f"policy {self.kind!r} takes no stride")

    @classmethod
    def full(cls) -> "StoragePolicy":
        return cls("full")

    @classmethod
    def sampled(cls, stride: int) -> "StoragePolicy":
        return cls("sampled", stride)

    @classmethod
    def no_perms(cls) -> "StoragePolicy":
        return cls("none")

    def stored_columns(self, length: int) -> list[int]:
        """The retained columns in ascending order, ``length`` last: the order of ``stored_perms``."""
        t = 1 if self.kind == "full" else self.stride
        cols = [] if t is None else list(range(0, length, t))
        cols.append(length)
        return cols


def default_stride(n: int) -> int:
    """ceil(lg n), clamped to at least 1: the least t >= 1 with 2**t >= n."""
    return max(1, (n - 1).bit_length())


@dataclass(frozen=True, eq=False)
class PositionalIndex:
    """The PBWT columns, with the collection and everything else derived from them.

    ``cols`` becomes ``matrix.cols``, which is read-only, and ``matrix``
    fills each LF column when a query first reads it.  ``stored_columns``
    is :meth:`StoragePolicy.stored_columns`, made once.  An index made from
    its columns inverts them on demand (:class:`~pbwtidx.pbwt.PbwtInversion`):
    a query sweeps only down to the stored column it reads, and reading
    ``collection`` or ``stored_perms``, pi_j for each stored column in
    ascending order, finishes the sweep; :func:`build_index` hands its own
    sweep over, so a built index never inverts.  ``rebuild_digits`` holds,
    for each stored column c that a query of any strategy has rebuilt pi_k
    from, the digits of every first radix pass from c
    (:func:`~pbwtidx.permutations.pass_digits`), derived by the first such
    query.  The columns determine the collection, so equality compares the
    alphabet, the policy and the columns, and sweeps nothing.
    """

    alphabet: Alphabet
    cols: np.ndarray = field(repr=False)
    policy: StoragePolicy
    matrix: PbwtMatrix = field(init=False, repr=False)
    stored_columns: tuple[int, ...] = field(init=False, repr=False)
    rebuild_digits: dict[int, np.ndarray] = field(init=False, repr=False, default_factory=dict)
    _inversion: PbwtInversion = field(init=False, repr=False)
    _sweep: InitVar[tuple | None] = field(default=None, kw_only=True)  # (collection, stored_perms)

    def __post_init__(self, _sweep):
        # checked before the inversion, whose uint8 scatter would wrap a bad code
        if not isinstance(self.cols, (np.ndarray, np.generic)):
            raise PbwtIndexError(f"PBWT columns must be a numpy array, not {type(self.cols).__name__}")
        if self.cols.ndim != 2:
            raise PbwtIndexError(f"PBWT columns must be a (length, n) matrix, not {self.cols.ndim}-D")
        if not self.cols.size:
            raise EmptyInputError(f"PBWT columns hold an empty collection ({self.n} strings of length {self.length})")
        check_rows(self.n)
        check_codes(self.cols, self.alphabet.sigma, "PBWT columns")
        if _sweep is None:
            matrix = PbwtMatrix(self.cols, self.alphabet.sigma)
        else:
            matrix = build_pbwt(_sweep[0], self.cols)
        stored = tuple(self.policy.stored_columns(self.length))
        object.__setattr__(self, "cols", matrix.cols)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "stored_columns", stored)
        object.__setattr__(self, "_inversion", PbwtInversion(matrix.cols, self.alphabet, stored, _sweep))

    def __eq__(self, other):
        if not isinstance(other, PositionalIndex):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.policy == other.policy
                and np.array_equal(self.cols, other.cols))

    @property
    def collection(self) -> StringCollection:
        return self._inversion.finish()

    @property
    def stored_perms(self) -> dict[int, np.ndarray]:
        self._inversion.finish()
        return self._inversion.perms

    @property
    def n(self) -> int:
        return self.cols.shape[1]

    @property
    def length(self) -> int:
        return self.cols.shape[0]


def build_index(collection: StringCollection, policy: StoragePolicy | None = None) -> PositionalIndex:
    """Build the PBWT in one right-to-left sweep that keeps only the permutation columns the policy keeps."""
    if policy is None:
        policy = StoragePolicy.sampled(default_stride(collection.n))
    cols, stored = build_permutations(collection, policy.stored_columns(collection.length))
    return PositionalIndex(collection.alphabet, cols, policy, _sweep=(collection, stored))


def _check_span(index: PositionalIndex, m: int, k) -> int:
    """``k`` as an int once ``m`` columns from it fit: every entry point checks its
    position here, so no numpy integer reaches the arithmetic, where an unsigned
    ``k - 1`` wraps, and no bool passes as 0 or 1."""
    k = as_int(k, IndexOutOfRangeError, "position {!r} is not an integer")
    if k < 0 or k + m > index.length:
        raise PatternOverrunError(f"pattern of length {m} at position {k} overruns strings of length {index.length}")
    return k


def _check_query(index: PositionalIndex, pattern: str, k) -> tuple[bytes, int]:
    """The pattern's rank codes as bytes and ``k`` as an int, once both are checked."""
    k = _check_span(index, len(pattern), k)
    return index.alphabet._code_bytes(pattern), k


def _pi_source(index: PositionalIndex, k: int, rebuild: bool = False) -> PiSource:
    """The pair ``(h, pi_h)``, h <= k, that a query reads pi_k from.

    ``(k, pi_k)`` when it is stored, else the greatest stored column below
    ``k``; or, for ``rebuild`` and where there is no such column, ``(k, pi_k)``
    rebuilt from the nearest stored column c to the right.  A loaded index
    sweeps down to h, or to column 0 for a rebuild, which reads the
    collection.  Every rebuild reads c's digits from ``index.rebuild_digits``,
    and the first rebuild from c, whatever the strategy, derives them for
    every column between c and the stored column below it.
    """
    columns, inversion = index.stored_columns, index._inversion
    i = bisect_right(columns, k)  # columns[i - 1] <= k < columns[i]
    if i and (columns[i - 1] == k or not rebuild):
        return columns[i - 1], inversion.perm(columns[i - 1])
    c = columns[i]
    collection, pi_c = index.collection, inversion.perm(c)
    digits = index.rebuild_digits.get(c)
    if digits is None:
        lo = columns[i - 1] + 1 if i else 0
        digits = index.rebuild_digits[c] = pass_digits(collection, pi_c, c, lo)
    return k, rebuild_column(collection, pi_c, c, k, digits)


def _bisect_interval(index: PositionalIndex, h: int, pi_h: np.ndarray, key: bytes, k: int) -> Interval:
    """``bisect_left`` and ``bisect_right`` over the suffixes starting at ``k``, in pi_k order.

    Only the probed ranks are read from the source ``(h, pi_h)``, each
    walked back to ``h`` as in :func:`locate`, through memoryviews, which
    cost a third of ``ndarray.item``.  Compares the rank-code bytes against
    ``key``, the pattern's: symbols are strictly increasing, so rank order
    is string order.  When nothing matches, the second search returns
    ``first`` and the interval normalizes to empty.
    """
    window = index.collection.codes[:, k : k + len(key)]
    lf = index.matrix.fill(h, k)
    lf_rows = [memoryview(lf[j]) for j in range(k - 1, h - 1, -1)]
    pi = memoryview(pi_h)
    above = index.n

    def prefix(rank: int) -> bytes:
        nonlocal above
        row = rank
        for lf_j in lf_rows:
            row = lf_j[row]
        probe = window[pi[row]].tobytes()
        if probe > key:  # each probe after the pattern lies below the last one
            above = rank
        return probe

    ranks = range(index.n)
    first = bisect_left(ranks, key, key=prefix)
    # the first search saw every rank from `above` on sort after the pattern,
    # so bounding the second by it skips probes the unbounded search would make
    return Interval(first, bisect_right(ranks, key, first, above, key=prefix) - 1)


def search_binary(index: PositionalIndex, pattern: str, k: int, *, source: PiSource | None = None) -> Interval:
    """Match interval at column ``k`` via binary search on pi_k, read from
    the handed-over ``source`` or else through the greatest stored column at
    or below ``k``; without a source, raises when there is no such column."""
    key, k = _check_query(index, pattern, k)
    if source is None and index.stored_columns[0] > k:
        raise PermutationNotStoredError(f"pi_{k} is not retained under policy {index.policy.kind!r}")
    return _bisect_interval(index, *(source or _pi_source(index, k)), key, k)


def backward_step(index: PositionalIndex, j: int, interval: Interval, c: str) -> Interval:
    """Extend the matched pattern one character to the left.

    ``interval`` holds ranks in pi_{j+1} order; the result holds ranks in
    pi_j order for patterns starting with ``c`` at column ``j``.  An empty
    input is absorbing, so search loops can run unconditionally.
    """
    a = index.alphabet.rank(c)
    j = _check_span(index, 1, j)
    if interval.is_empty:
        return EMPTY
    f, l = index.matrix.check_interval(interval)
    step = index.matrix.step
    return Interval(step(j, a, f), step(j, a, l + 1) - 1)


def backward_trace(index: PositionalIndex, pattern: str, k: int) -> list[tuple[int, Interval]]:
    """Interval per column from ``k+m`` down to ``k``; an empty interval stays empty."""
    key, k = _check_query(index, pattern, k)
    trace = index.matrix.backward_trace(range(k + len(key) - 1, k - 1, -1), key[::-1])
    return list(zip(range(k + len(key), k - 1, -1), trace))


def search_backward(index: PositionalIndex, pattern: str, k: int) -> Interval:
    """Match interval at column ``k`` via one backward step per pattern character."""
    key, k = _check_query(index, pattern, k)
    return index.matrix.backward(range(k + len(key) - 1, k - 1, -1), key[::-1])


def search_rebuild(index: PositionalIndex, pattern: str, k: int, *, source: PiSource | None = None) -> Interval:
    """Match interval at column ``k`` by bisecting pi_k, rebuilt in wide-digit
    radix passes unless the handed-over ``source`` holds it."""
    key, k = _check_query(index, pattern, k)
    return _bisect_interval(index, *(source or _pi_source(index, k, rebuild=True)), key, k)


def locate(index: PositionalIndex, interval: Interval, k: int, *, source: PiSource | None = None) -> list[int]:
    """String indexes for an interval produced by a search at position ``k``.

    Walks each row backwards through the PBWT from column ``k`` to column
    ``h`` of the pi_k source ``(h, pi_h)`` and reads ``pi_h`` there: the
    source the search read, when handed over, or else :func:`_pi_source`'s.
    When ``h == k`` the matches are a slice of ``pi_k``.  Output order
    follows rows f..l, i.e. lexicographic rank.
    """
    if interval.is_empty:
        return []
    k = _check_span(index, 0, k)
    f, l = index.matrix.check_interval(interval)
    h, pi_h = source or _pi_source(index, k)
    if h == k:
        return pi_h[f : l + 1].tolist()
    # the walk's first gather is a slice of lf: rows f..l of column k map to lf[k-1, f..l]
    rows = index.matrix.walk(index.matrix.fill(k - 1, k)[k - 1, f : l + 1], k - 1, h)
    return pi_h.take(rows).tolist()


def query(index: PositionalIndex, pattern: str, k: int, strategy: str = "backward",
          with_trace: bool = False):
    """Search + locate pipeline used by the CLI.

    Strategies ``binary`` and ``rebuild`` build one pi_k source
    (:func:`_pi_source`) and hand it to the search and to :func:`locate`, so
    every strategy answers under every storage policy with at most one
    rebuild; a backward query's :func:`locate` finds its own.  The backward
    strategy runs :func:`search_backward`, or :func:`backward_trace` when
    ``with_trace`` is set.  Returns ``(interval, matches, trace)``;
    ``trace`` is None unless requested with the backward strategy.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    k = _check_span(index, len(pattern), k)
    trace = source = None
    if strategy == "backward" and with_trace:
        trace = backward_trace(index, pattern, k)
        interval = trace[-1][1]
    elif strategy == "backward":
        interval = search_backward(index, pattern, k)
    else:
        source = _pi_source(index, k, rebuild=strategy == "rebuild")
        search = search_binary if strategy == "binary" else search_rebuild
        interval = search(index, pattern, k, source=source)
    return interval, locate(index, interval, k, source=source), trace
