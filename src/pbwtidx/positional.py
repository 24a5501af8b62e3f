"""The positional-search index: three query strategies plus locate.

A query asks for the strings containing pattern ``P`` starting exactly at
position ``k``.  Strategy ``binary`` bisects the suffixes sorted by pi_k;
``backward`` starts from the full interval at column ``k+m`` and applies one
two-lookup backward step per pattern character; ``rebuild`` recomputes pi_k
from the nearest stored column to its right and then bisects.  All three
return the same interval of lexicographic ranks.  :func:`search_backward`
is the backward loop on plain ints, which :func:`query` runs unless a trace
is asked for; :func:`backward_trace` runs the same loop keeping one
:class:`Interval` per column.

A query reads pi_k from one source, a pair ``(h, pi_h)`` with h <= k: the
greatest stored column at or below ``k``, reached by walking rows back
through the PBWT, the counterpart of the FM-index's sampled suffix array;
or ``(k, pi_k)`` rebuilt once, for ``rebuild`` and where no column at or
below ``k`` is stored.  The bisect walks only the rows it probes, about
2 lg n walks instead of a rebuild of all n entries, and :func:`locate`
reads the matches from the source the search read.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .collection import StringCollection
from .errors import IndexOutOfRangeError, PatternOverrunError, PbwtIndexError, PermutationNotStoredError
from .pbwt import EMPTY, Interval, PbwtMatrix, build_pbwt
from .permutations import build_permutations, rebuild_column

STRATEGIES = ("binary", "backward", "rebuild")
PiSource = tuple[int, np.ndarray]  # (h, pi_h), h <= k: pi_k at rank i is pi_h at row i walked back to h


@dataclass(frozen=True)
class StoragePolicy:
    """Which permutation columns the index retains: all, a stride grid, or none.

    The sampled grid is {0, t, 2t, ...} plus the final identity column, so a
    backward locate walk always terminates at a stored column.
    """

    kind: str
    stride: int | None = None

    def __post_init__(self):
        if self.kind not in ("full", "sampled", "none"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "sampled":
            if self.stride is None or self.stride < 1:
                raise ValueError("sampled policy needs a stride >= 1")
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

    @property
    def _spacing(self) -> int | None:
        """The distance between stored columns below the final one: 1, the stride, or None when none is."""
        return 1 if self.kind == "full" else self.stride

    def stored_columns(self, length: int) -> list[int]:
        t = self._spacing
        cols = [] if t is None else list(range(0, length, t))
        cols.append(length)
        return cols

    def stored_at_or_below(self, k: int, length: int) -> int | None:
        """The greatest of :meth:`stored_columns` that is at most ``k``, 0 <= k <= length, or None."""
        if k == length:
            return k
        t = self._spacing
        return None if t is None else k - k % t

    def stored_at_or_above(self, k: int, length: int) -> int:
        """The least of :meth:`stored_columns` that is at least ``k``, 0 <= k <= length."""
        t = self._spacing
        return length if t is None else min(-(-k // t) * t, length)


def default_stride(n: int) -> int:
    """ceil(lg n), clamped to at least 1."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


@dataclass(frozen=True)
class PositionalIndex:
    """A collection's PBWT and kept permutations; equality compares the
    collection and the policy, from which the rest is derived.

    ``stored_perms`` holds pi_j, n entries each, for exactly the columns of
    ``policy.stored_columns(length)``, on which every pi_k lookup relies;
    any other set of keys or shape raises :class:`PermutationNotStoredError`.
    ``matrix`` must be (length, n) over the collection's alphabet; the
    shape is checked, not that the columns are the collection's PBWT.
    """

    collection: StringCollection
    matrix: PbwtMatrix = field(repr=False, compare=False)
    policy: StoragePolicy
    stored_perms: dict[int, np.ndarray] = field(repr=False, compare=False)

    def __post_init__(self):
        shape, sigma = (self.length, self.n), self.collection.alphabet.sigma
        if self.matrix.cols.shape != shape or self.matrix.sigma != sigma:
            raise PbwtIndexError(f"matrix of {self.matrix.cols.shape} codes below {self.matrix.sigma} "
                                 f"does not fit a collection of {shape} codes below {sigma}")
        differ = set(self.policy.stored_columns(self.length)).symmetric_difference(self.stored_perms)
        if differ:
            j = min(differ)
            kept = "keeps" if j in self.stored_perms else "lacks"
            raise PermutationNotStoredError(f"stored_perms {kept} pi_{j}, against policy {self.policy}")
        for j, pi in self.stored_perms.items():
            if pi.shape != (self.n,):
                raise PermutationNotStoredError(f"stored pi_{j} has shape {pi.shape}, not ({self.n},)")

    @property
    def n(self) -> int:
        return self.collection.n

    @property
    def length(self) -> int:
        return self.collection.length


def build_index(collection: StringCollection, policy: StoragePolicy | None = None) -> PositionalIndex:
    """Build the PBWT in one right-to-left sweep that keeps only the permutation columns the policy keeps."""
    if policy is None:
        policy = StoragePolicy.sampled(default_stride(collection.n))
    cols, lf, stored = build_permutations(collection, policy.stored_columns(collection.length))
    return PositionalIndex(collection=collection, matrix=build_pbwt(collection, cols, lf),
                           policy=policy, stored_perms=stored)


def _check_span(index: PositionalIndex, m: int, k: int):
    if k < 0 or k + m > index.length:
        raise PatternOverrunError(f"pattern of length {m} at position {k} overruns strings of length {index.length}")


def _check_query(index: PositionalIndex, pattern: str, k: int) -> bytes:
    """The pattern's rank codes as bytes, once ``k`` and every character are checked."""
    _check_span(index, len(pattern), k)
    return index.collection.alphabet.encode(pattern).tobytes()


def _pi_source(index: PositionalIndex, k: int, rebuild: bool = False) -> PiSource:
    """The pair ``(h, pi_h)``, h <= k, that a query reads pi_k from.

    The greatest stored column at or below ``k``; or, for ``rebuild`` and
    where there is no such column, ``(k, pi_k)`` rebuilt from the nearest
    stored column to the right.
    """
    h = None if rebuild else index.policy.stored_at_or_below(k, index.length)
    if h is not None:
        return h, index.stored_perms[h]
    j = index.policy.stored_at_or_above(k, index.length)
    return k, rebuild_column(index.collection, index.stored_perms[j], j, k)


def _bisect_interval(index: PositionalIndex, h: int, pi_h: np.ndarray, key: bytes, k: int) -> Interval:
    """Two binary searches over the suffixes starting at ``k``, in pi_k order.

    Only the probed ranks are read from the source ``(h, pi_h)``, each
    walked back to ``h`` as in :func:`locate`, through memoryviews, which
    cost a third of ``ndarray.item``.  The first search also keeps the
    lowest rank it saw sort after the pattern, where the second one can
    stop.  Compares the rank-code bytes against ``key``, the pattern's:
    symbols are strictly increasing, so rank order is string order.
    """
    window = index.collection.codes[:, k : k + len(key)]
    lf_rows = [memoryview(index.matrix.lf[j]) for j in range(k - 1, h - 1, -1)]
    pi = memoryview(pi_h)

    def prefix(i: int) -> bytes:
        for lf_j in lf_rows:
            i = lf_j[i]
        return window[pi[i]].tobytes()

    lo, hi, above = 0, index.n, index.n
    while lo < hi:
        mid = (lo + hi) // 2
        probe = prefix(mid)
        if probe < key:
            lo = mid + 1
        else:
            hi = mid
            if probe > key:
                above = mid
    first = lo
    if first == index.n or prefix(first) != key:
        return EMPTY
    # every rank in [first, above) is at least the pattern
    lo, hi = first + 1, above
    while lo < hi:
        mid = (lo + hi) // 2
        if prefix(mid) == key:
            lo = mid + 1
        else:
            hi = mid
    return Interval(first, lo - 1)


def search_binary(index: PositionalIndex, pattern: str, k: int, *, source: PiSource | None = None) -> Interval:
    """Match interval at column ``k`` via binary search on pi_k, read from
    the handed-over ``source`` or else through the greatest stored column at
    or below ``k``; without a source, raises when there is no such column."""
    key = _check_query(index, pattern, k)
    if source is None and index.policy.stored_at_or_below(k, index.length) is None:
        raise PermutationNotStoredError(f"pi_{k} is not retained under policy {index.policy.kind!r}")
    return _bisect_interval(index, *(source or _pi_source(index, k)), key, k)


def backward_step(index: PositionalIndex, j: int, interval: Interval, c: str) -> Interval:
    """Extend the matched pattern one character to the left.

    ``interval`` holds ranks in pi_{j+1} order; the result holds ranks in
    pi_j order for patterns starting with ``c`` at column ``j``.  An empty
    input is absorbing, so search loops can run unconditionally.
    """
    a = index.collection.alphabet.rank(c)
    if not 0 <= j < index.length:
        raise IndexOutOfRangeError(f"column {j} not in [0, {index.length})")
    if interval.is_empty:
        return EMPTY
    if interval.f < 0 or interval.l >= index.n:
        raise IndexOutOfRangeError(f"interval [{interval.f}, {interval.l}] not within [0, {index.n})")
    step = index.matrix.step
    return Interval(step(j, a, interval.f), step(j, a, interval.l + 1) - 1)


def backward_trace(index: PositionalIndex, pattern: str, k: int) -> list[tuple[int, Interval]]:
    """Interval per column from ``k+m`` down to ``k``, starting from the full interval.

    The loop of :func:`search_backward`, keeping one :class:`Interval` per
    column; an empty interval stays empty to the last column.
    """
    ranks = _check_query(index, pattern, k)
    step = index.matrix.step
    f, l = 0, index.n - 1
    trace = [(k + len(ranks), Interval(f, l))]
    for j in range(k + len(ranks) - 1, k - 1, -1):
        if f <= l:
            a = ranks[j - k]
            f, l = step(j, a, f), step(j, a, l + 1) - 1
        trace.append((j, Interval(f, l)))
    return trace


def search_backward(index: PositionalIndex, pattern: str, k: int) -> Interval:
    """Match interval at column ``k`` via one backward step per pattern character.

    :func:`backward_step` per character on plain ints, from the full
    interval at column ``k+m``, stopping at the first empty interval.
    """
    ranks = _check_query(index, pattern, k)
    step = index.matrix.step
    f, l = 0, index.n - 1
    for j in range(k + len(ranks) - 1, k - 1, -1):
        a = ranks[j - k]
        f, l = step(j, a, f), step(j, a, l + 1) - 1
        if f > l:
            return EMPTY
    return Interval(f, l)


def search_rebuild(index: PositionalIndex, pattern: str, k: int, *, source: PiSource | None = None) -> Interval:
    """Match interval at column ``k`` by bisecting pi_k, rebuilt in wide-digit
    radix passes unless the handed-over ``source`` holds it."""
    key = _check_query(index, pattern, k)
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
    if not 0 <= k <= index.length:
        raise IndexOutOfRangeError(f"column {k} not in [0, {index.length}]")
    if interval.f < 0 or interval.l >= index.n:
        raise IndexOutOfRangeError(f"interval [{interval.f}, {interval.l}] not within [0, {index.n})")
    h, pi_h = source or _pi_source(index, k)
    if h == k:
        return pi_h[interval.f : interval.l + 1].tolist()
    # the walk's first gather is a slice of lf: rows f..l of column k map to lf[k-1, f..l]
    rows = index.matrix.walk(index.matrix.lf[k - 1, interval.f : interval.l + 1], k - 1, h)
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
    trace = source = None
    if strategy == "backward" and with_trace:
        trace = backward_trace(index, pattern, k)
        interval = trace[-1][1]
    elif strategy == "backward":
        interval = search_backward(index, pattern, k)
    else:
        _check_span(index, len(pattern), k)  # _pi_source needs 0 <= k <= length
        source = _pi_source(index, k, rebuild=strategy == "rebuild")
        search = search_binary if strategy == "binary" else search_rebuild
        interval = search(index, pattern, k, source=source)
    return interval, locate(index, interval, k, source=source), trace
