"""The positional-search index: three query strategies plus locate.

A query asks for the strings containing pattern ``P`` starting exactly at
position ``k``.  Strategy ``binary`` bisects the suffixes sorted by a stored
pi_k; ``backward`` starts from the full interval at column ``k+m`` and
applies one two-lookup backward step per pattern character; ``rebuild``
recomputes pi_k from the nearest stored column to its right and then
bisects.  All three return the same interval of lexicographic ranks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .collection import StringCollection
from .errors import (
    IndexOutOfRangeError,
    NoStoredColumnAtOrBelowError,
    PatternOverrunError,
    PermutationNotStoredError,
)
from .pbwt import EMPTY, Interval, PbwtMatrix, build_pbwt
from .permutations import build_permutations, rebuild_column

STRATEGIES = ("binary", "backward", "rebuild")


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

    def stored_columns(self, length: int) -> list[int]:
        if self.kind == "full":
            return list(range(length + 1))
        if self.kind == "sampled":
            cols = list(range(0, length, self.stride))
            cols.append(length)
            return cols
        return [length]


def default_stride(n: int) -> int:
    """ceil(lg n), clamped to at least 1."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


@dataclass(frozen=True)
class PositionalIndex:
    """A collection's PBWT and kept permutations; equality compares the
    collection and the policy, from which the rest is derived."""

    collection: StringCollection
    matrix: PbwtMatrix = field(repr=False, compare=False)
    policy: StoragePolicy
    stored_perms: dict[int, np.ndarray] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.collection.n

    @property
    def length(self) -> int:
        return self.collection.length


def build_index(collection: StringCollection, policy: StoragePolicy | None = None) -> PositionalIndex:
    """Build the PBWT and retain only the permutation columns the policy keeps."""
    if policy is None:
        policy = StoragePolicy.sampled(default_stride(collection.n))
    perms = build_permutations(collection)
    matrix = build_pbwt(collection, perms)
    keep = policy.stored_columns(collection.length)
    stored = {j: perms[j].copy() for j in keep}
    return PositionalIndex(collection=collection, matrix=matrix, policy=policy, stored_perms=stored)


def _check_query(index: PositionalIndex, pattern: str, k: int) -> list[int]:
    """The pattern's symbol ranks, once ``k`` and every character are checked."""
    if k < 0 or k + len(pattern) > index.length:
        raise PatternOverrunError(
            f"pattern of length {len(pattern)} at position {k} overruns strings of length {index.length}"
        )
    return [index.collection.alphabet.rank(c) for c in pattern]


def _bisect_interval(index: PositionalIndex, perm: np.ndarray, pattern: str, k: int) -> Interval:
    """Two binary searches over the suffixes starting at ``k``, ordered by ``perm``.

    Compares rank-code bytes: symbols are strictly increasing, so rank order
    is string order.
    """
    window = index.collection.codes[:, k : k + len(pattern)]
    key = index.collection.alphabet.encode(pattern).tobytes()

    def prefix(i: int) -> bytes:
        return window[perm[i]].tobytes()

    lo, hi = 0, index.n
    while lo < hi:
        mid = (lo + hi) // 2
        if prefix(mid) < key:
            lo = mid + 1
        else:
            hi = mid
    first = lo
    lo, hi = first, index.n
    while lo < hi:
        mid = (lo + hi) // 2
        if prefix(mid) <= key:
            lo = mid + 1
        else:
            hi = mid
    last = lo - 1
    if first > last or prefix(first) != key:
        return EMPTY
    return Interval(first, last)


def search_binary(index: PositionalIndex, pattern: str, k: int) -> Interval:
    """Match interval at column ``k`` via binary search on a stored pi_k."""
    _check_query(index, pattern, k)
    if k not in index.stored_perms:
        raise PermutationNotStoredError(f"pi_{k} is not retained under policy {index.policy.kind!r}")
    return _bisect_interval(index, index.stored_perms[k], pattern, k)


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

    :func:`backward_step` per character, on plain ints; an empty interval
    stays empty to the last column.
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
    """Match interval at column ``k`` via one backward step per pattern character."""
    return backward_trace(index, pattern, k)[-1][1]


def _nearest_stored_at_or_above(index: PositionalIndex, k: int) -> int:
    return min(j for j in index.stored_perms if j >= k)


def _rebuilt_perm(index: PositionalIndex, k: int) -> np.ndarray:
    if k in index.stored_perms:
        return index.stored_perms[k]
    j = _nearest_stored_at_or_above(index, k)
    return rebuild_column(index.collection, index.stored_perms[j], j, k)


def search_rebuild(index: PositionalIndex, pattern: str, k: int) -> Interval:
    """Match interval at column ``k`` by rebuilding pi_k in wide-digit radix passes, then bisecting."""
    _check_query(index, pattern, k)
    return _bisect_interval(index, _rebuilt_perm(index, k), pattern, k)


def locate(index: PositionalIndex, interval: Interval, k: int) -> list[int]:
    """String indexes for an interval produced by a search at position ``k``.

    Walks each row backwards through the PBWT to the greatest stored column
    h <= k and reads the stored permutation there.  When no stored column
    lies at or below ``k`` (the no-perms policy), pi_k is rebuilt from the
    right instead, which costs one radix rebuild but keeps every policy
    locatable.  Output order follows rows f..l, i.e. lexicographic rank.
    """
    if interval.is_empty:
        return []
    if not index.stored_perms:
        raise NoStoredColumnAtOrBelowError("index retains no permutation columns at all")
    below = [j for j in index.stored_perms if j <= k]
    if not below:
        return _rebuilt_perm(index, k)[interval.f : interval.l + 1].tolist()
    h = max(below)
    rows = index.matrix.walk(np.arange(interval.f, interval.l + 1, dtype=np.int32), k, h)
    return index.stored_perms[h][rows].tolist()


def query(index: PositionalIndex, pattern: str, k: int, strategy: str = "backward",
          with_trace: bool = False):
    """Search + locate pipeline used by the CLI.

    Strategy ``binary`` falls back to the rebuild path when pi_k is not
    stored, so every strategy answers under every storage policy.  Returns
    ``(interval, matches, trace)``; ``trace`` is None unless requested with
    the backward strategy.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    trace = None
    if strategy == "backward":
        steps = backward_trace(index, pattern, k)
        interval = steps[-1][1]
        if with_trace:
            trace = steps
    elif strategy == "binary":
        try:
            interval = search_binary(index, pattern, k)
        except PermutationNotStoredError:
            interval = search_rebuild(index, pattern, k)
    else:
        interval = search_rebuild(index, pattern, k)
    return interval, locate(index, interval, k), trace
