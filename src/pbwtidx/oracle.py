"""Brute-force reference answers, used as ground truth by tests and ``--verify``.

These scans share no code with the index modules: they compare raw Python
strings directly.
"""

from .collection import StringCollection
from .errors import PatternOverrunError


def naive_positional(collection: StringCollection, pattern: str, k: int) -> list[int]:
    """Indexes of strings containing ``pattern`` starting exactly at position ``k``, ascending."""
    m = len(pattern)
    if k < 0 or k + m > collection.length:
        raise PatternOverrunError(
            f"pattern of length {m} at position {k} overruns strings of length {collection.length}"
        )
    return [i for i, s in enumerate(collection.strings) if s[k : k + m] == pattern]


def naive_substring(text: str, pattern: str) -> list[int]:
    """All starting positions of ``pattern`` in ``text``, ascending.

    The empty pattern matches vacuously at 0..len(text), mirroring the n+1
    rows of the sentinel-terminated index.
    """
    m = len(pattern)
    if m == 0:
        return list(range(len(text) + 1))
    return [p for p in range(len(text) - m + 1) if text[p : p + m] == pattern]


def naive_sorted_rotations(terminated: str) -> list[int]:
    """Start positions of the cyclic shifts of ``terminated``, in lexicographic order.

    A comparison sort over materialized rotations: O(n^2) memory, and at
    least as much time.
    The sentinel must be the last character and sort below every other one.
    """
    doubled = terminated + terminated
    size = len(terminated)
    return sorted(range(size), key=lambda p: doubled[p : p + size])
