"""The benchmark workloads: seeded inputs, expected answers, set-up and one operation.

Every workload makes its input from a seed, hands the program only the
generated text, and computes the expected answer of each query itself from
the generated data (a numpy scan of the code matrix, or ``str.find`` over
the text) before anything is timed.  Queries come from a fixed pool that
the timed loop cycles through; the program keeps no cache between calls,
so repeating a query costs what it cost the first time.

The library is called through its module objects (``positional.query``,
not a name bound at import), so a :class:`spans.Tracer` that swaps a
module attribute sees the call.
"""

import inspect
import os

import numpy as np

from pbwtidx import collection, fm, indexfile, positional
from pbwtidx.alphabet import Alphabet

SYMBOLS = np.frombuffer(b"ACGT", dtype=np.uint8)
PATTERN_LENGTHS = (4, 8, 16, 32)
RANDOM_PATTERN_SHARE = 1 / 8


def check_answer(expected: list[int], got) -> bool:
    """True when the program's matches, sorted, equal the expected matches."""
    return sorted(got) == expected


def _string(codes: np.ndarray) -> str:
    return SYMBOLS[codes].tobytes().decode("ascii")


def _lines(codes: np.ndarray) -> str:
    newline = np.full((codes.shape[0], 1), ord("\n"), dtype=np.uint8)
    return np.concatenate([SYMBOLS[codes], newline], axis=1).tobytes().decode("ascii")


def find_all(text: str, pattern: str) -> list[int]:
    """Every start of ``pattern`` in ``text``, overlapping ones included."""
    found, at = [], text.find(pattern)
    while at >= 0:
        found.append(at)
        at = text.find(pattern, at + 1)
    return found


def _index_path(workdir: str, name: str, seed: int) -> str:
    return os.path.join(workdir, f"{name}-seed{seed}-{os.getpid()}.idx")


def _remove(path: str):
    if os.path.exists(path):
        os.remove(path)


def positional_pool(rng, codes: np.ndarray, size: int, strategies, weights):
    """Queries (pattern, k, strategy, expected) over the (n, length) code matrix.

    Lengths are drawn from PATTERN_LENGTHS and positions uniformly; most
    patterns are copied from a random string, the rest are random.
    """
    n, length = codes.shape
    lengths = [m for m in PATTERN_LENGTHS if m <= length]
    columns = np.ascontiguousarray(codes.T)
    pool = []
    for _ in range(size):
        m = int(rng.choice(lengths))
        k = int(rng.integers(0, length - m + 1))
        if rng.random() < RANDOM_PATTERN_SHARE:
            pat = rng.integers(0, 4, m, dtype=np.uint8)
        else:
            pat = codes[int(rng.integers(0, n)), k : k + m]
        strategy = str(rng.choice(strategies, p=weights))
        expected = np.flatnonzero((columns[k : k + m] == pat[:, None]).all(axis=0)).tolist()
        pool.append((_string(pat), k, strategy, expected))
    return pool


class PositionalServe:
    """A panel-like collection, served from an index saved once and loaded once."""

    name = "positional-serve"

    def __init__(self, seed: int, toy: bool, workdir: str):
        n, length, founders, segment = (300, 60, 16, 15) if toy else (20000, 200, 64, 25)
        rng = np.random.default_rng(seed)
        panel = rng.integers(0, 4, (founders, length), dtype=np.uint8)
        pick = rng.integers(0, founders, (n, -(-length // segment)))
        codes = panel[np.repeat(pick, segment, axis=1)[:, :length], np.arange(length)]
        mutated = rng.random((n, length)) < 0.01
        codes[mutated] = (codes[mutated] + rng.integers(1, 4, int(mutated.sum()))) % 4
        self.text = _lines(codes)
        self.chars = n * length
        self.pool = positional_pool(rng, codes, 256 if toy else 4096,
                                    ("backward", "binary", "rebuild"), (0.90, 0.05, 0.05))
        self.path = _index_path(workdir, self.name, seed)
        self.index = None

    def setup(self) -> int:
        self.index = None
        size = indexfile.save_index(positional.build_index(collection.parse_collection(self.text)), self.path)
        self.index = indexfile.load_index(self.path)
        return size

    def run(self, query):
        pattern, k, strategy, _ = query
        return positional.query(self.index, pattern, k, strategy)[1]

    def close(self):
        _remove(self.path)


class Substring:
    """FM count and locate over one uniform text, the calls ``pbwtidx query substring`` makes.

    The set-up saves and loads the index once, like ``pbwtidx build`` followed by a query.
    """

    name = "substring"

    def __init__(self, seed: int, toy: bool, workdir: str):
        size = 600 if toy else 16384
        rng = np.random.default_rng(seed)
        self.text = _string(rng.integers(0, 4, size, dtype=np.uint8))
        self.chars = size
        self.pool = []
        for _ in range(256 if toy else 4096):
            m = int(rng.choice((4, 6, 8, 12)))
            at = int(rng.integers(0, size - m + 1))
            pattern = self.text[at : at + m]
            self.pool.append((pattern, 0, "fm", find_all(self.text, pattern)))
        self.path = _index_path(workdir, self.name, seed)
        self.index = None

    def setup(self) -> int:
        self.index = None
        st = fm.SentinelText(self.text, Alphabet())
        size = indexfile.save_index(fm.fm_build(st, positional.default_stride(st.n)), self.path)
        self.index = indexfile.load_index(self.path)
        return size

    def run(self, query):
        interval = fm.fm_count(self.index, query[0])
        return fm.locate_with_steps(self.index, interval)[0]

    def close(self):
        _remove(self.path)


WORKLOADS = {w.name: w for w in (PositionalServe, Substring)}


def _bound(fn, count):
    """Adapt ``count(counts, arguments, result)``, with the call's arguments by
    parameter name, to the tracer's ``(counts, args, kwargs, result)`` form."""
    signature = inspect.signature(fn)

    def adapted(counts, args, kwargs, result):
        count(counts, signature.bind(*args, **kwargs).arguments, result)

    return adapted


def _count_backward(counts, a, trace):
    # a step whose input interval is already empty is wasted work
    counts["pbwt.backward_steps"] += len(trace) - 1
    counts["pbwt.backward_steps_empty"] += sum(1 for _, iv in trace[:-1] if iv.is_empty)


def _count_rebuild(counts, a, _):
    index, k = a["index"], a["k"]
    above = [c for c in index.policy.stored_columns(index.length) if c >= k]
    counts["permutations.rebuild_columns"] += min(above) - k


def _count_locate(counts, a, _):
    index, rows, k = a["index"], a["interval"].width, a["k"]
    below = [c for c in index.policy.stored_columns(index.length) if c <= k]
    counts["positional.locate.rows"] += rows
    if below:
        counts["positional.locate.walk_steps"] += rows * (k - max(below))


def _count_lf(counts, a, result):
    steps = result[1]
    counts["fm.lf_steps"] += sum(steps)
    counts["fm.hits"] += len(steps)


def _count_bytes(counts, a, blob):
    counts["indexfile.bytes"] = len(blob)


def instrument(tracer):
    """Register a span for each public call the layer metrics split time across.

    Names are ``<module>.<function>`` of the function's home module, and
    each wrapper sits on the module attribute its callers look up: the
    benchmark's own calls, ``build_index``'s calls into ``permutations`` and
    ``pbwt``, ``query``'s calls to the search strategies and ``locate``,
    and ``save_index``/``load_index``'s calls to ``to_bytes``/``from_bytes``.
    ``positional.search_backward`` times ``backward_trace``, which is what
    ``query`` runs for the backward strategy.
    """
    table = [
        (collection, "parse_collection", "collection.parse_collection", None),
        (positional, "build_index", "positional.build_index", None),
        (positional, "build_permutations", "permutations.build_permutations", None),
        (positional, "build_pbwt", "pbwt.build_pbwt", None),
        (positional, "query", "positional.query", None),
        (positional, "backward_trace", "positional.search_backward", _count_backward),
        (positional, "search_binary", "positional.search_binary", None),
        (positional, "search_rebuild", "positional.search_rebuild", _count_rebuild),
        (positional, "rebuild_column", "permutations.rebuild_column", None),
        (positional, "locate", "positional.locate", _count_locate),
        (indexfile, "save_index", "indexfile.save_index", None),
        (indexfile, "load_index", "indexfile.load_index", None),
        (indexfile, "to_bytes", "indexfile.to_bytes", _count_bytes),
        (indexfile, "from_bytes", "indexfile.from_bytes", None),
        (fm, "fm_build", "fm.fm_build", None),
        (fm, "fm_count", "fm.fm_count", None),
        (fm, "locate_with_steps", "fm.locate_with_steps", _count_lf),
    ]
    for module, attr, name, count in table:
        tracer.wrap(module, attr, name, count and _bound(getattr(module, attr), count))
