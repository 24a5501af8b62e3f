"""Hot integer kernels with a numba-compiled path and a pure-numpy fallback.

Backend selection happens once, at import time, from the ``PBWTIDX_BACKEND``
environment variable:

* ``auto`` (default): compile with numba when it is importable, else numpy.
* ``numba``: require numba; raise if it cannot be imported.
* ``numpy``: force the pure-numpy fallbacks.

The backend-selected kernels are ``radix_sweep``, the right-to-left radix
sort that builds the permutations, and ``lf_walk``, the LF walk that locates
substring hits.  Each is written as a loop (``*_loops``), which numba
compiles.  The radix sweep also has a vectorized ``radix_sweep_numpy`` for the
numpy backend, and the agreement tests compare the two forms; the LF walk runs
its loop uncompiled there.  The rank structure and the positional locate walk
(``LfRank`` in :mod:`pbwtidx.pbwt`) are whole-column numpy operations, one
argsort and one bincount per column built and one gather per column walked,
and have no loop form.

Conventions: string/rotation matrices are (n, L) uint8 rank codes,
permutations and LF mappings are int32, text positions are int64.
"""

import os

import numpy as np


def radix_sweep_loops(codes, seed, sigma):
    """Right-to-left radix sort of the rows of ``codes``.

    Returns the (L+1, n) table whose row ``j`` is the permutation sorting the
    row suffixes that start at column ``j``, with row ``L`` equal to ``seed``.
    Each step is a stable counting sort on one column, so ties keep the order
    of the seed permutation.
    """
    n, width = codes.shape
    out = np.empty((width + 1, n), np.int32)
    out[width] = seed
    cursor = np.zeros(sigma, np.int64)
    for j in range(width - 1, -1, -1):
        cursor[:] = 0
        for i in range(n):
            cursor[codes[out[j + 1, i], j]] += 1
        total = 0
        for a in range(sigma):
            freq = cursor[a]
            cursor[a] = total
            total += freq
        for i in range(n):
            s = out[j + 1, i]
            a = codes[s, j]
            out[j, cursor[a]] = s
            cursor[a] += 1
    return out


def radix_sweep_numpy(codes, seed, sigma):
    """Numpy fallback: one stable argsort per column plays the counting sort."""
    n, width = codes.shape
    out = np.empty((width + 1, n), np.int32)
    out[width] = seed
    for j in range(width - 1, -1, -1):
        prev = out[j + 1]
        order = np.argsort(codes[prev, j], kind="stable")
        out[j] = prev[order]
    return out


def lf_walk_loops(rows, lf, sampled_pos):
    """Walk each BWT row backwards until a sampled row; report position and step count.

    ``lf`` is the LF mapping (the row of the rotation one text position
    earlier), and ``sampled_pos[r]`` is the text position of row ``r``'s
    rotation when that position is on the sampling grid, -1 otherwise.
    """
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


def _pick_backend():
    choice = os.environ.get("PBWTIDX_BACKEND", "auto").strip().lower()
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(f"PBWTIDX_BACKEND must be auto, numba, or numpy (got {choice!r})")
    if choice == "numpy":
        return "numpy", None
    try:
        import numba
    except ImportError:
        if choice == "numba":
            raise
        return "numpy", None
    return "numba", numba


BACKEND, _numba = _pick_backend()

if BACKEND == "numba":
    _jit = _numba.njit(cache=True)
    radix_sweep = _jit(radix_sweep_loops)
    lf_walk = _jit(lf_walk_loops)
else:
    radix_sweep = radix_sweep_numpy
    # The LF walk is a data-dependent chase, so the numpy backend runs the
    # loop uncompiled.  A lockstep form (one numpy gather per step over every
    # row still unsampled) lowered the p99 of locate_with_steps on the
    # substring benchmark's queries from 311 to 147 us, but raised the median
    # from 16 to 76 us and the mean from 73 to 83 us: 74% of those queries
    # have one to eight hits, whose few scalar steps cost less than numpy's
    # per-call overhead.
    lf_walk = lf_walk_loops


def warmup():
    """Trigger JIT compilation of both kernels, the radix sweep and the LF walk,
    on toy inputs of the dtypes real calls pass (int32 permutations and LF
    mapping, int64 rows and text positions).

    A no-op on the numpy backend.  Useful before timing, and for the CLI so
    compile time does not land inside a user-visible operation.
    """
    codes = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    seed = np.arange(2, dtype=np.int32)
    table = radix_sweep(codes, seed, 2)
    lf = np.array([1, 0], dtype=np.int32)
    sampled = np.array([-1, 0], dtype=np.int64)
    lf_walk(np.arange(2, dtype=np.int64), lf, sampled)
    return table.shape
