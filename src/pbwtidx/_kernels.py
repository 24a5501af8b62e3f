"""Hot integer kernels with a numba-compiled path and a pure-numpy fallback.

Backend selection happens once, at import time, from the ``PBWTIDX_BACKEND``
environment variable:

* ``auto`` (default): compile with numba when it is importable, else numpy.
* ``numba``: require numba; raise if it cannot be imported.
* ``numpy``: force the pure-numpy fallbacks.

Both implementations of every kernel stay importable (``*_loops`` for the
numba-compilable loop form, ``*_numpy`` for the vectorized form) so the
benchmark and the agreement tests can compare them directly.

Conventions: string/rotation matrices are (n, L) uint8 rank codes,
permutations are int32, ``occ_tables`` returns int32 rank tables of shape
(width, sigma, n+1), exclusive prefix-count C-arrays are int64.
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


def occ_tables_loops(cols, sigma):
    """Per-column prefix counts: occ[j, a, i] = #a among the first i chars of column j."""
    width, n = cols.shape
    occ = np.zeros((width, sigma, n + 1), np.int32)
    for j in range(width):
        for i in range(n):
            a = cols[j, i]
            for b in range(sigma):
                occ[j, b, i + 1] = occ[j, b, i]
            occ[j, a, i + 1] += 1
    return occ


def occ_tables_numpy(cols, sigma):
    width, n = cols.shape
    occ = np.zeros((width, sigma, n + 1), np.int32)
    hits = cols[:, None, :] == np.arange(sigma, dtype=cols.dtype)[None, :, None]
    np.cumsum(hits, axis=2, dtype=np.int32, out=occ[:, :, 1:])
    return occ


def locate_walk_loops(rows, k, h, cols, c_arrays, occ):
    """Walk each row from column ``k`` back to column ``h`` via single-row backward steps."""
    out = rows.astype(np.int64)
    for j in range(k - 1, h - 1, -1):
        for t in range(out.shape[0]):
            a = cols[j, out[t]]
            out[t] = c_arrays[j, a] + occ[j, a, out[t]]
    return out


def locate_walk_numpy(rows, k, h, cols, c_arrays, occ):
    out = rows.astype(np.int64)
    for j in range(k - 1, h - 1, -1):
        a = cols[j, out]
        out = c_arrays[j, a] + occ[j, a, out]
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


# The LF walk is a data-dependent chase, so the numpy backend runs the loop
# uncompiled.  A lockstep form (one numpy gather per step over every row still
# unsampled) lowered the p99 of locate_with_steps on the substring benchmark's
# queries from 311 to 147 us, but raised the median from 16 to 76 us and the
# mean from 73 to 83 us: 74% of those queries have one to eight hits, whose few
# scalar steps cost less than numpy's per-call overhead.
lf_walk_numpy = lf_walk_loops

_NUMPY_IMPLS = {
    "radix_sweep": radix_sweep_numpy,
    "occ_tables": occ_tables_numpy,
    "locate_walk": locate_walk_numpy,
    "lf_walk": lf_walk_numpy,
}

_LOOP_IMPLS = {
    "radix_sweep": radix_sweep_loops,
    "occ_tables": occ_tables_loops,
    "locate_walk": locate_walk_loops,
    "lf_walk": lf_walk_loops,
}


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
    occ_tables = _jit(occ_tables_loops)
    locate_walk = _jit(locate_walk_loops)
    lf_walk = _jit(lf_walk_loops)
    compiled_impls = {
        "radix_sweep": radix_sweep,
        "occ_tables": occ_tables,
        "locate_walk": locate_walk,
        "lf_walk": lf_walk,
    }
else:
    radix_sweep = radix_sweep_numpy
    occ_tables = occ_tables_numpy
    locate_walk = locate_walk_numpy
    lf_walk = lf_walk_numpy
    compiled_impls = None


def warmup():
    """Trigger JIT compilation of every kernel on toy inputs.

    A no-op on the numpy backend.  Useful before timing, and for the CLI so
    compile time does not land inside a user-visible operation.
    """
    codes = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    seed = np.arange(2, dtype=np.int32)
    table = radix_sweep(codes, seed, 2)
    occ = occ_tables(codes, 2)
    c_arrays = np.zeros((2, 2), np.int64)
    c_arrays[:, 1] = 1
    locate_walk(np.arange(2, dtype=np.int64), 1, 0, codes, c_arrays, occ)
    lf = np.array([1, 0], dtype=np.int64)
    sampled = np.array([-1, 0], dtype=np.int64)
    lf_walk(np.arange(2, dtype=np.int64), lf, sampled)
    return table.shape
