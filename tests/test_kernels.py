"""The two hot loops, the radix sweep and the LF walk, against references."""

import random
import subprocess
import sys

import numpy as np

import pbwtidx as px
from pbwtidx.fm import _lf_walk
from pbwtidx.permutations import radix_sweep

from conftest import child_env, random_text


def radix_sweep_loops(codes, seed, sigma):
    """Reference for :func:`radix_sweep`: one stable counting sort per column, right to left."""
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


def _random_case(rng):
    sigma = rng.randint(2, 5)
    n = rng.randint(1, 24)
    width = rng.randint(1, 16)
    codes = np.array([[rng.randrange(sigma) for _ in range(width)] for _ in range(n)],
                     dtype=np.uint8)
    return codes, sigma


def test_radix_sweep_impls_agree():
    rng = random.Random(1)
    for _ in range(30):
        codes, sigma = _random_case(rng)
        seed = np.arange(codes.shape[0], dtype=np.int32)
        # a shuffled seed checks that ties keep the seed's order
        shuffled = np.array(rng.sample(range(codes.shape[0]), codes.shape[0]), dtype=np.int32)
        for s in (seed, shuffled):
            assert np.array_equal(radix_sweep(codes, s, sigma), radix_sweep_loops(codes, s, sigma))


def test_lf_walk_reaches_the_oracle_positions():
    rng = random.Random(5)
    for _ in range(30):
        st = random_text(rng, max_len=64, sigma=rng.randint(1, 4))
        sa = px.naive_sorted_rotations(st.terminated)
        for stride in range(1, 6):
            index = px.fm_build(st, stride)
            rows = np.arange(index.rows, dtype=np.int64)
            pos, steps = _lf_walk(rows, index.matrix.lf[0], index.sampled_pos)
            assert pos.tolist() == sa
            assert steps.max() < stride


def test_numpy_backend_env_flag():
    # PBWTIDX_BACKEND is no longer read: asking for numba neither fails nor changes the kernels
    code = (
        "import pbwtidx; "
        "assert pbwtidx.kernel_backend == 'numpy'; "
        "col = pbwtidx.from_strings(['GATTACAT', 'TAGAGATA']); "
        "perms = pbwtidx.build_permutations(col); "
        "print(perms[0].tolist())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(PBWTIDX_BACKEND="numba"),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 1]"
