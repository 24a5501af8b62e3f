"""Agreement between the numba loop kernels and the numpy fallbacks."""

import random

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx import _kernels

from conftest import child_env, random_text


def _random_case(rng):
    sigma = rng.randint(2, 5)
    n = rng.randint(1, 24)
    width = rng.randint(1, 16)
    codes = np.array([[rng.randrange(sigma) for _ in range(width)] for _ in range(n)],
                     dtype=np.uint8)
    return codes, sigma


def test_backend_selected():
    assert _kernels.BACKEND in ("numba", "numpy")
    assert _kernels.warmup() == (3, 2)


def test_radix_sweep_impls_agree():
    rng = random.Random(1)
    for _ in range(30):
        codes, sigma = _random_case(rng)
        seed = np.arange(codes.shape[0], dtype=np.int32)
        a = _kernels.radix_sweep_loops(codes, seed, sigma)
        b = _kernels.radix_sweep_numpy(codes, seed, sigma)
        assert np.array_equal(a, b)


def test_lf_walk_reaches_the_oracle_positions():
    rng = random.Random(5)
    for _ in range(30):
        st = random_text(rng, max_len=64, sigma=rng.randint(1, 4))
        sa = px.naive_sorted_rotations(st.terminated)
        for stride in range(1, 6):
            index = px.fm_build(st, stride)
            rows = np.arange(index.rows, dtype=np.int64)
            pos, steps = _kernels.lf_walk(rows, index.lf, index.sampled_pos)
            assert pos.tolist() == sa
            assert steps.max() < stride


def test_compiled_kernels_match_numpy_when_active():
    if _kernels.BACKEND != "numba":
        pytest.skip("numba backend not active")
    rng = random.Random(4)
    for _ in range(10):
        codes, sigma = _random_case(rng)
        seed = np.arange(codes.shape[0], dtype=np.int32)
        assert np.array_equal(
            _kernels.radix_sweep(codes, seed, sigma),
            _kernels.radix_sweep_numpy(codes, seed, sigma),
        )


def test_numpy_backend_env_flag():
    import subprocess
    import sys

    code = (
        "import pbwtidx, pbwtidx._kernels as k; "
        "assert k.BACKEND == 'numpy'; "
        "col = pbwtidx.from_strings(['GATTACAT', 'TAGAGATA']); "
        "perms = pbwtidx.build_permutations(col); "
        "print(perms[0].tolist())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(PBWTIDX_BACKEND="numpy"),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 1]"
