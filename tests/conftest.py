import os
import random
from pathlib import Path

import numpy as np
import pytest

import pbwtidx as px

# the running 8x8 example collection
FIG1_STRINGS = [
    "GATTACAT",
    "TAGAGATA",
    "CATCACAT",
    "TACATACA",
    "GATAGATA",
    "TAAAGAGC",
    "ATTACCAT",
    "ACATTACT",
]

# golden permutation matrix: row i, column j = pi_j(i)
PI_MATRIX = [
    [7, 5, 5, 6, 0, 3, 0, 1],
    [6, 3, 7, 5, 2, 7, 2, 3],
    [2, 1, 3, 1, 6, 5, 6, 4],
    [4, 4, 1, 4, 5, 1, 3, 5],
    [0, 2, 6, 3, 1, 4, 7, 0],
    [5, 0, 4, 2, 4, 0, 5, 2],
    [3, 7, 2, 0, 3, 2, 1, 6],
    [1, 6, 0, 7, 7, 6, 4, 7],
]

# golden PBWT matrix for the same collection
PBWT_MATRIX = [
    "TATTTCTT",
    "TCACTCCA",
    "TAGAGCTT",
    "GATAGAGA",
    "CTCAGAAA",
    "GATAAAAC",
    "AATAAAAT",
    "AAATCACT",
]

DEMO_TEXT = "GATTAGATACAT"
DEMO_BWT = "TTTCGGAA$AATA"


@pytest.fixture(scope="session")
def alphabet():
    return px.Alphabet()


@pytest.fixture(scope="session")
def fig1(alphabet):
    return px.from_strings(FIG1_STRINGS, alphabet)


@pytest.fixture(scope="session")
def fig1_perms(fig1):
    return px.build_permutations(fig1)


@pytest.fixture(scope="session")
def fig1_matrix(fig1, fig1_perms):
    return px.build_pbwt(fig1, fig1_perms)


@pytest.fixture(scope="session")
def full_index(fig1):
    return px.build_index(fig1, px.StoragePolicy.full())


@pytest.fixture(scope="session")
def demo_fm(alphabet):
    return px.fm_build(px.SentinelText(DEMO_TEXT, alphabet), 5)


def random_collection(rng: random.Random, max_n=16, max_len=12, max_sigma=4):
    sigma = rng.randint(2, max_sigma)
    symbols = "ACGT"[:sigma] if sigma <= 4 else "".join(chr(ord("A") + i) for i in range(sigma))
    alphabet = px.Alphabet(symbols=symbols)
    n = rng.randint(1, max_n)
    width = rng.randint(1, max_len)
    strings = ["".join(rng.choice(symbols) for _ in range(width)) for _ in range(n)]
    return px.from_strings(strings, alphabet)


def random_text(rng: random.Random, max_len=256, sigma=4):
    symbols = "ACGT"[:sigma]
    alphabet = px.Alphabet(symbols=symbols)
    n = rng.randint(1, max_len)
    return px.SentinelText("".join(rng.choice(symbols) for _ in range(n)), alphabet)


def all_patterns(symbols: str, max_len: int):
    """Every string over ``symbols`` of length 0..max_len, shortest first."""
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [p + c for p in frontier for c in symbols]
        out.extend(frontier)
    return out


def occ(matrix: px.PbwtMatrix, j: int, a: int, i: int) -> int:
    """Occurrences of rank code ``a`` among the first ``i`` rows of column ``j``."""
    return matrix.step(j, a, i) - int(matrix.base[j, a, 0])


def sa_samples(index: px.FmIndex) -> dict[int, int]:
    """Sampled BWT rows mapped to their text positions."""
    rows = np.flatnonzero(index.sampled_pos >= 0)
    return dict(zip(rows.tolist(), index.sampled_pos[rows].tolist()))


def child_env(**extra):
    """Environment for a child Python process that imports the suite's ``pbwtidx``.

    Starts from nothing, so variables such as ``PBWTIDX_BACKEND`` set in the
    parent do not leak into the child; only ``PATH``, ``PYTHONPATH`` (the
    directory holding the imported package) and ``extra`` are set.
    """
    return {"PATH": os.defpath, "PYTHONPATH": str(Path(px.__file__).parents[1]), **extra}
