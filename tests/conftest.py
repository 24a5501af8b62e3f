import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.permutations import radix_sweep

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

# edge shapes: n=1, L=1, a one-symbol alphabet, all-equal strings, periodic strings
EDGE_COLLECTIONS = [
    (["GATTACA"], "ACGT"),
    (["A", "C", "G", "T", "A"], "ACGT"),
    (["AAA", "AAA"], "A"),
    (["GATA"] * 6, "ACGT"),
    (["GATGATGAT", "ATGATGATG", "TGATGATGA"], "ACGT"),
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
    return perm_table(fig1)


@pytest.fixture(scope="session")
def fig1_matrix(fig1):
    return build_matrix(fig1)


@pytest.fixture(scope="session")
def full_index(fig1):
    return px.build_index(fig1, px.StoragePolicy.full())


@pytest.fixture(scope="session")
def demo_fm(alphabet):
    return px.fm_build(px.SentinelText(DEMO_TEXT, alphabet), 5)


def perm_table(col: px.StringCollection) -> np.ndarray:
    """The (length+1, n) int32 table whose row ``j`` is pi_j, from one sweep keeping every column."""
    perms = px.build_permutations(col, range(col.length + 1))[1]
    return np.stack([perms[j] for j in range(col.length + 1)])


def build_matrix(col: px.StringCollection) -> px.PbwtMatrix:
    """The collection's PBWT, assembled from one sweep as ``build_index`` does."""
    return px.build_pbwt(col, px.build_permutations(col, ())[0])


def storage_policies(n: int, length: int) -> list[px.StoragePolicy]:
    """Every policy kind; stride 1 stores every column, a stride past ``length`` only columns 0 and L."""
    strides = {1, 2, 3, px.default_stride(n), length + 1}
    return ([px.StoragePolicy.full(), px.StoragePolicy.no_perms()]
            + [px.StoragePolicy.sampled(t) for t in sorted(strides)])


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

    Starts from nothing, so variables such as ``PYTHONWARNINGS`` set in the
    parent do not leak into the child; only ``PATH``, ``PYTHONPATH`` (the
    directory holding the imported package) and ``extra`` are set.
    """
    return {"PATH": os.defpath, "PYTHONPATH": str(Path(px.__file__).parents[1]), **extra}


def count_sweep_passes(monkeypatch, fail_at=None):
    """The columns that :func:`radix_sweep` has sorted, in order, as ``np.argsort``
    sees them: a sort called from any other frame, such as an LF fill, is not
    counted.  The pass for column ``fail_at`` raises ``MemoryError`` once,
    before it sorts."""
    swept = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code is radix_sweep.__code__:
            j = caller.f_locals["j"]
            if j == fail_at and None not in swept:
                swept.append(None)  # the pass that raised, marked so it raises once
                raise MemoryError
            swept.append(j)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return swept
