import random

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.errors import IndexOutOfRangeError, PbwtIndexError, RankOutOfRangeError, UnknownCharacterError
from pbwtidx.pbwt import BLOCK, EMPTY, Interval, invert_pbwt

from conftest import PBWT_MATRIX, occ, random_collection


def test_fig4_matrix(fig1_matrix, alphabet):
    for i in range(8):
        row = "".join(alphabet.decode(fig1_matrix.cols[j])[i] for j in range(8))
        assert row == PBWT_MATRIX[i]


def test_fig4_named_columns(fig1_matrix, alphabet):
    assert alphabet.decode(fig1_matrix.cols[4]) == "TTGGGAAC"
    assert alphabet.decode(fig1_matrix.cols[5]) == "CCCAAAAA"


def test_defining_identity(fig1, fig1_perms, fig1_matrix):
    for j in range(fig1.length):
        pi_next = fig1_perms[j + 1]
        expected = "".join(fig1.strings[int(pi_next[i])][j] for i in range(fig1.n))
        assert fig1.alphabet.decode(fig1_matrix.cols[j]) == expected


def test_unary_collection(alphabet):
    col = px.from_strings(["AAAA"] * 5, alphabet)
    mat = px.build_pbwt(col, px.build_permutations(col))
    for j in range(4):
        assert alphabet.decode(mat.cols[j]) == "AAAAA"


def test_column_content_property():
    rng = random.Random(11)
    for _ in range(25):
        col = random_collection(rng)
        mat = px.build_pbwt(col, px.build_permutations(col))
        for j in range(col.length):
            assert sorted(col.alphabet.decode(mat.cols[j])) == sorted(s[j] for s in col.strings)


def test_invert_fig4(fig1, fig1_perms, fig1_matrix):
    keep = list(range(fig1.length + 1))
    codes, perms = invert_pbwt(fig1_matrix, keep)
    assert np.array_equal(codes, fig1.codes)
    assert list(perms) == keep
    for j in keep:
        assert np.array_equal(perms[j], fig1_perms[j])


def test_every_column_matrix_inverts_to_its_collection():
    """Every in-range column matrix is the PBWT of the collection it inverts
    to, with the permutations the inversion passes through."""
    rng = np.random.default_rng(44)
    # edge shapes first: n=1, L=1, sigma=1, then random shapes
    shapes = [(1, 1, 1), (1, 6, 4), (7, 1, 3), (5, 4, 1)]
    shapes += [tuple(int(x) for x in rng.integers(1, (31, 13, 5))) for _ in range(150)]
    for n, length, sigma in shapes:
        random_cols = rng.integers(0, sigma, (length, n), dtype=np.uint8)
        equal_cols = np.repeat(rng.integers(0, sigma, (length, 1), dtype=np.uint8), n, axis=1)
        alphabet = px.Alphabet("ACGT"[:sigma])
        for cols in (random_cols, equal_cols):
            keep = list(range(length + 1))
            codes, perms = invert_pbwt(px.PbwtMatrix(cols, sigma), keep)
            collection = px.StringCollection(alphabet=alphabet, codes=codes)
            index = px.build_index(collection, px.StoragePolicy.full())
            assert np.array_equal(index.matrix.cols, cols)
            for j in keep:
                assert np.array_equal(perms[j], index.stored_perms[j])


def test_rank_query_examples(fig1_matrix, alphabet):
    assert occ(fig1_matrix, 4, alphabet.rank("G"), 5) == 3
    for a in range(alphabet.sigma):
        assert occ(fig1_matrix, 4, a, 0) == 0
    assert occ(fig1_matrix, 5, alphabet.rank("A"), 8) == 5


def test_rank_scan_equivalence():
    rng = random.Random(22)
    for _ in range(15):
        sigma = rng.randint(2, 4)
        n = rng.randint(1, 200)
        codes = [rng.randrange(sigma) for _ in range(n)]
        matrix = px.PbwtMatrix(np.array([codes], dtype=np.uint8), sigma)
        for a in range(sigma):
            for i in range(n + 1):
                assert occ(matrix, 0, a, i) == codes[:i].count(a)


def _lf_rank_cases():
    """(cols, sigma) pairs: the edge shapes, then shapes around the 64-row blocks."""
    rng = np.random.default_rng(66)
    cases = [(np.zeros((1, 1), np.uint8), 1)]
    for n in (63, 64, 65, 127, 128, 129):
        rows = np.arange(n)
        cases += [
            (rng.integers(0, 4, (3, n), dtype=np.uint8), 4),
            (np.full((2, n), 2, np.uint8), 4),  # all-equal, with symbols absent
            (np.stack([rows % 2, rows % 3, rows // 7 % 4]).astype(np.uint8), 4),  # periodic
        ]
    # the substring index's columns: sentinel 0 plus sigma symbols
    for text in ("G", "ACGT" * 16, "A" * 64, "GATTACA" * 9, "TTAG" * 32 + "C"):
        index = px.fm_build(px.SentinelText(text, px.Alphabet()))
        cases.append((index.matrix.cols, index.alphabet.sigma + 1))
    return cases


def test_lf_rank_matches_brute_force():
    for cols, sigma in _lf_rank_cases():
        width, n = cols.shape
        matrix = px.PbwtMatrix(cols, sigma)
        assert matrix.lf.dtype == matrix.base.dtype == np.int32
        assert matrix.base.shape == (width, sigma, n // BLOCK + 2)
        for j, column in enumerate(cols.tolist()):
            # counts[a][i] = #a among the first i characters, counted one row at a time
            counts = [[0] * (n + 1) for _ in range(sigma)]
            for i, c in enumerate(column):
                for a in range(sigma):
                    counts[a][i + 1] = counts[a][i] + (c == a)
            c_array = [sum(counts[b][n] for b in range(a)) for a in range(sigma)]
            assert matrix.lf[j].tolist() == [c_array[c] + counts[c][r] for r, c in enumerate(column)]
            assert sorted(matrix.lf[j].tolist()) == list(range(n))
            for a in range(sigma):
                checkpoints = [c_array[a] + counts[a][min(b * BLOCK, n)] for b in range(n // BLOCK + 2)]
                assert matrix.base[j, a].tolist() == checkpoints
                assert [matrix.step(j, a, i) for i in range(n + 1)] == [c_array[a] + x for x in counts[a]]
                assert [occ(matrix, j, a, i) for i in range(n + 1)] == counts[a]


def test_lf_rank_walk_composed_with_perms_is_identity():
    """Walking rows from column k to column h through the LF mapping, then
    reading pi_h, gives the strings pi_k names for those rows."""
    rng = random.Random(3)
    for _ in range(30):
        col = random_collection(rng, max_n=24, max_len=16)
        perms = px.build_permutations(col)
        matrix = px.build_pbwt(col, perms)
        k = rng.randint(0, col.length)
        h = rng.randint(0, k)
        rows = np.arange(col.n, dtype=np.int32)
        walked = matrix.walk(rows, k, h)
        assert np.array_equal(perms[h][walked], perms[k][rows])


def test_lf_rank_refuses_codes_outside_the_alphabet():
    with pytest.raises(RankOutOfRangeError, match="rank code 5, not below 4"):
        px.PbwtMatrix(np.array([[0, 5, 1, 0]], np.uint8), 4)


def test_row_counts_beyond_int32_are_refused():
    # a zero-stride view: 2**31 rows without allocating them
    wide = np.broadcast_to(np.uint8(0), (1, 2**31))
    with pytest.raises(PbwtIndexError, match="2147483648 rows do not fit the int32"):
        px.PbwtMatrix(wide, 4)
    with pytest.raises(PbwtIndexError, match="2147483648 rows do not fit the int32"):
        px.FmIndex(px.Alphabet(), wide[0])


def test_interval_normalization():
    assert Interval(3, 2) == EMPTY
    assert Interval(3, 2).is_empty
    assert EMPTY.width == 0
    iv = Interval(2, 5)
    assert not iv.is_empty
    assert iv.width == 4


def test_backward_step_worked_example(full_index):
    assert px.backward_step(full_index, 5, Interval(0, 7), "A") == Interval(0, 4)
    assert px.backward_step(full_index, 4, Interval(0, 4), "G") == Interval(3, 5)
    assert px.backward_step(full_index, 3, Interval(3, 5), "A") == Interval(1, 3)


def test_backward_step_empty_absorbing(full_index):
    assert px.backward_step(full_index, 3, EMPTY, "A") == EMPTY


def test_backward_step_errors(full_index):
    with pytest.raises(UnknownCharacterError):
        px.backward_step(full_index, 3, Interval(0, 7), "N")
    with pytest.raises(IndexOutOfRangeError):
        px.backward_step(full_index, 8, Interval(0, 7), "A")
    with pytest.raises(IndexOutOfRangeError):
        px.backward_step(full_index, 3, Interval(0, 8), "A")


def _binary_interval(col, perms, pattern, k):
    """Independent check: bisect over suffixes sorted by pi_k."""
    import bisect

    order = perms[k]
    m = len(pattern)
    keys = [col.strings[int(i)][k : k + m] for i in order]
    lo = bisect.bisect_left(keys, pattern)
    hi = bisect.bisect_right(keys, pattern) - 1
    if lo > hi:
        return EMPTY
    return Interval(lo, hi)


def test_backward_matches_sorted_order_exhaustively():
    rng = random.Random(33)
    for _ in range(25):
        col = random_collection(rng, max_n=16, max_len=8)
        index = px.build_index(col, px.StoragePolicy.full())
        perms = index.stored_perms
        symbols = col.alphabet.symbols
        for _q in range(30):
            m = rng.randint(1, min(4, col.length))
            k = rng.randint(0, col.length - m)
            pattern = "".join(rng.choice(symbols) for _ in range(m))
            interval = Interval(0, col.n - 1)
            for t in range(m - 1, -1, -1):
                interval = px.backward_step(index, k + t, interval, pattern[t])
            assert interval == _binary_interval(col, perms, pattern, k)
