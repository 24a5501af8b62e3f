import random

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.errors import (EmptyInputError, IndexOutOfRangeError, PbwtIndexError, RankOutOfRangeError,
                            UnknownCharacterError)
from pbwtidx.fm import locate_with_steps
from pbwtidx.pbwt import BLOCK, EMPTY, Interval, invert_pbwt
from pbwtidx.positional import STRATEGIES

from conftest import (EDGE_COLLECTIONS, FIG1_STRINGS, PBWT_MATRIX, all_patterns, build_matrix, occ, perm_table,
                      random_collection, storage_policies)


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
    mat = build_matrix(col)
    for j in range(4):
        assert alphabet.decode(mat.cols[j]) == "AAAAA"


def test_column_content_property():
    rng = random.Random(11)
    for _ in range(25):
        col = random_collection(rng)
        mat = build_matrix(col)
        for j in range(col.length):
            assert sorted(col.alphabet.decode(mat.cols[j])) == sorted(s[j] for s in col.strings)


def test_invert_fig4(fig1, fig1_perms, fig1_matrix):
    keep = list(range(fig1.length + 1))
    codes, lf, perms = invert_pbwt(fig1_matrix.cols, keep)
    assert np.array_equal(codes, fig1.codes)
    assert np.array_equal(lf, fig1_matrix.lf)
    assert list(perms) == keep
    for j in keep:
        assert np.array_equal(perms[j], fig1_perms[j])


def _column_matrices():
    """(cols, alphabet) pairs: the edge shapes n=1, L=1, sigma=1, then random
    shapes, each with random and with equal columns; first, the columns of
    ["GATT", "TAGA", "CATC", "GATA"], which a hand-built index of
    ["GATT", "TAGA", "CATC", "GACA"] once held and answered wrongly from."""
    yield build_matrix(px.from_strings(["GATT", "TAGA", "CATC", "GATA"])).cols, px.Alphabet()
    rng = np.random.default_rng(44)
    shapes = [(1, 1, 1), (1, 6, 4), (7, 1, 3), (5, 4, 1)]
    shapes += [tuple(int(x) for x in rng.integers(1, (31, 13, 5))) for _ in range(150)]
    for n, length, sigma in shapes:
        alphabet = px.Alphabet("ACGT"[:sigma])
        yield rng.integers(0, sigma, (length, n), dtype=np.uint8), alphabet
        yield np.repeat(rng.integers(0, sigma, (length, 1), dtype=np.uint8), n, axis=1), alphabet


def test_every_column_matrix_inverts_to_its_collection():
    """Every in-range column matrix is the PBWT of the collection it inverts
    to: the index made from the columns alone is, part for part and byte for
    byte, the one the build makes from that collection, and every strategy
    answers as the brute-force scan does."""
    rng = random.Random(45)
    for cols, alphabet in _column_matrices():
        length, n = cols.shape
        for policy in storage_policies(n, length):
            index = px.PositionalIndex(alphabet, cols, policy)
            built = px.build_index(index.collection, policy)
            assert index == built and np.array_equal(index.cols, cols)
            assert np.array_equal(index.cols, built.cols)
            assert np.array_equal(index.matrix.lf, built.matrix.lf) and index.matrix.lf.dtype == np.int32
            assert np.array_equal(index.matrix.base, built.matrix.base)
            assert list(index.stored_perms) == list(built.stored_perms)
            for j, pi in built.stored_perms.items():
                assert index.stored_perms[j].dtype == np.int32 and np.array_equal(index.stored_perms[j], pi)
            assert px.to_bytes(index) == px.to_bytes(built)
            strings = index.collection.strings
            for _ in range(2):
                m = rng.randint(1, length)
                k = rng.randint(0, length - m)
                for pattern in (rng.choice(strings)[k : k + m], "".join(rng.choices(alphabet.symbols, k=m))):
                    expected = px.naive_positional(index.collection, pattern, k)
                    for strategy in STRATEGIES:
                        assert sorted(px.query(index, pattern, k, strategy)[1]) == expected


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


def test_checkpoints_are_built_on_the_first_step_and_kept():
    """A build, a save and a load leave the checkpoints unbuilt; the first
    step or read of ``base`` builds them as a plain attribute, which later
    steps and reads find."""
    index = px.build_index(px.from_strings(FIG1_STRINGS))
    loaded = px.from_bytes(px.to_bytes(index))
    fm = px.from_bytes(px.to_bytes(px.fm_build(px.SentinelText("GATTAGATACAT", px.Alphabet()), 5)))
    for matrix in (index.matrix, loaded.matrix, fm.matrix):
        assert "_base" not in vars(matrix)
    px.fm_count(fm, "TA")  # every window holds the symbol: no step
    assert "_base" not in vars(fm.matrix)
    expected = [index.matrix.step(j, a, i) for j in range(8) for a in range(4) for i in range(9)]
    base = vars(index.matrix)["_base"]
    assert [loaded.matrix.step(j, a, i) for j in range(8) for a in range(4) for i in range(9)] == expected
    assert index.matrix.base is base and np.array_equal(vars(loaded.matrix)["_base"], base)
    assert fm.matrix.base is vars(fm.matrix)["_base"]


def test_only_a_read_only_view_of_a_whole_bytearray_is_kept_without_a_copy():
    """The hand-over rule: a read-only, C-ordered uint8 view of a whole
    ``bytearray`` becomes the matrix's ``cols`` as it is.  A writable view,
    a view of ``bytes``, a view of part of a buffer or out of order, and an
    ndarray subclass are copied into ``bytes``, and ``cols`` is a read-only
    ndarray either way."""
    data = bytearray([0, 1, 2, 3, 3, 2, 1, 0])
    handed = np.frombuffer(data, np.uint8).reshape(2, 4)
    handed.flags.writeable = False
    matrix = px.PbwtMatrix(handed, 4)
    assert matrix._bytes is data and matrix.cols is handed
    bwt = bytearray([1, 0])
    bwt_codes = np.frombuffer(bwt, np.uint8)
    bwt_codes.flags.writeable = False
    fm = px.FmIndex(px.Alphabet("A"), bwt_codes)
    assert fm.matrix._bytes is bwt and not fm.bwt_codes.flags.writeable
    codes, frozen = np.frombuffer(data, np.uint8), bytes(data)
    read_only = codes.view()
    read_only.flags.writeable = False
    for view in (codes.reshape(2, 4), np.frombuffer(frozen, np.uint8).reshape(2, 4),
                 read_only[:4].reshape(1, 4), read_only[::-1].reshape(2, 4), read_only.reshape(4, 2).T,
                 read_only.reshape(2, 4).view(type("Subclass", (np.ndarray,), {}))):
        matrix = px.PbwtMatrix(view, 4)
        assert type(matrix._bytes) is bytes and matrix._bytes is not frozen
        assert matrix._bytes == np.ascontiguousarray(view).tobytes() and not matrix.cols.flags.writeable
        assert type(matrix.cols) is np.ndarray
    for codes in (np.frombuffer(bytearray(bwt), np.uint8), np.frombuffer(bytes(bwt), np.uint8)):
        fm = px.FmIndex(px.Alphabet("A"), codes)
        assert type(fm.matrix._bytes) is bytes and not fm.bwt_codes.flags.writeable


def test_indexes_made_from_a_callers_writable_codes_ignore_later_writes(fig1):
    """A matrix or index made from an array its caller can still write
    answers from its own copy: zeroing the array afterwards changes no
    search, locate or decoded BWT."""
    cols = np.frombuffer(bytearray(px.build_index(fig1).cols.tobytes()), np.uint8).reshape(fig1.length, fig1.n)
    matrix = px.PbwtMatrix(cols, fig1.alphabet.sigma)
    indexes = [px.PositionalIndex(fig1.alphabet, cols, policy) for policy in storage_policies(fig1.n, fig1.length)]
    st = px.SentinelText("GATTAGATACAT", px.Alphabet())
    bwt_codes = np.frombuffer(bytearray(px.fm_build(st).bwt_codes.tobytes()), np.uint8)
    fm = px.FmIndex(st.alphabet, bwt_codes, 3)
    cols[:] = 0
    bwt_codes[:] = 0
    perms = perm_table(fig1)
    for pattern in all_patterns("ACGT", 3):
        for k in range(fig1.length - len(pattern) + 1):
            expected = px.naive_positional(fig1, pattern, k)
            ranks = fig1.alphabet.encode(pattern).tobytes()[::-1]
            interval = matrix.backward(range(k + len(pattern) - 1, k - 1, -1), ranks)
            assert sorted(perms[k][interval.f : interval.l + 1].tolist()) == expected
            for index in indexes:
                for strategy in STRATEGIES:
                    assert sorted(px.query(index, pattern, k, strategy)[1]) == expected
        interval = px.fm_count(fm, pattern)
        assert sorted(px.fm_locate(fm, interval)) == px.naive_substring(st.text, pattern)
    assert fm.bwt == "TTTCGGAA$AATA" and fm.text == st.text


def test_built_and_loaded_columns_are_kept_without_a_copy(fig1):
    """The sweep writes the columns into the bytearray that the matrix keeps,
    and the loader unpacks a file's codes into one."""
    for index in (px.build_index(fig1), px.from_bytes(px.to_bytes(px.build_index(fig1))),
                  px.from_bytes(px.to_bytes(px.fm_build(px.SentinelText("GATTAGATACAT", px.Alphabet()), 5)))):
        assert type(index.matrix._bytes) is bytearray
        assert not index.matrix.cols.flags.writeable


def test_lf_rank_walk_composed_with_perms_is_identity():
    """Walking rows from column k to column h through the LF mapping, then
    reading pi_h, gives the strings pi_k names for those rows."""
    rng = random.Random(3)
    for _ in range(30):
        col = random_collection(rng, max_n=24, max_len=16)
        perms = perm_table(col)
        matrix = build_matrix(col)
        k = rng.randint(0, col.length)
        h = rng.randint(0, k)
        rows = np.arange(col.n, dtype=np.int32)
        walked = matrix.walk(rows, k, h)
        assert np.array_equal(perms[h][walked], perms[k][rows])


def test_lf_rank_refuses_codes_outside_the_alphabet():
    with pytest.raises(RankOutOfRangeError, match="rank code 5, not below 4"):
        px.PbwtMatrix(np.array([[0, 5, 1, 0]], np.uint8), 4)
    # a negative code would wrap to 255 in the uint8 columns, a float one truncate
    with pytest.raises(RankOutOfRangeError, match="rank code -1, below 0"):
        px.PbwtMatrix(np.array([[-1, 0, 1]]), 4)
    with pytest.raises(RankOutOfRangeError, match="must be integer rank codes, not float64"):
        px.PbwtMatrix(np.array([[0.5, 0, 1]]), 4)
    for codes in (np.array([1, -1, 0]), np.array([1, 0.5, 0])):
        with pytest.raises(RankOutOfRangeError):
            px.FmIndex(px.Alphabet(), codes)
    # codes of the wrong dimension ended in numpy's "not enough / too many values to unpack"
    for codes in (np.zeros(4, np.uint8), np.zeros((1, 2, 4), np.uint8)):
        with pytest.raises(PbwtIndexError, match=f"must be a \\(width, n\\) matrix, not {codes.ndim}-D"):
            px.PbwtMatrix(codes, 4)
    for codes in (np.uint8(1), np.zeros((2, 4), np.uint8)):
        with pytest.raises(PbwtIndexError, match=f"must be one row, not {codes.ndim}-D"):
            px.FmIndex(px.Alphabet(), codes)
    # a list ended in AttributeError: 'list' object has no attribute 'ndim'
    with pytest.raises(PbwtIndexError, match="must be a numpy array, not list"):
        px.FmIndex(px.Alphabet(), [1, 0])
    with pytest.raises(PbwtIndexError, match="must be a numpy array, not list"):
        px.PbwtMatrix([[0, 1]], 4)
    # the positional index checks its columns before the inversion's uint8
    # scatter would wrap -1 to 255 and 256 to 0, or truncate 0.5 to 0
    refused = [
        (np.zeros(4, np.uint8), PbwtIndexError, "not 1-D"),
        (np.zeros((1, 2, 4), np.uint8), PbwtIndexError, "not 3-D"),
        (np.array([[0.5, 0, 1]]), RankOutOfRangeError, "not float64"),
        (np.array([[1, -1, 0]]), RankOutOfRangeError, "rank code -1, below 0"),
        (np.array([[0, 4, 1]], np.uint8), RankOutOfRangeError, "rank code 4, not below 4"),
        (np.array([[0, 256, 1]], np.int16), RankOutOfRangeError, "rank code 256, not below 4"),
        (np.zeros((3, 0), np.uint8), EmptyInputError, "0 strings of length 3"),
        (np.zeros((0, 3), np.uint8), EmptyInputError, "3 strings of length 0"),
        ([[0, 1]], PbwtIndexError, "must be a numpy array, not list"),
    ]
    for cols, error, message in refused:
        with pytest.raises(error, match=message):
            px.PositionalIndex(px.Alphabet(), cols, px.StoragePolicy.full())


def test_row_counts_beyond_int32_are_refused():
    # a zero-stride view: 2**31 rows without allocating them
    wide = np.broadcast_to(np.uint8(0), (1, 2**31))
    with pytest.raises(PbwtIndexError, match="2147483648 rows do not fit the int32"):
        px.PbwtMatrix(wide, 4)
    with pytest.raises(PbwtIndexError, match="2147483648 rows do not fit the int32"):
        px.FmIndex(px.Alphabet(), wide[0])
    with pytest.raises(PbwtIndexError, match="2147483648 rows do not fit the int32"):
        px.PositionalIndex(px.Alphabet(), wide, px.StoragePolicy.full())


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


def test_backward_step_refuses_interval_ends_that_are_not_integers(full_index):
    # Interval(0, 2.5) ended in a TypeError inside the rank step
    for interval in (Interval(0, 2.5), Interval(0.5, 2), Interval(True, 2), Interval(0, np.float32(2))):
        with pytest.raises(IndexOutOfRangeError, match="interval end .* is not an integer"):
            px.backward_step(full_index, 1, interval, "A")
    expected = px.backward_step(full_index, 1, Interval(0, 2), "A")
    assert px.backward_step(full_index, 1, Interval(np.int64(0), np.uint8(2)), "A") == expected


def test_interval_ends_of_any_integer_width_answer_as_int_ends():
    # l + 1 wrapped at a numpy end's width: on 300 strings, Interval(np.int8(0),
    # np.int8(127)) located 172 rows instead of 128, fm_locate answered [] and
    # backward_step raised a bare OverflowError
    rng = random.Random(2727)
    col = px.from_strings(["".join(rng.choices("ACGT", k=12)) for _ in range(300)])
    fm = px.fm_build(px.SentinelText("".join(rng.choices("ACGT", k=300)), col.alphabet), 4)
    typed = [Interval(np.int8(0), np.int8(127)), Interval(np.uint8(0), np.uint8(255)),
             Interval(np.uint8(200), np.uint8(255))]
    indexes = [px.build_index(col, policy) for policy in
               (px.StoragePolicy.full(), px.StoragePolicy.sampled(5), px.StoragePolicy.no_perms())]
    for interval in typed:
        plain = Interval(int(interval.f), int(interval.l))
        for index in indexes:
            for k in (0, 5, 7, col.length):
                located = px.locate(index, interval, k)
                assert located == px.locate(index, plain, k) and len(located) == plain.width
            for j in (0, 7, col.length - 1):
                for c in "ACGT":
                    assert px.backward_step(index, j, interval, c) == px.backward_step(index, j, plain, c)
        assert locate_with_steps(fm, interval) == locate_with_steps(fm, plain)
        located = px.fm_locate(fm, interval)
        assert located == px.fm_locate(fm, plain) and len(located) == plain.width


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


def test_backward_and_its_trace_match_the_oracle():
    """Every pattern of up to 3 symbols at every position of fig1 and the edge
    collections: n = 1, L = 1, a one-symbol alphabet, the empty pattern."""
    went_empty = set()
    for strings, symbols in [(FIG1_STRINGS, "ACGT"), *EDGE_COLLECTIONS]:
        col = px.from_strings(strings, px.Alphabet(symbols))
        matrix, perms = build_matrix(col), perm_table(col)
        for pattern in all_patterns(symbols, min(3, col.length)):
            m = len(pattern)
            ranks = col.alphabet.encode(pattern).tobytes()[::-1]
            for k in range(col.length - m + 1):
                columns = range(k + m - 1, k - 1, -1)
                trace = matrix.backward_trace(columns, ranks)
                assert matrix.backward(columns, ranks) == trace[-1]
                # after t steps, ranks f..l of pi_j name the strings holding the last t characters at j
                for t, interval in enumerate(trace):
                    j = k + m - t
                    rows = perms[j][interval.f : interval.l + 1].tolist()
                    assert sorted(rows) == px.naive_positional(col, pattern[m - t :], j)
                empty = [t for t, interval in enumerate(trace) if interval.is_empty]
                if empty:
                    assert empty == list(range(empty[0], m + 1)) and trace[-1] == EMPTY
                    went_empty.add("first" if empty[0] == 1 else "last" if empty[0] == m else "middle")
    assert went_empty == {"first", "middle", "last"}


def test_backward_at_the_window_edges_with_a_rare_symbol():
    """n from BLOCK - 1 to 300 strings in which T is rare (about 1%): the
    search steps intervals of width BLOCK - 1, BLOCK and BLOCK + 1, and a
    wide interval whose BLOCK rows at one end hold no T takes :meth:`step`
    at that end, at each end with a T further in."""
    rng = random.Random(21)
    widths, fell_back = set(), set()
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 300):
        col = px.from_strings(["".join(rng.choices("ACGT", (33, 33, 33, 1), k=4)) for _ in range(n)])
        matrix, perms = build_matrix(col), perm_table(col)
        calls, step = [], matrix.step

        def counted(j, a, i, step=step):
            calls.append((j, i))
            return step(j, a, i)

        matrix.step = counted
        for pattern in all_patterns("ACGT", 3)[1:]:
            m = len(pattern)
            ranks = col.alphabet.encode(pattern).tobytes()[::-1]
            for k in range(col.length - m + 1):
                columns = range(k + m - 1, k - 1, -1)
                calls.clear()
                interval = matrix.backward(columns, ranks)
                fallbacks = calls[:]
                trace = matrix.backward_trace(columns, ranks)
                assert interval == trace[-1]
                assert sorted(perms[k][interval.f : interval.l + 1].tolist()) == px.naive_positional(col, pattern, k)
                widths.update(before.width for before in trace[:-1])
                # column j is stepped from trace[t], t = k + m - 1 - j
                for j, i in fallbacks:
                    t = k + m - 1 - j
                    before, after = trace[t], trace[t + 1]
                    assert before.width > BLOCK and i in (before.f, before.l + 1)
                    fell_back.add(("first" if i == before.f else "last", after.is_empty))
    assert {BLOCK - 1, BLOCK, BLOCK + 1} <= widths
    assert {("first", False), ("last", False)} <= fell_back
