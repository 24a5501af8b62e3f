import random

import numpy as np
import pbwtidx as px
from pbwtidx import permutations, positional
from pbwtidx.permutations import pass_digits, rebuild_column
from pbwtidx.positional import STRATEGIES

from conftest import PI_MATRIX, build_matrix, perm_table, random_collection


def test_fig1_matrix(fig1_perms):
    assert fig1_perms.dtype == np.int32 and fig1_perms.shape == (9, 8)
    for i in range(8):
        for j in range(8):
            assert int(fig1_perms[j][i]) == PI_MATRIX[i][j]


def test_fig1_pi5(fig1_perms):
    assert fig1_perms[5].tolist() == [3, 7, 5, 1, 4, 0, 2, 6]


def test_last_column_is_identity(fig1_perms):
    assert fig1_perms[8].tolist() == list(range(8))


def test_single_string(alphabet):
    col = px.from_strings(["A"], alphabet)
    perms = perm_table(col)
    assert perms[0].tolist() == [0]
    assert perms[1].tolist() == [0]


def test_columns_are_handed_over_read_only(fig1):
    cols = px.build_permutations(fig1, ())[0]
    assert not cols.flags.writeable and cols.flags.c_contiguous and cols.dtype == np.uint8
    assert px.build_pbwt(fig1, cols).cols is cols


def test_column_counts_fig1(fig1, fig1_matrix):
    # PBWT column 4 is TTGGGAAC, i.e. 2 A, 1 C, 3 G, 2 T; the C-arrays are
    # the first checkpoint of PbwtMatrix.base and the column totals its last
    base = fig1_matrix.base
    assert (base[4, :, -1] - base[4, :, 0]).tolist() == [2, 1, 3, 2]
    assert base[4, :, 0].tolist() == [0, 2, 3, 6]
    assert base[2, fig1.alphabet.rank("T"), 0] == 4


def test_column_counts_unary(alphabet):
    col = px.from_strings(["AAAA"] * 6, alphabet)
    base = build_matrix(col).base
    assert base[2, :, 0].tolist() == [0, 6, 6, 6]
    assert (base[2, :, -1] - base[2, :, 0]).tolist() == [6, 0, 0, 0]


def _comparison_sorted(col, j):
    """Independent oracle: comparison sort of suffix indexes, ties by string index."""
    return sorted(range(col.n), key=lambda i: (col.strings[i][j:], i))


def test_matches_comparison_sort_oracle():
    rng = random.Random(202)
    for _ in range(40):
        col = random_collection(rng, max_n=32, max_len=32)
        perms = perm_table(col)
        for j in range(col.length + 1):
            assert perms[j].tolist() == _comparison_sorted(col, j)


def test_permutation_and_sortedness_properties():
    rng = random.Random(303)
    for _ in range(40):
        col = random_collection(rng)
        perms = perm_table(col)
        for j in range(col.length + 1):
            column = perms[j]
            assert sorted(column.tolist()) == list(range(col.n))
            suffixes = [px.suffix(col, int(i), j) for i in column]
            assert suffixes == sorted(suffixes)
            # ties resolve to ascending string index
            for a, b in zip(column, column[1:]):
                if px.suffix(col, int(a), j) == px.suffix(col, int(b), j):
                    assert a < b


def test_fig3_tie_break(fig1_perms):
    # equal suffixes ATA (strings 1, 4) and CAT (0, 2, 6) keep ascending order in pi_5
    column = fig1_perms[5].tolist()
    assert [x for x in column if x in (1, 4)] == [1, 4]
    assert [x for x in column if x in (0, 2, 6)] == [0, 2, 6]


def _edge_collections():
    """Collections that stress the wide-digit passes of ``rebuild_column``.

    Each is built straight from C-ordered codes, as a caller holding a
    row-major matrix would build it.
    """
    np_rng = np.random.default_rng(505)

    def direct(symbols, codes):
        return px.StringCollection(alphabet=px.Alphabet(symbols=symbols, sentinel="\x1b"),
                                   codes=np.ascontiguousarray(codes, dtype=np.uint8))

    yield direct("A", np.zeros((1, 1)))
    yield direct("A", np.zeros((7, 30)))
    yield direct("ACGT", np.full((9, 33), 2))
    # periodic: every string repeats one period, from several phases
    yield direct("ACG", (np.arange(40)[None, :] + np.arange(12)[:, None]) % 3)
    yield direct("ACGT", np.tile(np_rng.integers(0, 4, (5, 6)), (3, 5)))
    # n at and just past a power of two moves the rank field by one bit
    for b in (1, 4, 8):
        for n in (2**b, 2**b + 1):
            yield direct("ACGT", np_rng.integers(0, 4, (n, 40)))
            yield direct("AC", np_rng.integers(0, 2, (n, 70)))
    # 5-8 symbols: 3-bit codes, two to a byte with two bits left over; 9-16
    # symbols: 4-bit codes, two to a byte
    for sigma in (5, 8, 9, 16):
        yield direct("ABCDEFGHIJKLMNOP"[:sigma], np_rng.integers(0, sigma, (40, 50)))
    # n = 9 leaves 4 rank bits, so a 14-column span fills a uint32 key
    # exactly and a 15-column one needs a uint64
    yield direct("ACGT", np_rng.integers(0, 4, (9, 24)))
    # sigma = 100: 7 bits per symbol leave 7 columns per pass beside 9 rank bits
    symbols = "".join(chr(c) for c in range(28, 128))
    yield direct(symbols, np_rng.integers(0, 100, (300, 45)))
    yield direct(symbols, np_rng.integers(0, 3, (300, 45)))


def test_rebuild_column_matches_full_table():
    rng = random.Random(404)
    collections = [random_collection(rng) for _ in range(20)] + list(_edge_collections())
    for col in collections:
        perms = perm_table(col)
        for j_start in range(col.length + 1):
            for j_target in range(j_start + 1):
                # a rebuild to its own start reads no digits, and an empty span has none
                digits = pass_digits(col, perms[j_start], j_start, j_target) if j_target < j_start else None
                got = rebuild_column(col, perms[j_start], j_start, j_target, digits)
                assert got.dtype == np.int32
                assert np.array_equal(got, perms[j_target]), (col.n, col.length, j_start, j_target)


def test_rebuild_column_reads_digits_wider_than_its_pass():
    # digits from column 0 up span every column a first pass can cross, so
    # each rebuild masks them down to its own span, and uint64 digits meet
    # uint32 keys where the target lies close to the start
    rng = random.Random(405)
    collections = [random_collection(rng) for _ in range(20)] + list(_edge_collections())
    for col in collections:
        perms = perm_table(col)
        sym_bits, _, width = permutations._pass_shape(col)
        for j_start in range(1, col.length + 1):
            digits = pass_digits(col, perms[j_start], j_start, 0)
            wide = min(j_start, width) * sym_bits > 32
            assert digits.shape == (col.n,) and digits.dtype == (np.uint64 if wide else np.uint32)
            for j_target in range(j_start):
                got = rebuild_column(col, perms[j_start], j_start, j_target, digits)
                assert np.array_equal(got, perms[j_target]), (col.n, col.length, j_start, j_target)


def _digit_policies():
    return [px.StoragePolicy.full(), *map(px.StoragePolicy.sampled, range(1, 6)), px.StoragePolicy.no_perms()]


def test_rebuild_queries_keep_one_block_of_digits_per_stored_column():
    # in shuffled order, cold and warm, built and loaded: every rebuild
    # answers as the oracle and rebuilds pi_k, and the digits kept are one
    # block for each stored column with an unstored column just below it
    rng = random.Random(606)
    collections = [random_collection(rng) for _ in range(8)] + list(_edge_collections())
    for col in collections:
        perms = perm_table(col)
        cases = []
        for k in range(col.length):
            pattern = col.strings[rng.randrange(col.n)][k : k + rng.randint(1, min(3, col.length - k))]
            cases.append((k, pattern, px.naive_positional(col, pattern, k)))
        for policy in _digit_policies():
            stored = policy.stored_columns(col.length)
            kept = {c for c in stored if c and c - 1 not in stored}
            built = px.build_index(col, policy)
            for index in (built, px.from_bytes(px.to_bytes(built))):
                for _ in ("cold", "warm"):
                    rng.shuffle(cases)
                    for k, pattern, expected in cases:
                        h, pi_k = positional._pi_source(index, k, rebuild=True)
                        assert h == k and np.array_equal(pi_k, perms[k]), (policy, k)
                        assert sorted(px.query(index, pattern, k, "rebuild")[1]) == expected, (policy, k)
                    assert set(index.rebuild_digits) == kept, policy
            assert built == px.from_bytes(px.to_bytes(built))  # equality compares no digits


def test_only_rebuild_queries_keep_digits(tmp_path):
    # a build, a save, a load and backward or binary queries at every
    # position keep none while column 0 is stored.  Under `none` no column
    # lies at or below any position, so the first query of any strategy
    # rebuilds pi_k from pi_L and keeps the digits of pi_L alone
    rng = random.Random(707)
    for col in [random_collection(rng) for _ in range(6)] + list(_edge_collections())[:3]:
        for policy in _digit_policies():
            kept = {col.length} if policy.kind == "none" else set()
            built = px.build_index(col, policy)
            px.save_index(built, tmp_path / "x.idx")
            for index in (built, px.load_index(tmp_path / "x.idx")):
                for k in range(col.length):
                    pattern = col.strings[0][k : k + 1]
                    for strategy in ("backward", "binary"):
                        assert sorted(px.query(index, pattern, k, strategy)[1]) == px.naive_positional(col, pattern, k)
                        assert set(index.rebuild_digits) == kept, (policy, strategy)
                    positional.backward_trace(index, pattern, k)
            if policy.kind == "none":
                for strategy in STRATEGIES:
                    index = px.load_index(tmp_path / "x.idx")
                    k = rng.randrange(col.length)
                    pattern = col.strings[rng.randrange(col.n)][k : k + 1]
                    assert sorted(px.query(index, pattern, k, strategy)[1]) == px.naive_positional(col, pattern, k)
                    assert set(index.rebuild_digits) == kept, strategy


def test_a_second_rebuild_from_a_column_packs_no_first_pass(monkeypatch):
    spans = []
    packed_span = permutations._packed_span

    def record(codes, lo, hi, sym_bits, key):
        spans.append((lo, hi))
        return packed_span(codes, lo, hi, sym_bits, key)

    monkeypatch.setattr(permutations, "_packed_span", record)
    np_rng = np.random.default_rng(808)
    hundred = "".join(chr(c) for c in range(28, 128))
    # ACGT at stride 9: one pass per rebuild; sigma = 100 at stride 20: 7
    # columns per pass, so packed passes follow the one from digits
    for symbols, stride in (("ACGT", 9), (hundred, 20)):
        alphabet = px.Alphabet(symbols=symbols, sentinel="\x1b")
        col = px.StringCollection(alphabet=alphabet, codes=np_rng.integers(0, alphabet.sigma, (300, 45), np.uint8))
        index = px.build_index(col, px.StoragePolicy.sampled(stride))
        width = permutations._pass_shape(col)[2]
        lo, c = stride + 1, 2 * stride
        spans.clear()
        positional._pi_source(index, lo + 1, rebuild=True)
        assert list(index.rebuild_digits) == [c]
        assert [span for span in spans if span[1] == c] == [(max(lo, c - width), c)]
        spans.clear()
        perms = perm_table(col)
        for k in range(lo, c):
            assert np.array_equal(positional._pi_source(index, k, rebuild=True)[1], perms[k])
        assert all(hi < c for _, hi in spans) and bool(spans) == (c - lo > width), spans
        assert list(index.rebuild_digits) == [c]
        # under `none` every query that reads pi_k rebuilds it from pi_L: the
        # first, of any strategy, packs the first pass, and no later one does
        length = col.length
        for first in STRATEGIES:
            index = px.build_index(col, px.StoragePolicy.no_perms())
            spans.clear()
            px.query(index, col.strings[0][lo : lo + 3], lo, first)
            assert list(index.rebuild_digits) == [length]
            assert [span for span in spans if span[1] == length] == [(length - width, length)], first
            spans.clear()
            for k in range(0, length - 2, 5):
                pattern = col.strings[k][k : k + 3]
                for strategy in STRATEGIES:
                    assert sorted(px.query(index, pattern, k, strategy)[1]) == px.naive_positional(col, pattern, k)
            assert all(hi < length for _, hi in spans), (first, spans)
            assert list(index.rebuild_digits) == [length]
