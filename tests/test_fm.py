import random
import tracemalloc

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx import fm
from pbwtidx.errors import EmptyInputError, IndexOutOfRangeError, PbwtIndexError, UnknownCharacterError
from pbwtidx.fm import count_trace, locate_with_steps, sorted_rotations
from pbwtidx.pbwt import BLOCK, EMPTY, Interval

from conftest import DEMO_BWT, DEMO_TEXT, all_patterns, count_sweep_passes, random_text, sa_samples


def brute_bwt(text: str, sentinel: str = "$") -> str:
    term = text + sentinel
    rotations = sorted(term[p:] + term[:p] for p in range(len(term)))
    return "".join(r[-1] for r in rotations)


def test_sentinel_text_validation(alphabet):
    with pytest.raises(EmptyInputError):
        px.SentinelText("", alphabet)
    with pytest.raises(UnknownCharacterError):
        px.SentinelText("AC$T", alphabet)
    with pytest.raises(UnknownCharacterError):
        px.SentinelText("ACNT", alphabet)
    st = px.SentinelText("ACGT", alphabet)
    assert st.terminated == "ACGT$"
    assert st.n == 4


def test_bwt_demo_text(alphabet):
    assert px.fm_build(px.SentinelText(DEMO_TEXT, alphabet)).bwt == DEMO_BWT


def test_bwt_single_character(alphabet):
    assert px.fm_build(px.SentinelText("A", alphabet)).bwt == "A$"


def test_bwt_periodic_text(alphabet):
    got = px.fm_build(px.SentinelText("GATAGATA", alphabet)).bwt
    assert got == brute_bwt("GATAGATA")
    assert len(got) == 9
    assert got.count("$") == 1


def test_bwt_matches_brute_force_on_random_texts(alphabet):
    rng = random.Random(55)
    for _ in range(40):
        text = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 48)))
        assert px.fm_build(px.SentinelText(text, alphabet)).bwt == brute_bwt(text)


def _oracle_texts(rng):
    """Random texts over 1-4 symbols, plus n=1, all-equal and periodic ones,
    then texts of up to 70 characters whose codes take 1 to 7 bits.  Those
    reach past the prefix that :func:`sorted_rotations` packs into its first
    key: 32 characters at 1 bit, 16 at 2-3 bits, 8 at 4-7 bits."""
    texts = [("A", "A"), ("T", "ACGT"), ("AAAAAAAAAAAAAAAAA", "A"), ("CCCCCCCC", "ACGT"),
             ("GATAGATAGATA", "AGT"), ("ACACACACA", "AC")]
    for _ in range(120):
        st = random_text(rng, max_len=40, sigma=rng.randint(1, 4))
        texts.append((st.text, st.alphabet.symbols))
    for sigma in (1, 2, 7, 20, 60, 70):
        symbols = "".join(map(chr, range(37, 37 + sigma)))
        for _ in range(12):
            texts.append(("".join(rng.choices(symbols, k=rng.randint(1, 70))), symbols))
        piece = "".join(rng.choices(symbols, k=rng.randint(1, 5)))
        texts += [((piece * 70)[: rng.randint(30, 70)], symbols), (symbols[-1] * rng.randint(30, 70), symbols)]
    return [px.SentinelText(text, px.Alphabet(symbols)) for text, symbols in texts]


def test_sorted_rotations_match_oracle():
    for st in _oracle_texts(random.Random(88)):
        assert sorted_rotations(st).tolist() == px.naive_sorted_rotations(st.terminated)


def test_first_key_packs_without_sorting(monkeypatch):
    # a sort per doubling round took 5 sorts for the uniform text and 15 for
    # the all-equal one.  Packing 16 ACGT codes (3 bits each) tells apart
    # every shift of the uniform text; the all-equal one packs 32 codes (1
    # bit) and needs prefixes of n = 16 384 symbols: 9 doublings after that
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kwargs: sorts.append(len(a)) or argsort(a, *args, **kwargs))
    uniform = "".join(random.Random(33).choices("ACGT", k=1 << 14))
    for text, symbols, want in [(uniform, "ACGT", 1), ("A" * (1 << 14), "A", 10)]:
        sorts.clear()
        sa = sorted_rotations(px.SentinelText(text, px.Alphabet(symbols)))
        assert len(sorts) == want
        assert np.array_equal(np.sort(sa), np.arange(len(text) + 1))


def test_sa_samples_match_oracle_suffix_array():
    for st in _oracle_texts(random.Random(89))[:40]:
        sa = px.naive_sorted_rotations(st.terminated)
        for stride in range(1, 6):
            index = px.fm_build(st, stride)
            assert sa_samples(index) == {row: p for row, p in enumerate(sa) if p % stride == 0}
            assert index.text == st.text


def _is_bwt(codes: str) -> bool:
    """Whether ``codes`` is the BWT of some text, by the textbook inversion:
    prepending the BWT to the sorted table n+1 times rebuilds the sorted
    rotations, and the one ending in the sentinel is the candidate text."""
    table = [""] * len(codes)
    for _ in range(len(codes)):
        table = sorted(c + row for c, row in zip(codes, table))
    return any(row.endswith("$") and brute_bwt(row[:-1]) == codes for row in table)


def test_stored_form_is_the_sentinel_row_and_the_other_rows_ranks():
    # the sentinel's row is 1 for a one-character text, n when the text is its
    # largest suffix ("TA"), and in between for the others
    twenty = "ACDEFGHIKLMNPQRSTVWY"
    for text, symbols in [("A", "ACGT"), ("TA", "ACGT"), (DEMO_TEXT, "ACGT"), ("AAAA", "A"), (twenty[::-2], twenty)]:
        index = px.fm_build(px.SentinelText(text, px.Alphabet(symbols)))
        sentinel, ranks = fm.stored_bwt(index)
        assert sentinel == index.bwt.index("$")
        assert ranks.dtype == np.uint8 and ranks.tolist() == [symbols.index(c) for c in index.bwt if c != "$"]
        codes = fm.bwt_from_stored(sentinel, ranks)
        assert codes.dtype == np.uint8 and np.array_equal(codes, index.bwt_codes) and not codes.flags.writeable


def test_fm_index_accepts_exactly_the_bwts():
    # every swap of two BWT rows keeps the symbol counts; the loader must
    # accept exactly the swaps that are the BWT of some text, and read that text
    rng = random.Random(90)
    for _ in range(12):
        st = random_text(rng, max_len=12, sigma=rng.randint(1, 4))
        codes = px.fm_build(st, 1).bwt_codes
        chars = "$" + st.alphabet.symbols
        for i in range(codes.shape[0]):
            for j in range(i + 1, codes.shape[0]):
                swapped = codes.copy()
                swapped[[i, j]] = codes[[j, i]]
                bwt = "".join(chars[c] for c in swapped)
                try:
                    index = px.FmIndex(st.alphabet, swapped, 3)
                except PbwtIndexError:
                    assert not _is_bwt(bwt)
                    continue
                assert _is_bwt(bwt)
                assert index.bwt == bwt == brute_bwt(index.text)


def test_fm_build_hands_over_what_the_constructor_derives():
    # the build reads the text positions off its suffix array; the
    # constructor ranks the LF cycle, with every row a ruler below 2**16 rows
    # and with the ruling set above (the 70 000-character text)
    rng = random.Random(91)
    texts = [("A", "ACGT"), ("AAAAAAAAAAAAAAAAA", "A"), ("CCCCCCCC", "ACGT"), ("GATA" * 9, "ACGT"),
             ("ACACACACA", "AC"), ("".join(rng.choices("ACGT", k=70_000)), "ACGT")]
    texts += [(random_text(rng, max_len=200, sigma=rng.randint(1, 4)).text, "ACGT") for _ in range(20)]
    for text, symbols in texts:
        st = px.SentinelText(text, px.Alphabet(symbols))
        for stride in (1, 3, st.n + 1):
            built = px.fm_build(st, stride)
            ranked = px.FmIndex(st.alphabet, built.bwt_codes.copy(), stride)
            assert built.text == ranked.text == text
            assert np.array_equal(built.sampled_pos, ranked.sampled_pos)
            assert np.array_equal(built.bwt_codes, ranked.bwt_codes)
            assert np.array_equal(built.matrix.lf, ranked.matrix.lf)
    assert fm._ruler_spacing(70_001) > 1


def _brute_lf(codes: list[int]) -> list[int]:
    """Each row's row one text position earlier: its place in the stable sort of the codes."""
    lf = [0] * len(codes)
    for row, r in enumerate(sorted(range(len(codes)), key=codes.__getitem__)):
        lf[r] = row
    return lf


def _walked_text(codes: list[int]) -> list[int] | None:
    """The brute-force inversion: the codes read from row 0 along LF,
    reversed; None when a sentinel comes up before the last step."""
    lf, walked, r = _brute_lf(codes), [], 0
    for _ in range(len(codes) - 1):
        walked.append(codes[r])
        r = lf[r]
    return None if 0 in walked else walked[::-1]


def _rulers(rows: int, g: int) -> set[int]:
    """One ruler in each block of g rows, at an offset hashed from the block's first row."""
    return {start + (start * 0x9E3779B1 >> 16) % min(g, rows - start) for start in range(0, rows, g)}


def _cycle_kinds(codes: list[int], g: int) -> set[str]:
    """Whether the LF cycles other than row 0's hold rulers."""
    lf, seen, kinds, rulers = _brute_lf(codes), set(), set(), _rulers(len(codes), g)
    for start in range(len(lf)):
        cycle, r = [], start
        while r not in seen:
            seen.add(r)
            cycle.append(r)
            r = lf[r]
        if cycle and 0 not in cycle:
            kinds.add("with rulers" if rulers.intersection(cycle) else "without rulers")
    return kinds


def test_ruling_set_accepts_exactly_the_bwts(monkeypatch):
    # BWTs of 300 to 3000 rows with rows swapped or shuffled, ranked with
    # rulers every 2 to 16 rows, against the brute-force decision: invert
    # the codes, transform the text again, compare.  Swapping rows i and i+1
    # swaps their LF values, which cuts the cycle in two; the piece cut off
    # is |sa[i] - sa[i+1]| rows long, so a short one may hold no ruler.
    rng = random.Random(92)
    seen = []
    for case in range(80):
        g = rng.choice([2, 3, 7, 16])
        monkeypatch.setattr(fm, "_ruler_spacing", lambda rows, g=g: g)
        symbols = "ACGT"[: rng.randint(2, 4)] if case % 4 == 1 else "ACGT"[: rng.randint(1, 4)]
        st = px.SentinelText("".join(rng.choices(symbols, k=rng.randint(300, 3000))), px.Alphabet(symbols))
        built = px.fm_build(st, 1)
        codes, sa = built.bwt_codes.copy(), built.sampled_pos
        if case % 4 == 0:
            i, j = rng.sample(range(codes.shape[0]), 2)
            codes[[i, j]] = codes[[j, i]]
        elif case % 4 == 1:
            close = np.flatnonzero((np.abs(np.diff(sa)) < 2 * g) & (codes[1:] != codes[:-1]))
            i = rng.choice(close.tolist()) if close.size else rng.randrange(codes.shape[0] - 1)
            codes[[i, i + 1]] = codes[[i + 1, i]]
        elif case % 4 == 2:
            at = rng.randrange(codes.shape[0] - 8)
            window = codes[at : at + rng.randint(2, 8)]
            window[:] = window[rng.sample(range(window.shape[0]), window.shape[0])]
        seen.append(_cycle_kinds(codes.tolist(), g))
        chars = "$" + symbols
        walked = _walked_text(codes.tolist())
        text = None if walked is None else "".join(chars[c] for c in walked)
        is_bwt = text is not None and brute_bwt(text) == "".join(chars[c] for c in codes)
        try:
            index = px.FmIndex(st.alphabet, codes, 1)
        except PbwtIndexError:
            assert not is_bwt
            continue
        assert is_bwt and index.text == text
        assert sa_samples(index) == dict(enumerate(px.naive_sorted_rotations(text + "$")))
    # each check refuses a case alone: a second cycle that no walker reaches,
    # and one whose rulers the chain from row 0 misses
    assert {"without rulers"} in seen and {"with rulers"} in seen


def test_ruling_set_walk_is_not_lined_up_by_repeats(monkeypatch):
    # a text of g or 2g copies of one piece puts the rows of the copies at
    # each offset into the piece next to each other, and LF keeps a walk on
    # its copy.  Rulers every g-th row fell on the same copies at every
    # offset, so the walk crossed the other copies whole: 6152 gathers for 8
    # copies of 1024 characters at g = 8, against 50 for a uniform text.
    # Count the walk's gathers from lf against a uniform text of the same length.
    class Counted(np.ndarray):
        takes = 0

        def take(self, *args, **kwargs):
            Counted.takes += 1
            return super().take(*args, **kwargs).view(np.ndarray)

    class CountingMatrix(px.PbwtMatrix):
        def fill(self, lo, hi):
            return super().fill(lo, hi).view(Counted)

    monkeypatch.setattr(fm, "PbwtMatrix", CountingMatrix)
    rng = random.Random(93)
    for g in (8, 16):
        monkeypatch.setattr(fm, "_ruler_spacing", lambda rows, g=g: g)
        piece = "".join(rng.choices("ACGT", k=1024))
        for copies in (g, 2 * g):
            steps = {}
            for kind, text in (("repeat", piece * copies), ("uniform", "".join(rng.choices("ACGT", k=1024 * copies)))):
                st = px.SentinelText(text, px.Alphabet())
                codes = px.fm_build(st, 1).bwt_codes.copy()
                Counted.takes = 0
                assert px.FmIndex(st.alphabet, codes, 1).text == text
                steps[kind] = Counted.takes
            assert 0 < steps["repeat"] <= 3 * steps["uniform"], (g, copies, steps)


def test_fm_index_refuses_codes_without_one_sentinel():
    # the LF cycle through row 0 covers every row of each, so only the
    # sentinel count refuses them
    for codes, count in (([2, 1], 0), ([2, 1, 2, 1], 0), ([1, 0, 0], 2), ([1, 0, 2, 0], 2), ([1, 0, 0, 0], 3)):
        with pytest.raises(PbwtIndexError, match=f"not a BWT: they hold {count} sentinels, not 1"):
            px.FmIndex(px.Alphabet("AC"), np.array(codes, np.uint8))


def test_fm_build_memory_is_linear(alphabet):
    # a byte count, not a timer: the comparison sort over materialized
    # rotations peaked at about 260 MB on this text
    rng = random.Random(16384)
    st = px.SentinelText("".join(rng.choice("ACGT") for _ in range(16384)), alphabet)
    tracemalloc.start()
    try:
        px.fm_build(st, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sorted_rotations_ranks_in_place(alphabet):
    # a byte count, not a timer: each rank round keeps at most the key, the
    # order and the rank as int64 beside the sort, 33 B/char measured with
    # numpy 2.4; the int64 run-start mask and a cumsum beside the key and
    # its sorted copy peaked at 48 B/char
    rng = random.Random(2**14)
    st = px.SentinelText("".join(rng.choice("ACGT") for _ in range(2**14)), alphabet)
    tracemalloc.start()
    try:
        sorted_rotations(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * (2**14 + 1)


def test_column_collapse_demo(alphabet, monkeypatch):
    # one sweep, seeded with sorted_rotations' order, sorts each of the
    # size = n + 1 columns once; the check that first swept the shifts from
    # the identity to find that order sorted 2 * size columns
    st = px.SentinelText(DEMO_TEXT, alphabet)
    swept = count_sweep_passes(monkeypatch)
    assert px.verify_column_collapse(st)
    assert swept == list(range(st.n, -1, -1))


def test_column_collapse_single_character(alphabet):
    assert px.verify_column_collapse(px.SentinelText("A", alphabet))


def test_column_collapse_random():
    rng = random.Random(66)
    for _ in range(50):
        sigma = rng.randint(2, 4)
        symbols = "ACGT"[:sigma]
        alphabet = px.Alphabet(symbols=symbols)
        text = "".join(rng.choice(symbols) for _ in range(rng.randint(1, 64)))
        assert px.verify_column_collapse(px.SentinelText(text, alphabet))


def test_column_collapse_fails_against_a_wrong_bwt(alphabet, monkeypatch):
    # the comparison runs: two swapped rows of the sorted order give a BWT no
    # column equals.  Two swapped rows that hold the same BWT symbol leave the
    # BWT right but not the order, which the sweep's pi_0 does not equal
    right = sorted_rotations(px.SentinelText(DEMO_TEXT, alphabet))
    for a, b in ((2, 3), (0, 1)):

        def swapped(st):
            order = right.copy()
            order[[a, b]] = order[[b, a]]
            return order

        assert (DEMO_BWT[a] == DEMO_BWT[b]) == (a == 0)
        monkeypatch.setattr(fm, "sorted_rotations", swapped)
        assert not px.verify_column_collapse(px.SentinelText(DEMO_TEXT, alphabet))


def test_positional_search_over_the_cyclic_shifts_is_the_fm_search():
    # the paper's chain: the BWT is the PBWT of the terminated text's cyclic
    # shifts, so at k = 0 every positional strategy, with its trace, gives
    # fm_count's rows and fm_locate's positions in the same order
    rng = random.Random(19)
    texts = [DEMO_TEXT, "A", "AAAA", "ACAC" * 4] + [random_text(rng, max_len=40).text for _ in range(30)]
    for text in texts:
        fm_index = px.fm_build(px.SentinelText(text, px.Alphabet()), rng.randint(1, 4))
        terminated = text + "$"
        shifts = px.from_strings([terminated[p:] + terminated[:p] for p in range(len(terminated))],
                                 px.Alphabet(symbols="$ACGT", sentinel="!"))
        policy = rng.choice([px.StoragePolicy.full(), px.StoragePolicy.sampled(3), px.StoragePolicy.no_perms()])
        index = px.build_index(shifts, policy)
        at = [rng.randrange(len(text)) for _ in range(12)]
        patterns = ["", *(text[p : p + rng.randint(1, 6)] for p in at), *all_patterns("ACGT", 2)]
        for pattern in patterns:
            interval, trace = px.fm_count(fm_index, pattern), fm.count_trace(fm_index, pattern)
            positions = px.fm_locate(fm_index, interval)
            for strategy in ("backward", "binary", "rebuild"):
                assert px.query(index, pattern, 0, strategy)[:2] == (interval, positions)
            assert [iv for _, iv in px.query(index, pattern, 0, with_trace=True)[2]] == [iv for _, iv in trace]


def test_column_collapse_memory_is_the_sweep_alone():
    # a byte count, not a timer: each column is compared as the sweep makes
    # it and the sweep writes no LF mapping, so the peak is a few size-long
    # arrays: 0.06 MB measured with numpy 2.4, bounded with 8x headroom.  The
    # sweep that also wrote a (size, size) int32 lf peaked at 4.05 MB, and
    # with a (size, size) uint8 matrix of columns beside it at 1.25x that
    text = "".join(random.Random(1000).choice("ACGT") for _ in range(999))
    st = px.SentinelText(text, px.Alphabet())
    tracemalloc.start()
    try:
        assert px.verify_column_collapse(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_fm_build_sampling(demo_fm):
    assert sorted(sa_samples(demo_fm).values()) == [0, 5, 10]
    assert len(sa_samples(demo_fm)) == 3  # ceil(13 / 5)
    assert demo_fm.bwt == DEMO_BWT


def test_fm_build_stride_one_samples_everything(alphabet):
    index = px.fm_build(px.SentinelText(DEMO_TEXT, alphabet), 1)
    samples = sa_samples(index)
    assert len(samples) == index.rows
    starts = sorted_rotations(px.SentinelText(DEMO_TEXT, alphabet)).tolist()
    assert [samples[r] for r in range(index.rows)] == starts
    interval = px.fm_count(index, "TA")
    _, steps = locate_with_steps(index, interval)
    assert steps == [0, 0]


def test_fm_build_rejects_bad_stride(alphabet):
    # a float stride was accepted, and save_index then ended in struct.error;
    # a bool one held stride 1
    st = px.SentinelText(DEMO_TEXT, alphabet)
    for stride in (0, 2.5, 2.0, None, True):
        with pytest.raises(ValueError, match="stride must be an integer >= 1"):
            px.fm_build(st, stride)
    # numpy integers are integer strides
    for stride in (np.int64(5), np.uint32(5)):
        assert px.to_bytes(px.fm_build(st, stride)) == px.to_bytes(px.fm_build(st, 5))


def test_fm_index_rejects_bad_stride(demo_fm):
    # a stride below 1 would sample every row and write a file the loader refuses
    for stride in (0, -3, 2.5, "3", True, False):
        with pytest.raises(ValueError):
            px.FmIndex(demo_fm.alphabet, demo_fm.bwt_codes, stride)


def test_fm_index_repr_does_not_grow_with_the_text(alphabet):
    # the repr printed the whole text: 200 075 characters at n = 200 000
    short, long = (px.fm_build(px.SentinelText("ACGT" * reps, alphabet), 8) for reps in (1, 5000))
    assert len(repr(long)) == len(repr(short)) < 100
    assert short != long


def test_lf_step_is_a_bijection(demo_fm):
    images = set(demo_fm.matrix.lf[0].tolist())
    assert images == set(range(demo_fm.rows))


def test_lf_cycle_spells_text_backwards(demo_fm):
    # starting from the row whose BWT character is the sentinel, LF steps
    # visit every row exactly once and read the terminated text right to left
    start = demo_fm.bwt.index("$")
    term = DEMO_TEXT + "$"
    row = start
    seen = []
    chars = []
    for _ in range(demo_fm.rows):
        seen.append(row)
        chars.append(demo_fm.bwt[row])
        row = int(demo_fm.matrix.lf[0][row])
    assert row == start
    assert len(set(seen)) == demo_fm.rows
    assert "".join(chars) == term[::-1]


def test_lf_step_tiny_text(alphabet):
    index = px.fm_build(px.SentinelText("A", alphabet), 1)
    assert index.matrix.lf[0].tolist() == [1, 0]


def test_fm_count_examples(demo_fm):
    assert px.fm_count(demo_fm, "TA").width == 2
    assert px.fm_count(demo_fm, "ATA").width == 1
    assert px.fm_count(demo_fm, "") == Interval(0, 12)
    assert px.fm_count(demo_fm, "GATTAGATACAT").width == 1
    assert px.fm_count(demo_fm, "CCC") == EMPTY


def test_fm_count_rejects_sentinel_and_unknown(demo_fm):
    # the leftmost bad character is named, with its column as the positional searches give it
    for pattern, message in [("A$", "must not contain the sentinel"), ("$N", "must not contain the sentinel"),
                             ("AXA", "character 'X' at column 2 is not"), ("NB", "character 'N' at column 1 is not"),
                             ("N$", "character 'N' at column 1 is not"),
                             ("A\u00e9", "character '\u00e9' at column 2 is not")]:
        for search in (px.fm_count, count_trace):
            with pytest.raises(UnknownCharacterError, match=message):
                search(demo_fm, pattern)


def test_count_trace_shrinks_monotonically(demo_fm):
    trace = count_trace(demo_fm, "ATA")
    assert trace[0] == (0, Interval(0, 12))
    widths = [iv.width for _, iv in trace]
    assert widths == sorted(widths, reverse=True)


def test_fm_locate_examples(demo_fm):
    assert sorted(px.fm_locate(demo_fm, px.fm_count(demo_fm, "TA"))) == [3, 7]
    assert px.fm_locate(demo_fm, px.fm_count(demo_fm, "ATA")) == [6]
    assert px.fm_locate(demo_fm, EMPTY) == []


def test_fm_locate_rejects_rows_outside_the_index(demo_fm):
    rows = demo_fm.rows
    for interval in (Interval(0, rows), Interval(rows - 1, rows + 3), Interval(-1, 2), Interval(-3, -2)):
        with pytest.raises(IndexOutOfRangeError):
            locate_with_steps(demo_fm, interval)
        with pytest.raises(IndexOutOfRangeError):
            px.fm_locate(demo_fm, interval)
    assert sorted(px.fm_locate(demo_fm, Interval(0, rows - 1))) == list(range(rows))
    assert locate_with_steps(demo_fm, Interval(5, 2)) == ([], [])


def test_fm_locate_refuses_interval_ends_that_are_not_integers(alphabet):
    index = px.fm_build(px.SentinelText("GATTACA", alphabet), 2)
    # Interval(0.5, 2) answered [7, 6, 4]
    for interval in (Interval(0.5, 2), Interval(0, 2.0), Interval(False, 2), Interval(0, np.float64(2))):
        with pytest.raises(IndexOutOfRangeError, match="interval end .* is not an integer"):
            px.fm_locate(index, interval)
    assert px.fm_locate(index, Interval(np.int64(0), np.uint32(2))) == px.fm_locate(index, Interval(0, 2))


def test_fm_locate_step_bound(demo_fm):
    for pattern in ("TA", "ATA", "A", "T", "GAT", ""):
        interval = px.fm_count(demo_fm, pattern)
        positions, steps = locate_with_steps(demo_fm, interval)
        assert all(d < demo_fm.stride for d in steps)
        assert len(positions) == interval.width


def test_fm_matches_oracle_on_random_texts():
    rng = random.Random(77)
    for _ in range(25):
        sigma = rng.randint(2, 4)
        symbols = "ACGT"[:sigma]
        alphabet = px.Alphabet(symbols=symbols)
        text = "".join(rng.choice(symbols) for _ in range(rng.randint(1, 128)))
        st = px.SentinelText(text, alphabet)
        for stride in (1, 2, 4, 8):
            index = px.fm_build(st, stride)
            assert len(sa_samples(index)) == -(-index.rows // stride)
            for _q in range(20):
                m = rng.randint(0, 5)
                pattern = "".join(rng.choice(symbols) for _ in range(m))
                expected = px.naive_substring(text, pattern)
                interval = px.fm_count(index, pattern)
                assert interval.width == len(expected)
                positions, steps = locate_with_steps(index, interval)
                assert sorted(positions) == expected
                assert all(d < stride for d in steps)


def test_fm_count_with_a_rare_symbol_matches_the_oracle():
    """Texts longer than BLOCK in which T is rare (about 1%): a wide interval
    whose BLOCK rows at one end hold no T takes the checkpoint step there."""
    rng = random.Random(21)
    alphabet = px.Alphabet()
    fell_back = 0
    for size in (BLOCK + 1, 300, 1000):
        text = "".join(rng.choices("ACGT", (33, 33, 33, 1), k=size))
        index = px.fm_build(px.SentinelText(text, alphabet), 4)
        calls, step = [], index.matrix.step

        def counted(j, a, i, step=step):
            calls.append(i)
            return step(j, a, i)

        index.matrix.step = counted
        for pattern in all_patterns("ACGT", 3) + [text[at : at + 8] for at in range(0, size - 8, 7)]:
            calls.clear()
            interval = px.fm_count(index, pattern)
            fell_back += bool(calls) and not interval.is_empty
            assert interval == count_trace(index, pattern)[-1][1]
            assert sorted(px.fm_locate(index, interval)) == px.naive_substring(text, pattern)
    assert fell_back
