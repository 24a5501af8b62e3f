import random
import tracemalloc

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx import collection
from pbwtidx.alphabet import handed_over
from pbwtidx.errors import (
    EmptyInputError,
    IndexOutOfRangeError,
    PbwtIndexError,
    RaggedCollectionError,
    RankOutOfRangeError,
    UnknownCharacterError,
)

from conftest import FIG1_STRINGS, random_collection


def test_parse_fig1(alphabet):
    text = "\n".join(FIG1_STRINGS) + "\n"
    col = px.parse_collection(text, alphabet)
    assert col.n == 8
    assert col.length == 8
    assert list(col.strings) == FIG1_STRINGS


def test_parse_minimal(alphabet):
    col = px.parse_collection("A\n", alphabet)
    assert (col.n, col.length) == (1, 1)


def test_parse_ragged(alphabet):
    with pytest.raises(RaggedCollectionError):
        px.parse_collection("AC\nACG\n", alphabet)
    # characters are checked up to the first ragged line, and no further
    with pytest.raises(RaggedCollectionError, match="line 2: length 5 differs from length 4 of line 1"):
        px.parse_collection("ACGT\nACGTT\nANGT\n", alphabet)


def test_parse_empty(alphabet):
    with pytest.raises(EmptyInputError):
        px.parse_collection("", alphabet)
    with pytest.raises(EmptyInputError):
        px.parse_collection("\n\n", alphabet)
    with pytest.raises(EmptyInputError, match="no strings"):
        px.from_strings([], alphabet)
    with pytest.raises(EmptyInputError, match="non-empty"):
        px.from_strings([""], alphabet)


def test_parse_unknown_character_reports_line_and_column(alphabet):
    with pytest.raises(UnknownCharacterError, match="line 2"):
        px.parse_collection("ACGT\nACNT\n", alphabet)
    with pytest.raises(UnknownCharacterError, match="column 3"):
        px.parse_collection("ACGT\nACNT\n", alphabet)
    # a line breaks only at LF, CRLF or CR; other control characters are bad characters
    for text, message in ((b"GA\x0cTT\n", r"line 1: character '\\x0c' at column 3"),
                          (b"GATT\x0bACGT\nCCCC\n", r"line 1: character '\\x0b' at column 5"),
                          ("AC\nG\x85\n", r"line 2: character '\\x85' at column 2"),
                          ("AC\u2028GT\n", r"line 1: character '\\u2028' at column 3"),
                          # a foreign character that makes its line ragged is named as a character
                          (b"ACGT\nAC\xc3\xa9T\n", r"line 2: character '\\udcc3' at column 3")):
        with pytest.raises(UnknownCharacterError, match=message):
            px.parse_collection(text, alphabet)


def test_parse_rejects_sentinel(alphabet):
    with pytest.raises(UnknownCharacterError):
        px.parse_collection("AC$T\n", alphabet)


def test_parse_accepts_bytes(alphabet):
    col = px.parse_collection(b"ACGT\nTTTT\n", alphabet)
    assert col.n == 2
    for crlf_or_cr in (b"ACGT\r\nTTTT\r\n", b"ACGT\rTTTT\r", b"\r\nACGT\r\r\nTTTT"):
        assert px.parse_collection(crlf_or_cr, alphabet) == col


def test_suffix(fig1):
    assert px.suffix(fig1, 1, 5) == "ATA"
    assert px.suffix(fig1, 0, 0) == "GATTACAT"
    assert px.suffix(fig1, 3, 8) == ""
    with pytest.raises(IndexOutOfRangeError):
        px.suffix(fig1, 8, 0)
    with pytest.raises(IndexOutOfRangeError):
        px.suffix(fig1, 0, 9)
    with pytest.raises(IndexOutOfRangeError):
        px.suffix(fig1, -1, 0)


def test_serialize_round_trip():
    rng = random.Random(101)
    for _ in range(25):
        col = random_collection(rng)
        text = px.serialize_collection(col)
        again = px.parse_collection(text, col.alphabet)
        assert again.strings == col.strings
        assert px.serialize_collection(again) == text


def test_codes_are_column_major(alphabet, tmp_path):
    text = "\n".join(FIG1_STRINGS) + "\n"
    parsed = px.parse_collection(text, alphabet)
    direct = px.StringCollection(alphabet=alphabet, codes=np.ascontiguousarray(parsed.codes))
    path = str(tmp_path / "fig1.idx")
    px.save_index(px.build_index(parsed), path)
    loaded = px.load_index(path).collection
    for col in (parsed, px.from_strings(FIG1_STRINGS, alphabet), direct, loaded):
        assert col.codes.flags.f_contiguous
        assert col.codes.shape == (8, 8)
        assert list(col.strings) == FIG1_STRINGS


def test_codes_are_checked_and_stored_as_uint8(alphabet):
    fig1 = px.from_strings(FIG1_STRINGS, alphabet)
    for dtype in (np.int64, np.int8, np.uint16):
        col = px.StringCollection(alphabet=alphabet, codes=fig1.codes.astype(dtype))
        assert col.codes.dtype == np.uint8 and col.codes.flags.f_contiguous
        assert col == fig1
        assert px.build_index(col).matrix.cols.tobytes() == px.build_index(fig1).matrix.cols.tobytes()
    assert fig1 != FIG1_STRINGS and fig1.__eq__(FIG1_STRINGS) is NotImplemented
    # only the transpose of a read-only view of a whole bytearray, which the loader and
    # every copy make, is kept without a copy; a caller's array, column-major or not, is copied
    assert px.StringCollection(alphabet=alphabet, codes=fig1.codes).codes is fig1.codes
    for order in "CF":
        caller = np.array(fig1.codes, order=order)
        assert px.StringCollection(alphabet=alphabet, codes=caller).codes is not caller
    handed = np.frombuffer(bytearray(fig1.codes.T.tobytes()), np.uint8).reshape(fig1.length, fig1.n)
    handed.flags.writeable = False
    codes = handed.T
    assert px.StringCollection(alphabet=alphabet, codes=codes).codes is codes
    assert handed_over(px.from_bytes(px.to_bytes(px.build_index(fig1))).collection.codes.T) is not None
    for codes in (np.array([[0, -1]]), np.array([[0, 4]]), np.array([[0, 1]], np.float64)):
        with pytest.raises(RankOutOfRangeError):
            px.StringCollection(alphabet=alphabet, codes=codes)
    for codes in (np.array([0, 1, 2]), np.zeros((2, 2, 2), np.uint8)):
        with pytest.raises(RaggedCollectionError):
            px.StringCollection(alphabet=alphabet, codes=codes)
    with pytest.raises(EmptyInputError):
        px.StringCollection(alphabet=alphabet, codes=np.zeros((0, 3), np.uint8))


def _parsed(text, alphabet):
    """What ``parse_collection`` gives: the collection, or the error's type and text."""
    try:
        return px.parse_collection(text, alphabet)
    except PbwtIndexError as exc:
        return type(exc), str(exc)


def _line_path(monkeypatch, text, alphabet):
    """What ``parse_collection`` gives with the byte path turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(collection, "_parse_rows", lambda *_: None)
        return _parsed(text, alphabet)


def test_the_byte_path_parses_what_from_strings_builds(monkeypatch):
    # a small transpose block puts n on both sides of it: one block, one row
    # short of it, exactly one, one more, and several
    rng = random.Random(3838)
    monkeypatch.setattr(collection, "TRANSPOSE_BYTES", 48)

    def refuse(*_):
        raise AssertionError("the common shape took the line path")

    for symbols in ("A", "01", "ACGNT", "ACDEFGHIKLMNPQRSTVWY"):
        alphabet = px.Alphabet(symbols=symbols)
        for width in (1, 2, 7, 16):
            block = max(1, 48 // width)
            for n in sorted({1, block - 1, block, block + 1, 3 * block + 2} - {0}):
                strings = ["".join(rng.choices(symbols, k=width)) for _ in range(n)]
                expected = px.from_strings(strings, alphabet)
                text = "\n".join(strings) + "\n"
                with monkeypatch.context() as patch:
                    patch.setattr(collection, "from_strings", refuse)
                    for data in (text, text.encode("ascii")):
                        parsed = px.parse_collection(data, alphabet)
                        assert parsed == expected and parsed.strings == tuple(strings), (symbols, width, n)
                        assert parsed.codes.flags.f_contiguous and handed_over(parsed.codes.T) is not None


def test_every_other_shape_takes_the_line_path(monkeypatch, alphabet):
    cases = [
        b"ACGT\rTTTT\r",  # CR
        b"ACGT\r\nTTTT\r\n",  # CRLF
        b"ACGT\nTTTT\r\n",  # CRLF after the first line
        b"ACGT\n\nTTTT\n",  # a blank line
        b"\nACGT\nTTTT\n",  # a blank first line
        b"ACGT\nTTTT\n\n",  # a trailing blank line
        b"ACGT\nTTTT",  # no final newline
        b"ACGT\nTTNT\n",  # a foreign byte
        b"ACGT\nTT$T\n",  # the sentinel
        b"ACGT\nTT\xe9T\n",  # a non-ASCII byte
        "ACGT\nTTéT\n",  # a non-ASCII str
        b"ACG\n\nAC\n",  # ragged, though its length is a multiple of 4 and its last column all newlines
        b"ACGTACG\nTTT\nGGG\n",  # ragged, the same
        b"ACG\nACGTTTT\n",  # ragged: a symbol, not a newline, ends the second row of 4 bytes
        b"ACGT",  # no newline at all
        b"",
        b"\n\n\n",
    ]
    for case in cases:
        forms = [case, case.decode("ascii", "surrogateescape")] if isinstance(case, bytes) else [case]
        for text in forms:
            if isinstance(text, bytes) or text.isascii():
                assert collection._parse_rows(text, alphabet) is None, text
            assert _parsed(text, alphabet) == _line_path(monkeypatch, text, alphabet), text
    ragged = (RaggedCollectionError, "line 2: length 2 differs from length 3 of line 1")
    assert _parsed(b"ACG\n\nAC\n", alphabet) == ragged
    # an alphabet holding a line break: the line path still breaks lines there
    for symbols in ("\nAC", "\rAC"):
        wide = px.Alphabet(symbols=symbols, sentinel="\x00")
        for text in (b"AC\nCA\n", b"AC\rCA\r", b"A\rC\nCA\n"):
            assert collection._parse_rows(text, wide) is None
            assert _parsed(text, wide) == _line_path(monkeypatch, text, wide)
        assert px.parse_collection(b"AC\nCA\n", wide).strings == ("AC", "CA")


def test_the_byte_path_hands_its_codes_over(monkeypatch):
    copies = []
    column_major = collection._column_major

    def counted(*args):
        copies.append(args[:2])
        return column_major(*args)

    monkeypatch.setattr(collection, "_column_major", counted)
    parsed = px.parse_collection(b"GATTACAT\nTAGAGATA\n")
    assert copies == [(2, 8)]  # the byte path's transpose, and no copy by the collection
    owner = handed_over(parsed.codes.T)
    assert owner is not None and len(owner) == 16 and not parsed.codes.flags.writeable


def test_parsing_a_panel_peaks_at_most_at_two_and_a_half_times_its_input():
    rng = np.random.default_rng(3939)
    rows = np.frombuffer(b"ACGT", np.uint8)[rng.integers(0, 4, (20_000, 200), dtype=np.uint8)]
    data = np.hstack([rows, np.full((20_000, 1), ord("\n"), np.uint8)]).tobytes()
    for text in (data, data.decode("ascii")):
        tracemalloc.start()
        try:
            parsed = px.parse_collection(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.codes.shape == (20_000, 200)
        assert peak <= 2.5 * len(data), (type(text).__name__, peak / len(data))
