import random

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.alphabet import handed_over
from pbwtidx.errors import (
    EmptyInputError,
    IndexOutOfRangeError,
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
    # only the transpose of a read-only view of a whole bytearray, which the loader
    # makes, is kept without a copy; a caller's array, column-major or not, is copied
    assert px.StringCollection(alphabet=alphabet, codes=fig1.codes).codes is not fig1.codes
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
