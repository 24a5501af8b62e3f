import re

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.errors import RankOutOfRangeError, UnknownCharacterError


def test_default_ranks(alphabet):
    assert alphabet.rank("A") == 0
    assert alphabet.rank("C") == 1
    assert alphabet.rank("G") == 2
    assert alphabet.rank("T") == 3


def test_unknown_character(alphabet):
    with pytest.raises(UnknownCharacterError):
        alphabet.rank("N")
    with pytest.raises(UnknownCharacterError):
        alphabet.rank(alphabet.sentinel)
    # more or less than one character, non-ASCII ones and what is no str
    for c in ("AC", "", "\xe9", "\u20ac", b"A", 0, None, ["A"]):
        with pytest.raises(UnknownCharacterError, match=re.escape(f"character {c!r} is not in alphabet 'ACGT'")):
            alphabet.rank(c)


def test_char_inverse(alphabet):
    assert alphabet.char(0) == "A"
    assert alphabet.char(2) == "G"
    with pytest.raises(RankOutOfRangeError):
        alphabet.char(4)
    with pytest.raises(RankOutOfRangeError):
        alphabet.char(-1)


@pytest.mark.parametrize("symbols", ["AB", "ACGT", "0123456789", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"])
def test_round_trip_and_order(symbols):
    alphabet = px.Alphabet(symbols=symbols, sentinel="!")
    for a, c in enumerate(symbols):
        assert alphabet.rank(c) == a
        assert alphabet.char(a) == c
    ranks = [alphabet.rank(c) for c in symbols]
    assert ranks == sorted(ranks)
    assert alphabet.sigma == len(symbols)


def test_invalid_construction():
    with pytest.raises(ValueError):
        px.Alphabet(symbols="CA")  # not increasing
    with pytest.raises(ValueError):
        px.Alphabet(symbols="AAC")
    with pytest.raises(ValueError):
        px.Alphabet(symbols="")
    with pytest.raises(ValueError):
        px.Alphabet(symbols="ACGT", sentinel="Z")  # sentinel must sort below symbols
    with pytest.raises(ValueError):
        px.Alphabet(symbols="ACGT", sentinel="$$")
    with pytest.raises(ValueError):
        px.Alphabet(symbols="AC\u20ac")  # the index file stores ASCII symbols


def test_encode_decode(alphabet):
    codes = alphabet.encode("GATTACA")
    assert codes.dtype == np.uint8
    assert codes.tolist() == [2, 0, 3, 3, 0, 1, 0]
    assert alphabet.decode(codes) == "GATTACA"
    assert alphabet.encode("").shape == (0,)


def test_encode_reports_position(alphabet):
    # the leftmost bad character and its column, ASCII or not
    for s, message in (("ACXT", "'X' at column 3"), ("ACGé", "'é' at column 4"),
                       ("XAé", "'X' at column 1"), ("Aé", "'é' at column 2")):
        with pytest.raises(UnknownCharacterError, match=message):
            alphabet.encode(s)


def test_decode_rejects_out_of_range_codes(alphabet):
    assert alphabet.decode([]) == ""
    assert alphabet.decode(np.array([[3, 0], [1, 2]], np.uint8)) == "TACG"
    for bad in ([-1], [0, 4], np.array([2, 255], np.uint8), [0.5], np.array([[1.0, 2.0]])):
        with pytest.raises(RankOutOfRangeError):
            alphabet.decode(bad)
