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
    with pytest.raises(UnknownCharacterError, match="column 3"):
        alphabet.encode("ACXT")
    with pytest.raises(UnknownCharacterError):
        alphabet.encode("ACGé")
