import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.errors import RankOutOfRangeError, UnknownCharacterError


def test_default_ranks(alphabet):
    assert px.alph_rank(alphabet, "A") == 0
    assert px.alph_rank(alphabet, "C") == 1
    assert px.alph_rank(alphabet, "G") == 2
    assert px.alph_rank(alphabet, "T") == 3


def test_unknown_character(alphabet):
    with pytest.raises(UnknownCharacterError):
        px.alph_rank(alphabet, "N")
    with pytest.raises(UnknownCharacterError):
        px.alph_rank(alphabet, alphabet.sentinel)


def test_char_inverse(alphabet):
    assert px.alph_char(alphabet, 0) == "A"
    assert px.alph_char(alphabet, 2) == "G"
    with pytest.raises(RankOutOfRangeError):
        px.alph_char(alphabet, 4)
    with pytest.raises(RankOutOfRangeError):
        px.alph_char(alphabet, -1)


@pytest.mark.parametrize("symbols", ["AB", "ACGT", "0123456789", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"])
def test_round_trip_and_order(symbols):
    alphabet = px.Alphabet(symbols=symbols, sentinel="!")
    for a, c in enumerate(symbols):
        assert px.alph_rank(alphabet, c) == a
        assert px.alph_char(alphabet, a) == c
    ranks = [px.alph_rank(alphabet, c) for c in symbols]
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
