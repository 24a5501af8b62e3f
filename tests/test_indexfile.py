import random
import struct
import zlib

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.errors import PbwtIndexError
from pbwtidx.fm import locate_with_steps

from conftest import (DEMO_TEXT, EDGE_COLLECTIONS, FIG1_STRINGS, all_patterns, random_collection, random_text,
                      sa_samples)


def _same_positional_answers(a, b, rng):
    symbols = a.alphabet.symbols
    for _ in range(20):
        m = rng.randint(0, min(4, a.length))
        k = rng.randint(0, a.length - m)
        pattern = "".join(rng.choice(symbols) for _ in range(m))
        for strategy in ("binary", "backward", "rebuild"):
            iv_a, got_a, _ = px.query(a, pattern, k, strategy=strategy)
            iv_b, got_b, _ = px.query(b, pattern, k, strategy=strategy)
            assert (iv_a, got_a) == (iv_b, got_b)


EDGE_TEXTS = [("G", "ACGT"), ("AAAA", "A"), ("TTTTTTTT", "ACGT"), ("GATAGATAGATAGATA", "ACGT")]


def test_positional_round_trip(tmp_path):
    rng = random.Random(88)
    edges = [px.from_strings(strings, px.Alphabet(symbols)) for strings, symbols in EDGE_COLLECTIONS]
    for policy_maker in (px.StoragePolicy.full, px.StoragePolicy.no_perms,
                         lambda: px.StoragePolicy.sampled(2)):
        for col in [random_collection(rng) for _ in range(5)] + edges:
            index = px.build_index(col, policy_maker())
            path = tmp_path / "case.idx"
            written = px.save_index(index, str(path))
            assert written == path.stat().st_size
            loaded = px.load_index(str(path))
            assert isinstance(loaded, px.PositionalIndex)
            assert loaded.policy == index.policy
            assert loaded.collection.strings == col.strings
            assert loaded.collection == col
            assert sorted(loaded.stored_perms) == sorted(index.stored_perms)
            for j, perm in index.stored_perms.items():
                assert np.array_equal(loaded.stored_perms[j], perm)
            _same_positional_answers(index, loaded, rng)


def test_positional_equality_compares_collection_and_policy(fig1):
    index = px.build_index(fig1)
    assert index == px.from_bytes(px.to_bytes(index))
    assert index != px.build_index(fig1, px.StoragePolicy.full())
    other = px.from_strings(FIG1_STRINGS[::-1])
    assert index != px.build_index(other, index.policy)


def test_substring_round_trip(tmp_path):
    rng = random.Random(99)
    edges = [px.SentinelText(text, px.Alphabet(symbols)) for text, symbols in EDGE_TEXTS]
    for st in [random_text(rng, max_len=96) for _ in range(10)] + edges:
        index = px.fm_build(st, rng.choice([1, 2, 4, 8]))
        blob = px.to_bytes(index)
        loaded = px.from_bytes(blob)
        assert isinstance(loaded, px.FmIndex)
        assert loaded.bwt == index.bwt
        assert loaded.text == index.text
        assert sa_samples(loaded) == sa_samples(index)
        symbols = st.alphabet.symbols
        for _q in range(20):
            pattern = "".join(rng.choice(symbols) for _ in range(rng.randint(0, 5)))
            iv_a = px.fm_count(index, pattern)
            iv_b = px.fm_count(loaded, pattern)
            assert iv_a == iv_b
            assert locate_with_steps(index, iv_a) == locate_with_steps(loaded, iv_b)


def test_bad_magic():
    with pytest.raises(PbwtIndexError, match="magic"):
        px.from_bytes(b"NOTANIDX" + b"\x00" * 32)


def test_truncated_file():
    col = px.from_strings(["ACGT", "TTTT"])
    blob = px.to_bytes(px.build_index(col))
    with pytest.raises(PbwtIndexError, match="truncated"):
        px.from_bytes(blob[: len(blob) // 2])


def _sealed(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "little")


def _patched(blob: bytes, at: int, new: bytes) -> bytes:
    """``blob`` with the bytes at ``at`` replaced and the checksum recomputed."""
    body = blob[:-4]
    return _sealed(body[:at] + new + body[at + len(new):])


# 3 strings of length 8 over ACGT; sampled(2) keeps pi_0, pi_2, pi_4, pi_6, pi_8
POSITIONAL = px.to_bytes(px.build_index(px.from_strings(["GATTACAT", "TAGAGATA", "CATCACAT"]),
                                        px.StoragePolicy.sampled(2)))
SUBSTRING = px.to_bytes(px.fm_build(px.SentinelText("GATTAGATACAT", px.Alphabet()), 5))
# header: magic (8), mode (1), u16 symbol count, "ACGT", "$"; payloads start at 16
HEADER = 16
POLICY_TAG = HEADER + 8
PBWT_COLUMNS = HEADER + 13
BWT = HEADER + 8


@pytest.mark.parametrize("blob, message", [
    pytest.param(_patched(POSITIONAL, POLICY_TAG, b"\x07"), "policy tag 7", id="policy-tag"),
    pytest.param(_patched(POSITIONAL, 11, b"CAGT"), "alphabet", id="unsorted-alphabet"),
    pytest.param(_patched(POSITIONAL, 11, b"\xff"), "alphabet", id="non-ascii-alphabet"),
    pytest.param(_patched(POSITIONAL, POLICY_TAG + 1, bytes(4)), "stride 0", id="sampled-stride-0"),
    pytest.param(_patched(POSITIONAL, HEADER + 4, bytes(4)), "empty collection", id="length-0"),
    pytest.param(_patched(POSITIONAL, PBWT_COLUMNS, b"\x04"), "PBWT columns holds rank code 4",
                 id="pbwt-column-code"),
    pytest.param(_sealed(POSITIONAL[:-4] + b"\x00"), "1 trailing bytes", id="positional-trailing"),
    pytest.param(_patched(SUBSTRING, HEADER + 4, bytes(4)), "stride 0", id="sa-stride-0"),
    pytest.param(_patched(SUBSTRING, BWT, b"\x05"), "invalid substring index: .* rank code 5, not below 5",
                 id="bwt-code"),
    pytest.param(_patched(SUBSTRING, BWT, b"\x01"), "not a BWT", id="bwt-counts"),
    # swapping BWT rows 8 and 9 splits the LF cycle; a locate walk never reached a sample
    pytest.param(_patched(SUBSTRING, BWT + 8, SUBSTRING[BWT + 9 : BWT + 7 : -1]), "not a BWT",
                 id="bwt-swap"),
    pytest.param(_sealed(SUBSTRING[:-4] + b"\x00"), "1 trailing bytes", id="substring-trailing"),
    pytest.param(_sealed(SUBSTRING[:HEADER] + struct.pack("<II", 0, 5) + b"\x00"), "non-empty text",
                 id="substring-empty"),
    # row counts the int32 LF mapping cannot hold, refused before the section is read
    pytest.param(_patched(POSITIONAL, HEADER, struct.pack("<I", 2**31)), "2147483648 rows do not fit",
                 id="positional-n-2**31"),
    pytest.param(_patched(SUBSTRING, HEADER, struct.pack("<I", 2**31)), "2147483649 rows do not fit",
                 id="substring-n-2**31"),
    pytest.param(_patched(SUBSTRING, HEADER, struct.pack("<I", 2**31 - 1)), "2147483648 rows do not fit",
                 id="substring-n-2**31-1"),
    pytest.param(b"PBWTIDX1" + POSITIONAL[8:], "PBWTIDX1.*rebuild", id="version-1"),
    pytest.param(b"PBWTIDX2" + POSITIONAL[8:], "PBWTIDX2.*rebuild", id="version-2"),
    # a valid edit (another PBWT column order) that was not resealed
    pytest.param(POSITIONAL[:PBWT_COLUMNS] + POSITIONAL[PBWT_COLUMNS + 1 : PBWT_COLUMNS - 1 : -1]
                 + POSITIONAL[PBWT_COLUMNS + 2:], "corrupt or truncated", id="checksum"),
])
def test_corrupt_file_raises_index_error(blob, message):
    with pytest.raises(PbwtIndexError, match=message):
        px.from_bytes(blob)


WORKED_EXAMPLES = [
    *(px.build_index(px.from_strings(FIG1_STRINGS), policy)
      for policy in (px.StoragePolicy.full(), px.StoragePolicy.sampled(2), px.StoragePolicy.no_perms())),
    *(px.fm_build(px.SentinelText(DEMO_TEXT, px.Alphabet()), stride) for stride in (1, 3, 5)),
]


def _answers(index):
    if isinstance(index, px.PositionalIndex):
        return [px.query(index, pattern, k, strategy)[:2]
                for pattern in all_patterns("ACGT", 2)
                for k in range(index.length - len(pattern) + 1)
                for strategy in px.positional.STRATEGIES]
    return [px.fm_locate(index, px.fm_count(index, pattern)) for pattern in all_patterns("ACGT", 3)]


def _flipped(blob: bytes, bit: int) -> bytes:
    at = bit // 8
    return blob[:at] + bytes([blob[at] ^ (1 << bit % 8)]) + blob[at + 1:]


@pytest.mark.parametrize("index", WORKED_EXAMPLES,
                         ids=["full", "sampled-2", "none", "sa-stride-1", "sa-stride-3", "sa-stride-5"])
def test_bit_flips_and_truncations_fail_or_answer_right(index):
    """Every single-bit flip and every truncation of a worked-example file
    ends in a PbwtIndexError or in the original answers."""
    blob = px.to_bytes(index)
    expected = _answers(index)
    damaged = [blob[:cut] for cut in range(len(blob))]
    damaged += [_flipped(blob, bit) for bit in range(8 * len(blob))]
    for data in damaged:
        try:
            got = _answers(px.from_bytes(data))
        except PbwtIndexError:
            continue
        assert got == expected


def _agrees_with_oracle(index) -> bool:
    symbols = index.alphabet.symbols
    if isinstance(index, px.PositionalIndex):
        return all(sorted(px.query(index, pattern, k, strategy)[1])
                   == px.naive_positional(index.collection, pattern, k)
                   for pattern in all_patterns(symbols, 1)
                   for k in range(index.length - len(pattern) + 1)
                   for strategy in px.positional.STRATEGIES)
    return all(sorted(px.fm_locate(index, px.fm_count(index, pattern)))
               == px.naive_substring(index.text, pattern)
               for pattern in all_patterns(symbols, 3))


@pytest.mark.parametrize("index", WORKED_EXAMPLES[1::3], ids=["sampled-2", "sa-stride-3"])
def test_resealed_bit_flips_fail_or_load_a_consistent_index(index):
    """With the checksum recomputed, every single-bit flip ends in a
    PbwtIndexError or decodes to an index that answers like the brute-force
    scan of its own collection or text: no section can contradict another."""
    body = px.to_bytes(index)[:-4]
    loaded = 0
    for bit in range(8 * len(body)):
        try:
            ok = _agrees_with_oracle(px.from_bytes(_sealed(_flipped(body, bit))))
        except PbwtIndexError:
            continue
        assert ok
        loaded += 1
    assert loaded > 0


def test_to_bytes_rejects_what_is_not_an_index():
    with pytest.raises(TypeError, match="cannot serialize object"):
        px.to_bytes(object())


def test_to_bytes_rejects_fields_beyond_u32(fig1):
    wide = 2**32
    for index in (px.build_index(fig1, px.StoragePolicy.sampled(wide)),
                  px.fm_build(px.SentinelText(DEMO_TEXT, px.Alphabet()), wide)):
        with pytest.raises(PbwtIndexError, match=f"stride = {wide} does not fit"):
            px.to_bytes(index)


# the worked examples' index files, byte for byte: any change to the sweep
# or the format that alters what is written fails here
GOLDEN_FILES = {
    "full": "504257544944583301040041434754240800000008000000000000000003030302010200000001000003000000"
            "030002030103030003010000000000030303020202000001010101000000000003010302000000010300030000"
            "010303cb30f84b",
    "sampled": "504257544944583301040041434754240800000008000000010200000003030302010200000001000003000000"
               "030002030103030003010000000000030303020202000001010101000000000003010302000000010300030000"
               "010303f37c8654",
    "none": "504257544944583301040041434754240800000008000000020000000003030302010200000001000003000000"
            "030002030103030003010000000000030303020202000001010101000000000003010302000000010300030000"
            "01030372ce833a",
    "fm": "504257544944583302040041434754240c0000000500000004040402030301010001010401190867fc",
}


@pytest.mark.parametrize("name, policy", [("full", px.StoragePolicy.full()),
                                          ("sampled", px.StoragePolicy.sampled(2)),
                                          ("none", px.StoragePolicy.no_perms())])
def test_fig1_index_file_is_golden(name, policy):
    index = px.build_index(px.from_strings(FIG1_STRINGS), policy)
    blob = px.to_bytes(index)
    assert len(blob) == 97 and blob.hex() == GOLDEN_FILES[name]
    assert px.to_bytes(px.from_bytes(blob)) == blob


def test_demo_text_index_file_is_golden():
    blob = px.to_bytes(px.fm_build(px.SentinelText(DEMO_TEXT, px.Alphabet()), 5))
    assert len(blob) == 41 and blob.hex() == GOLDEN_FILES["fm"]
    assert px.to_bytes(px.from_bytes(blob)) == blob
