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


def test_positional_equality_compares_columns_and_policy(fig1):
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


def _deflated(packed: bytes) -> bytes:
    deflate = zlib.compressobj(1, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    return deflate.compress(packed) + deflate.flush()


def _inflated(blob: bytes, start: int) -> bytes:
    """The packed codes of the section that starts at ``start`` and runs to the checksum."""
    return zlib.decompress(blob[start:-4])


def _packed(codes: bytes, width: int) -> bytes:
    """``codes`` packed the slow way: ``8 // width`` to a byte, the first in
    the high bits, the last byte padded with zero bits."""
    per = 8 // width
    codes += bytes(-len(codes) % per)
    return bytes(sum(c << 8 - width * (k + 1) for k, c in enumerate(codes[at : at + per]))
                 for at in range(0, len(codes), per))


def _unpacked(packed: bytes, count: int, width: int) -> bytes:
    per, mask = 8 // width, (1 << width) - 1
    return bytes(byte >> 8 - width * (k + 1) & mask for byte in packed for k in range(per))[:count]


def _recoded(blob: bytes, start: int, count: int, at: int, new: bytes) -> bytes:
    """``blob`` with its 2-bit code section unpacked, the codes at ``at``
    replaced, packed and deflated again and the checksum recomputed."""
    codes = _unpacked(_inflated(blob, start), count, 2)
    return _sealed(blob[:start] + _deflated(_packed(codes[:at] + new + codes[at + len(new):], 2)))


# 3 strings of length 8 over ACGT; sampled(2) keeps pi_0, pi_2, pi_4, pi_6, pi_8
POSITIONAL = px.to_bytes(px.build_index(px.from_strings(["GATTACAT", "TAGAGATA", "CATCACAT"]),
                                        px.StoragePolicy.sampled(2)))
SUBSTRING = px.to_bytes(px.fm_build(px.SentinelText("GATTAGATACAT", px.Alphabet()), 5))
# over ACG, whose 3 symbols pack at 2 bits, so a code section can hold the code 3
POSITIONAL_ACG = px.to_bytes(px.build_index(px.from_strings(["GACCA", "CAGAG"], px.Alphabet("ACG"))))
SUBSTRING_ACG = px.to_bytes(px.fm_build(px.SentinelText("GAGACCAG", px.Alphabet("ACG"))))
# 7 codes of 2 bits leave 2 padding bits in the last byte
SUBSTRING_PADDED = px.to_bytes(px.fm_build(px.SentinelText("GATTACA", px.Alphabet())))
# header: magic (8), mode (1), u16 symbol count, "ACGT", "$"; payloads start at 16
HEADER = 16
POLICY_TAG = HEADER + 8
PBWT_COLUMNS = HEADER + 13
SENTINEL_ROW = HEADER + 8
BWT = HEADER + 12
POSITIONAL_PACKED = _inflated(POSITIONAL, PBWT_COLUMNS)
POSITIONAL_CODES = _unpacked(POSITIONAL_PACKED, 24, 2)
PADDED_PACKED = _inflated(SUBSTRING_PADDED, BWT)
# over 20 symbols, whose ranks pack at 8 bits, so its code section inflates to
# the stored ranks themselves; its header is 16 bytes longer than ACGT's
SUBSTRING_20 = px.to_bytes(px.fm_build(px.SentinelText("GATTACA", px.Alphabet("ACDEFGHIKLMNPQRSTVWY"))))
RANKS_20 = _inflated(SUBSTRING_20, BWT + 16)


@pytest.mark.parametrize("blob, message", [
    pytest.param(_patched(POSITIONAL, POLICY_TAG, b"\x07"), "policy tag 7", id="policy-tag"),
    pytest.param(_patched(POSITIONAL, 11, b"CAGT"), "alphabet", id="unsorted-alphabet"),
    pytest.param(_patched(POSITIONAL, 11, b"\xff"), "alphabet", id="non-ascii-alphabet"),
    pytest.param(_patched(POSITIONAL, POLICY_TAG + 1, bytes(4)), "stride 0", id="sampled-stride-0"),
    pytest.param(_sealed(_patched(POSITIONAL, HEADER + 4, bytes(4))[:PBWT_COLUMNS] + _deflated(b"")),
                 "empty collection", id="length-0"),
    # ACG's headers are one byte shorter than ACGT's
    pytest.param(_recoded(POSITIONAL_ACG, PBWT_COLUMNS - 1, 10, 0, b"\x03"), "PBWT columns holds rank code 3",
                 id="pbwt-column-code"),
    pytest.param(_sealed(POSITIONAL[:-4] + b"\x00"), "1 trailing bytes", id="positional-trailing"),
    pytest.param(_patched(SUBSTRING, HEADER + 4, bytes(4)), "stride 0", id="sa-stride-0"),
    pytest.param(_recoded(SUBSTRING_ACG, BWT - 1, 8, 0, b"\x03"),
                 "invalid substring index: .* rank code 4, not below 4", id="bwt-code"),
    pytest.param(_recoded(SUBSTRING, BWT, 12, 0, b"\x00"), "not a BWT", id="bwt-counts"),
    # the sentinel one row on swaps BWT rows 8 and 9, which splits the LF cycle;
    # a locate walk never reached a sample
    pytest.param(_patched(SUBSTRING, SENTINEL_ROW, struct.pack("<I", 9)), "not a BWT", id="bwt-swap"),
    pytest.param(_patched(SUBSTRING, SENTINEL_ROW, struct.pack("<I", 13)), "sentinel row 13, not below 13",
                 id="sentinel-row"),
    pytest.param(_sealed(SUBSTRING[:-4] + b"\x00"), "1 trailing bytes", id="substring-trailing"),
    # stored ranks of 20 and above; a stored 255 shifts up to the sentinel's code 0
    *(pytest.param(_sealed(SUBSTRING_20[:BWT + 16] + _deflated(bytes([rank]) + RANKS_20[1:])), message,
                   id=f"bwt-rank-{rank}")
      for rank, message in [(20, "rank code 21, not below 21"), (254, "rank code 255, not below 21"),
                            (255, "hold 2 sentinels, not 1")]),
    pytest.param(_sealed(SUBSTRING[:HEADER] + struct.pack("<III", 0, 5, 0) + _deflated(b"")), "non-empty text",
                 id="substring-empty"),
    # a code section that is not one deflate stream of exactly the packed n x L codes
    pytest.param(_sealed(POSITIONAL[:PBWT_COLUMNS] + _deflated(POSITIONAL_PACKED[:-1])),
                 "inflates to 5 bytes, not 6", id="inflates-short"),
    pytest.param(_sealed(POSITIONAL[:PBWT_COLUMNS] + _deflated(POSITIONAL_PACKED + b"\x00")),
                 "inflates to more than 6 bytes", id="inflates-past"),
    pytest.param(_sealed(POSITIONAL[:PBWT_COLUMNS] + POSITIONAL_PACKED), "not deflate data", id="not-deflate"),
    pytest.param(_sealed(POSITIONAL[:-5]), "ends inside its deflate stream", id="stream-cut"),
    pytest.param(_sealed(SUBSTRING_PADDED[:BWT] + _deflated(PADDED_PACKED[:-1] + bytes([PADDED_PACKED[-1] | 1]))),
                 "non-zero padding bits", id="padding-bits"),
    # row counts the int32 LF mapping cannot hold, refused before the section is read
    pytest.param(_patched(POSITIONAL, HEADER, struct.pack("<I", 2**31)), "2147483648 rows do not fit",
                 id="positional-n-2**31"),
    pytest.param(_patched(SUBSTRING, HEADER, struct.pack("<I", 2**31)), "2147483649 rows do not fit",
                 id="substring-n-2**31"),
    pytest.param(_patched(SUBSTRING, HEADER, struct.pack("<I", 2**31 - 1)), "2147483648 rows do not fit",
                 id="substring-n-2**31-1"),
    pytest.param(b"PBWTIDX1" + POSITIONAL[8:], "PBWTIDX1.*rebuild", id="version-1"),
    pytest.param(b"PBWTIDX2" + POSITIONAL[8:], "PBWTIDX2.*rebuild", id="version-2"),
    pytest.param(b"PBWTIDX3" + POSITIONAL[8:], "PBWTIDX3.*rebuild", id="version-3"),
    pytest.param(b"PBWTIDX4" + POSITIONAL[8:], "PBWTIDX4.*rebuild", id="version-4"),
    pytest.param(bytearray(b"PBWTIDX4" + POSITIONAL[8:]), "PBWTIDX4.*rebuild", id="version-4-bytearray"),
    # a memoryview's magic ended in AttributeError: a memoryview has no decode
    pytest.param(memoryview(b"PBWTIDX4" + POSITIONAL[8:]), "PBWTIDX4.*rebuild", id="version-4-memoryview"),
    # a valid edit (another PBWT column order) that was not resealed
    pytest.param(_recoded(POSITIONAL, PBWT_COLUMNS, 24, 0, POSITIONAL_CODES[1::-1])[:-4] + POSITIONAL[-4:],
                 "corrupt or truncated", id="checksum"),
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


# the worked examples' index files: the header byte for byte, and the code
# section as it inflates, which is its codes packed 4 to a byte; any change to
# the sweep or the format that alters either fails here.  Another zlib build
# may deflate the packed codes to other valid bytes, so those are only
# required to inflate to them and to be written again on a round trip.  The
# packed codes unpack to the PBWT columns (FIG1_PBWT) and, around the header's
# sentinel row 8, to the demo text's BWT (DEMO_BWT), as PBWTIDX4 stored them.
FIG1_PBWT = ("03030302010200000001000003000000030002030103030003010000000000030303020202000001"
             "010101000000000003010302000000010300030000010303")
DEMO_BWT = "04040402030301010001010401"
GOLDEN_FILES = {
    "full": ("5042575449445835010400414347542408000000080000000000000000", "fe6010c0cb7cd003fa815400de01cc1f"),
    "sampled": ("5042575449445835010400414347542408000000080000000102000000", "fe6010c0cb7cd003fa815400de01cc1f"),
    "none": ("5042575449445835010400414347542408000000080000000200000000", "fe6010c0cb7cd003fa815400de01cc1f"),
    "fm": ("504257544944583502040041434754240c0000000500000008000000", "fda00c"),
}


def _check_golden(blob: bytes, name: str) -> bytes:
    """Check ``blob`` against its golden file; returns its codes, unpacked."""
    head, packed = (bytes.fromhex(part) for part in GOLDEN_FILES[name])
    assert blob[: len(head)] == head
    assert zlib.crc32(blob[:-4]) == int.from_bytes(blob[-4:], "little")
    assert _inflated(blob, len(head)) == packed
    assert px.to_bytes(px.from_bytes(blob)) == blob
    return _unpacked(packed, 4 * len(packed), 2)


@pytest.mark.parametrize("name, policy", [("full", px.StoragePolicy.full()),
                                          ("sampled", px.StoragePolicy.sampled(2)),
                                          ("none", px.StoragePolicy.no_perms())])
def test_fig1_index_file_is_golden(name, policy):
    index = px.build_index(px.from_strings(FIG1_STRINGS), policy)
    assert _check_golden(px.to_bytes(index), name).hex() == FIG1_PBWT
    assert bytes(index.cols).hex() == FIG1_PBWT


def test_demo_text_index_file_is_golden():
    index = px.fm_build(px.SentinelText(DEMO_TEXT, px.Alphabet()), 5)
    codes = bytes(c + 1 for c in _check_golden(px.to_bytes(index), "fm")[: index.n])
    assert (codes[:8] + b"\x00" + codes[8:]).hex() == DEMO_BWT
    assert bytes(index.bwt_codes).hex() == DEMO_BWT


@pytest.mark.parametrize("index", [
    *(px.build_index(px.from_strings(strings, px.Alphabet(symbols)), policy)
      for strings, symbols in EDGE_COLLECTIONS
      for policy in (px.StoragePolicy.full(), px.StoragePolicy.sampled(2), px.StoragePolicy.no_perms())),
    *(px.fm_build(px.SentinelText(text, px.Alphabet(symbols)), stride)
      for text, symbols in EDGE_TEXTS for stride in (1, 3)),
])
def test_edge_shape_files_round_trip_byte_for_byte(index):
    """n=1, L=1, a one-symbol alphabet, all-equal strings and periodic texts:
    loading a file and writing it again gives the same bytes, and the loaded
    index answers as the brute-force scan."""
    blob = px.to_bytes(index)
    loaded = px.from_bytes(blob)
    assert px.to_bytes(loaded) == blob
    assert _agrees_with_oracle(loaded)


@pytest.mark.parametrize("sigma, width", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (16, 4), (17, 8)])
def test_codes_pack_at_their_width_and_round_trip(sigma, width):
    """Both modes pack symbol ranks at 1, 2, 4 or 8 bits, the first code of a
    byte in its high bits, for code counts that fill the last byte and
    counts that leave padding; loading unpacks the same codes."""
    symbols = "ABCDEFGHIJKLMNOPQ"[:sigma]
    alphabet = px.Alphabet(symbols)
    rng = random.Random(sigma)
    # the header is the magic, the mode, a u16 symbol count, the symbols and the sentinel
    header = 12 + sigma
    for n, length in [(1, 1), (1, 7), (3, 1), (2, 3), (5, 3), (7, 9), (33, 5)]:
        strings = ["".join(rng.choice(symbols) for _ in range(length)) for _ in range(n)]
        index = px.build_index(px.from_strings(strings, alphabet), px.StoragePolicy.full())
        blob = px.to_bytes(index)
        assert _inflated(blob, header + 13) == _packed(bytes(index.cols), width)
        loaded = px.from_bytes(blob)
        assert bytes(loaded.cols) == bytes(index.cols) and list(loaded.collection.strings) == strings
        assert px.to_bytes(loaded) == blob
    for size in (1, 2, 3, 5, 7, 9, 33):
        text = "".join(rng.choice(symbols) for _ in range(size))
        index = px.fm_build(px.SentinelText(text, alphabet))
        blob = px.to_bytes(index)
        sentinel = bytes(index.bwt_codes).index(0)
        assert blob[header + 8 : header + 12] == struct.pack("<I", sentinel)
        ranks = bytes(c - 1 for c in np.delete(index.bwt_codes, sentinel))
        assert _inflated(blob, header + 12) == _packed(ranks, width)
        loaded = px.from_bytes(blob)
        assert loaded.bwt == index.bwt and loaded.text == text
        assert px.to_bytes(loaded) == blob
