"""On-disk index format: magic "PBWTIDX3", little-endian fixed-width integers.

Layout (common header, then one payload per mode, then a checksum):

    magic           8 bytes  b"PBWTIDX3"
    mode            u8       1 = positional, 2 = substring
    alphabet        u16 size + symbol bytes + 1 sentinel byte (ASCII)

    positional payload:
        n, length           u32, u32
        policy              u8 (0 full, 1 sampled, 2 none) + u32 stride (0 when unused)
        pbwt columns        length*n u8 ranks

    substring payload:
        n (text), stride    u32, u32
        bwt codes           n+1 u8 ranks: sentinel 0, symbols 1..sigma

    crc32           u32      zlib.crc32 of every preceding byte

A file holds only the transform, and the loader inverts it: the LF mapping
of the PBWT columns, walked right to left, yields the collection and the
kept permutations, ranking the BWT's LF cycle the text and the suffix-array
samples.  No section can contradict another, so the checksum is what
catches an edit that decodes to another valid index.  Loading checks the magic, the checksum, section sizes,
tags, that the row count fits the int32 LF mapping, the alphabet, code
ranges, the BWT's LF cycle and trailing bytes, and raises
:class:`PbwtIndexError` on any failure.
"""

import math
import struct
import zlib

import numpy as np

from .alphabet import Alphabet
from .collection import StringCollection
from .errors import PbwtIndexError
from .fm import FmIndex
from .pbwt import PbwtMatrix, check_rows, invert_pbwt
from .positional import PositionalIndex, StoragePolicy

MAGIC = b"PBWTIDX3"
OLD_MAGICS = (b"PBWTIDX1", b"PBWTIDX2")
MODE_POSITIONAL = 1
MODE_SUBSTRING = 2
U32_MAX = 0xFFFFFFFF

_POLICY_TAGS = {"full": 0, "sampled": 1, "none": 2}
_POLICY_NAMES = {v: k for k, v in _POLICY_TAGS.items()}


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.at = 0

    def take(self, count: int) -> memoryview:
        if self.at + count > len(self.data):
            raise PbwtIndexError("index file is truncated")
        chunk = self.data[self.at : self.at + count]
        self.at += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def codes(self, shape, limit: int, section: str) -> np.ndarray:
        """A uint8 rank-code section whose every code must be below ``limit``."""
        codes = np.frombuffer(self.take(math.prod(shape)), np.uint8).reshape(shape)
        if codes.size and codes.max() >= limit:
            raise PbwtIndexError(f"index file {section} holds rank code {codes.max()}, not below {limit}")
        return codes


def to_bytes(index) -> bytes:
    if isinstance(index, PositionalIndex):
        policy = index.policy
        _check_u32(n=index.n, length=index.length, stride=policy.stride or 0)
        body = (_header(MODE_POSITIONAL, index.collection.alphabet)
                + struct.pack("<IIBI", index.n, index.length, _POLICY_TAGS[policy.kind], policy.stride or 0)
                + index.matrix.cols.astype(np.uint8, copy=False).tobytes())
    elif isinstance(index, FmIndex):
        _check_u32(n=index.n, stride=index.stride)
        body = (_header(MODE_SUBSTRING, index.alphabet) + struct.pack("<II", index.n, index.stride)
                + index.bwt_codes.astype(np.uint8, copy=False).tobytes())
    else:
        raise TypeError(f"cannot serialize {type(index).__name__}")
    return body + struct.pack("<I", zlib.crc32(body))


def _check_u32(**fields):
    for name, value in fields.items():
        if not 0 <= value <= U32_MAX:
            raise PbwtIndexError(f"{name} = {value} does not fit the index file's u32 field")


def _header(mode: int, alphabet: Alphabet) -> bytes:
    symbols = alphabet.symbols.encode("ascii")
    return (MAGIC + struct.pack("<B", mode)
            + struct.pack("<H", len(symbols)) + symbols
            + alphabet.sentinel.encode("ascii"))


def from_bytes(data: bytes):
    magic = data[: len(MAGIC)]
    if magic in OLD_MAGICS:
        raise PbwtIndexError(f"index file uses the old {magic.decode()} format; rebuild it with this version")
    if magic != MAGIC:
        raise PbwtIndexError("not a pbwtidx index file (bad magic)")
    body = memoryview(data)[:-4]
    if zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
        raise PbwtIndexError("index file is corrupt or truncated (checksum mismatch)")
    r = _Reader(body)
    r.take(len(MAGIC))
    (mode,) = r.unpack("B")
    (sym_count,) = r.unpack("H")
    try:
        chars = bytes(r.take(sym_count + 1)).decode("ascii")
        alphabet = Alphabet(symbols=chars[:-1], sentinel=chars[-1])
    except ValueError as exc:
        raise PbwtIndexError(f"index file has an invalid alphabet: {exc}") from None
    if mode == MODE_POSITIONAL:
        index = _read_positional(r, alphabet)
    elif mode == MODE_SUBSTRING:
        index = _read_substring(r, alphabet)
    else:
        raise PbwtIndexError(f"unknown index mode tag {mode}")
    if r.at != len(body):
        raise PbwtIndexError(f"index file has {len(body) - r.at} trailing bytes")
    return index


def _read_positional(r: _Reader, alphabet: Alphabet) -> PositionalIndex:
    n, length, policy_tag, stride = r.unpack("IIBI")
    try:
        policy = StoragePolicy(_POLICY_NAMES[policy_tag], stride or None)
    except (KeyError, ValueError):
        raise PbwtIndexError(f"index file has invalid policy tag {policy_tag}, stride {stride}") from None
    if n == 0 or length == 0:
        raise PbwtIndexError(f"index file holds an empty collection ({n} strings of length {length})")
    check_rows(n)
    matrix = PbwtMatrix(r.codes((length, n), alphabet.sigma, "PBWT columns"), alphabet.sigma)
    codes, stored = invert_pbwt(matrix, policy.stored_columns(length))
    return PositionalIndex(collection=StringCollection(alphabet=alphabet, codes=codes),
                           matrix=matrix, policy=policy, stored_perms=stored)


def _read_substring(r: _Reader, alphabet: Alphabet) -> FmIndex:
    n, stride = r.unpack("II")
    if stride < 1:
        raise PbwtIndexError("index file has suffix-array stride 0")
    check_rows(n + 1)
    bwt_codes = r.codes((n + 1,), alphabet.sigma + 1, "BWT")
    try:
        return FmIndex(alphabet, bwt_codes, stride)
    except PbwtIndexError as exc:
        raise PbwtIndexError(f"index file holds an invalid substring index: {exc}") from None


def save_index(index, path: str) -> int:
    """Write the index to ``path``; returns the number of bytes written."""
    blob = to_bytes(index)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_index(path: str):
    """Read an index written by :func:`save_index`."""
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
