"""On-disk index format: magic "PBWTIDX4", little-endian fixed-width integers.

Layout (common header, then one payload per mode, then a checksum):

    magic           8 bytes  b"PBWTIDX4"
    mode            u8       1 = positional, 2 = substring
    alphabet        u16 size + symbol bytes + 1 sentinel byte (ASCII)

    positional payload:
        n, length           u32, u32
        policy              u8 (0 full, 1 sampled, 2 none) + u32 stride (0 when unused)
        pbwt columns        one zlib stream of length*n u8 ranks, column by column

    substring payload:
        n (text), stride    u32, u32
        bwt codes           one zlib stream of n+1 u8 ranks: sentinel 0, symbols 1..sigma

    crc32           u32      zlib.crc32 of every preceding byte

The code section runs to the checksum.  It is deflated with the run-length
strategy (``Z_RLE``, level 1): a PBWT column of related strings, like a
BWT, is made of long runs of one symbol, and matches at distance 1 are what
encode a run.  Another zlib build may write other valid deflate bytes for
the same codes; what they inflate to is fixed.

A file holds only the transform, and the loader hands it to the index's
constructor, which derives the rest: :class:`PositionalIndex` inverts the PBWT
columns in one right-to-left pass, sorting each once, to their LF mapping, the
collection and the kept permutations, and :class:`FmIndex` ranks the BWT's LF
cycle to the text and the suffix-array samples.  No section can contradict
another, so the checksum is what catches an edit that decodes to another valid
index.  Loading checks the magic, the checksum, section sizes, tags, that the
row count fits the int32 LF mapping, the alphabet, that the code section is
one deflate stream inflating to exactly the codes the header counts and
nothing after it, code ranges, and that the BWT holds one sentinel and one
LF cycle, and raises :class:`PbwtIndexError` on any failure.  The inflated bytes become the
index's column bytes without a copy.
"""

import math
import struct
import zlib

import numpy as np

from .alphabet import Alphabet
from .errors import PbwtIndexError
from .fm import FmIndex
from .pbwt import check_rows
from .positional import PositionalIndex, StoragePolicy

MAGIC = b"PBWTIDX4"
OLD_MAGICS = (b"PBWTIDX1", b"PBWTIDX2", b"PBWTIDX3")
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

    def codes(self, shape) -> np.ndarray:
        """The rest of the body, a deflated uint8 rank-code section, whose codes the index constructors check.

        One byte past ``shape``'s size is the most ever inflated: a stream
        that inflates too far is found without inflating all of it, and a
        size of 0 stays a bound (a ``max_length`` of 0 would mean none).
        """
        size = math.prod(shape)
        stream = zlib.decompressobj()
        try:
            codes = stream.decompress(self.take(len(self.data) - self.at), size + 1)
        except zlib.error as exc:
            raise PbwtIndexError(f"index file's code section is not deflate data ({exc})") from None
        if len(codes) > size:
            raise PbwtIndexError(f"index file's code section inflates to more than {size} bytes")
        if not stream.eof:
            raise PbwtIndexError("index file's code section ends inside its deflate stream")
        if len(codes) < size:
            raise PbwtIndexError(f"index file's code section inflates to {len(codes)} bytes, not {size}")
        if stream.unused_data:
            raise PbwtIndexError(f"index file has {len(stream.unused_data)} trailing bytes")
        return np.frombuffer(codes, np.uint8).reshape(shape)


def to_bytes(index) -> bytes:
    if isinstance(index, PositionalIndex):
        policy = index.policy
        _check_u32(n=index.n, length=index.length, stride=policy.stride or 0)
        head = (_header(MODE_POSITIONAL, index.alphabet)
                + struct.pack("<IIBI", index.n, index.length, _POLICY_TAGS[policy.kind], policy.stride or 0))
    elif isinstance(index, FmIndex):
        _check_u32(n=index.n, stride=index.stride)
        head = _header(MODE_SUBSTRING, index.alphabet) + struct.pack("<II", index.n, index.stride)
    else:
        raise TypeError(f"cannot serialize {type(index).__name__}")
    deflate = zlib.compressobj(1, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    body = head + deflate.compress(index.matrix._bytes) + deflate.flush()
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
    return index


def _read_positional(r: _Reader, alphabet: Alphabet) -> PositionalIndex:
    n, length, policy_tag, stride = r.unpack("IIBI")
    try:
        policy = StoragePolicy(_POLICY_NAMES[policy_tag], stride or None)
    except (KeyError, ValueError):
        raise PbwtIndexError(f"index file has invalid policy tag {policy_tag}, stride {stride}") from None
    check_rows(n)
    return PositionalIndex(alphabet, r.codes((length, n)), policy)


def _read_substring(r: _Reader, alphabet: Alphabet) -> FmIndex:
    n, stride = r.unpack("II")
    if stride < 1:
        raise PbwtIndexError("index file has suffix-array stride 0")
    check_rows(n + 1)
    bwt_codes = r.codes((n + 1,))
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
