"""On-disk index format: magic "PBWTIDX5", little-endian fixed-width integers.

Layout (common header, then one payload per mode, then a checksum):

    magic           8 bytes  b"PBWTIDX5"
    mode            u8       1 = positional, 2 = substring
    alphabet        u16 size + symbol bytes + 1 sentinel byte (ASCII)

    positional payload:
        n, length           u32, u32
        policy              u8 (0 full, 1 sampled, 2 none) + u32 stride (0 when unused)
        pbwt columns        one zlib stream of the length*n packed ranks, column by column

    substring payload:
        n (text), stride    u32, u32
        sentinel row        u32, the BWT row that holds the sentinel, at most n
        bwt ranks           one zlib stream of the other n rows' packed symbol ranks 0..sigma-1

    crc32           u32      zlib.crc32 of every preceding byte

Both modes pack symbol ranks, below the alphabet's size sigma, at
b = ``(sigma - 1).bit_length()`` bits (at least 1), rounded up to 1, 2, 4
or 8, so 8 // b to a byte: ACGT packs 4 to a byte in both modes.  The
first code of a byte is in its high bits, and the last byte is padded
with zero bits.  A BWT holds exactly one sentinel, so its row is a header
field and the rows around it store their symbol ranks: this stored form
is :func:`pbwtidx.fm.stored_bwt` of the index, and
:func:`pbwtidx.fm.bwt_from_stored` turns it back into the BWT.  The packed
codes are deflated with the run-length strategy (``Z_RLE``, level 1): a
PBWT column of related strings, like a BWT, is made of long runs of one
symbol, and a run of packed codes is a run of bytes, which matches at
distance 1 encode.  The code section runs to the checksum.  Another zlib
build may write other valid deflate bytes for the same codes; what they
inflate to is fixed.

A file holds only the transform, and the loader hands it to the index's
constructor, which derives the rest: :class:`PositionalIndex` inverts the PBWT
columns in one right-to-left pass, sorting each once, to their LF mapping, the
collection and the kept permutations, and :class:`FmIndex` ranks the BWT's LF
cycle to the text and the suffix-array samples.  No section can contradict
another, so the checksum is what catches an edit that decodes to another valid
index.  Loading checks the magic, the checksum, section sizes, tags, that the
row count fits the int32 LF mapping, the alphabet, the sentinel row, that the
code section is one deflate stream inflating to exactly the packed codes the
header counts and nothing after it, that its padding bits are zero, code
ranges, and that the BWT holds one sentinel and one LF cycle, and raises
:class:`PbwtIndexError` on any failure.  The unpacked codes, and the BWT
that :func:`pbwtidx.fm.bwt_from_stored` writes from them, are handed over
to the index under :class:`~pbwtidx.pbwt.PbwtMatrix`'s rule, without a copy.
"""

import struct
import zlib

import numpy as np

from .alphabet import Alphabet
from .errors import PbwtIndexError
from .fm import FmIndex, bwt_from_stored, stored_bwt
from .pbwt import check_rows
from .positional import PositionalIndex, StoragePolicy

MAGIC = b"PBWTIDX5"
OLD_MAGICS = (b"PBWTIDX1", b"PBWTIDX2", b"PBWTIDX3", b"PBWTIDX4")
MODE_POSITIONAL = 1
MODE_SUBSTRING = 2
U32_MAX = 0xFFFFFFFF
# codes packed or unpacked at a time, a multiple of every 8 // b: it bounds
# the packing's temporaries and the int index array that a take casts to
_CHUNK = 1 << 20

_POLICY_TAGS = {"full": 0, "sampled": 1, "none": 2}
_POLICY_NAMES = {v: k for k, v in _POLICY_TAGS.items()}


def _code_width(sigma: int) -> int:
    """Bits per packed code of ranks below ``sigma``: 1, 2, 4 or 8."""
    bits = max(1, (sigma - 1).bit_length())
    return 1 << (bits - 1).bit_length()


def _pack(codes: np.ndarray, width: int) -> bytes:
    """The uint8 ``codes``, each below ``2**width``, packed ``8 // width`` to a
    byte, the first in the high bits, the last byte padded with zero bits.

    Each group of ``per = 8 // width`` codes is read as one little-endian
    integer, code i at bit 8i, and one multiply adds a copy of it shifted by
    (per - 1 - k) * (width + 8) bits for every k: the copy of code i with
    k = i lands at bit 8 (per - 1) + (per - 1 - i) * width, its place in
    the top byte.  No two copies share a bit, so no carry reaches that byte.
    """
    per = 8 // width
    if codes.shape[0] % per:
        codes = np.concatenate([codes, np.zeros(-codes.shape[0] % per, np.uint8)])
    group = codes.view(f"<u{per}")
    spread = group * group.dtype.type(sum(1 << k * (width + 8) for k in range(per)))
    spread >>= 8 * (per - 1)
    return spread.astype(np.uint8).tobytes()


def _unpack(packed: bytes, width: int, out: np.ndarray):
    """Write the codes that :func:`_pack` packed into ``out``, a C-ordered
    uint8 array of their count.

    A 256-row table holds the ``per = 8 // width`` codes of every byte, and
    one ``take`` per chunk gathers its rows as ``per``-byte integers.
    """
    per = 8 // width
    table = (np.arange(256)[:, None] >> np.arange(8 - width, -1, -width) & (1 << width) - 1).astype(np.uint8)
    wide = table.view(f"u{per}").reshape(256)
    full = out.shape[0] // per
    rows, flat = np.frombuffer(packed, np.uint8), out[: full * per].view(wide.dtype)
    for at in range(0, full, _CHUNK):
        # "clip" writes into out directly, where the default mode buffers it
        wide.take(rows[at : min(at + _CHUNK, full)], out=flat[at : at + _CHUNK], mode="clip")
    out[full * per :] = table[rows[full:]].reshape(-1)[: out.shape[0] - full * per]


def _deflated(codes: np.ndarray, width: int) -> bytes:
    deflate = zlib.compressobj(1, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    parts = [deflate.compress(_pack(codes[at : at + _CHUNK], width)) for at in range(0, codes.shape[0], _CHUNK)]
    return b"".join(parts) + deflate.flush()


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

    def codes(self, count: int, width: int) -> np.ndarray:
        """The rest of the body, a deflated section of ``count`` codes packed
        at ``width`` bits, unpacked into a new ``bytearray`` and handed over
        read-only (:class:`~pbwtidx.pbwt.PbwtMatrix` states the rule); the
        index constructors check the codes.

        One byte past the packed size is the most ever inflated: a stream
        that inflates too far is found without inflating all of it, and a
        size of 0 stays a bound (a ``max_length`` of 0 would mean none).
        The buffer is made once the section has inflated to its size, so
        a header's counts alone allocate nothing.
        """
        size = -(-count * width // 8)
        stream = zlib.decompressobj()
        try:
            packed = stream.decompress(self.take(len(self.data) - self.at), size + 1)
        except zlib.error as exc:
            raise PbwtIndexError(f"index file's code section is not deflate data ({exc})") from None
        if len(packed) > size:
            raise PbwtIndexError(f"index file's code section inflates to more than {size} bytes")
        if not stream.eof:
            raise PbwtIndexError("index file's code section ends inside its deflate stream")
        if len(packed) < size:
            raise PbwtIndexError(f"index file's code section inflates to {len(packed)} bytes, not {size}")
        if stream.unused_data:
            raise PbwtIndexError(f"index file has {len(stream.unused_data)} trailing bytes")
        padding = size * 8 - count * width
        if padding and packed[-1] & (1 << padding) - 1:
            raise PbwtIndexError("index file's code section has non-zero padding bits")
        codes = np.frombuffer(bytearray(count), np.uint8)
        _unpack(packed, width, codes)
        codes.setflags(write=False)
        return codes


def to_bytes(index) -> bytes:
    if isinstance(index, PositionalIndex):
        policy = index.policy
        _check_u32(n=index.n, length=index.length, stride=policy.stride or 0)
        head = (_header(MODE_POSITIONAL, index.alphabet)
                + struct.pack("<IIBI", index.n, index.length, _POLICY_TAGS[policy.kind], policy.stride or 0))
        codes = index.cols.reshape(-1)
    elif isinstance(index, FmIndex):
        _check_u32(n=index.n, stride=index.stride)
        sentinel, codes = stored_bwt(index)
        head = _header(MODE_SUBSTRING, index.alphabet) + struct.pack("<III", index.n, index.stride, sentinel)
    else:
        raise TypeError(f"cannot serialize {type(index).__name__}")
    body = head + _deflated(codes, _code_width(index.alphabet.sigma))
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
        raise PbwtIndexError(f"index file uses the old {bytes(magic).decode()} format; rebuild it with this version")
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
    cols = r.codes(length * n, _code_width(alphabet.sigma))
    return PositionalIndex(alphabet, cols.reshape(length, n), policy)


def _read_substring(r: _Reader, alphabet: Alphabet) -> FmIndex:
    n, stride, sentinel = r.unpack("III")
    if stride < 1:
        raise PbwtIndexError("index file has suffix-array stride 0")
    check_rows(n + 1)
    if sentinel > n:
        raise PbwtIndexError(f"index file has sentinel row {sentinel}, not below {n + 1}")
    # the ranks' buffer is freed before the index is built
    bwt_codes = bwt_from_stored(sentinel, r.codes(n, _code_width(alphabet.sigma)))
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
