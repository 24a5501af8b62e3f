"""On-disk index format: magic "PBWTIDX2", little-endian fixed-width integers.

Layout (common header, then one payload per mode):

    magic           8 bytes  b"PBWTIDX2"
    mode            u8       1 = positional, 2 = substring
    alphabet        u16 size + symbol bytes + 1 sentinel byte (ASCII)

    positional payload:
        n, length           u32, u32
        policy              u8 (0 full, 1 sampled, 2 none) + u32 stride (0 when unused)
        collection codes    n*length u8 ranks
        stored permutations u32 count, then per column: u32 index + n i32
        pbwt columns        length*n u8 ranks

    substring payload:
        n (text), stride    u32, u32
        text                n bytes
        bwt codes           n+1 u8 ranks: sentinel 0, symbols 1..sigma

Every section is used as read.  The rank tables and C-arrays are counted
from the PBWT columns or the BWT codes on load, and for a substring index
one LF walk over them derives the suffix-array samples and checks that the
BWT is that of the text.  The source strings/text travel with the index
because binary and rebuild searches compare suffixes directly and
``--verify`` reruns the brute-force oracle against them.  Loading checks
section sizes, the mode and policy tags, the alphabet, that rank codes are
below the alphabet size, the stored columns the policy names and that they
are permutations, the column contents, and raises :class:`PbwtIndexError` on any mismatch,
including a ``PBWTIDX1`` file from an older version.  Each PBWT column must
hold the characters of its collection column; the order of the characters is
not checked against the stored permutations.
"""

import math
import struct

import numpy as np

from .alphabet import Alphabet
from .collection import StringCollection
from .errors import PbwtIndexError
from .fm import FmIndex
from .pbwt import PbwtMatrix
from .permutations import column_counts
from .positional import PositionalIndex, StoragePolicy

MAGIC = b"PBWTIDX2"
MAGIC_V1 = b"PBWTIDX1"
MODE_POSITIONAL = 1
MODE_SUBSTRING = 2

_POLICY_TAGS = {"full": 0, "sampled": 1, "none": 2}
_POLICY_NAMES = {v: k for k, v in _POLICY_TAGS.items()}


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.at = 0

    def take(self, count: int) -> bytes:
        if self.at + count > len(self.data):
            raise PbwtIndexError("index file is truncated")
        chunk = self.data[self.at : self.at + count]
        self.at += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype, shape) -> np.ndarray:
        raw = self.take(math.prod(shape) * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def codes(self, shape, limit: int, section: str) -> np.ndarray:
        """A uint8 rank-code section whose every code must be below ``limit``."""
        codes = self.array(np.uint8, shape)
        if codes.size and codes.max() >= limit:
            raise PbwtIndexError(f"index file {section} holds rank code {codes.max()}, not below {limit}")
        return codes


def _pack_arr(arr: np.ndarray, dtype) -> bytes:
    return np.ascontiguousarray(arr, dtype=dtype).tobytes()


def to_bytes(index) -> bytes:
    if isinstance(index, PositionalIndex):
        return _positional_bytes(index)
    if isinstance(index, FmIndex):
        return _substring_bytes(index)
    raise TypeError(f"cannot serialize {type(index).__name__}")


def _header(mode: int, alphabet: Alphabet) -> bytes:
    symbols = alphabet.symbols.encode("ascii")
    return (MAGIC + struct.pack("<B", mode)
            + struct.pack("<H", len(symbols)) + symbols
            + alphabet.sentinel.encode("ascii"))


def _positional_bytes(index: PositionalIndex) -> bytes:
    col = index.collection
    policy = index.policy
    parts = [_header(MODE_POSITIONAL, col.alphabet)]
    parts.append(struct.pack("<IIBI", col.n, col.length,
                             _POLICY_TAGS[policy.kind], policy.stride or 0))
    parts.append(_pack_arr(col.codes, np.uint8))
    parts.append(struct.pack("<I", len(index.stored_perms)))
    for j in sorted(index.stored_perms):
        parts.append(struct.pack("<I", j))
        parts.append(_pack_arr(index.stored_perms[j], np.int32))
    parts.append(_pack_arr(index.matrix.cols, np.uint8))
    return b"".join(parts)


def _substring_bytes(index: FmIndex) -> bytes:
    parts = [_header(MODE_SUBSTRING, index.alphabet)]
    parts.append(struct.pack("<II", index.n, index.stride))
    parts.append(index.text.encode("ascii"))
    parts.append(_pack_arr(index.bwt_codes, np.uint8))
    return b"".join(parts)


def from_bytes(data: bytes):
    r = _Reader(data)
    magic = r.take(len(MAGIC))
    if magic == MAGIC_V1:
        raise PbwtIndexError("index file uses the old PBWTIDX1 format; rebuild it with this version")
    if magic != MAGIC:
        raise PbwtIndexError("not a pbwtidx index file (bad magic)")
    (mode,) = r.unpack("B")
    (sym_count,) = r.unpack("H")
    try:
        chars = r.take(sym_count + 1).decode("ascii")
        alphabet = Alphabet(symbols=chars[:-1], sentinel=chars[-1])
    except ValueError as exc:
        raise PbwtIndexError(f"index file has an invalid alphabet: {exc}") from None
    if mode == MODE_POSITIONAL:
        index = _read_positional(r, alphabet)
    elif mode == MODE_SUBSTRING:
        index = _read_substring(r, alphabet)
    else:
        raise PbwtIndexError(f"unknown index mode tag {mode}")
    if r.at != len(data):
        raise PbwtIndexError(f"index file has {len(data) - r.at} trailing bytes")
    return index


def _is_permutation(perm: np.ndarray, n: int) -> bool:
    return perm.min() >= 0 and perm.max() < n and bool((np.bincount(perm, minlength=n) == 1).all())


def _read_positional(r: _Reader, alphabet: Alphabet) -> PositionalIndex:
    n, length, policy_tag, stride = r.unpack("IIBI")
    try:
        policy = StoragePolicy(_POLICY_NAMES[policy_tag], stride or None)
    except (KeyError, ValueError):
        raise PbwtIndexError(f"index file has invalid policy tag {policy_tag}, stride {stride}") from None
    codes = r.codes((n, length), alphabet.sigma, "collection")
    collection = StringCollection(alphabet=alphabet, codes=codes)
    (perm_count,) = r.unpack("I")
    stored = {}
    for _ in range(perm_count):
        (j,) = r.unpack("I")
        stored[j] = r.array(np.int32, (n,))
        if not _is_permutation(stored[j], n):
            raise PbwtIndexError(f"index file column pi_{j} is not a permutation of 0..{n - 1}")
    if list(stored) != policy.stored_columns(length):
        raise PbwtIndexError(f"index file stores columns {list(stored)}, not those of policy {policy.kind!r}")
    matrix = PbwtMatrix(cols=r.codes((length, n), alphabet.sigma, "PBWT columns"), alphabet=alphabet)
    if not all(np.array_equal(matrix.c_arrays[j], column_counts(collection, j).c_array)
               for j in range(length)):
        raise PbwtIndexError("index file PBWT columns do not hold the characters of the collection")
    return PositionalIndex(collection=collection, matrix=matrix, policy=policy,
                           stored_perms=stored)


def _read_substring(r: _Reader, alphabet: Alphabet) -> FmIndex:
    n, stride = r.unpack("II")
    if stride < 1:
        raise PbwtIndexError("index file has suffix-array stride 0")
    text = r.take(n).decode("latin-1")
    bwt_codes = r.codes((n + 1,), alphabet.sigma + 1, "BWT")
    try:
        return FmIndex(text=text, alphabet=alphabet, bwt_codes=bwt_codes, stride=stride)
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
