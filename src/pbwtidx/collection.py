"""The input string collection: parsing, validation, suffix access."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .alphabet import Alphabet, check_codes, handed_over
from .errors import EmptyInputError, IndexOutOfRangeError, RaggedCollectionError, UnknownCharacterError


@dataclass(frozen=True, eq=False)
class StringCollection:
    """``n`` equal-length strings over a shared alphabet, held as a dense
    (n, length) uint8 rank matrix ``codes``; the strings are decoded from it
    on first use.

    ``codes`` may be any 2-D integer matrix whose codes lie in [0, sigma);
    it is kept as uint8 in column-major (Fortran) order, so each column is
    one contiguous read for the radix passes, which gather whole columns.
    It is kept without a copy only under :class:`~pbwtidx.pbwt.PbwtMatrix`'s
    hand-over rule, as the transpose of a read-only view of a whole
    ``bytearray`` (:class:`~pbwtidx.pbwt.PbwtInversion` and
    :func:`parse_collection`'s byte path make their codes so); any other
    matrix is copied into that form by :func:`_column_major`, so a caller
    who writes to it later changes no answer.
    """

    alphabet: Alphabet
    codes: np.ndarray = field(repr=False)

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.size == 0:
            raise EmptyInputError("collection is empty")
        if codes.ndim != 2:
            raise RaggedCollectionError(f"codes must be an (n, length) matrix, not {codes.ndim}-D")
        check_codes(codes, self.alphabet.sigma, "collection codes")
        if handed_over(codes.T) is None:
            codes = _column_major(*codes.shape, lambda lo, hi: codes[lo:hi])
        object.__setattr__(self, "codes", codes)

    def __eq__(self, other):
        if not isinstance(other, StringCollection):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.codes, other.codes)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def length(self) -> int:
        return self.codes.shape[1]

    @cached_property
    def strings(self) -> tuple[str, ...]:
        flat = self.alphabet.decode(self.codes)
        return tuple(flat[at : at + self.length] for at in range(0, len(flat), self.length))


TRANSPOSE_BYTES = 1 << 19  # codes per block of _column_major: blocks of 256-16 384 rows of 200 took 45-54 ms


def _column_major(n: int, width: int, rows) -> np.ndarray:
    """An (n, width) uint8 matrix in column-major order, as the transpose of a
    read-only (width, n) view of a whole new ``bytearray``: the form a
    :class:`StringCollection` keeps without a copy.  ``rows(lo, hi)`` returns
    rows ``lo..hi-1`` as an integer matrix, and each block of about
    ``TRANSPOSE_BYTES`` codes is copied in one transposed assignment; numpy's
    single ``np.array(order="F")`` of a strided view took 2.9x as long."""
    cols = np.frombuffer(bytearray(n * width), np.uint8).reshape(width, n)
    block = max(1, TRANSPOSE_BYTES // width)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        cols[:, lo:hi] = rows(lo, hi).T
    cols.setflags(write=False)
    return cols.T


def _parse_rows(data: str | bytes, alphabet: Alphabet) -> StringCollection | None:
    """The collection in ``data``, bytes or an ASCII ``str``, when every line of
    it is w >= 1 symbols of the alphabet followed by ``\\n``, with no ``\\r`` and
    no blank line; None for any other input, or when the alphabet holds
    ``\\n`` or ``\\r``, where the line path breaks lines.

    ``data`` is read as an (n, w + 1) matrix whose last column must be all
    ``\\n``.  Each block of its rows is encoded, translated to rank codes by
    ``Alphabet._code_table`` and transposed into the codes
    (:func:`_column_major`), so a ``str`` is never encoded whole.  A
    ``\\r``, a ``\\n`` within a row and every byte outside the alphabet
    reach the codes as the table's 255, and one ``find`` over them refuses
    the lot.
    """
    table = alphabet._code_table
    if table[10] != 255 or table[13] != 255:
        return None
    cr, lf = ("\r", "\n") if isinstance(data, str) else (b"\r", b"\n")
    width = data.find(lf)
    stride = width + 1
    if width < 1 or len(data) % stride or data[width - 1 : width] == cr:
        return None  # a blank or CRLF first line, no newline, or a length that no w + 1 divides
    n = len(data) // stride
    if data[width::stride].count(lf) != n:
        return None

    def rows(lo, hi):
        block = data[lo * stride : hi * stride]
        if isinstance(block, str):
            block = block.encode("ascii")
        return np.frombuffer(block.translate(table), np.uint8).reshape(hi - lo, stride)[:, :width]

    codes = _column_major(n, width, rows)
    if handed_over(codes.T).find(255) >= 0:
        return None
    return StringCollection(alphabet=alphabet, codes=codes)


def from_strings(strings, alphabet: Alphabet | None = None) -> StringCollection:
    """Build a validated collection from an in-memory sequence of strings."""
    alphabet = alphabet or Alphabet()
    strings = tuple(strings)
    if not strings:
        raise EmptyInputError("collection has no strings")
    width = len(strings[0])
    if width == 0:
        raise EmptyInputError("strings must be non-empty")
    ragged = next((i for i, s in enumerate(strings) if len(s) != width), len(strings))
    try:
        # the first ragged line's characters too: a foreign one that changed its length is named as a character
        codes = alphabet.encode("".join(strings[: ragged + 1]))
    except UnknownCharacterError:
        # the first line that fails alone names the line and column
        for lineno, s in enumerate(strings, start=1):
            try:
                alphabet.encode(s)
            except UnknownCharacterError as exc:
                raise UnknownCharacterError(f"line {lineno}: {exc}") from None
    if ragged < len(strings):
        raise RaggedCollectionError(
            f"line {ragged + 1}: length {len(strings[ragged])} differs from length {width} of line 1"
        )
    return StringCollection(alphabet=alphabet, codes=codes.reshape(len(strings), width))


def parse_collection(text: str | bytes, alphabet: Alphabet | None = None) -> StringCollection:
    """Parse strings one per non-empty line; a line ends at LF, CRLF or CR.  Bytes decode
    one character per byte, and the alphabet refuses a non-ASCII one with its line and column.

    Bytes or an ASCII ``str`` (``isascii`` is O(1)) whose every line is one
    width of alphabet symbols ending in ``\\n`` take the byte path
    (:func:`_parse_rows`).  Any other input takes the line path, which splits
    it into strings and names a refusal's line and column.
    """
    alphabet = alphabet or Alphabet()
    if isinstance(text, bytes) or text.isascii():
        collection = _parse_rows(text, alphabet)
        if collection is not None:
            return collection
    if isinstance(text, bytes):
        text = text.decode("ascii", "surrogateescape")
    # the line breaks bytes.splitlines knows: str.splitlines also splits at \x0b,
    # \x0c, \x85 and more, which would hide them from the alphabet check
    if "\r" in text:  # a one-character scan; replace's two-character search is slower
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line for line in text.split("\n") if line]
    if not lines:
        raise EmptyInputError("no input strings")
    return from_strings(lines, alphabet)


def serialize_collection(collection: StringCollection) -> str:
    """Inverse of :func:`parse_collection`, with a single trailing newline."""
    return "\n".join(collection.strings) + "\n"


def suffix(collection: StringCollection, i: int, j: int) -> str:
    """Return ``S_i[j..]``; the empty string when ``j`` equals the length."""
    if not 0 <= i < collection.n:
        raise IndexOutOfRangeError(f"string index {i} not in [0, {collection.n})")
    if not 0 <= j <= collection.length:
        raise IndexOutOfRangeError(f"column {j} not in [0, {collection.length}]")
    return collection.strings[i][j:]
