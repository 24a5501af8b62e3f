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
    ``bytearray`` (:class:`~pbwtidx.pbwt.PbwtInversion` makes its codes so);
    any other matrix is copied into a read-only array, so a caller who
    writes to it later changes no answer.
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
            codes = np.array(codes, np.uint8, order="F")
            codes.setflags(write=False)
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
    one character per byte, and the alphabet refuses a non-ASCII one with its line and column."""
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
